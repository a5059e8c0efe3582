"""Pinned depth-3 -> ROABP reductions.

`pinned_reductions.json` holds the sha256 of the canonical circuit file of
`circuit_to_roabp(c)` for seeded `depth3-distance` circuits (campaign
envelope, p = 10007) and for hand-built circuits with constant forms,
one-variable colors and omitted variables.  It was taken from the
reduction that built each gate's lane as its own matrices and copied them
block-diagonally, so a change of variable order, width, entry or boundary
shows up here as a changed digest.

Regenerate with `PYTHONPATH=src python tests/test_pinned_reductions.py`.
"""

import hashlib
import json
import pathlib

from pitkit.algebra import Field
from pitkit.depth3 import Depth3Circuit, Gate, LinearForm, circuit_to_roabp
from pitkit.io_cli import dumps_canonical, roabp_to_obj
from pitkit.verify import InstanceSpec, _case_overrides, generate_instance

PINNED = pathlib.Path(__file__).with_name("pinned_reductions.json")

SEEDS = range(60)

F = Field(10007)


def _form(constant, **coeffs):
    return LinearForm(constant, {int(v[1:]): c for v, c in coeffs.items()})


# name -> (n, gates as (scale, forms))
HAND_BUILT = {
    "constant-form": (3, [(2, [_form(5), _form(1, x0=3, x1=4), _form(0, x2=7)])]),
    "constant-form-first-var": (2, [(4, [_form(0, x0=1), _form(9), _form(2, x1=1)])]),
    "two-constant-forms": (3, [(1, [_form(3), _form(6), _form(1, x0=1, x1=1, x2=1)])]),
    "zero-constant-form": (2, [(5, [_form(0, x0=1, x1=2), _form(10007)])]),
    "one-variable-colors": (4, [(3, [_form(1, x0=2), _form(4, x1=1), _form(0, x2=5), _form(7, x3=1)])]),
    "omitted-variables": (5, [(2, [_form(0, x0=1, x3=1)]), (6, [_form(1, x1=2), _form(3, x4=1)])]),
    "only-constants": (3, [(8, [_form(2), _form(5)])]),
    "empty-gate": (2, [(7, []), (1, [_form(1, x0=1, x1=1)])]),
    "mixed-distance-two": (
        4,
        [
            (1, [_form(0, x0=1, x1=1), _form(2, x2=1, x3=3)]),
            (5, [_form(1, x0=1, x2=1), _form(0, x1=4), _form(6), _form(3, x3=2)]),
        ],
    ),
    "three-gates-constants": (
        5,
        [
            (2, [_form(4), _form(1, x0=1, x1=2, x2=3)]),
            (3, [_form(0, x0=1), _form(5, x1=1, x2=1), _form(9, x4=1)]),
            (10006, [_form(1, x3=1, x4=1), _form(2)]),
        ],
    ),
}


def _hand_built(name):
    n, gates = HAND_BUILT[name]
    return Depth3Circuit(F, n, tuple(Gate(scale, tuple(forms)) for scale, forms in gates))


def _digest(circuit) -> str:
    text = dumps_canonical(roabp_to_obj(circuit_to_roabp(circuit)))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    out = {}
    for seed in SEEDS:
        spec = InstanceSpec(
            klass="depth3-distance", seed=seed,
            **_case_overrides("depth3-distance", seed, {}),
        )
        out[f"depth3-distance:{seed}"] = _digest(generate_instance(spec))
    for name in HAND_BUILT:
        out[f"hand:{name}"] = _digest(_hand_built(name))
    return out


def test_reductions_match_pins():
    assert digests() == json.loads(PINNED.read_text(encoding="utf-8"))


if __name__ == "__main__":
    PINNED.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
