"""Pinned whitebox outputs: provenance and points of seeded envelope instances.

`pinned_outputs.json` holds one sha256 per (class, seed); the roabp
digests come from the geometric t-sweep (t = g^j).  A change of weight
prime, shift prime, t0, t values or point order shows up here as a changed
digest.  The sum-sml campaign report is pinned as well, from the base-set
Kronecker sweep that preceded the cube sweep, so its verdict lines stay
byte-identical.  `pinned_outputs_p61.json` pins the invertible-factor and
width-2 sets of the first seeds at p = 2^61 - 1, where a residue outgrows
one 64-bit word and the width-2 curve sweep reads multi-word slots.
The 200-seed report of every campaign class is pinned at p = 10007 and at
p = 5, where every width-2 case reaches a capability limit.
`pinned_decompose.json` pins the `decompose` payload (stdout, and the same
bytes written by `--out`) of the circuits of `test_pinned_sum_sml.py`.

Regenerate with `PYTHONPATH=src python tests/test_pinned_outputs.py`, which
writes the loader outcomes of `test_pinned_load_outcomes.py` as well.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from pitkit.concentrate import invertible_hitting_set, width2_hitting_set
from pitkit.isolate import roabp_hitting_set
from pitkit.io_cli import main, save_instance
from pitkit.verify import (
    DEFAULT_MODULUS,
    InstanceSpec,
    _case_overrides,
    generate_instance,
    run_campaign,
)
from test_pinned_sum_sml import circuits

PINNED = pathlib.Path(__file__).with_name("pinned_outputs.json")
PINNED_P61 = pathlib.Path(__file__).with_name("pinned_outputs_p61.json")
PINNED_DECOMPOSE = pathlib.Path(__file__).with_name("pinned_decompose.json")
P61 = 2**61 - 1

# sha256 of the stdout of `pitkit verify --class sum-sml --samples 100 --seed 0`
SUM_SML_REPORT = "96851e6c198081a4f31de57339e7a051090e89108f726a5b8042647d87b7f913"

# sha256 of the stdout of `pitkit verify --class CLASS --samples 200 --seed 0
# --modulus P`: the report and its summary line
CAMPAIGN_REPORTS = {
    ("roabp", 10007): "0f0373ef2379bd912f20cf97b150d2e6495e8c0de401fd8b807371f7befd6738",
    ("roabp", 5): "a0da38ce397766295860630253d981474977bc3236ccded45600de0158198885",
    ("invertible-roabp", 10007): "4920e70f4cb5cc87f2f97c7f14e125fd3e71571c67465dacdd64861fc40565a1",
    ("invertible-roabp", 5): "a423c06c97dc3572888d037ebbda082bbd51875a5e2e3156d9b51968d6ea6013",
    ("width2-roabp", 10007): "baad87767183157c4100cde025478e85809b55af25a671c479b4176cd6380660",
    ("width2-roabp", 5): "a3b1c481bdd3d7cfe9363da58e228e2fe96d277c8460a766197d3d8ffd256de7",
    ("depth3-distance", 10007): "c01442fa4dd05ab127751e4adb453d1b9f12259ff021ee562fb5b2b5a3428a36",
    ("depth3-distance", 5): "40579b0e66d4a675ad38d55057fbd6c0f23a056f4e9f2bbc8a261f3a0bc78099",
    ("sum-sml", 10007): "d41fb43cf9db6286d1c23e466a93ee99be344f1ed590297149bfd8ecf52084ea",
    ("sum-sml", 5): "d41fb43cf9db6286d1c23e466a93ee99be344f1ed590297149bfd8ecf52084ea",
}

# sha256 of the stdout of `pitkit verify --class invertible-roabp --samples
# 20 --param w=W`.  Every case passes at w = 3 and 4 (the report shows no
# width, so their reports match), and w = 5 is refused by the determinant's
# width limit.  The whitebox sets of the 20 cases are pinned as well, as one
# sha256 per width over their provenance and points.
WIDE_INVERTIBLE_REPORTS = {
    3: "dcf9da1e3256a96d9fad3d7d5483638b228b370e3cd7ac7c18a3bfbd96ebe4c9",
    4: "dcf9da1e3256a96d9fad3d7d5483638b228b370e3cd7ac7c18a3bfbd96ebe4c9",
    5: "40ef340c4993f7a1694dff9efe17e7b81dae5c209db9adf88c6bb78ad7c0e561",
}
WIDE_INVERTIBLE_SETS = {
    3: "b58f5e4fb2d21a3375a64845dcaf7be871848bf280730c3065fa4431c4289a8d",
    4: "ca2ef8d519d0e566614e60c734162003a118ad074408b8b8f9d54ab33ca5bbaf",
}

GENERATORS = {
    "roabp": lambda inst: roabp_hitting_set(inst, "whitebox"),
    "invertible-roabp": invertible_hitting_set,
    "width2-roabp": width2_hitting_set,
}

# every pinned roabp seed sweeps the constant map, whose image of f is
# nonzero (seeds 17 and 25..137 are ones whose round-combined sweep does
# not fit GF(10007))
SEEDS = {
    "roabp": list(range(20)) + [25, 57, 71, 79, 93, 100, 101, 103, 120, 137],
    "invertible-roabp": list(range(30)),
    "width2-roabp": list(range(13)),
}


# the classes and seeds pinned at p = 2^61 - 1
SEEDS_P61 = {"invertible-roabp": list(range(10)), "width2-roabp": list(range(10))}


def update(h, points) -> None:
    """Feed a set's provenance and points to the hash h."""
    h.update(json.dumps(points.provenance, sort_keys=True).encode())
    for pt in points.points:
        h.update((",".join(map(str, pt)) + "\n").encode())


def digest(klass: str, seed: int, modulus: int = DEFAULT_MODULUS) -> str:
    spec = InstanceSpec(
        klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
    )
    h = hashlib.sha256()
    update(h, GENERATORS[klass](generate_instance(spec)))
    return h.hexdigest()


def digests(seeds: dict = SEEDS, modulus: int = DEFAULT_MODULUS) -> dict[str, str]:
    return {
        f"{klass}:{seed}": digest(klass, seed, modulus)
        for klass, class_seeds in seeds.items()
        for seed in class_seeds
    }


def decompose_digests() -> dict[str, str]:
    """sha256 of the `decompose` stdout per sum-sml pin circuit, after
    checking that `--out` writes the same bytes."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = f"{tmp}/circuit.json", f"{tmp}/decompose.json"
        for key, circuit in circuits():
            save_instance(circuit, path)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(["decompose", "--input", path]) == 0
                assert main(["decompose", "--input", path, "--out", out]) == 0
            text = stdout.getvalue()
            with open(out, encoding="utf-8") as fh:
                payload = fh.read()
            assert text == f"{payload}wrote {json.loads(payload)['m']} base sets to {out}\n"
            got[key] = hashlib.sha256(payload.encode()).hexdigest()
    return got


def test_outputs_match_pins():
    assert digests() == json.loads(PINNED.read_text(encoding="utf-8"))


def test_outputs_at_a_61_bit_prime_match_pins():
    pinned = json.loads(PINNED_P61.read_text(encoding="utf-8"))
    assert digests(SEEDS_P61, P61) == pinned


def test_sum_sml_campaign_report_matches_pin(capsys):
    assert main(["verify", "--class", "sum-sml", "--samples", "100", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUM_SML_REPORT


@pytest.mark.parametrize("klass, modulus", list(CAMPAIGN_REPORTS))
def test_campaign_reports_match_pins(klass, modulus):
    result = run_campaign(klass, 200, seed=0, modulus=modulus)
    report = result.render() + json.dumps(result.summary(), sort_keys=True) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == CAMPAIGN_REPORTS[klass, modulus]


@pytest.mark.parametrize("w", list(WIDE_INVERTIBLE_REPORTS))
def test_wide_invertible_campaigns_match_pins(w, capsys):
    argv = ["verify", "--class", "invertible-roabp", "--samples", "20", "--param", f"w={w}"]
    assert main(argv) == (0 if w < 5 else 3)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_INVERTIBLE_REPORTS[w]
    if w in WIDE_INVERTIBLE_SETS:
        h = hashlib.sha256()
        for seed in range(20):
            spec = InstanceSpec(klass="invertible-roabp", seed=seed, w=w)
            update(h, invertible_hitting_set(generate_instance(spec)))
        assert h.hexdigest() == WIDE_INVERTIBLE_SETS[w]


def test_decompose_payloads_match_pins():
    assert decompose_digests() == json.loads(PINNED_DECOMPOSE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    from test_pinned_load_outcomes import PINNED_LOADS, outcomes

    for path, pins in (
        (PINNED, digests()),
        (PINNED_P61, digests(SEEDS_P61, P61)),
        (PINNED_DECOMPOSE, decompose_digests()),
        (PINNED_LOADS, outcomes()),
    ):
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
