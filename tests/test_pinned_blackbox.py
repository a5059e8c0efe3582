"""Pinned blackbox outputs: `hs --mode blackbox` stdout plus the point file.

`pinned_blackbox.json` holds one sha256 per (family, parameter tuple,
modulus) of the full output.  `pinned_blackbox_sets.json` holds the sha256
of the sorted distinct points, so a change that only drops repeated points
leaves it as it is.  Both come from the geometric t-sweep (t = g^j).
Width-2 files are a curve through the invertible anchors, so their pinned
set is the anchors, the first `anchor_count` points.  Blackbox sets read
only the declared parameters (n, d, w, s, delta, mu), so any instance with
that tuple gives the same output.
"""

import hashlib
import json
import pathlib
import random

import pytest

from pitkit.algebra import MatPoly
from pitkit.io_cli import load_points, main, save_instance
from pitkit.verify import InstanceSpec, generate_instance, verify_hitting_property

PINNED = pathlib.Path(__file__).with_name("pinned_blackbox.json")
PINNED_SETS = pathlib.Path(__file__).with_name("pinned_blackbox_sets.json")

P31 = 2**31 - 1

# (family, instance class, (n, d, w, s, delta, mu), modulus)
CASES = [
    ("roabp", "roabp", (2, 1, 2, 2, 1, 1), 10007),
    ("roabp", "roabp", (1, 1, 2, 1, 1, 1), 10007),
    ("roabp", "roabp", (2, 2, 1, 1, 2, 1), 10007),
    ("invertible", "invertible-roabp", (1, 1, 2, 1, 1, 1), 10007),
    ("invertible", "invertible-roabp", (2, 2, 2, 1, 1, 1), 10007),
    ("width2", "width2-roabp", (1, 1, 2, 1, 1, 1), P31),
    ("width2", "width2-roabp", (2, 2, 2, 1, 1, 1), 10007),
]


def declared(klass: str, params: tuple, modulus: int):
    """The first generated instance whose derived parameters are `params`."""
    n, d, w, s, delta, mu = params
    for seed in range(1000):
        inst = generate_instance(InstanceSpec(
            klass=klass, seed=seed, modulus=modulus,
            n=n, d=d, w=w, s=s, delta=delta, mu=mu,
        ))
        got = (inst.n, inst.d, inst.width, inst.layer_sparsity, inst.delta,
               inst.layer_support)
        if got == params:
            return inst
    raise AssertionError(f"no instance with parameters {params}")


def run_hs(family: str, klass: str, params: tuple, modulus: int, workdir, capsys):
    """(exit code, stdout) of `hs --mode blackbox` into workdir/points.txt."""
    circuit = workdir / "circuit.json"
    save_instance(declared(klass, params, modulus), str(circuit))
    capsys.readouterr()
    code = main(["hs", family, "--mode", "blackbox", "--input", str(circuit),
                 "--out", "points.txt"])
    return code, capsys.readouterr().out


def distinct_set_digest(path: pathlib.Path) -> str:
    points = load_points(str(path))
    rows = tuple(points.points)[:points.provenance.get("anchor_count")]
    h = hashlib.sha256()
    for pt in sorted(set(rows)):
        h.update((",".join(map(str, pt)) + "\n").encode())
    return h.hexdigest()


def test_blackbox_outputs_match_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    pinned_sets = json.loads(PINNED_SETS.read_text(encoding="utf-8"))
    got, got_sets = {}, {}
    for family, klass, params, modulus in CASES:
        key = f"{family}:{','.join(map(str, params))}:{modulus}"
        code, out = run_hs(family, klass, params, modulus, tmp_path, capsys)
        assert code == 0
        h = hashlib.sha256(out.encode())
        h.update((tmp_path / "points.txt").read_bytes())
        got[key] = h.hexdigest()
        got_sets[key] = distinct_set_digest(tmp_path / "points.txt")
    assert got_sets == pinned_sets
    assert got == pinned


def with_rank_one_layer(inst, seed: int):
    """The instance with layer seed % d made singular: its one monomial
    keeps its exponent and gets a rank-1 coefficient, so the parameters
    stay the same."""
    j = seed % inst.d
    (e, _), = inst.layers[j].terms.items()
    rnd = random.Random(seed)
    u, v = ([rnd.randint(1, inst.field.p - 1) for _ in range(2)] for _ in range(2))
    matrix = tuple(tuple(a * b % inst.field.p for b in v) for a in u)
    layer = MatPoly(inst.field, inst.n, 2, {e: matrix})
    return inst.replace(layers=inst.layers[:j] + (layer,) + inst.layers[j + 1:])


@pytest.mark.parametrize("family, klass, params, size", [
    ("width2", "width2-roabp", (2, 2, 2, 1, 1, 1), 6273),
    ("roabp", "roabp", (3, 2, 2, 2, 1, 1), 864),
])
def test_blackbox_sets_fit_gf_10007(family, klass, params, size, tmp_path, monkeypatch, capsys):
    # each file hits fitting instances: same n, d and w, no larger s, delta,
    # mu; half of the width-2 ones have a singular layer
    monkeypatch.chdir(tmp_path)
    code, out = run_hs(family, klass, params, 10007, tmp_path, capsys)
    assert (code, out.splitlines()[0]) == (0, f"wrote {size} points to points.txt")
    points = load_points(str(tmp_path / "points.txt"))
    n, d, w, s, delta, mu = params
    hit = 0
    for seed in range(200):
        inst = generate_instance(InstanceSpec(
            klass=klass, seed=seed, modulus=10007, n=n, d=d, w=w, s=s,
            delta=delta, mu=mu,
        ))
        if ((inst.n, inst.d, inst.width) == (n, d, w) and inst.layer_sparsity <= s
                and inst.delta <= delta and inst.layer_support <= mu):
            if family == "width2" and seed % 2 == 0:
                inst = with_rank_one_layer(inst, seed)
            report = verify_hitting_property(inst, points)
            assert report.passed and not report.vacuous, seed
            hit += 1
            if hit == 20:
                return
    raise AssertionError(f"only {hit} fitting instances")
