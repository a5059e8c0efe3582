"""Pinned blackbox outputs: `hs --mode blackbox` stdout plus the point file.

`pinned_blackbox.json` holds one sha256 per (family, parameter tuple,
modulus), taken from the generators before the three families moved to one
generator signature.  Blackbox sets read only the declared parameters
(n, d, w, s, delta, mu), so any instance with that tuple gives the same
output.
"""

import hashlib
import json
import pathlib

from pitkit.io_cli import main, save_instance
from pitkit.verify import InstanceSpec, generate_instance

PINNED = pathlib.Path(__file__).with_name("pinned_blackbox.json")

P31 = 2**31 - 1

# (family, instance class, (n, d, w, s, delta, mu), modulus)
CASES = [
    ("roabp", "roabp", (2, 1, 2, 2, 1, 1), 10007),
    ("roabp", "roabp", (1, 1, 2, 1, 1, 1), 10007),
    ("roabp", "roabp", (2, 2, 1, 1, 2, 1), 10007),
    ("invertible", "invertible-roabp", (1, 1, 2, 1, 1, 1), 10007),
    ("invertible", "invertible-roabp", (2, 2, 2, 1, 1, 1), 10007),
    ("width2", "width2-roabp", (1, 1, 2, 1, 1, 1), P31),
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


def digest(family: str, klass: str, params: tuple, modulus: int, workdir, capsys) -> str:
    circuit = workdir / "circuit.json"
    save_instance(declared(klass, params, modulus), str(circuit))
    capsys.readouterr()
    code = main(["hs", family, "--mode", "blackbox", "--input", str(circuit),
                 "--out", "points.txt"])
    out = capsys.readouterr().out
    assert code == 0
    h = hashlib.sha256(out.encode())
    h.update((workdir / "points.txt").read_bytes())
    return h.hexdigest()


def test_blackbox_outputs_match_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = {
        f"{family}:{','.join(map(str, params))}:{modulus}":
            digest(family, klass, params, modulus, tmp_path, capsys)
        for family, klass, params, modulus in CASES
    }
    assert got == pinned
