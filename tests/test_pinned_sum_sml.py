"""Pinned `whitebox sum-sml` stdout: verdict, witness and sweep size.

`pinned_sum_sml.json` holds one sha256 of the stdout per circuit: seeded
sum-sml circuits with n = 3..13, c = 1..3, engineered zero and nonzero, at
p in {3, 10007, 2^61 - 1}, each also with every form's constant cleared,
which moves nonzero witnesses off the all-zeros point.  The digests were
taken from the blocked cube sweep, before the coefficient route existed,
so both routes are held to its stdout byte for byte.
"""

import hashlib
import json
import pathlib

from pitkit.depth3 import Depth3Circuit, Gate
from pitkit.io_cli import main, save_instance
from pitkit.verify import InstanceSpec, generate_instance

PINNED = pathlib.Path(__file__).with_name("pinned_sum_sml.json")

MODULI = (3, 10007, 2**61 - 1)


def _without_constants(c: Depth3Circuit) -> Depth3Circuit:
    gates = tuple(
        Gate(g.scale, tuple(f.replace(constant=0) for f in g.forms)) for g in c.gates
    )
    return Depth3Circuit(c.field, c.n, gates)


def circuits():
    for modulus in MODULI:
        for n in range(3, 14):
            for c in (1, 2, 3):
                for zero in (False, True):
                    spec = InstanceSpec(klass="sum-sml", seed=n, modulus=modulus, n=n,
                                        k=c + 1, c=c, engineered_zero=zero)
                    key = f"{modulus}:n{n}:c{c}:{'zero' if zero else 'nonzero'}"
                    circuit = generate_instance(spec)
                    yield key, circuit
                    yield f"{key}:late", _without_constants(circuit)


def stdout_digests(tmp_path, capsys) -> dict:
    got = {}
    for key, circuit in circuits():
        path = tmp_path / "circuit.json"
        save_instance(circuit, str(path))
        assert main(["whitebox", "sum-sml", "--input", str(path)]) == 0
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return got


def test_whitebox_sum_sml_stdout_matches_pins(tmp_path, capsys):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert stdout_digests(tmp_path, capsys) == pinned
