"""Circuit and point-set files, plus the command-line surface.

Circuit files are canonical JSON (sorted keys, two-space indent, term lists
sorted by exponent vector, residues normalized), so load -> save -> load is
byte-stable.  Point files are a provenance header of '#'-prefixed lines
followed by one comma-separated point per line.

Exit codes: 0 success / verdict confirmed / witness found; 1 verdict
failure (a hitting-property miss or a failed campaign); 2 usage, parse, or
invariant errors; 3 capability limits (ceilings, small modulus).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import stat
import sys
from contextlib import contextmanager
from itertools import chain, islice
from typing import Sequence

from .algebra import DEFAULT_MODULUS, Field, MatPoly, ScalarPoly, trusted
from .depth3 import (
    SWEEP_CEILING,
    Depth3Circuit,
    Gate,
    LinearForm,
    decompose_base_sets,
    sum_sml_whitebox_test,
)
from .errors import CapabilityError, PreconditionError, StructuralError
from .kron import PointFamily
from .roabp import EXPAND_CEILING, PointSet, Roabp
from .verify import CAMPAIGN_CLASSES, HITTING_SETS, InstanceSpec, run_campaign, verify_hitting_property

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

# the most points `hs` builds; the generators size a set before building it,
# so a larger one is refused before any point or file is made
HS_POINT_CEILING = 10**8


# ---------------------------------------------------------------------------
# circuit files


def _var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _exponents_to_obj(e: Sequence[int], names: Sequence[str]) -> dict:
    return {names[i]: v for i, v in enumerate(e) if v}


def _int(value, where: str) -> int:
    """value itself if it is an integer; bools and numeric strings are not."""
    if type(value) is not int:
        raise StructuralError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise StructuralError(f"{where}: expected a list, got {value!r}")
    return value


def _obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise StructuralError(f"{where}: expected an object, got {value!r}")
    return value


def _term_exponents(t, index: dict, n: int, where: str) -> tuple[tuple, list]:
    """The exponent vector of a term object's exponents, and the indices of
    the variables with a nonzero exponent."""
    if not isinstance(t, dict) or "exponents" not in t:
        _require(t, "exponents", where)
    obj = t["exponents"]
    if not isinstance(obj, dict):
        _obj(obj, f"{where}: exponents")
    e = [0] * n
    support = []
    for name, v in obj.items():
        i = index.get(name)
        if i is None:
            raise StructuralError(f"{where}: unknown variable {name!r}")
        if type(v) is not int or v < 0:
            raise StructuralError(f"{where}: bad exponent for {name!r}")
        if v:
            e[i] = v
            support.append(i)
    return tuple(e), support


def roabp_to_obj(r: Roabp) -> dict:
    names = _var_names(r.n)
    layers = []
    for layer in r.layers:
        terms = [
            {"exponents": _exponents_to_obj(e, names), "matrix": [list(row) for row in m]}
            for e, m in sorted(layer.terms.items())
        ]
        layers.append(terms)

    def vec_obj(vec):
        out = []
        for poly in vec:
            out.append(
                [
                    {"exponents": _exponents_to_obj(e, names), "value": c}
                    for e, c in sorted(poly.terms.items())
                ]
            )
        return out

    return {
        "format": FORMAT_VERSION,
        "kind": "roabp",
        "modulus": r.field.p,
        "width": r.width,
        "variables": names,
        "blocks": [[names[v] for v in blk] for blk in r.blocks],
        "left_block": [names[v] for v in r.left_block],
        "right_block": [names[v] for v in r.right_block],
        "layers": layers,
        "left_boundary": vec_obj(r.left_boundary),
        "right_boundary": vec_obj(r.right_boundary),
    }


def depth3_to_obj(c: Depth3Circuit) -> dict:
    names = _var_names(c.n)
    gates = []
    for gate in c.gates:
        forms = [
            {
                "const": f.constant,
                "coeffs": {names[v]: coef for v, coef in sorted(f.coeffs.items())},
            }
            for f in gate.forms
        ]
        gates.append({"scale": gate.scale, "forms": forms})
    return {
        "format": FORMAT_VERSION,
        "kind": "depth3",
        "modulus": c.field.p,
        "variables": names,
        "gates": gates,
    }


def instance_to_obj(instance) -> dict:
    if isinstance(instance, Roabp):
        return roabp_to_obj(instance)
    if isinstance(instance, Depth3Circuit):
        return depth3_to_obj(instance)
    raise StructuralError(f"cannot serialize {type(instance).__name__}")


def _require(obj: dict, key: str, where: str):
    if key not in _obj(obj, where):
        raise StructuralError(f"{where}: missing field {key!r}")
    return obj[key]


def obj_to_instance(obj: dict, modulus_override: int | None = None):
    """The instance a parsed circuit file describes, checked and reduced mod
    p in one pass (see `_roabp_from_obj` and `_depth3_from_obj`)."""
    where = "circuit file"
    if not isinstance(obj, dict):
        raise StructuralError(f"{where}: top level must be an object")
    version = _require(obj, "format", where)
    if type(version) is not int or version != FORMAT_VERSION:
        raise StructuralError(f"{where}: unsupported format version {version}")
    modulus = (
        modulus_override
        if modulus_override is not None
        else _int(_require(obj, "modulus", where), f"{where}: modulus")
    )
    field = Field(modulus)
    names = _list(_require(obj, "variables", where), f"{where}: variables")
    if not all(isinstance(name, str) for name in names):
        raise StructuralError(f"{where}: variables must be strings")
    if len(set(names)) != len(names):
        raise StructuralError(f"{where}: variables declared more than once")
    index = {name: i for i, name in enumerate(names)}
    kind = _require(obj, "kind", where)
    if kind == "roabp":
        return _roabp_from_obj(obj, field, index, where)
    if kind == "depth3":
        return _depth3_from_obj(obj, field, index, where)
    raise StructuralError(f"{where}: unknown kind {kind!r}")


def _roabp_from_obj(obj: dict, field: Field, index: dict, where: str) -> Roabp:
    """The ROABP of a circuit file, built as `Roabp(...)` would build it
    from the file's values, with every check of the file and of `Roabp`
    made once as the values are read and reduced mod p.  A term outside its
    block is reported only after the whole file has parsed, as `Roabp`
    reports it.  Terms and their values are checked inline, and the message
    of a value that fails is built only then."""
    n, p = len(index), field.p
    mod = p.__rmod__  # v -> v % p
    width = _int(_require(obj, "width", where), f"{where}: width")
    if width < 1:
        raise StructuralError(f"{where}: width must be at least 1")
    block_names = _list(_require(obj, "blocks", where), f"{where}: blocks")
    seen: dict[str, int] = {}
    all_blocks = [obj.get("left_block", [])] + block_names + [obj.get("right_block", [])]
    for b_idx, blk in enumerate(all_blocks):
        for name in _list(blk, f"{where}: block {b_idx}"):
            if not isinstance(name, str) or name not in index:
                raise StructuralError(f"{where}: unknown variable {name!r} in blocks")
            if name in seen:
                raise StructuralError(
                    f"blocks not disjoint: {name} in blocks {seen[name]} and {b_idx}"
                )
            seen[name] = b_idx
    left_block, *blocks, right_block = (
        tuple(map(index.__getitem__, blk)) for blk in all_blocks
    )
    layer_objs = _list(_require(obj, "layers", where), f"{where}: layers")
    if len(layer_objs) != len(blocks):
        raise StructuralError(f"{where}: {len(layer_objs)} layers for {len(blocks)} blocks")
    faults = []  # terms outside their block, in the order Roabp checks them
    layers = []
    for li, (terms, blk) in enumerate(zip(layer_objs, blocks)):
        at = f"layer {li}"
        allowed, term_map, read = set(blk), {}, set()
        for t in _list(terms, at):
            e, support = _term_exponents(t, index, n, at)
            if e in read:
                raise StructuralError(f"{at}: repeated exponents {t['exponents']}")
            read.add(e)
            rows = _require(t, "matrix", at)
            if not isinstance(rows, list):
                _list(rows, f"{at}: matrix")
            if len(rows) != width or not all(
                isinstance(row, list) and len(row) == width for row in rows
            ):
                for row in rows:
                    _list(row, f"{at}: matrix row")
                raise StructuralError(f"{at}: matrix is not {width}x{width}")
            for row in rows:
                for v in row:
                    if type(v) is not int:
                        _int(v, f"{at}: matrix entry")
            m = tuple([tuple(map(mod, row)) for row in rows])
            if any(map(any, m)):
                term_map[e] = m
                if not allowed.issuperset(support):
                    faults.append(f"{at} uses variables outside its block")
        layers.append(trusted(MatPoly, field=field, n=n, w=width, terms=term_map))

    def vec_from(key: str, side: str, blk: tuple) -> tuple:
        entries = _list(_require(obj, key, where), f"{where}: {key}")
        if len(entries) != width:
            raise StructuralError(f"{where}: {key} must have {width} entries")
        allowed, out = set(blk), []
        for ei, poly_terms in enumerate(entries):
            if not isinstance(poly_terms, list):
                _list(poly_terms, f"{key} entry")
            term_map, read = {}, set()
            for t in poly_terms:
                e, support = _term_exponents(t, index, n, key)
                if e in read:
                    raise StructuralError(
                        f"{key} entry {ei}: repeated exponents {t['exponents']}"
                    )
                read.add(e)
                c = _require(t, "value", key)
                if type(c) is not int:
                    _int(c, f"{key}: value")
                c %= p
                if c:
                    term_map[e] = c
                    if not allowed.issuperset(support):
                        faults.append(f"{side} boundary uses variables outside its block")
            out.append(trusted(ScalarPoly, field=field, n=n, terms=term_map))
        return tuple(out)

    left = vec_from("left_boundary", "left", left_block)
    right = vec_from("right_boundary", "right", right_block)
    if faults:
        raise StructuralError(faults[0])
    return trusted(
        Roabp, field=field, n=n, width=width, blocks=tuple(blocks), layers=tuple(layers),
        left_boundary=left, right_boundary=right,
        left_block=left_block, right_block=right_block,
    )


def _depth3_from_obj(obj: dict, field: Field, index: dict, where: str) -> Depth3Circuit:
    """The depth-3 circuit of a circuit file, built as `Depth3Circuit(...)`
    would build it, with every value checked and reduced mod p once as it
    is read.  Multilinearity is checked on the reduced forms, and a repeated
    variable is reported only after the whole file has parsed, naming the
    variable `Depth3Circuit` names.  Forms and their values are checked
    inline, as in `_roabp_from_obj`."""
    p = field.p
    faults, gates = [], []
    for gi, g in enumerate(_list(_require(obj, "gates", where), f"{where}: gates")):
        at = f"gate {gi}"
        forms = []
        used: set[int] = set()
        for f in _list(_require(g, "forms", at), f"{at}: forms"):
            if not isinstance(f, dict):
                _obj(f, f"{at}: form")
            coeff_objs = f.get("coeffs", {})
            if not isinstance(coeff_objs, dict):
                _obj(coeff_objs, f"{at}: coeffs")
            coeffs = {}
            for name, coef in coeff_objs.items():
                v = index.get(name)
                if v is None:
                    raise StructuralError(f"{at}: unknown variable {name!r}")
                if type(coef) is not int:
                    _int(coef, f"{at}: coefficient")
                coef %= p
                if coef:
                    coeffs[v] = coef
            constant = f.get("const", 0)
            if type(constant) is not int:
                _int(constant, f"{at}: const")
            if not used.isdisjoint(coeffs):
                v = next(v for v in frozenset(coeffs) if v in used)
                faults.append(f"{at} is not multilinear: variable {v} repeats")
            used.update(coeffs)
            forms.append(trusted(LinearForm, constant=constant % p, coeffs=coeffs))
        scale = _int(_require(g, "scale", at), f"{at}: scale")
        gates.append(trusted(Gate, scale=scale % p, forms=tuple(forms)))
    if faults:
        raise StructuralError(faults[0])
    return trusted(Depth3Circuit, field=field, n=len(index), gates=tuple(gates))


_json_str = json.encoder.encode_basestring_ascii


def dumps_canonical(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, byte for byte.

    json runs its C encoder only without indent, so this writer lays out
    the indented text itself, into one list; dict keys must be strings."""
    out: list[str] = []
    _dump_into(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _dump_into(value, newline: str, out: list) -> None:
    """Append the JSON text of value, each of its lines after the first
    starting with newline: strings through json's C string encoder, ints
    through int.__repr__, dicts (keys sorted) and lists or tuples two
    spaces deeper per level, and any other value as json.dumps(value), so
    floats, bools and None are json's own text, and a type json cannot
    encode raises its TypeError.  The str and int items of a dict or list
    are written in its loop, without a call each."""
    cls = type(value)
    if cls is str:
        out.append(_json_str(value))
    elif cls is int:
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is int:
                out.append(sep + int.__repr__(item))
            elif kind is str:
                out.append(sep + _json_str(item))
            else:
                out.append(sep)
                _dump_into(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            head = sep + _json_str(key) + ": "
            if kind is int:
                out.append(head + int.__repr__(item))
            elif kind is str:
                out.append(head + _json_str(item))
            else:
                out.append(head)
                _dump_into(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


@contextmanager
def _overwrite(path: str):
    """open(path, "w") without truncating first, which costs more on an
    existing file: a regular file is truncated at the final position, also
    after a write that raised; a device or FIFO is written as it is."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def save_instance(instance, path: str) -> None:
    with _overwrite(path) as fh:
        fh.write(dumps_canonical(instance_to_obj(instance)))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook refusing a repeated key, which json.load would
    silently resolve to its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise StructuralError(f"circuit file: repeated key {key!r}")
            seen.add(key)
    return obj


# one decoder for every circuit file; json.load would build a decoder and
# its C scanner per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_instance(path: str, modulus_override: int | None = None):
    """Parse a circuit file and build its instance in one checking pass
    (see `obj_to_instance`); the modulus is checked by `Field(modulus)`.
    A leading byte-order mark is refused, as json.loads refuses it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return obj_to_instance(obj, modulus_override)


# ---------------------------------------------------------------------------
# point files


# points formatted by one `%` and written by one call; a block, not the
# whole file, is held as one string
_POINTS_PER_WRITE = 1024


def save_points(points: PointSet, path: str) -> str:
    """Provenance header, then one point per line as comma-separated
    residues.  The points are read from one iteration of the set, a block
    at a time, so a lazy family is streamed to the file, over any file
    already there (see `_overwrite`).  Returns the provenance JSON of the
    header."""
    rows = iter(points.points)
    line = ",".join(["%d"] * points.n) + "\n"
    provenance = json.dumps(points.provenance, sort_keys=True)
    with _overwrite(path) as fh:
        fh.write(f"# pitkit points n={points.n} count={len(points)}\n")
        fh.write(f"# provenance: {provenance}\n")
        while chunk := tuple(islice(rows, _POINTS_PER_WRITE)):
            fh.write(line * len(chunk) % tuple(chain.from_iterable(chunk)))
    return provenance


class _Header:
    """What the '#' lines of a point file declare.  A value that does not
    parse, a negative n, a repeated n= or count=, or a second
    `pitkit points` or `provenance:` line is a bad header line."""

    def __init__(self, path: str):
        self.path = path
        self.n: int | None = None
        self.count: int | None = None
        self.count_line = 0
        self.provenance: dict | None = None
        self.declared = False  # a `pitkit points` line was read

    def read(self, line: str, line_no: int) -> None:
        """`line` is stripped and starts with '#'."""
        body = line[1:].strip()
        try:
            if body.startswith("pitkit points"):
                if self.declared:
                    raise ValueError("repeated pitkit points line")
                self.declared = True
                for chunk in body.split():
                    if chunk.startswith("n="):
                        if self.n is not None:
                            raise ValueError("repeated n")
                        self.n = int(chunk[2:])
                        if self.n < 0:
                            raise ValueError("negative n")
                    elif chunk.startswith("count="):
                        if self.count is not None:
                            raise ValueError("repeated count")
                        self.count, self.count_line = int(chunk[6:]), line_no
            elif body.startswith("provenance:"):
                if self.provenance is not None:
                    raise ValueError("repeated provenance line")
                provenance = json.loads(body.split(":", 1)[1])
                if not isinstance(provenance, dict):
                    raise ValueError("provenance is not a JSON object")
                self.provenance = provenance
        except ValueError as exc:  # json.JSONDecodeError included
            raise StructuralError(f"{self.path}:{line_no}: bad header line") from exc

    def check_count(self, lines: int) -> None:
        if self.count is not None and self.count != lines:
            raise StructuralError(
                f"{self.path}:{self.count_line}: header count={self.count} "
                f"but {lines} point lines"
            )


def _canonical_body(n: int) -> re.Pattern:
    """Lines of exactly n comma-separated digit strings, each ending in a
    newline; possessive, so a mismatch fails without backtracking."""
    return re.compile(rb"(?:[0-9]++(?:,[0-9]++){%d}\n)*+" % (n - 1))


def load_points(path: str) -> PointSet:
    """Read a point file once.  A canonical file (ASCII, '#' header lines
    first, then lines of n digit strings) is checked in one pass, and its
    points are a `kron.PointFamily` that parses one line per step, so a
    reader that stops at a witness parses no further; any other file goes
    through the line loop.  A malformed header, a header count that differs
    from the number of point lines, or a bad point line is a
    StructuralError; in a canonical file, a value past the interpreter's
    digit limit raises only when iteration reaches its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    # the line loop decodes UTF-8 and breaks lines at '\r' as well
    if data.isascii() and b"\r" not in data:
        header = _Header(path)
        pos = line_no = 0
        while data.startswith(b"#", pos):
            end = data.find(b"\n", pos) + 1 or len(data)
            line_no += 1
            header.read(data[pos:end].decode().strip(), line_no)
            pos = end
        if header.n and _canonical_body(header.n).fullmatch(data, pos):
            count = data.count(b"\n", pos)
            header.check_count(count)

            def rows():
                start = pos
                for at in range(line_no + 1, line_no + 1 + count):
                    end = data.find(b"\n", start)
                    try:
                        point = tuple(map(int, data[start:end].split(b",")))
                    except ValueError as exc:
                        raise StructuralError(f"{path}:{at}: bad point line") from exc
                    yield point
                    start = end + 1

            return PointSet(header.n, PointFamily(count, rows), header.provenance or {})
    return _read_point_lines(path, data)


def _read_point_lines(path: str, data: bytes) -> PointSet:
    """The line loop: blank lines, surrounding whitespace, '#' lines
    anywhere and any line ending are accepted, and every point is parsed
    and must have the header's n values (the first point's, without one)."""
    header = _Header(path)
    pts = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.read(line, line_no)
                continue
            try:
                pts.append(tuple(map(int, line.split(","))))
            except ValueError as exc:
                raise StructuralError(f"{path}:{line_no}: bad point line") from exc
    header.check_count(len(pts))
    n = header.n
    if n is None:
        if not pts:
            raise StructuralError(f"{path}: empty point file without a header")
        n = len(pts[0])
    for pt in pts:
        if len(pt) != n:
            raise StructuralError(f"point {pt} has length {len(pt)}, ambient is {n}")
    return PointSet(n, tuple(pts), header.provenance or {})


# ---------------------------------------------------------------------------
# CLI


# each instance type a command may require, named as in its message
_KINDS = {Roabp: "an roabp", Depth3Circuit: "a depth3"}


def _load(args, kind: type, command: str):
    """The instance of --input (mod --modulus, if given), which must be a `kind`."""
    instance = load_instance(args.input, args.modulus)
    if not isinstance(instance, kind):
        raise PreconditionError(f"{command} expects {_KINDS[kind]} circuit file")
    return instance


def _cmd_hs(args) -> int:
    instance = _load(args, Roabp, "hs")
    points = HITTING_SETS[args.family](instance, args.mode)
    if points.size > HS_POINT_CEILING:
        raise CapabilityError(
            f"hitting set of {points.size} points exceeds the ceiling {HS_POINT_CEILING}"
        )
    if args.out:
        provenance = save_points(points, args.out)
        print(f"wrote {len(points)} points to {args.out}")
    else:
        provenance = json.dumps(points.provenance, sort_keys=True)
        print(f"generated {len(points)} points")
    print(provenance)
    return EXIT_OK


def _cmd_test(args) -> int:
    instance = load_instance(args.input, args.modulus)
    points = load_points(args.points)
    # refused as the first point's evaluation would be, also with no point
    if points.n != instance.n:
        raise StructuralError(f"point length {points.n} != ambient {instance.n}")
    report = verify_hitting_property(instance, points)
    print(report.line("test"))
    return EXIT_OK if report.passed else EXIT_VERDICT


def _cmd_whitebox(args) -> int:
    instance = _load(args, Depth3Circuit, "whitebox sum-sml")
    result = sum_sml_whitebox_test(instance, sweep_ceiling=args.ceiling)
    decomp = decompose_base_sets(instance.distinct_partitions())
    print(
        f"partitions: {decomp.partition_count}; base sets: {decomp.m} "
        f"(cap {decomp.cap:.2f}); sweep size: {result.sweep}"
    )
    if result.verdict == "nonzero":
        print(f"verdict: nonzero at {','.join(str(v) for v in result.witness)}")
    else:
        print("verdict: zero")
    return EXIT_OK


def _cmd_distance(args) -> int:
    instance = _load(args, Depth3Circuit, "distance")
    order, dist = instance.distance_order
    print(f"distance: {dist}")
    print(f"gate order: {' '.join(str(i) for i in order)}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    instance = _load(args, Depth3Circuit, "decompose")
    decomp = decompose_base_sets(instance.distinct_partitions())
    names = _var_names(instance.n)
    payload = {
        "m": decomp.m,
        "cap": decomp.cap,
        "base_sets": [
            {
                "variables": [names[v] for v in sorted(cert.base_set)],
                "order": list(cert.order),
                "distance": cert.distance,
            }
            for cert in decomp.certificates
        ],
    }
    text = dumps_canonical(payload)
    if args.out:
        with _overwrite(args.out) as fh:
            fh.write(text)
        print(f"wrote {decomp.m} base sets to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_expand(args) -> int:
    instance = load_instance(args.input, args.modulus)
    if isinstance(instance, Roabp):
        _, scalar = instance.expand(args.ceiling)
    else:
        scalar = instance.expand(args.ceiling)
    names = _var_names(scalar.n)
    print(f"terms: {scalar.sparsity}")
    for e, ccoef in sorted(scalar.terms.items()):
        mono = "*".join(
            f"{names[i]}^{v}" if v > 1 else names[i] for i, v in enumerate(e) if v
        )
        print(f"{ccoef} {mono}" if mono else f"{ccoef}")
    print(f"zero: {'yes' if scalar.is_zero() else 'no'}")
    return EXIT_OK


def _campaign_param(klass: str, item: str) -> tuple[str, int | bool]:
    """KEY=VALUE for a KEY the generator of `klass` reads (see
    `verify.CAMPAIGN_CLASSES`), parsed by the type of KEY's InstanceSpec
    default: a flag takes true or false, any other field an integer."""
    key, _, value = item.partition("=")
    if not value:
        raise StructuralError(f"bad --param {item!r}; expected key=value")
    _, keys = CAMPAIGN_CLASSES[klass]
    if key not in keys:
        raise StructuralError(
            f"unknown --param {key!r} for class {klass}; expected one of {', '.join(keys)}"
        )
    if type(getattr(InstanceSpec(klass, 0), key)) is bool:
        if value.lower() not in ("true", "false"):
            raise StructuralError(f"bad --param {item!r}; expected true or false")
        return key, value.lower() == "true"
    try:
        return key, int(value)
    except ValueError:
        raise StructuralError(f"bad --param {item!r}; expected an integer") from None


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.param or []:
        key, value = _campaign_param(args.klass, item)
        if key in overrides:
            raise StructuralError(f"repeated --param {key!r}")
        overrides[key] = value
    result = run_campaign(
        args.klass, args.samples, seed=args.seed,
        modulus=DEFAULT_MODULUS if args.modulus is None else args.modulus,
        **overrides,
    )
    print(result.render(), end="")
    print(json.dumps(result.summary(), sort_keys=True))
    if result.failed:
        return EXIT_VERDICT
    return EXIT_CAPABILITY if result.limited else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitkit",
        description="Deterministic polynomial identity testing over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that reads a circuit file
    circuit = argparse.ArgumentParser(add_help=False)
    circuit.add_argument("--input", required=True)
    circuit.add_argument("--modulus", type=int)

    hs = sub.add_parser("hs", parents=[circuit], help="generate a hitting set for an ROABP file")
    hs.add_argument("family", choices=list(HITTING_SETS))
    hs.add_argument("--mode", choices=["whitebox", "blackbox"], default="whitebox")
    hs.add_argument("--out")
    hs.set_defaults(func=_cmd_hs)

    test = sub.add_parser("test", parents=[circuit], help="check a point set against an instance")
    test.add_argument("--points", required=True)
    test.set_defaults(func=_cmd_test)

    wb = sub.add_parser("whitebox", parents=[circuit], help="whitebox zero tests")
    wb.add_argument("family", choices=["sum-sml"])
    wb.add_argument("--ceiling", type=int, default=SWEEP_CEILING)
    wb.set_defaults(func=_cmd_whitebox)

    dist = sub.add_parser("distance", parents=[circuit],
                          help="partition distance of a depth3 file")
    dist.set_defaults(func=_cmd_distance)

    dec = sub.add_parser("decompose", parents=[circuit],
                         help="base-set decomposition of a depth3 file")
    dec.add_argument("--out")
    dec.set_defaults(func=_cmd_decompose)

    exp = sub.add_parser("expand", parents=[circuit], help="expand an instance (oracle)")
    exp.add_argument("--ceiling", type=int, default=EXPAND_CEILING)
    exp.set_defaults(func=_cmd_expand)

    ver = sub.add_parser("verify", help="run a seeded campaign")
    ver.add_argument("--class", dest="klass", required=True, choices=list(CAMPAIGN_CLASSES))
    ver.add_argument("--samples", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--modulus", type=int)
    ver.add_argument("--param", action="append", metavar="KEY=VALUE")
    ver.set_defaults(func=_cmd_verify)
    parser.commands = sub.choices  # the parser of each subcommand, for main
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:  # no command, -h or an unknown one: the top parser reports it
        args = _PARSER.parse_args(argv)
    else:  # as the top parser would parse it, without walking argv twice
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (StructuralError, PreconditionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
