"""Seeded instance generators, exhaustive zero oracles, and campaign
harnesses.

All randomness comes from a counter-based stream: draw i of a stream seeded
with s is derived from SHA-256(f"{s}:{i}".encode()), consumed 8 bytes at a
time, each 64-bit chunk reduced modulo the requested range.  The algorithm
is pinned here so campaigns are reproducible across implementations.
Instances marked nonzero are rejection-sampled against their zero oracle
(`Roabp.is_zero` for an ROABP, `Depth3Circuit.is_zero` for a depth-3
circuit), so hitting campaigns never count vacuous passes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Collection, Sequence

from .algebra import DEFAULT_MODULUS, Field, Frozen, MatPoly, ScalarPoly, mat_det
from .concentrate import invertible_hitting_set, width2_hitting_set
from .depth3 import (
    Depth3Circuit,
    Gate,
    LinearForm,
    Partition,
    circuit_to_roabp,
    sum_sml_whitebox_test,
)
from .errors import CapabilityError, StructuralError
from .isolate import roabp_hitting_set
from .roabp import Roabp

REJECTION_BUDGET = 400

# family -> generator(instance, mode); each entry looks its generator up
# per call, so rebinding the module-level name (as the benchmark's tracer
# does) reaches the CLI and the campaigns.  Campaign class `F-roabp` (or
# `roabp`) uses family F.
HITTING_SETS = {
    "roabp": lambda *args: roabp_hitting_set(*args),
    "invertible": lambda *args: invertible_hitting_set(*args),
    "width2": lambda *args: width2_hitting_set(*args),
}


class DetStream:
    """Deterministic pseudo-random stream keyed by (seed, counter)."""

    def __init__(self, seed: int | str):
        self._seed = str(seed)
        self._counter = 0
        self._words: list[int] = []  # the current digest's unread words, last one next

    def _chunk(self) -> int:
        """The next 64-bit word: each SHA-256 digest of "seed:counter" gives
        four, read big-endian in order."""
        if not self._words:
            digest = hashlib.sha256(
                f"{self._seed}:{self._counter}".encode()
            ).digest()
            self._counter += 1
            self._words = list(struct.unpack(">4Q", digest))
            self._words.reverse()
        return self._words.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (64-bit reduction)."""
        if hi < lo:
            raise StructuralError("empty range")
        return lo + self._chunk() % (hi - lo + 1)

    def shuffled(self, seq: Sequence) -> list:
        items = list(seq)
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
        return items

    def nonzero(self, field: Field) -> int:
        return self.randint(1, field.p - 1)

    def residue(self, field: Field) -> int:
        return self.randint(0, field.p - 1)


class InstanceSpec(Frozen):
    """Deterministic description of one generated instance."""

    __match_args__ = (
        "klass", "seed", "modulus", "n", "d", "w", "delta", "s", "mu", "k", "c",
        "nonzero", "force_singular", "invertible_constant", "engineered_zero",
    )

    def __init__(
        self,
        klass: str,  # a key of CAMPAIGN_CLASSES
        seed: int,
        modulus: int = DEFAULT_MODULUS,
        n: int = 4,
        d: int = 3,
        w: int = 2,
        delta: int = 2,
        s: int = 3,
        mu: int = 2,
        k: int = 2,
        c: int = 2,
        nonzero: bool = True,
        force_singular: bool = False,
        invertible_constant: bool = False,
        engineered_zero: bool = False,
    ) -> None:
        positive = (("n", n), ("d", d), ("w", w), ("s", s), ("mu", mu), ("k", k), ("c", c))
        for name, value in positive:
            if value < 1:
                raise StructuralError(f"instance parameter {name}={value} must be at least 1")
        if delta < 0:
            raise StructuralError(f"instance parameter delta={delta} must be nonnegative")
        self.__dict__.update(
            klass=klass, seed=seed, modulus=modulus, n=n, d=d, w=w, delta=delta, s=s,
            mu=mu, k=k, c=c, nonzero=nonzero, force_singular=force_singular,
            invertible_constant=invertible_constant, engineered_zero=engineered_zero,
        )


# ---------------------------------------------------------------------------
# generators


def _random_matrix(stream: DetStream, field: Field, w: int) -> tuple:
    return tuple(tuple(stream.residue(field) for _ in range(w)) for _ in range(w))


def _random_invertible_matrix(stream: DetStream, field: Field, w: int) -> tuple:
    for _ in range(REJECTION_BUDGET):
        m = _random_matrix(stream, field, w)
        if mat_det(m, field) != 0:
            return m
    raise CapabilityError("could not sample an invertible matrix")


def _random_exponent(
    stream: DetStream, n: int, block: Sequence[int], delta: int, mu: int
) -> tuple:
    e = [0] * n
    if delta == 0 or not block:
        return tuple(e)
    support_size = stream.randint(1, min(mu, len(block)))
    vars_ = stream.shuffled(block)[:support_size]
    for v in vars_:
        e[v] = stream.randint(1, delta)
    return tuple(e)


def _random_layer(
    stream: DetStream, field: Field, n: int, w: int, block: Sequence[int], spec: InstanceSpec
) -> MatPoly:
    terms: dict = {}
    zero = (0,) * n
    if spec.invertible_constant:
        terms[zero] = _random_invertible_matrix(stream, field, w)
    remaining = spec.s - len(terms)
    for _ in range(remaining):
        e = _random_exponent(stream, n, block, spec.delta, spec.mu)
        terms[e] = _random_matrix(stream, field, w)
    return MatPoly(field, n, w, terms)


def _random_singular_layer(
    stream: DetStream, field: Field, n: int, block: Sequence[int], spec: InstanceSpec
) -> MatPoly:
    """A symbolically singular nonzero 2x2 layer: an outer product of two
    sparse vector polynomials over the block."""
    while True:
        def vec() -> tuple[ScalarPoly, ScalarPoly]:
            out = []
            for _ in range(2):
                terms = {}
                for _ in range(stream.randint(1, 2)):
                    e = _random_exponent(stream, n, block, spec.delta, spec.mu)
                    terms[e] = stream.residue(field)
                out.append(ScalarPoly(field, n, terms))
            return tuple(out)

        col, row = vec(), vec()
        grid = [[col[i] * row[j] for j in range(2)] for i in range(2)]
        layer = MatPoly.from_entries(grid)
        if not layer.is_zero():
            return layer


def _split_blocks(stream: DetStream, n: int, d: int) -> list[tuple[int, ...]]:
    variables = stream.shuffled(range(n))
    cuts = sorted(stream.shuffled(range(1, n))[: d - 1]) if d > 1 else []
    blocks = []
    prev = 0
    for cut in cuts + [n]:
        blocks.append(tuple(sorted(variables[prev:cut])))
        prev = cut
    return blocks


def _rejection_sample(spec: InstanceSpec, draw):
    """The first instance `draw(stream)` returns, trying the streams
    f"{klass}:{seed}:{attempt}" in turn: an attempt is rejected when draw
    returns None or, for a nonzero spec, a zero instance."""
    for attempt in range(REJECTION_BUDGET):
        instance = draw(DetStream(f"{spec.klass}:{spec.seed}:{attempt}"))
        if instance is not None and not (spec.nonzero and instance.is_zero()):
            return instance
    raise CapabilityError(f"rejection budget exhausted for {spec}")


def _generate_roabp(spec: InstanceSpec, nonsingular: bool = False) -> Roabp:
    """An ROABP of the spec; with `nonsingular`, every layer's determinant
    is a nonzero polynomial."""
    if spec.force_singular and spec.w != 2:
        raise StructuralError(f"force_singular=True needs w=2, got w={spec.w}")
    field = Field(spec.modulus)
    n = spec.n
    d = min(spec.d, n)

    def draw(stream: DetStream) -> Roabp | None:
        blocks = _split_blocks(stream, n, d)
        layers = []
        singular_at = set()
        if spec.force_singular:
            count = stream.randint(1, max(1, d // 2))
            singular_at = set(stream.shuffled(range(d))[:count])
        for i, block in enumerate(blocks):
            if i in singular_at:
                layers.append(_random_singular_layer(stream, field, n, block, spec))
                continue
            layer = _random_layer(stream, field, n, spec.w, block, spec)
            if nonsingular or spec.invertible_constant:
                budget = REJECTION_BUDGET
                while layer.is_singular() and budget:
                    layer = _random_layer(stream, field, n, spec.w, block, spec)
                    budget -= 1
                if budget == 0:
                    return None
            layers.append(layer)
        left = tuple(stream.residue(field) for _ in range(spec.w))
        right = tuple(stream.residue(field) for _ in range(spec.w))
        if all(v == 0 for v in left):
            left = (1,) + left[1:]
        if all(v == 0 for v in right):
            right = (1,) + right[1:]
        return Roabp.with_constant_boundaries(field, n, blocks, layers, left, right)

    return _rejection_sample(spec, draw)


def _random_partition(stream: DetStream, variables: Sequence[int], max_colors: int) -> Partition:
    variables = list(variables)
    count = stream.randint(1, min(max_colors, len(variables)))
    shuffled = stream.shuffled(variables)
    colors: list[list[int]] = [[] for _ in range(count)]
    for i, v in enumerate(shuffled):
        colors[i % count].append(v)
    return Partition.of_lists(colors)


def _refinement_chain(stream: DetStream, n: int, k: int) -> list[Partition]:
    """Distance-1 family: each partition coarsens the previous one."""
    parts = [_random_partition(stream, range(n), max_colors=max(2, n // 2))]
    for _ in range(k - 1):
        prev = parts[-1]
        colors = stream.shuffled(prev.colors)
        merged: list[set[int]] = []
        i = 0
        while i < len(colors):
            if i + 1 < len(colors) and stream.randint(0, 1):
                merged.append(set(colors[i]) | set(colors[i + 1]))
                i += 2
            else:
                merged.append(set(colors[i]))
                i += 1
        parts.append(Partition.of_lists(merged))
    # upper partitions refine lower ones, so emit finest first
    return parts


def _random_form(stream: DetStream, field: Field, color: Sequence[int]) -> LinearForm:
    coeffs = {}
    for v in color:
        coeffs[v] = stream.nonzero(field)
    constant = stream.residue(field)
    if not coeffs and constant == 0:
        constant = 1
    return LinearForm(constant, coeffs)


def _gates_from_partitions(
    stream: DetStream, field: Field, n: int, partitions: Sequence[Partition]
) -> tuple[Gate, ...]:
    gates = []
    for part in partitions:
        forms = []
        for color in part.colors:
            if stream.randint(0, 4) == 0 and len(color) == 1:
                continue  # leave the variable out of this gate
            forms.append(_random_form(stream, field, sorted(color)))
        gates.append(Gate(stream.nonzero(field), tuple(forms)))
    return tuple(gates)


def _generate_depth3_distance(spec: InstanceSpec) -> Depth3Circuit:
    field = Field(spec.modulus)
    n, k = spec.n, spec.k

    def draw(stream: DetStream) -> Depth3Circuit | None:
        if stream.randint(0, 1):
            parts = _refinement_chain(stream, n, k)
        else:
            parts = [
                _random_partition(stream, range(n), max_colors=max(2, n // 2))
                for _ in range(k)
            ]
        circuit = Depth3Circuit(field, n, _gates_from_partitions(stream, field, n, parts))
        return circuit if circuit.distance_order[1] <= spec.delta else None

    return _rejection_sample(spec, draw)


def _engineered_zero_sum_sml(stream: DetStream, field: Field, n: int, c: int) -> Depth3Circuit:
    """Gate-cancelling zero circuits: either G + (-G), or the two-color
    split (l)R - (l|x_i)R - (l|x_j)R, which induces two distinct partitions."""
    if c <= 1 or n < 2:
        part = _random_partition(stream, range(n), max_colors=max(2, n // 2))
        forms = tuple(_random_form(stream, field, sorted(col)) for col in part.colors)
        a = stream.nonzero(field)
        return Depth3Circuit(field, n, (Gate(a, forms), Gate(-a, forms)))
    pair = stream.shuffled(range(n))[:2]
    i, j = sorted(pair)
    rest = [v for v in range(n) if v not in (i, j)]
    rider_forms: list[LinearForm] = []
    if rest:
        rider_part = _random_partition(stream, rest, max_colors=max(1, len(rest) // 2))
        rider_forms = [_random_form(stream, field, sorted(col)) for col in rider_part.colors]
    b0 = stream.residue(field)
    bi = stream.nonzero(field)
    bj = stream.nonzero(field)
    a = stream.nonzero(field)
    whole = LinearForm(b0, {i: bi, j: bj})
    left = LinearForm(b0, {i: bi})
    right = LinearForm(0, {j: bj})
    gates = (
        Gate(a, (whole, *rider_forms)),
        Gate(-a, (left, *rider_forms)),
        Gate(-a, (right, *rider_forms)),
    )
    return Depth3Circuit(field, n, gates)


def _generate_sum_sml(spec: InstanceSpec) -> Depth3Circuit:
    field = Field(spec.modulus)
    n, k, c = spec.n, spec.k, spec.c
    if spec.engineered_zero:
        stream = DetStream(f"{spec.klass}:{spec.seed}:zero")
        return _engineered_zero_sum_sml(stream, field, n, c)

    def draw(stream: DetStream) -> Depth3Circuit | None:
        pool = [
            _random_partition(stream, range(n), max_colors=max(2, n // 2))
            for _ in range(c)
        ]
        assignments = [pool[i % c] for i in range(k)]
        circuit = Depth3Circuit(field, n, _gates_from_partitions(stream, field, n, assignments))
        return circuit if len(circuit.distinct_partitions()) <= c else None

    return _rejection_sample(spec, draw)


# one entry per campaign class: its generator, and the InstanceSpec keys
# `verify --param` may set, in the order its per-seed envelope draws them.
# A key's envelope is a (lo, hi) range drawn per seed (d's upper end is
# min(hi, n), and a flag is drawn as 0 or 1), a fixed value, or None, which
# leaves the InstanceSpec default.  width2-roabp fixes w = 2, and a forced
# singular layer is outside invertible-roabp, so neither takes that key
CAMPAIGN_CLASSES = {
    "roabp": (_generate_roabp, dict(
        n=(2, 5), d=(1, 4), w=(1, 3), s=(1, 3), delta=(1, 2), mu=2,
        nonzero=None, force_singular=None, invertible_constant=None)),
    "invertible-roabp": (lambda spec: _generate_roabp(spec, nonsingular=True), dict(
        n=(2, 5), d=(1, 3), w=2, s=(1, 3), delta=(1, 2), mu=1,
        invertible_constant=(0, 1), nonzero=None)),
    "width2-roabp": (lambda spec: _generate_roabp(spec.replace(w=2)), dict(
        n=(2, 4), d=(1, 3), s=2, delta=1, mu=1, force_singular=(0, 1),
        nonzero=None, invertible_constant=None)),
    "depth3-distance": (_generate_depth3_distance, dict(
        n=(3, 8), k=(1, 3), delta=2, nonzero=None)),
    "sum-sml": (_generate_sum_sml, dict(
        n=(3, 9), k=(1, 3), c=(1, 3), engineered_zero=(0, 1), nonzero=None)),
}


def _campaign_class(klass: str) -> tuple:
    """The CAMPAIGN_CLASSES entry of `klass`."""
    if klass not in CAMPAIGN_CLASSES:
        raise StructuralError(f"unknown campaign class {klass!r}")
    return CAMPAIGN_CLASSES[klass]


def generate_instance(spec: InstanceSpec):
    """Deterministic instance for the spec; identical specs give identical
    instances."""
    generate, _ = _campaign_class(spec.klass)
    return generate(spec)


# ---------------------------------------------------------------------------
# oracles


def oracle_is_zero(instance) -> bool:
    """Ground truth: an ROABP by span propagation (`Roabp.is_zero`), a
    depth-3 circuit by its summed bit-mask coefficients, within
    `EXPAND_CEILING` (`Depth3Circuit.is_zero`)."""
    if isinstance(instance, (Roabp, Depth3Circuit)):
        return instance.is_zero()
    raise StructuralError(f"cannot expand {type(instance).__name__}")


def _evaluate(instance, point) -> int:
    if isinstance(instance, Roabp):
        return instance.evaluate(point)
    return instance.eval_at(point)


class HittingReport(Frozen):
    __match_args__ = ("vacuous", "passed", "witness_index", "point_count")

    def __init__(
        self, vacuous: bool, passed: bool, witness_index: int | None, point_count: int
    ) -> None:
        self.__dict__.update(
            vacuous=vacuous, passed=passed, witness_index=witness_index, point_count=point_count
        )

    def line(self, label: str) -> str:
        if self.vacuous:
            return f"{label}: vacuous-pass (zero instance, {self.point_count} points)"
        status = "pass" if self.passed else "FAIL"
        idx = self.witness_index if self.witness_index is not None else "-"
        return f"{label}: {status} witness={idx} size={self.point_count}"


def verify_hitting_property(instance, points: Collection[tuple]) -> HittingReport:
    """Pass iff some point evaluates nonzero (the first witness index is
    reported); vacuous-pass for zero instances.

    `points` is iterated once, up to the witness, and sized by `len()`: a
    PointSet, generated or read by `io_cli.load_points`, whose lazy family
    builds (or parses) points only as they are read.  A witness proves the
    instance nonzero, so the zero oracle runs only when no point is one."""
    for idx, pt in enumerate(points):
        if _evaluate(instance, pt):
            return HittingReport(False, True, idx, len(points))
    zero = oracle_is_zero(instance)
    return HittingReport(zero, zero, None, len(points))


# ---------------------------------------------------------------------------
# campaigns


class CampaignResult(Frozen):
    """Per-case lines and counts.  A case that hits a capability limit
    (a `LIMIT` line) neither passes nor fails."""

    __match_args__ = ("klass", "samples", "passed", "lines", "limited")

    def __init__(
        self, klass: str, samples: int, passed: int, lines: list, limited: int = 0
    ) -> None:
        self.__dict__.update(
            klass=klass, samples=samples, passed=passed, lines=lines, limited=limited
        )

    @property
    def all_passed(self) -> bool:
        return self.passed == self.samples

    @property
    def failed(self) -> int:
        return self.samples - self.passed - self.limited

    def summary(self) -> dict:
        return {
            "class": self.klass,
            "samples": self.samples,
            "passed": self.passed,
            "all_passed": self.all_passed,
        }

    def render(self) -> str:
        body = "\n".join(self.lines)
        return (
            f"campaign class={self.klass} samples={self.samples} "
            f"passed={self.passed}/{self.samples}\n{body}\n"
        )


def _campaign_case(spec: InstanceSpec) -> tuple[bool, str]:
    label = f"seed={spec.seed}"
    inst = generate_instance(spec)
    if spec.klass == "depth3-distance":
        reduced = circuit_to_roabp(inst)
        _, scalar = reduced.expand()
        ok = scalar == inst.expand()
        _, dist = inst.distance_order
        bound = inst.k * (inst.n + 1) ** dist
        ok = ok and reduced.width <= bound
        status = "pass" if ok else "FAIL"
        return ok, (
            f"{label}: {status} distance={dist} width={reduced.width} bound={bound}"
        )
    if spec.klass == "sum-sml":
        result = sum_sml_whitebox_test(inst)
        truth = "zero" if oracle_is_zero(inst) else "nonzero"
        ok = result.verdict == truth
        if result.verdict == "nonzero":
            ok = ok and result.witness is not None and inst.eval_at(result.witness) != 0
        status = "pass" if ok else "FAIL"
        return ok, f"{label}: {status} verdict={result.verdict} truth={truth}"
    family = spec.klass.removesuffix("-roabp")
    report = verify_hitting_property(inst, HITTING_SETS[family](inst))
    return report.passed, report.line(label)


def run_campaign(
    klass: str,
    samples: int,
    seed: int = 0,
    modulus: int = DEFAULT_MODULUS,
    **overrides,
) -> CampaignResult:
    """Run `samples` seeded cases of one class; reports are deterministic
    functions of (class, samples, seed, parameters).  A case that raises a
    capability error is recorded as `seed=S: LIMIT <message>` and the
    campaign goes on."""
    _campaign_class(klass)
    if samples < 0:
        raise StructuralError(f"samples={samples} must be nonnegative")
    lines = []
    passed = limited = 0
    for i in range(samples):
        spec = InstanceSpec(
            klass=klass, seed=seed + i, modulus=modulus, **_case_overrides(klass, seed + i, overrides)
        )
        try:
            ok, line = _campaign_case(spec)
        except CapabilityError as exc:
            limited += 1
            lines.append(f"seed={spec.seed}: LIMIT {exc}")
            continue
        passed += ok
        lines.append(line)
    return CampaignResult(
        klass=klass, samples=samples, passed=passed, lines=lines, limited=limited
    )


def _case_overrides(klass: str, seed: int, overrides: dict) -> dict:
    """Per-seed parameter draws within the class's desk-scale envelope (see
    CAMPAIGN_CLASSES); any override replaces the whole envelope.  A draw is
    stored with the type of the key's InstanceSpec default."""
    if overrides:
        return dict(overrides)
    _, envelope = _campaign_class(klass)
    stream = DetStream(f"params:{klass}:{seed}")
    defaults = InstanceSpec(klass, seed)
    params = {}
    for key, value in envelope.items():
        if type(value) is tuple:
            lo, hi = value
            hi = min(hi, params["n"]) if key == "d" else hi
            value = type(getattr(defaults, key))(stream.randint(lo, hi))
        if value is not None:
            params[key] = value
    return params
