"""Where the paper's routes first beat the grid, from the count formulas.

The generators emit the grid {g^0..g^delta}^n of (delta+1)^n points unless
their route's count is strictly smaller.  This computes, per family and
mode, the first n at which the route's count drops below the grid's, and
that count, without building any set:

- blackbox roabp: prod_r sum(side) over the per-round lists, exact
  (`isolate._paper_sides_below` compares it with the grid's);
- whitebox roabp: the round-combined map has at least (1 + n*delta)^R
  points for R = 1 + ceil(log2 d) rounds, so it cannot win below the n
  given, and has at least that many points there;
- whitebox invertible: |low-support grid| = C(n, m) (delta+1)^m for
  m = min(l(w^2+2) - 1, n), exact;
- blackbox invertible: |low-support grid| * t_sweep * maps, of which only
  the lower bound with one map of largest weight 1 is computed: listing
  the maps at these n means sieving primes up to 3^(n-1).

README.md quotes this table; `PYTHONPATH=src python tests/test_grid_floor.py`
prints it.
"""

import math

from pitkit import concentrate, isolate

# (family, mode, parameters, bound, first n, the route's count there)
CROSSOVERS = [
    ("roabp", "blackbox", "d=1 w=1 s=1 delta=2", "exact", 11, 99_087),
    ("roabp", "blackbox", "d=1 w=2 s=2 delta=1", "exact", 24, 11_649_605),
    ("roabp", "blackbox", "d=2 w=1 s=1 delta=1", "exact", 51, 1_415_097_597_835_089),
    ("roabp", "whitebox", "d=2 delta=1", "at least", 6, 49),
    ("roabp", "whitebox", "d=4 delta=1", "at least", 11, 1_728),
    ("invertible", "whitebox", "w=2 s=2 delta=1 mu=1", "exact", 70,
     1_032_576_376_643_471_278_080),
    ("invertible", "whitebox", "w=2 s=2 delta=2 mu=1", "exact", 40,
     11_458_913_861_609_744_400),
    ("invertible", "blackbox", "d=2 w=2 s=2 delta=1 mu=1", "at least", 85,
     28_505_818_527_734_242_256_486_400),
]


def parse(params: str) -> dict:
    return {key: int(value) for key, value in (kv.split("=") for kv in params.split())}


def route_count(family: str, mode: str, n: int, p: dict) -> int:
    """The route's count at n, or its lower bound for the rows so marked."""
    delta = p["delta"]
    if family == "roabp" and mode == "blackbox":
        rounds = isolate._round_maps(n, p["d"], p["s"], p["w"], delta)
        return math.prod(sum(wfn.side(delta) for wfn in maps) for maps in rounds)
    if family == "roabp":
        return (1 + n * delta) ** (1 + math.ceil(math.log2(p["d"])))
    w = p["w"]
    m = min(concentrate._support_bound(w, p["s"], p["mu"]) - 1, n)
    low = math.comb(n, m) * (delta + 1) ** m
    if mode == "whitebox":
        return low
    return low * concentrate._t0_budget(p["d"], w * delta * n, w, n, delta, 1)


def first_win(family: str, mode: str, p: dict) -> tuple[int, int]:
    """The first n whose route count is below (delta+1)^n, and that count."""
    for n in range(1, 1000):
        grid = (p["delta"] + 1) ** n
        if family == "roabp" and mode == "blackbox":
            # the lists are read only as far as the count can beat the grid
            if isolate._paper_sides_below(n, p["d"], p["s"], p["w"], p["delta"], grid) is None:
                continue
        count = route_count(family, mode, n, p)
        if count < grid:
            return n, count
    raise AssertionError("no crossover below n = 1000")


def table() -> list[tuple]:
    return [
        (family, mode, params, bound, *first_win(family, mode, parse(params)))
        for family, mode, params, bound, _, _ in CROSSOVERS
    ]


def test_crossovers_match_the_table():
    assert table() == CROSSOVERS


if __name__ == "__main__":
    print("| family | mode | parameters | first n where the route is smaller "
          "| its points there | grid there |")
    print("| --- | --- | --- | --- | --- | --- |")
    for family, mode, params, bound, n, count in table():
        grid = (parse(params)["delta"] + 1) ** n
        count = f"{count:,}" if bound == "exact" else f"≥ {count:,}"
        print(f"| {family} | {mode} | {params} | {n} | {count} | {grid:,} |")
