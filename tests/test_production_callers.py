"""Every function and method under src/pitkit/ has a production caller.

Code that only tests call keeps a definition looking like part of the
product; the tests' oracles for the paper's definitions live in
tests/reference.py instead.  The roots are the CLI entry point,
`io_cli.main`, the statements each module runs at import (the
`HITTING_SETS` lambdas among them), and the few defs the benchmark's
set-up calls, each pinned below with its reason.  From the roots the check
follows every identifier a reached body reads, a `Name` or the attribute of
an `Attribute`, nested functions included, to every def of that name in any
module; a reached class brings in its dunder methods, which Python calls by
protocol.  Matching is by name only, so a def whose name something reached
also reads (a local variable, another class's field) counts as reached: the
check can miss a dead def, never flag a live one.  `__init__.py` is
skipped, so a re-export is no caller.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pitkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ENTRY = "io_cli.main"

# defs no CLI path reaches that the benchmark's set-up calls
HELD_BY_BENCHMARK = {
    "io_cli.save_instance": "perfbench set-up writes its circuit files with it",
    "algebra.MatPoly.constant_term": (
        "perfbench's workloads.redraw keeps invertible constant terms invertible with it"
    ),
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """Module-level functions and classes, and the methods of those
    classes, by qualified name (module.name or module.Class.method)."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*DEFS, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS):
                        defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def read_names(nodes) -> set[str]:
    """Every identifier read anywhere inside the nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def unreached(trees: dict[str, ast.Module], roots: set[str]) -> set[str]:
    """The qualified names of the defs nothing reached from the roots (and
    from every module's import-time statements) reads."""
    defs = definitions(trees)
    by_name: dict[str, list[str]] = {}
    for qualname in defs:
        by_name.setdefault(qualname.rpartition(".")[2], []).append(qualname)
    reached: set[str] = set()
    todo = list(roots)
    followed: set[str] = set()

    def follow(names: set[str]) -> None:
        for name in names - followed:
            followed.add(name)
            todo.extend(by_name.get(name, ()))

    follow(read_names(
        node for tree in trees.values() for node in tree.body
        if not isinstance(node, (*DEFS, ast.ClassDef))
    ))
    while todo:
        qualname = todo.pop()
        if qualname in reached:
            continue
        reached.add(qualname)
        node = defs[qualname]
        if isinstance(node, ast.ClassDef):
            todo.extend(
                f"{qualname}.{item.name}" for item in node.body
                if isinstance(item, DEFS) and item.name.startswith("__")
                and item.name.endswith("__")
            )
            follow(read_names([
                *node.decorator_list, *node.bases,
                *(item for item in node.body if not isinstance(item, DEFS)),
            ]))
        else:
            follow(read_names([node]))
    return set(defs) - reached


def source_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def test_every_def_has_a_production_caller():
    dead = unreached(source_trees(), {ENTRY, *HELD_BY_BENCHMARK})
    assert not dead, f"defs with no caller outside the tests: {sorted(dead)}"


@pytest.mark.parametrize("qualname", sorted(HELD_BY_BENCHMARK))
def test_defs_held_by_the_benchmark_are_needed(qualname):
    # held only by the benchmark: once the CLI calls one, or the benchmark
    # stops calling it, its pin goes
    assert qualname in unreached(source_trees(), {ENTRY}), HELD_BY_BENCHMARK[qualname]
    name = qualname.rpartition(".")[2]
    assert any(name in p.read_text() for p in (ROOT / "perfbench").glob("*.py"))


def test_the_check_sees_an_uncalled_def():
    tree = ast.parse(
        "TABLE = {'a': lambda: used()}\n"
        "def main():\n"
        "    return TABLE\n"
        "def used():\n"
        "    def inner():\n"
        "        return deep()\n"
        "    return Box(inner()).size\n"
        "def deep():\n"
        "    return 0\n"
        "def unused():\n"
        "    return Shelf().size\n"
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "    def orphan(self):\n"
        "        return unused()\n"
        "class Shelf:\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    assert unreached({"io_cli": tree}, {ENTRY}) == {
        "io_cli.unused", "io_cli.Box.orphan", "io_cli.Shelf", "io_cli.Shelf.__len__",
    }
