"""No two defs under src/pitkit/ have the same body.

Two copies of one body drift: a fix made to one copy does not reach the
other.  Every def counts, module-level or method, nested ones included,
and a docstring is not part of its body, so two defs that document the
same code differently are still one implementation written twice.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pitkit"
MODULES = sorted(SRC.glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def qualified_defs(tree: ast.Module, prefix: str):
    """(qualified name, def node) for every def in the tree, a method as
    prefix.Class.name and a nested def as prefix.outer.name."""

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*DEFS, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if isinstance(child, DEFS):
                    yield name, child
                yield from visit(child, name)
            else:
                yield from visit(child, scope)

    yield from visit(tree, prefix)


def body_key(node: ast.AST) -> str:
    """The AST of a def's body after any docstring, without positions."""
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return "\n".join(ast.dump(stmt) for stmt in body)


def twin_bodies(trees: dict[str, ast.Module]) -> list[tuple[str, ...]]:
    """The groups of defs that share a body, each sorted by name."""
    groups: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for name, node in qualified_defs(tree, module):
            groups.setdefault(body_key(node), []).append(name)
    return sorted(tuple(sorted(names)) for names in groups.values() if len(names) > 1)


def test_no_two_defs_share_a_body():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    twins = twin_bodies(trees)
    assert not twins, f"defs with identical bodies: {twins}"


def test_the_check_sees_twin_bodies():
    tree = ast.parse(
        "def f(x):\n"
        "    '''One.'''\n"
        "    return x + 1\n"
        "class C:\n"
        "    def g(self, y):\n"
        "        return x + 1\n"
        "    def h(self):\n"
        "        return x + 2\n"
    )
    assert twin_bodies({"m": tree}) == [("m.C.g", "m.f")]
