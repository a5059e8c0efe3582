"""Pinned loader outcomes: what `load_instance` makes of mutated circuit files.

A deterministic corpus of single- and double-fault edits of seeded `roabp`
and `sum-sml` documents: nodes swapped to another type or sign, deleted or
duplicated nodes, moved variables, values that are multiples of p, terms
outside their block, variables repeated across forms and repeated keys.
Two faults in one object show which check runs first.
`pinned_load_outcomes.json` holds, for each edited document, the first 16
hex digits of the sha256 of the loaded instance's canonical file or the exact text of the error the
loader raised, so a loader change that reorders its checks, rewords a
message or builds a different instance shows up here.

Regenerate with `PYTHONPATH=src python tests/test_pinned_outputs.py`.
"""

import copy
import hashlib
import json
import pathlib
import random
import tempfile

from pitkit.io_cli import dumps_canonical, instance_to_obj, load_instance
from pitkit.verify import InstanceSpec, _case_overrides, generate_instance

PINNED_LOADS = pathlib.Path(__file__).with_name("pinned_load_outcomes.json")

# roabp seeds 1 and 10 have width 2, and seed 10 two blocks, one of three
# variables; sum-sml seed 0 has three gates of three forms
DOCUMENTS = (("roabp", 1), ("roabp", 10), ("sum-sml", 0))
PAIRS_PER_DOCUMENT = 50


def document(klass: str, seed: int) -> dict:
    spec = InstanceSpec(klass=klass, seed=seed, **_case_overrides(klass, seed, {}))
    return instance_to_obj(generate_instance(spec))


def _nodes(node, path=()):
    """Every (path, node) below the root, depth first in document order."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _name(path) -> str:
    return "/".join(map(str, path))


def _swaps(value, p: int) -> list:
    """Replacements of another type or sign, and multiples of p."""
    if type(value) is int:
        return [-value - 1, str(value), float(value), True, None, [value],
                p, -2 * p, value + p]
    if isinstance(value, str):
        return [0, None, value + "'"]
    if isinstance(value, list):
        return [{}, 0, None, [value]]
    return [[], 0, None]


def _dump(node, repeat=None, path=()) -> str:
    """Canonical JSON text, with the first key of the object at `repeat`
    written twice."""
    if isinstance(node, dict):
        items = [(k, node[k]) for k in sorted(node)]
        if path == repeat:
            items.insert(0, items[0])
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_dump(v, repeat, path + (k,))}" for k, v in items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(
            _dump(v, repeat, path + (i,)) for i, v in enumerate(node)) + "]"
    return json.dumps(node)


def _set(path, value):
    def edit(doc):
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    return edit


def _delete(path):
    def edit(doc):
        del _at(doc, path[:-1])[path[-1]]
    return edit


def _duplicate(path):
    def edit(doc):
        _at(doc, path[:-1]).insert(path[-1], copy.deepcopy(_at(doc, path)))
    return edit


def _rename(path, old, new):
    def edit(doc):
        obj = _at(doc, path)
        obj[new] = obj.pop(old)
    return edit


def _move(src, dst):
    def edit(doc):
        _at(doc, dst).append(_at(doc, src).pop())
    return edit


def _edits(doc: dict):
    """(label, edit) for every single edit of `doc`; an edit changes the
    document it is given in place."""
    p = doc["modulus"]
    names = doc["variables"]
    for path, value in _nodes(doc):
        where = _name(path)
        for i, new in enumerate(_swaps(value, p)):
            yield f"swap {where} #{i}", _set(path, new)
        yield f"delete {where}", _delete(path)
        if isinstance(path[-1], int):
            yield f"duplicate {where}", _duplicate(path)
        if isinstance(value, dict) and path[-1] in ("exponents", "coeffs") and value:
            # move the object's first variable to each variable it lacks,
            # and add each of those variables
            first = min(value)
            for other in names:
                if other not in value:
                    yield f"move {where} {first}->{other}", _rename(path, first, other)
                    yield f"add {where} {other}", _set(path + (other,), 1)
    if doc["kind"] == "roabp":
        # move the last variable of each block into every other block, the
        # boundary blocks included
        blocks = [("left_block",), *(("blocks", i) for i in range(len(doc["blocks"]))),
                  ("right_block",)]
        for src in blocks:
            for dst in blocks:
                if src != dst and _at(doc, src):
                    yield f"move {_name(src)}->{_name(dst)}", _move(src, dst)
    else:
        # repeat a variable of one form in each later form of its gate
        for gi, gate in enumerate(doc["gates"]):
            for fi, form in enumerate(gate["forms"]):
                for fj in range(fi + 1, len(gate["forms"])):
                    for name in sorted(form["coeffs"]):
                        yield (f"repeat gates/{gi}/forms/{fi}->{fj} {name}",
                               _set(("gates", gi, "forms", fj, "coeffs", name), 1))


def _texts(doc: dict):
    """(label, file text) for every edit of `doc`: each single edit, pairs
    of single edits drawn with a fixed seed (skipping a second edit whose
    node the first removed), each object with its first key repeated, each
    object with one child nulled and another deleted, each list with its
    first and last items nulled, and all the scalars below a node nulled."""
    edits = list(_edits(doc))
    for label, edit in edits:
        edited = copy.deepcopy(doc)
        edit(edited)
        yield label, _dump(edited)
    rng = random.Random(f"pairs:{doc['kind']}:{len(edits)}")
    for _ in range(PAIRS_PER_DOCUMENT):
        (l1, e1), (l2, e2) = rng.sample(edits, 2)
        edited = copy.deepcopy(doc)
        e1(edited)
        try:
            e2(edited)
        except (KeyError, IndexError, TypeError, AttributeError):
            continue
        yield f"{l1} + {l2}", _dump(edited)
    for path, value in [((), doc), *_nodes(doc)]:
        if isinstance(value, dict) and value:
            yield f"repeat key {_name(path)}", _dump(doc, repeat=path)
        # two faults in one object or list: which check runs first
        if isinstance(value, dict):
            for first in sorted(value):
                for second in sorted(value):
                    if first != second:
                        edited = copy.deepcopy(doc)
                        _at(edited, path)[first] = None
                        del _at(edited, path)[second]
                        yield (f"null {_name(path + (first,))} + delete {second}",
                               _dump(edited))
        elif isinstance(value, list) and len(value) > 1:
            edited = copy.deepcopy(doc)
            _at(edited, path)[0] = _at(edited, path)[-1] = None
            yield f"null {_name(path)} first and last", _dump(edited)
        # every scalar below a node nulled at once: which value is read first
        leaves = [sub for sub, v in _nodes(value) if not isinstance(v, (dict, list))]
        if len(leaves) > 1:
            edited = copy.deepcopy(doc)
            for sub in leaves:
                _at(edited, path + sub[:-1])[sub[-1]] = None
            yield f"null leaves {_name(path)}", _dump(edited)


def outcome(path: str) -> str:
    try:
        instance = load_instance(path)
    except Exception as exc:  # pinned whatever it is
        return f"{type(exc).__name__}: {exc}"
    text = dumps_canonical(instance_to_obj(instance))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcomes() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "c.json")
        for klass, seed in DOCUMENTS:
            for label, text in _texts(document(klass, seed)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                out.setdefault(f"{klass}:{seed} {label}", outcome(path))
    return out


def test_loader_outcomes_match_pins():
    pinned = json.loads(PINNED_LOADS.read_text(encoding="utf-8"))
    assert outcomes() == pinned
    # every edited file loads or is refused as malformed, never with a crash
    assert all(len(v) == 16 or v.startswith("StructuralError: ") for v in pinned.values())
