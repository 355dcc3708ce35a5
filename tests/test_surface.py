"""No test-only surface in the package: each name in a module's __all__,
and each public method or property of a class the package defines, is
reached from program code (the package and the benchmark), not only from
tests, unless it is a reference or model API on the allowlist.

A reference counts if it lies outside the name's own definition and
outside the definitions of names found unreached, so that a cluster of
names that only use each other is found as a whole. A reference is an
identifier, an attribute, an imported name or a string equal to the name
(the benchmark's tracer wraps functions by name); a member is named by
its attribute alone, whatever the class."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "privgraph"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# reference and model APIs that only tests call, on purpose
ALLOWED = {
    ("circuits", "simulate"): "the plaintext oracle of garbled evaluation",
    ("crypto", "xtoken_compute"): "the per-cell oracle of oxt.xtoken_rows",
    ("leakage", "compute_leakage"): "the executable leakage model",
    ("leakage", "check_transcript_consistency"): "checks a transcript against that model",
    ("shares", "shr"): "the share API: split a value into two additive shares",
    ("shares", "rec"): "the share API: reconstruct a value from its shares",
}


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _defined(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _members(cls):
    """The public methods and properties in a class body."""
    return [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def survey():
    """Each module's exports, its classes' members named Class.member
    among them; each definition's line span by (module, name); the
    (module, line) of each reference by name."""
    exports, spans, refs = {}, {}, {}
    for path in PROGRAM:
        module = path.stem if path.parent == PACKAGE else f"perfbench/{path.stem}"
        tree = ast.parse(path.read_text())
        if path.parent == PACKAGE:
            exports[module] = _exports(tree)
        for top in tree.body:
            for name in _defined(top):
                spans[(module, name)] = range(top.lineno, top.end_lineno + 1)
            if isinstance(top, ast.ClassDef) and path.parent == PACKAGE:
                for node in _members(top):
                    member = f"{top.name}.{node.name}"
                    exports[module].append(member)
                    spans[(module, member)] = range(node.lineno, node.end_lineno + 1)
            if "__all__" in _defined(top):
                continue
            for node in ast.walk(top):
                name = _referenced(node)
                if name is not None:
                    refs.setdefault(name, []).append((module, getattr(node, "lineno", top.lineno)))
    return exports, spans, refs


def unreached() -> set:
    exports, spans, refs = survey()

    def within(owner, where) -> bool:
        return where[0] == owner[0] and where[1] in spans.get(owner, ())

    dead: set = set()
    changed = True
    while changed:
        changed = False
        for module, names in exports.items():
            for name in names:
                key = (module, name)
                if key in dead or key in ALLOWED:
                    continue
                ref_name = name.rpartition(".")[2]  # a member by its attribute
                if all(any(within(o, w) for o in (key, *dead)) for w in refs.get(ref_name, [])):
                    dead.add(key)
                    changed = True
    return dead


def test_every_export_is_reached_from_program_code():
    dead = sorted(f"{module}.{name}" for module, name in unreached())
    assert not dead, f"reached only by tests (delete, or allow with a reason): {dead}"


def test_allowlist_names_current_exports():
    exports, _, _ = survey()
    stale = [f"{m}.{n}" for m, n in ALLOWED if n not in exports.get(m, [])]
    assert not stale, stale
