"""Every public name of motok has a caller outside tests.

Public names are the top-level functions and classes of ``src/motok`` and
the methods and properties of its public classes.  A name counts as used
when it is read (as a name or an attribute) in a ``src/motok`` module other
than ``__init__.py``, outside its own definition, or anywhere in
``scripts/`` or ``perfbench/``.  Private top-level names (functions,
classes and constants whose name starts with one underscore) must be read
in some ``src/motok`` module outside their own definition, so a helper left
behind by a refactor fails here.  Names are matched by spelling alone, which
can only hide an unused name, never flag a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "motok"

# Waypoint helpers kept for the mixed waypoint/token representation
# (ROADMAP item 3), which will give them a caller.
ALLOWED_UNUSED = {"WaypointTrack", "extract_waypoints", "repeat_waypoints"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """Names and attribute names read under ``node``, leaving out the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _library() -> dict[Path, ast.Module]:
    return {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _public(body: list) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions(library: dict[Path, ast.Module]):
    """(path, qualified name, node) of each public top-level name and public method."""
    for path, tree in library.items():
        for node in _public(tree.body):
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, f"{node.name}.{method.name}", method


def test_public_names_have_a_caller_outside_tests():
    library = _library()
    outside = set()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("**/*.py")):
            outside |= _reads(_parse(path))
    unused = []
    for path, name, node in _public_definitions(library):
        used = set(outside)
        for other, tree in library.items():
            used |= _reads(tree, skip=node if other == path else None)
        if node.name not in used and name not in ALLOWED_UNUSED:
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"public names used only by tests: {unused}"


def _private_definitions(library: dict[Path, ast.Module]):
    """(path, name, node) of each private top-level function, class and constant."""
    for path, tree in library.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                elements = [e for t in targets
                            for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                names = [e.id for e in elements if isinstance(e, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path, name, node


def test_private_names_are_read_in_the_package():
    library = _library()
    unused = []
    for path, name, node in _private_definitions(library):
        used = set()
        for other, tree in library.items():
            used |= _reads(tree, skip=node if other == path else None)
        if name not in used:
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"private names nothing in src/motok reads: {unused}"


def test_allowlist_names_still_exist():
    defined = {name for _, name, _ in _public_definitions(_library())}
    assert ALLOWED_UNUSED <= defined
