"""Every public name of motok has a caller outside tests.

Public names are the top-level functions, classes and constants of
``src/motok`` and the methods and properties of its public classes.  A name
counts as used when it is read (as a name or an attribute) in a
``src/motok`` module other than ``__init__.py``, outside its own definition,
or anywhere in ``scripts/`` or ``perfbench/``.  Private top-level names
(functions, classes and constants whose name starts with one underscore)
must be read in some ``src/motok`` module outside their own definition, so a
helper left behind by a refactor fails here.  Names are matched by spelling alone, which
can only hide an unused name, never flag a used one.

The settable values a user can set (CLI options, defaulted dataclass fields
and keyword defaults) are counted too, and must equal a pinned count: a
deletion lowers the pin, so no slack is left for a new option to take.
"""

import argparse
import ast
from collections import Counter
from pathlib import Path

from motok.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "motok"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node: ast.AST) -> Counter:
    """How often each name and attribute name is read under ``node``."""
    found = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
    return found


def _unread(definitions, reads: Counter):
    """The (path, name, node) definitions whose name ``reads`` counts only
    inside the definition itself; a method is matched by its own name."""
    for path, name, node in definitions:
        leaf = name.rpartition(".")[2]
        if reads[leaf] == _reads(node)[leaf]:
            yield path, name, node


def _library() -> dict[Path, ast.Module]:
    return {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _public(body: list) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _assigned_names(node: ast.AST) -> list[str]:
    """The plain names a module-level assignment binds; none for other statements."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    elements = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [e.id for e in elements if isinstance(e, ast.Name)]


def _public_definitions(library: dict[Path, ast.Module]):
    """(path, qualified name, node) of each public top-level name and public method."""
    for path, tree in library.items():
        for node in _public(tree.body):
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, f"{node.name}.{method.name}", method
        for node in tree.body:
            for name in _assigned_names(node):
                if not name.startswith("_"):
                    yield path, name, node


def test_public_names_have_a_caller_outside_tests():
    library = _library()
    reads = sum((_reads(tree) for tree in library.values()), Counter())
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("**/*.py")):
            reads += _reads(_parse(path))
    unused = [f"{path.name}:{node.lineno} {name}"
              for path, name, node in _unread(_public_definitions(library), reads)]
    assert not unused, f"public names used only by tests: {unused}"


def _private_definitions(library: dict[Path, ast.Module]):
    """(path, name, node) of each private top-level function, class and constant."""
    for path, tree in library.items():
        for node in tree.body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else _assigned_names(node))
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path, name, node


def test_private_names_are_read_in_the_package():
    library = _library()
    reads = sum((_reads(tree) for tree in library.values()), Counter())
    unused = [f"{path.name}:{node.lineno} {name}"
              for path, name, node in _unread(_private_definitions(library), reads)]
    assert not unused, f"private names nothing in src/motok reads: {unused}"


# Settable values: every value a user of motok can set.  One per CLI option
# of each subcommand (not counting -h), one per defaulted field of a public
# dataclass, and one per keyword default of a public function or method.
MAX_SETTABLE = 63


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list if isinstance(d, (ast.Name, ast.Call)))


def _settable_values() -> dict[str, list[str]]:
    """The settable values by kind, each named by where it is set."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"cli options": [
        f"{name} {action.option_strings[-1]}"
        for name, sub in commands.choices.items() for action in sub._actions
        if not isinstance(action, argparse._HelpAction)],
        "dataclass fields": [], "keyword defaults": []}
    for path, tree in _library().items():
        for node in _public(tree.body):
            functions = [node]
            if isinstance(node, ast.ClassDef):
                functions = _public(node.body)
                if _is_dataclass(node):
                    found["dataclass fields"] += [
                        f"{node.name}.{field.target.id}" for field in node.body
                        if isinstance(field, ast.AnnAssign) and field.value is not None]
            for func in functions:
                args = func.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found["keyword defaults"] += [f"{path.stem}.{func.name}({a.arg})" for a in named]
    return found


def test_settable_values_stay_within_the_pin():
    found = _settable_values()
    total = sum(len(names) for names in found.values())
    breakdown = "\n".join(f"{kind}: {len(names)}\n  " + "\n  ".join(names)
                          for kind, names in found.items())
    assert total == MAX_SETTABLE, f"{total} settable values, pinned {MAX_SETTABLE}:\n{breakdown}"
