import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import veroschur
from veroschur.config import Record


def test_program_imports_only_stdlib():
    # the package declares no dependencies; every import in it must be the
    # standard library or the package itself.  Not dataclasses: each
    # command is a fresh process, and its import (which loads inspect) and
    # the methods it compiles per class are start-up that every run pays
    files = sorted(Path(veroschur.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "veroschur", \
                    f"{path.name} imports {name}"
                assert top != "dataclasses", f"{path.name} imports {name}"


def _top_level_defs(tree: ast.Module):
    """(name, node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def test_every_definition_is_reached_from_the_cli():
    # each top-level function and class in the package must be reachable
    # from cli.main; a helper that only tests use belongs in tests/oracles.
    # References are followed by name alone (every Name and Attribute, to a
    # top-level definition of that name in any module), which can only
    # over-approximate what a command runs, never under-approximate it
    by_name: dict[str, list[tuple[str, ast.AST]]] = {}
    checked = set()
    for path in Path(veroschur.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _top_level_defs(tree):
            by_name.setdefault(name, []).append((path.stem, node))
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    not (name.startswith("__") and name.endswith("__")):
                checked.add((path.stem, name))
    reached = {("cli", "main")}
    todo = [node for module, node in by_name["main"] if module == "cli"]
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Name):
                ref = sub.id
            elif isinstance(sub, ast.Attribute):
                ref = sub.attr
            else:
                continue
            for module, node in by_name.get(ref, ()):
                if (module, ref) not in reached:
                    reached.add((module, ref))
                    todo.append(node)
    unreached = sorted(f"{module}.{name}" for module, name in checked - reached)
    assert not unreached, f"not reachable from cli.main: {unreached}"


# the functions in the package that call themselves, as module.outer.inner;
# each recursion is as deep as some input, so a new one is added here on
# purpose or not at all.  These three stay: vectors_in_box is hot, and its
# depth is its free coordinates; _levels.extend is as deep as p + 1, and an
# explicit stack for it is no shorter and holds either every sibling's
# candidate list or a frame per child, where a level-by-level loop would
# hold every inner node of the search; cli._json is as deep as the payload
# nests, at most four levels, which the command fixes and p·d does not
RECURSIVE = {
    "cli._json",
    "koszul._levels.extend",
    "partitions.vectors_in_box.rec",
}


def _calls(node: ast.AST, name: str) -> bool:
    """Whether node calls name, as name(...), self.name(...) or
    cls.name(...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in ("self", "cls"):
        return func.attr == name
    return isinstance(func, ast.Name) and func.id == name


def _self_recursive(node: ast.AST, prefix: str):
    """Qualified names of the functions under node that call themselves."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}.{child.name}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(_calls(sub, child.name) for sub in ast.walk(child)):
            yield name
        yield from _self_recursive(child, name)


def test_recursions_are_the_known_ones():
    found = set()
    for path in Path(veroschur.__file__).parent.glob("*.py"):
        found.update(_self_recursive(ast.parse(path.read_text(), str(path)),
                                     path.stem))
    assert found == RECURSIVE


def test_every_record_validates_in_init():
    # the record rule of veroschur.config: a record whose __init__
    # validates its arguments subclasses Record, and one that validates
    # nothing is a NamedTuple, so every Record subclass defines __init__
    for module in pkgutil.iter_modules(veroschur.__path__):
        importlib.import_module(f"veroschur.{module.name}")
    records, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("veroschur."):
            records.append(cls)
    assert records
    assert [cls.__qualname__ for cls in records
            if "__init__" not in vars(cls)] == []
