"""A lint gate from the standard library's ``ast``: no module of the package
imports a name it never uses, and every private module-level name is
referenced somewhere in the package, so a deletion leaves no dead helper
or stale import behind."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nhlab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def imported(tree):
    """name -> line of every name a module binds by import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def references(tree):
    """Every name a module reads, every attribute it takes and every name it imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def private_definitions(tree):
    """name -> line of every private function, class and variable at module level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue     # the package re-exports its public names
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}.py:{line} {name}" for name, line in imported(tree).items()
                   if name not in used]
    assert unused == []


def test_every_private_name_is_referenced():
    referenced = set().union(*(references(tree) for tree in MODULES.values()))
    dead = [f"{module}.py:{line} {name}" for module, tree in MODULES.items()
            for name, line in private_definitions(tree).items() if name not in referenced]
    assert dead == []
