"""A lint gate from the standard library's ``ast``: no module of the package
imports a name it never uses, and every private module-level name is
referenced somewhere in the package, so a deletion leaves no dead helper
or stale import behind.  The scalar rules live in ``config`` alone, so a
hand-rolled copy elsewhere fails the gate, and numpy and scipy are reached
as modules, so a wrapper set on a kernel's module attribute sees every call.
No module raises a bare ``RuntimeError``, ``AssertionError``, ``IndexError``
or ``Exception``: a failure is a typed error a caller can catch."""

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


SCALAR_RULE_TEXTS = ("must be positive", "is not an integer")


def scalar_rule_copies(tree):
    """Lines that test ``isinstance(..., bool)`` or raise a scalar rule's text."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for arg in node.args for n in ast.walk(arg))):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and any(
                isinstance(n, ast.Constant) and isinstance(n.value, str)
                and any(text in n.value for text in SCALAR_RULE_TEXTS)
                for n in ast.walk(node)):
            lines.append(node.lineno)
    return lines


def test_scalar_rules_live_only_in_config():
    copies = [f"{module}.py:{line}" for module, tree in MODULES.items() if module != "config"
              for line in scalar_rule_copies(tree)]
    assert copies == []
    assert scalar_rule_copies(MODULES["config"])      # the rules themselves are still found


def test_numpy_and_scipy_are_imported_as_modules():
    # `from scipy.linalg import eig` binds the function at import time, out of
    # reach of a wrapper later set on scipy.linalg.eig
    names = [f"{module}.py:{node.lineno} from {node.module}"
             for module, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] in ("numpy", "scipy")]
    assert names == []


BARE_ERRORS = {"RuntimeError", "AssertionError", "IndexError", "Exception"}


def test_no_module_raises_a_bare_builtin_error():
    # a failure is a typed nhlab error (or a ValueError/TypeError on the input)
    bare = [f"{module}.py:{node.lineno} {name.id}"
            for module, tree in MODULES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            for name in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            if isinstance(name, ast.Name) and name.id in BARE_ERRORS]
    assert bare == []
