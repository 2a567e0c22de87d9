import ast
import pathlib

import spherefit

PACKAGE = pathlib.Path(spherefit.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")


def _referenced_names(tree: ast.Module) -> set:
    """Names a module uses, not counting a top-level function's or class's
    uses of its own name (a recursive call is no caller)."""
    used = set()
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.asname or sub.name
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_all_names_are_unique_and_resolve():
    names = spherefit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spherefit, name)]
    assert missing == []


def test_every_public_name_has_a_caller():
    # A public name is used by the package outside its own definition and
    # the package root, or is part of the acceptance contract.
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced_names(ast.parse(path.read_text()))
    contract = {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "spherefit"
                for alias in node.names}
    assert sorted(set(spherefit.__all__) - used - contract) == []
