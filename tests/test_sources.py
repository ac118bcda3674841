import ast
from pathlib import Path

import ltwist


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # pass there vacuously; the package raises instead.
    files = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Names of the module's top-level functions, classes and assigned names
    and of their classes' methods, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not _is_dunder(item.name):
                    yield item.name


def _identifiers(tree: ast.AST):
    # a name's own assignment is not a use of it
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def test_every_definition_is_used_by_name():
    # A helper or a module-level name that a fold leaves behind with no
    # reader is dead code; a definition counts as used when its name is
    # loaded in the package, the tests or perfbench, or occurs in
    # pyproject.toml.
    root = Path(__file__).resolve().parent.parent
    package = sorted(Path(ltwist.__file__).parent.glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    used = {name for tree in trees.values() for name in _identifiers(tree)}
    pyproject = (root / "pyproject.toml").read_text()
    unused = [
        f"{path.name}:{name}"
        for path in package
        for name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in used and name not in pyproject
    ]
    assert unused == []


_CERTIFICATE_NAMES = {"_form", "_bracket", "_mismatch", "_check_representation",
                      "_check_diagonal", "_with_representation", "_combine", "_adjoint",
                      "_lifted", "_add_rows", "_shifted", "_shifted_product"}


def test_window_sweeps_name_no_certificate_code():
    # The sweeps are the independent reference of the certified rows: no
    # function they can reach in fock.py names the normal-ordering
    # certificates or the representation check.  Reachable means named by
    # a reached body; a method's name reaches every method of that name.
    path = Path(ltwist.__file__).parent / "fock.py"
    tree = ast.parse(path.read_text(), str(path))
    bodies: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bodies.setdefault(node.name, set()).update(_identifiers(node))
    roots = [name for name in bodies if name.startswith("verify_")
             or name in ("scaling_embed_check", "commutator_window")]
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies[name] & bodies.keys())
    bad = sorted(f"{name} names {used}" for name in reached for used in bodies[name]
                 if used in _CERTIFICATE_NAMES or used.startswith("_certify"))
    assert len(roots) >= 10 and "matrix_equal" in reached
    assert bad == []
