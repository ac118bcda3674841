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
