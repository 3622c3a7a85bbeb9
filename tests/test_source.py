"""Checks on the package source itself."""

import ast
from pathlib import Path

import relquad


def test_package_has_no_assert_statements():
    # a verdict must not depend on assert, which python -O strips: every
    # check in relquad raises explicitly
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
