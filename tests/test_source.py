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


def test_only_dyadic_builds_local_fields():
    # the package reaches a dyadic field through dyadic.local_field, whose
    # interned instances share their tables; a private LocalField would
    # rebuild them on every use
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        if path.name == "dyadic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "LocalField":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
