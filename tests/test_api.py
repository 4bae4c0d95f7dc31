"""Every exported name is used by the package itself, not only by the tests."""
import ast
from pathlib import Path

import rangesa

PACKAGE = Path(rangesa.__file__).resolve().parent


def _names_used_in_package() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_is_used_in_the_package():
    unused = sorted(set(rangesa.__all__) - _names_used_in_package())
    assert not unused, f"exported but used by no module of the package: {unused}"
