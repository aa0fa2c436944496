"""Package layering: no library module imports another's private names.

A name with a leading underscore belongs to the module that defines it.
A module that needs one from a sibling should get a public function
from that sibling instead.
"""

import ast
from pathlib import Path

import concatqec

PACKAGE = Path(concatqec.__file__).parent


def private_imports(source: str):
    """The (module, name) pairs of every ``from .module import _name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.extend((node.module, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_library_module_imports_a_private_name_of_another():
    offenders = {path.name: private_imports(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}
