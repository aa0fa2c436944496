"""Package layering: no library module imports another's private names,
and importing the package loads no more of numpy than it uses.

A name with a leading underscore belongs to the module that defines it.
A module that needs one from a sibling should get a public function
from that sibling instead.
"""

import ast
import subprocess
import sys
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


def test_importing_the_package_leaves_numpy_random_unloaded():
    # Only the noise models draw, from a generator their caller passes
    # in; loading numpy.random cost every import about 8 ms.
    check = ("import sys, concatqec; "
             "print('numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", check], check=True,
                            capture_output=True, text=True,
                            cwd=PACKAGE.parent)
    assert result.stdout == "False\n"
