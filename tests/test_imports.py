"""Every import under src/ and tests/ names the standard library or the
project itself, so a new third-party import fails here instead of as a
collection error on a machine that lacks the package.  Importing the
package also loads none of the command-line modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import star_frobenius

ROOT = Path(__file__).resolve().parent.parent


def local_modules(directory: str) -> set[str]:
    return {path.stem for path in (ROOT / directory).glob("*.py")}


OWN = sys.stdlib_module_names | {"star_frobenius"}
ALLOWED = {
    "src": OWN,
    "tests": OWN
    | {"pytest", "hypothesis"}
    | local_modules("bench")
    | local_modules("tests"),
}


def imported_roots(source: str, filename: str = "<text>"):
    """(line, top-level module) for each absolute import in the source."""
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("directory", sorted(ALLOWED))
def test_imports_are_standard_library_or_local(directory):
    foreign = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / directory).rglob("*.py"))
        for line, name in imported_roots(path.read_text(encoding="utf-8"), str(path))
        if name not in ALLOWED[directory]
    ]
    assert foreign == []


def test_guard_sees_nested_and_from_imports():
    source = (
        "import os.path\n"
        "def f():\n"
        "    import numpy as np\n"
        "from scipy import sparse\n"
        "from . import regex\n"
    )
    roots = sorted(imported_roots(source))
    assert roots == [(1, "os"), (3, "numpy"), (4, "scipy")]
    assert [name for _, name in roots if name not in ALLOWED["src"]] == ["numpy", "scipy"]


# Prints the modules that importing the package adds to sys.modules; the
# interpreter's start-up (site, .pth files) may already have loaded others.
NEW_MODULES = """
import sys
before = set(sys.modules)
import star_frobenius
print(*sorted(set(sys.modules) - before))
"""


def test_package_import_loads_only_the_library_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(Path(star_frobenius.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NEW_MODULES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    library = {"star_frobenius"} | {
        f"star_frobenius.{name}"
        for name in local_modules("src/star_frobenius") - {"__init__", "cli", "selftest"}
    }
    added = proc.stdout.split()
    assert "star_frobenius.automata" in added
    outside = [m for m in added if m.partition(".")[0] not in sys.stdlib_module_names]
    assert [m for m in outside if m not in library] == []
