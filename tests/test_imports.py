"""Every module-level import in the package is used by the module that makes it."""

import ast
from pathlib import Path

import smoothcircle

PACKAGE = Path(smoothcircle.__file__).parent

# Imports kept only so that a benchmark wrapper finds the name on the module.
ALLOWED_UNUSED = {
    ("estimators", "rho_saddle_form"),  # bench/spans.py wraps estimators.rho_saddle_form
    ("saddle", "phi2_closed"),  # bench/spans.py wraps saddle.phi2_closed
}


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that no expression in it reads."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    return [name for name in bound if name not in used]


def test_unused_imports_finds_unread_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nimport os.path\nfrom os import sep, getcwd as cwd\n"
        "print(np.pi, sep, os.path)\n"
    )
    assert unused_imports(probe) == ["math", "cwd"]


def test_modules_use_their_imports():
    found = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert found == ALLOWED_UNUSED
