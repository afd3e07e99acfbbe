"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "irs_gbsm"


def unused_imports(source: str, exported: bool) -> list[str]:
    """Names a module imports and never reads.

    ``exported``: the module is a package ``__init__`` whose ``__all__`` is
    every public name, so its public imports are used by being exported.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used and not (exported and not name.startswith("_"))]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    path = SRC / module
    assert unused_imports(path.read_text(), module == "__init__.py") == []


def test_detects_an_unused_import():
    source = "import os\nimport sys as _sys\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert unused_imports(source, exported=False) == ["line 2: _sys", "line 3: tau"]
    assert unused_imports(source, exported=True) == ["line 2: _sys"]
