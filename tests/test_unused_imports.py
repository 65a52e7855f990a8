"""Every name a graphcalc module imports is used in that module, and every
import sits at module level.

`__init__.py` imports names only to re-export them, and `jacobi.py` holds
aliases that perfbench's layer tracer hooks by name, so both are skipped by
the unused-name check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "jacobi.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nfrom typing import Optional, Union\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["line 2: Union"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """Lines of every import inside a function body."""
    tree = ast.parse(source)
    return sorted(
        {
            f"line {node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_checker_finds_a_function_import():
    source = "import os\n\ndef f():\n    import math\n    return math.pi, os.sep\n"
    assert function_imports(source) == ["line 4"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []
