"""Each numerical failure rule has one owner in the source.

- errors.require_finite builds every "... overflowed: ..." message, so no
  other module builds an error whose message says "overflowed";
- evolution._StepSystem alone raises IndefiniteStepError;
- spectral's private _finite_kernel, an earlier copy of the overflow rule,
  stays gone.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphcalc"
MODULES = sorted(SRC.glob("*.py"))


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def overflow_messages(source: str) -> list[int]:
    """Lines of every error built with a string that contains "overflowed"."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node).endswith("Error")
        and any(isinstance(c, ast.Constant) and "overflowed" in str(c.value) for c in ast.walk(node))
    )


def indefinite_step_raisers(source: str, owner: str) -> list[int]:
    """Lines of every IndefiniteStepError built outside the class named owner."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == owner
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "IndefiniteStepError"
        and id(node) not in inside
    )


def finite_kernel_names(source: str) -> list[int]:
    """Lines that define or read a name _finite_kernel."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if "_finite_kernel" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
    )


def test_checkers_find_each_copy():
    source = (
        "def _finite_kernel(x):\n"
        "    raise NumericalError(f'kernel overflowed: {x}')\n"
        "class _StepSystem:\n"
        "    def f(self):\n"
        "        raise errors.IndefiniteStepError('inside')\n"
        "def g():\n"
        "    raise IndefiniteStepError('outside')\n"
        "y = spectral._finite_kernel\n"
    )
    assert overflow_messages(source) == [2]
    assert indefinite_step_raisers(source, "_StepSystem") == [7]
    assert indefinite_step_raisers(source, "") == [5, 7]
    assert finite_kernel_names(source) == [1, 8]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_builds_overflow_messages(path):
    assert overflow_messages(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_step_system_raises_indefinite_step_error(path):
    owner = "_StepSystem" if path.name == "evolution.py" else ""
    assert indefinite_step_raisers(path.read_text(), owner) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_finite_kernel_is_gone(path):
    assert finite_kernel_names(path.read_text()) == []
