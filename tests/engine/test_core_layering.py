"""The paper's kernels stand below the runtime: no module under
``src/repro/core/`` imports ``repro.service``, ``repro.engine`` or
``repro.perf``.

The kernels return their work counts (a ``WorkCounts``) and record
nothing; the planner records them.  This test reads every import
statement of the core modules, including the ones inside functions and
``TYPE_CHECKING`` blocks.
"""

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"

RUNTIME = ("repro.service", "repro.engine", "repro.perf")

MODULES = sorted(CORE.rglob("*.py"))


def imported_modules(tree: ast.AST):
    """Every module name an import statement of *tree* names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            # ``from repro import service`` names the package too.
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def is_runtime(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in RUNTIME)


def test_the_core_package_has_modules():
    assert CORE / "symbolic.py" in MODULES and CORE / "montecarlo.py" in MODULES


def test_the_check_sees_a_runtime_import():
    tree = ast.parse(
        "def f():\n    from repro import service\n"
        "import repro.engine.planner\n"
    )
    found = sorted(name for name in imported_modules(tree) if is_runtime(name))
    assert found == ["repro.engine.planner", "repro.service"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(CORE).as_posix() for p in MODULES]
)
def test_core_module_imports_no_runtime(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    runtime = sorted({name for name in imported_modules(tree) if is_runtime(name)})
    assert not runtime, f"core/{path.relative_to(CORE).as_posix()} imports {runtime}"
