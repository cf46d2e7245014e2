"""One dispatch path: no module outside an explicit allowlist calls a
kernel directly or branches on a method name.

The method → kernel table is :mod:`repro.core.measure`; the planner
chooses a method and runs it through that table.  Only the kernels
themselves, that table (with the size guards and world counts per
method) and the pool's Monte-Carlo sharding may name a kernel or a
method in code.  Any
other direct kernel call or method-literal branch anywhere under
``src/repro`` is a second dispatcher — this test greps for them.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules allowed to call kernels and branch on method names.
ALLOWED = {
    "core/bruteforce.py",
    "core/montecarlo.py",
    "core/symbolic.py",
    "core/measure.py",
    "service/pool.py",
}

MODULES = sorted(SRC.rglob("*.py"))

_KERNEL = r"(ric_exact|ric_montecarlo|ric_mc_chunk|inf_k_symbolic|inf_k_bruteforce)"
_METHOD = r"""["'](auto|exact|montecarlo|symbolic|bruteforce)["']"""

#: Direct kernel calls and method-literal dispatch.
FORBIDDEN = [
    rf"\b{_KERNEL}\s*\(",
    rf"\b(method|engine)\s*[!=]=\s*{_METHOD}",
    rf"\bin\s*\(\s*{_METHOD}",
    r"""\.method\s+in\s*\(""",
]


def strip_comments_and_docstrings(text: str) -> str:
    text = re.sub(r'"""[\s\S]*?"""', "", text)
    text = re.sub(r"'''[\s\S]*?'''", "", text)
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def test_allowlist_names_real_modules():
    assert {p.relative_to(SRC).as_posix() for p in MODULES} >= ALLOWED


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(SRC).as_posix() for p in MODULES]
)
def test_caller_contains_no_engine_dispatch(path):
    if path.relative_to(SRC).as_posix() in ALLOWED:
        pytest.skip("allowlisted dispatch site")
    code = strip_comments_and_docstrings(path.read_text(encoding="utf-8"))
    violations = [
        pattern for pattern in FORBIDDEN if re.search(pattern, code)
    ]
    assert not violations, (
        f"{path.relative_to(SRC.parent.parent)} still dispatches engines "
        f"directly: {violations}"
    )


def test_callers_import_the_planner_not_the_engines():
    # The positive side of the invariant: each thin caller reaches the
    # engines only through repro.engine.
    for path in (SRC / "advisor.py", SRC / "service" / "runner.py"):
        code = path.read_text(encoding="utf-8")
        assert "from repro.engine import" in code, path
