"""The lazy package re-exports resolve to the same objects in any order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lazy import lazy_exports

LAZY_PACKAGES = [
    "repro.core", "repro.engine", "repro.graph", "repro.dependencies",
]


def run_fresh(code: str) -> str:
    """The stdout of *code* run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    ).stdout


def test_minimal_cover_is_the_function_after_its_submodule_loads():
    # repro.normalforms imports repro.dependencies.minimal_cover, which
    # sets the package attribute of that name to the submodule.
    out = run_fresh(
        "import repro.normalforms\n"
        "from repro.dependencies import minimal_cover\n"
        "print(callable(minimal_cover))"
    )
    assert out.strip() == "True"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_the_definitions_after_every_submodule_loads(package):
    out = run_fresh(
        "import importlib, pkgutil, types\n"
        f"pkg = importlib.import_module({package!r})\n"
        "for info in pkgutil.iter_modules(pkg.__path__):\n"
        "    importlib.import_module(pkg.__name__ + '.' + info.name)\n"
        "bad = [n for n in pkg.__all__\n"
        "       if isinstance(getattr(pkg, n), types.ModuleType)]\n"
        "print(bad)"
    )
    assert out.strip() == "[]"


def test_an_export_named_like_its_submodule_is_rejected():
    with pytest.raises(ValueError, match="named like a submodule"):
        lazy_exports("pkg", {"helper": "helper", "other": "helper"})
