"""Every ``repro`` module imports with only its declared dependencies.

``pyproject.toml`` declares numpy as the one runtime dependency, and CI
installs nothing else for the examples and the perfbench smoke runs.  A
module that imports any other third-party package works wherever that
package happens to be installed and dies at import on a clean install.  The
check runs in a fresh interpreter whose import system refuses every
top-level module outside the standard library, numpy and repro itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import importlib
import importlib.abc
import pkgutil
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


class DeclaredOnly(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"undeclared dependency {name!r}", name=name)
        return None


sys.meta_path.insert(0, DeclaredOnly())
"""

IMPORT_ALL = """
import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print("\\n".join(names))
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )


def test_every_module_imports_with_declared_dependencies_only():
    proc = _run(GUARD + IMPORT_ALL)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    for name in ("repro.core.vdpc", "repro.serving.engine", "repro.devtools.racecheck"):
        assert name in names


def test_guard_refuses_an_undeclared_package():
    """The guard is live: a test-only package is refused at import."""
    proc = _run(GUARD + "import hypothesis\n")
    assert proc.returncode != 0
    assert "undeclared dependency 'hypothesis'" in proc.stderr
