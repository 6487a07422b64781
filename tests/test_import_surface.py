"""The simulator and broker-worker paths import no service code.

Each case runs ``scripts/import_surface.py``'s path in a fresh
interpreter (a module imports once per process, so an in-process check
would see whatever earlier tests loaded).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "import_surface.py"
_spec = importlib.util.spec_from_file_location("import_surface", _SCRIPT)
import_surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_surface)


@pytest.mark.parametrize("path", sorted(import_surface.PATHS))
def test_path_loads_no_service_module(path):
    assert import_surface.forbidden_loaded(path) == []


def test_simulator_path_loads_the_simulator():
    """The forbidden list is not vacuous: the run really simulated."""
    modules = set(import_surface.loaded_modules("simulator"))
    assert {"repro.core.engine", "repro.workloads.workload"} <= modules
