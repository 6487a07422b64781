"""Documentation tables must match the registries they describe.

Same gate CI runs (`python scripts/generate_docs_tables.py --check`):
adding an exhibit, sweep, or paper claim without regenerating the docs is
a test failure, not a silent drift. README's environment-variable table is
hand-written, so it is checked against ``REPRO_ENV_OPTIONS`` directly.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

from repro.envopts import REPRO_ENV_OPTIONS

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_generator():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        spec = importlib.util.spec_from_file_location(
            "generate_docs_tables", REPO_ROOT / "scripts" / "generate_docs_tables.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(REPO_ROOT / "scripts"))


def test_docs_tables_match_registries():
    generator = _load_generator()
    committed = generator.DOC_PATH.read_text()
    assert generator.render(committed) == committed, (
        "docs/experiments.md is stale — regenerate with "
        "`python scripts/generate_docs_tables.py`"
    )


def test_check_mode_reports_clean():
    generator = _load_generator()
    assert generator.main(["--check"]) == 0


#: Registered options README deliberately leaves out of its table.
UNDOCUMENTED_ENV_OPTIONS = {"REPRO_FAULTPOINTS"}  # test harness only


def test_readme_env_table_matches_the_registry():
    readme = (REPO_ROOT / "README.md").read_text()
    rows = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, flags=re.MULTILINE))
    registered = set(REPRO_ENV_OPTIONS)
    assert rows - registered == set(), "README documents unregistered variables"
    assert registered - UNDOCUMENTED_ENV_OPTIONS - rows == set(), (
        "registered variables missing from README's table"
    )
