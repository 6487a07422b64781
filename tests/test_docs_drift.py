"""Documentation tables must match the registries they describe.

Same gate CI runs (`python scripts/generate_docs_tables.py --check`):
adding an exhibit, sweep, or paper claim without regenerating the docs is
a test failure, not a silent drift. README's environment-variable table is
hand-written, so it is checked against ``REPRO_ENV_OPTIONS`` directly, and
the lint-rule reference must cover ``repro.devtools.RULES`` and stay linked.
Every Markdown file a ``src/repro`` docstring names must exist.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from invariants import devtools_doc_gaps, load_docs_generator
from repro.envopts import REPRO_ENV_OPTIONS
from repro.runtime import cache

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_docs_tables_match_registries():
    generator = load_docs_generator()
    committed = generator.DOC_PATH.read_text()
    assert generator.render(committed) == committed, (
        "docs/experiments.md is stale — regenerate with "
        "`python scripts/generate_docs_tables.py`"
    )


def test_check_mode_reports_clean():
    generator = load_docs_generator()
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


def test_devtools_doc_is_complete_and_linked():
    assert devtools_doc_gaps(REPO_ROOT) == []


SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Docstrings that still cite a missing DESIGN.md, in sources whose bytes
#: ``repro.runtime.cache`` fingerprints into ``SCHEMA_TAG``: editing them
#: re-keys every cached result, so they are mended with the next change
#: to the simulator's semantics. Nothing may join this set.
FINGERPRINTED_STALE = {
    ("config.py", "DESIGN.md"),
    ("workloads/__init__.py", "DESIGN.md"),
    ("workloads/profiles.py", "DESIGN.md"),
}


def _docstring_md_names():
    """(source path, ``*.md`` name) for every Markdown file a docstring names."""
    docstring_nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, docstring_nodes):
                for name in re.findall(r"[\w./-]+\.md\b", ast.get_docstring(node) or ""):
                    yield path.relative_to(SRC_ROOT).as_posix(), name


def test_docstring_markdown_references_exist():
    missing = {
        (rel, name)
        for rel, name in _docstring_md_names()
        if not (REPO_ROOT / name).exists() and not (REPO_ROOT / "docs" / name).exists()
    }
    assert missing == FINGERPRINTED_STALE


def test_stale_references_are_only_in_fingerprinted_sources():
    for rel, _ in FINGERPRINTED_STALE:
        top = Path(rel).parts[0]
        assert top not in cache._NON_SEMANTIC_DIRS and not rel.endswith("__main__.py")
