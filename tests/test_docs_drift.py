"""Documentation tables must match the registries they describe.

Same gate CI runs (`python scripts/generate_docs_tables.py --check`):
adding an exhibit, sweep, or paper claim without regenerating the docs is
a test failure, not a silent drift. README's environment-variable table is
hand-written, so it is checked against ``REPRO_ENV_OPTIONS`` directly, and
the lint-rule reference must cover ``repro.devtools.RULES`` and stay linked.
Every Markdown file a ``src/repro`` or ``scripts`` source names must exist.
"""

from __future__ import annotations

import re
from pathlib import Path

from invariants import devtools_doc_gaps, load_docs_generator
from repro.envopts import REPRO_ENV_OPTIONS

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
    # | `NAME` | values | default | what it selects |  (values may hold `\|`)
    cells = [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in readme.splitlines()
        if line.startswith("| `REPRO_")
    ]
    defaults = {row[0].strip("`"): row[2] for row in cells}
    registered = set(REPRO_ENV_OPTIONS)
    assert set(defaults) - registered == set(), "README documents unregistered variables"
    assert registered - UNDOCUMENTED_ENV_OPTIONS - set(defaults) == set(), (
        "registered variables missing from README's table"
    )
    for name, cell in defaults.items():
        option = REPRO_ENV_OPTIONS[name]
        literal = re.fullmatch(r"`([^`]*)`", cell)
        if option.default is None:
            assert literal is None, f"{name}: README gives a default, the registry none"
        else:
            assert literal is not None, f"{name}: README default {cell!r} is no literal"
            assert option.parse(literal.group(1)) == option.default, (
                f"{name}: README default {cell} disagrees with the registry's "
                f"{option.default!r}"
            )


def test_devtools_doc_is_complete_and_linked():
    assert devtools_doc_gaps(REPO_ROOT) == []


def _markdown_names():
    """(source path, ``*.md`` name) for every Markdown file named anywhere
    in a ``src/repro`` or ``scripts`` source: docstrings, comments and
    strings alike (a script's prose often lives in a string constant)."""
    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    sources += sorted((REPO_ROOT / "scripts").glob("*.py"))
    for path in sources:
        for name in re.findall(r"[\w./-]+\.md\b", path.read_text()):
            yield path.relative_to(REPO_ROOT).as_posix(), name


def test_docstring_markdown_references_exist():
    missing = {
        (rel, name)
        for rel, name in _markdown_names()
        if not (REPO_ROOT / name).exists() and not (REPO_ROOT / "docs" / name).exists()
    }
    assert missing == set()


def _experiments_md_tables():
    """Exhibit name -> the table in its ``**Measured:**`` fence."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    return dict(
        re.findall(r"^## (\S+)\n.*?\n```\n(.*?)\n```$", text, flags=re.MULTILINE | re.DOTALL)
    )


def test_experiments_md_tables_match_benchmark_results():
    """EXPERIMENTS.md and ``benchmarks/results/`` are both at quick scale
    (the generator's default), so every exhibit's table is the same text."""
    tables = _experiments_md_tables()
    results = {
        path.stem: path.read_text().rstrip("\n")
        for path in (REPO_ROOT / "benchmarks" / "results").glob("*.txt")
    }
    assert sorted(tables) == sorted(results)
    stale = [name for name in sorted(results) if tables[name] != results[name]]
    assert stale == [], f"EXPERIMENTS.md tables differ from benchmarks/results: {stale}"
