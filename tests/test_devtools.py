"""reprolint (repro.devtools): per-rule fixtures, suppressions, CLI.

Every rule gets a bad fixture (asserting the exact RPLxxx code fires)
and a good fixture (asserting it stays quiet), all built as tiny
synthetic package trees — plus the one test that matters most in CI:
the live tree lints clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import RULES, run_lint
from repro.devtools.__main__ import main as devtools_main
from repro.devtools.formats import format_facts, write_baseline
from repro.devtools.sources import load_context, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Write a synthetic ``repro`` package tree and return its root."""
    package = root / "repro"
    for rel, text in files.items():
        path = package / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        init = path.parent / "__init__.py"
        walk = path.parent
        while walk != root:
            (walk / "__init__.py").touch()
            walk = walk.parent
    return package


def lint(package: Path, tmp_path: Path, **kwargs) -> list:
    """Lint a synthetic tree against an empty (absent) schema baseline."""
    kwargs.setdefault("schema_baseline", tmp_path / "no_baseline.json")
    return run_lint(package, **kwargs)


def codes_of(findings) -> set[str]:
    return {f.code for f in findings}


# ---------------------------------------------------------------------------
# RPL001 — env reads outside repro.envopts
# ---------------------------------------------------------------------------


class TestRPL001:
    def test_raw_reads_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                import os
                A = os.environ.get("REPRO_JOBS")
                B = os.getenv("REPRO_SCALE")
                """,
            },
        )
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL001"]
        assert [(f.rel, f.line) for f in findings] == [
            ("bad.py", 3),
            ("bad.py", 4),
        ]

    def test_from_import_flagged(self, tmp_path):
        package = make_tree(
            tmp_path, {"bad.py": "from os import environ\n"}
        )
        assert "RPL001" in codes_of(lint(package, tmp_path))

    def test_envopts_itself_exempt(self, tmp_path):
        package = make_tree(
            tmp_path,
            {"envopts.py": "import os\nX = os.environ.get('REPRO_JOBS')\n"},
        )
        assert "RPL001" not in codes_of(lint(package, tmp_path))

    def test_routed_read_clean(self, tmp_path):
        package = make_tree(
            tmp_path,
            {"good.py": "from .envopts import env_str\nX = env_str('REPRO_JOBS')\n"},
        )
        assert "RPL001" not in codes_of(lint(package, tmp_path))


# ---------------------------------------------------------------------------
# RPL002 — durable writes outside atomicio
# ---------------------------------------------------------------------------

_BAD_CACHE = """
import os, tempfile

def put(path, record):
    with open(path, "w") as fh:
        fh.write(record)
    path.write_text(record)
    path.write_bytes(b"x")
    fd, tmp = tempfile.mkstemp()
    os.replace(tmp, path)
"""


class TestRPL002:
    def test_every_raw_write_idiom_flagged(self, tmp_path):
        package = make_tree(tmp_path, {"runtime/cache.py": _BAD_CACHE})
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL002"]
        assert len(findings) == 5
        assert all(f.rel == "runtime/cache.py" for f in findings)

    def test_only_durable_modules_in_scope(self, tmp_path):
        package = make_tree(tmp_path, {"analysis/report.py": _BAD_CACHE})
        assert "RPL002" not in codes_of(lint(package, tmp_path))

    def test_reads_and_locks_are_fine(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "workloads/tracestore.py": """
                import os
                from ..runtime.atomicio import atomic_writer

                def read_blob(path):
                    with path.open("rb") as fh:
                        return fh.read()

                def lock(path):
                    return os.open(path, os.O_CREAT | os.O_RDWR)

                def write_blob(path, blob):
                    with atomic_writer(path, "wb") as fh:
                        fh.write(blob)
                """,
            },
        )
        assert "RPL002" not in codes_of(lint(package, tmp_path))


# ---------------------------------------------------------------------------
# RPL003 — confighash exhaustiveness
# ---------------------------------------------------------------------------


class TestRPL003:
    def test_uncanonicalizable_fields_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Nested:
                    xs: tuple[int, ...]
                    mapping: dict[str, int]

                @dataclass(frozen=True)
                class SimConfig:
                    a: int
                    b: Nested
                    anything: object
                """,
            },
        )
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL003"]
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("Nested.mapping" in m for m in messages)
        assert any("SimConfig.anything" in m for m in messages)

    def test_unreachable_dataclass_not_checked(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "config.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Standalone:
                    anything: object

                @dataclass(frozen=True)
                class SimConfig:
                    a: int
                """,
            },
        )
        assert "RPL003" not in codes_of(lint(package, tmp_path))

    def test_good_annotations_clean(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "config.py": """
                from dataclasses import dataclass
                from typing import ClassVar

                @dataclass(frozen=True)
                class Inner:
                    pair: tuple[tuple[str, float], ...]

                @dataclass(frozen=True)
                class SimConfig:
                    KNOWN: ClassVar[dict] = {}
                    a: int
                    b: "Inner"
                    c: str | None
                    d: tuple[int, ...]
                """,
            },
        )
        assert "RPL003" not in codes_of(lint(package, tmp_path))

    def test_live_config_tree_is_exhaustive(self):
        ctx = load_context(PACKAGE_ROOT)
        assert RULES["RPL003"].check(ctx) == []


# ---------------------------------------------------------------------------
# RPL004 — schema-tag drift
# ---------------------------------------------------------------------------

_TRACKED_CACHE = """
import re
_SCHEMA_MAJOR = "engine-v1"
_NAME_DIGEST_CHARS = 16
_TAG_DIR_RE = re.compile(r"engine-v\\d+")

def _path(root, digest):
    return root / digest[:_NAME_DIGEST_CHARS]

def put(path, payload):
    record = {"schema": _SCHEMA_MAJOR, "digest": "x", "payload": payload}
    return record
"""


class TestRPL004:
    def _lint_with_baseline(self, tmp_path, cache_src, baseline_from=None):
        package = make_tree(tmp_path, {"runtime/cache.py": cache_src})
        baseline = tmp_path / "schema_baseline.json"
        if baseline_from is not None:
            base_pkg = make_tree(tmp_path / "base", {"runtime/cache.py": baseline_from})
            ctx = load_context(base_pkg, schema_baseline=baseline)
            write_baseline(baseline, format_facts(ctx))
        return run_lint(package, schema_baseline=baseline)

    def test_unchanged_format_is_clean(self, tmp_path):
        findings = self._lint_with_baseline(
            tmp_path, _TRACKED_CACHE, baseline_from=_TRACKED_CACHE
        )
        assert "RPL004" not in codes_of(findings)

    def test_missing_baseline_reported(self, tmp_path):
        findings = self._lint_with_baseline(tmp_path, _TRACKED_CACHE)
        [finding] = [f for f in findings if f.code == "RPL004"]
        assert "no committed fingerprint baseline" in finding.message

    def test_format_change_without_tag_bump(self, tmp_path):
        changed = _TRACKED_CACHE.replace('"digest": "x"', '"sha": "x"')
        findings = self._lint_with_baseline(
            tmp_path, changed, baseline_from=_TRACKED_CACHE
        )
        [finding] = [f for f in findings if f.code == "RPL004"]
        assert "bump the tag" in finding.message
        assert "'engine-cache'" in finding.message

    def test_tag_bump_requires_baseline_refresh(self, tmp_path):
        bumped = _TRACKED_CACHE.replace(
            '_SCHEMA_MAJOR = "engine-v1"', '_SCHEMA_MAJOR = "engine-v2"'
        )
        findings = self._lint_with_baseline(
            tmp_path, bumped, baseline_from=_TRACKED_CACHE
        )
        [finding] = [f for f in findings if f.code == "RPL004"]
        assert "refresh the committed baseline" in finding.message

    def test_comments_and_docstrings_are_not_drift(self, tmp_path):
        reformatted = _TRACKED_CACHE.replace(
            "def put(path, payload):",
            'def put(path, payload):\n    "Write one record."  # noqa',
        ).replace("import re", "import re  # regex module")
        findings = self._lint_with_baseline(
            tmp_path, reformatted, baseline_from=_TRACKED_CACHE
        )
        assert "RPL004" not in codes_of(findings)

    def test_type_annotations_are_not_drift(self, tmp_path):
        # Annotating a tracked writer (the typing-gate ratchet) must not
        # read as an on-disk format change.
        annotated = _TRACKED_CACHE.replace(
            "def put(path, payload):",
            "def put(path: object, payload: dict) -> dict:",
        ).replace("def _path(root, digest):", "def _path(root, digest: str):")
        findings = self._lint_with_baseline(
            tmp_path, annotated, baseline_from=_TRACKED_CACHE
        )
        assert "RPL004" not in codes_of(findings)

    def test_live_baseline_matches_tree(self):
        # The committed schema_baseline.json must track the committed
        # formats — this is the check CI leans on.
        ctx = load_context(PACKAGE_ROOT)
        assert RULES["RPL004"].check(ctx) == []
        baseline = json.loads(
            (PACKAGE_ROOT / "devtools" / "schema_baseline.json").read_text()
        )
        assert set(baseline) == set(format_facts(ctx))


# ---------------------------------------------------------------------------
# RPL005 — counter-namespace collisions
# ---------------------------------------------------------------------------

_STAGES = """
class FetchUnit:
    def counters(self):
        return {"stalls": 1}

class BPUStage:
    def counters(self):
        return {"stalls": 2}

class SubBPU(BPUStage):
    pass

class QuietUnit:
    def counters(self):
        return {"quiet_hits": 3}
"""

_RESULTS = """
def aggregate_stage_counters(stages):
    counters = {"cycles": 0}
    counters["retired_instrs"] = 0
    return counters
"""


class TestRPL005:
    def _tree(self, tmp_path, mechanisms_src):
        return make_tree(
            tmp_path,
            {
                "core/stages/units.py": _STAGES,
                "core/results.py": _RESULTS,
                "core/mechanisms.py": mechanisms_src,
            },
        )

    def test_cross_stage_collision_flagged(self, tmp_path):
        package = self._tree(
            tmp_path,
            """
            def _compose(cfg):
                return [FetchUnit(), BPUStage()]
            STAGE_COMPOSERS = {"clash": _compose}
            """,
        )
        [finding] = [f for f in lint(package, tmp_path) if f.code == "RPL005"]
        assert "'stalls'" in finding.message
        assert "'clash'" in finding.message

    def test_collision_via_inherited_counters(self, tmp_path):
        # SubBPU declares no counters() of its own; it inherits BPUStage's
        # keys, which still collide with FetchUnit's.
        package = self._tree(
            tmp_path,
            """
            def _compose(cfg):
                return [FetchUnit(), SubBPU()]
            STAGE_COMPOSERS = {"clash": _compose}
            """,
        )
        assert "RPL005" in codes_of(lint(package, tmp_path))

    def test_reserved_aggregate_key_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "core/stages/units.py": """
                class CycleThief:
                    def counters(self):
                        return {"cycles": 9}
                """,
                "core/results.py": _RESULTS,
                "core/mechanisms.py": """
                def _compose(cfg):
                    return [CycleThief()]
                STAGE_COMPOSERS = {"thief": _compose}
                """,
            },
        )
        [finding] = [f for f in lint(package, tmp_path) if f.code == "RPL005"]
        assert "aggregate_stage_counters" in finding.message

    def test_composition_through_helpers_resolved(self, tmp_path):
        # Composers that delegate to shared helper functions (the _spine
        # idiom) are followed transitively.
        package = self._tree(
            tmp_path,
            """
            def _spine():
                return [FetchUnit()]
            def _compose(cfg):
                return _spine() + [BPUStage()]
            STAGE_COMPOSERS = {"clash": _compose}
            """,
        )
        assert "RPL005" in codes_of(lint(package, tmp_path))

    def test_disjoint_namespaces_clean(self, tmp_path):
        package = self._tree(
            tmp_path,
            """
            def _compose(cfg):
                return [FetchUnit(), QuietUnit()]
            STAGE_COMPOSERS = {"fine": _compose}
            """,
        )
        assert "RPL005" not in codes_of(lint(package, tmp_path))


# ---------------------------------------------------------------------------
# RPL006 — registry consistency
# ---------------------------------------------------------------------------


class TestRPL006:
    def test_mechanism_registry_drift_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "core/mechanisms.py": """
                MECHANISMS = ("none", "boomerang")
                FIGURE_MECHANISMS = ("none", "ghost")
                _TRAITS = {"none": 1}
                def _compose(cfg):
                    return []
                STAGE_COMPOSERS = {"none": _compose, "boomerang": _compose}
                """,
            },
        )
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL006"]
        messages = " | ".join(f.message for f in findings)
        assert "_TRAITS keys disagree" in messages
        assert "FIGURE_MECHANISMS is not a subset" in messages
        assert "STAGE_COMPOSERS" not in messages  # those keys DO agree

    def test_env_choices_drift_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "envopts.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class EnvOption:
                    name: str
                    choices: tuple = ()

                OPTIONS = (
                    EnvOption("REPRO_BACKEND", choices=("auto", "serial")),
                )
                """,
                "runtime/executors.py": """
                BACKEND_NAMES = ("auto", "serial", "pool", "broker")
                """,
            },
        )
        [finding] = [f for f in lint(package, tmp_path) if f.code == "RPL006"]
        assert "REPRO_BACKEND choices disagree" in finding.message
        assert finding.rel == "envopts.py"

    def test_unknown_sweep_exhibit_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "experiments/__init__.py": """
                EXPERIMENTS = {"figure_7": object()}
                """,
                "experiments/sweeps/__init__.py": """
                class SweepSpec:
                    def __init__(self, **kw):
                        pass

                SPECS = (
                    SweepSpec(name="ok", exhibit="figure_7"),
                    SweepSpec(name="bad", exhibit="figure_99"),
                )
                """,
            },
        )
        [finding] = [f for f in lint(package, tmp_path) if f.code == "RPL006"]
        assert "'figure_99'" in finding.message

    def test_live_registries_consistent(self):
        ctx = load_context(PACKAGE_ROOT)
        assert RULES["RPL006"].check(ctx) == []


# ---------------------------------------------------------------------------
# RPL007 — docs drift
# ---------------------------------------------------------------------------


class TestRPL007:
    def _repo(self, tmp_path, *, marker=True, rule_doc=True, linked=True):
        repo = tmp_path / "fakerepo"
        package = make_tree(repo / "src", {"core.py": "X = 1\n"})
        (repo / "scripts").mkdir()
        (repo / "scripts" / "generate_docs_tables.py").write_text(
            'BLOCKS = {"exhibits": None}\n'
        )
        (repo / "docs").mkdir()
        body = "table\n"
        if marker:
            body = (
                "<!-- generated:begin exhibits -->\n"
                "table\n"
                "<!-- generated:end exhibits -->\n"
            )
        (repo / "docs" / "experiments.md").write_text(body)
        codes = " ".join(sorted(RULES)) if rule_doc else "RPL001 only"
        (repo / "docs" / "devtools.md").write_text(f"# reprolint\n{codes}\n")
        link = "see docs/devtools.md" if linked else "no link here"
        (repo / "README.md").write_text(link + "\n")
        (repo / "docs" / "architecture.md").write_text(link + "\n")
        return package, repo

    def test_missing_generated_marker_flagged(self, tmp_path):
        package, repo = self._repo(tmp_path, marker=False)
        findings = [
            f
            for f in lint(package, tmp_path, repo_root=repo)
            if f.code == "RPL007"
        ]
        assert len(findings) == 2  # begin + end markers both missing
        assert all("generated-table marker" in f.message for f in findings)

    def test_undocumented_rule_flagged(self, tmp_path):
        package, repo = self._repo(tmp_path, rule_doc=False)
        findings = [
            f
            for f in lint(package, tmp_path, repo_root=repo)
            if f.code == "RPL007"
        ]
        assert any("not documented in docs/devtools.md" in f.message for f in findings)

    def test_unlinked_doc_flagged(self, tmp_path):
        package, repo = self._repo(tmp_path, linked=False)
        findings = [
            f
            for f in lint(package, tmp_path, repo_root=repo)
            if f.code == "RPL007"
        ]
        assert {f.rel for f in findings} == {"README.md", "docs/architecture.md"}

    def test_complete_docs_clean(self, tmp_path):
        package, repo = self._repo(tmp_path)
        assert "RPL007" not in codes_of(lint(package, tmp_path, repo_root=repo))


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_parse(self):
        per_line, per_file = parse_suppressions(
            "x = 1  # reprolint: disable=RPL001,RPL002\n"
            "# reprolint: disable-file=RPL004\n"
        )
        assert per_line == {1: {"RPL001", "RPL002"}}
        assert per_file == {"RPL004"}

    def test_line_suppression_silences_only_that_code(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                import os
                A = os.environ.get("REPRO_JOBS")  # reprolint: disable=RPL001
                B = os.getenv("REPRO_SCALE")
                """,
            },
        )
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL001"]
        assert [f.line for f in findings] == [4]

    def test_file_suppression(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                # reprolint: disable-file=RPL001
                import os
                A = os.environ.get("REPRO_JOBS")
                B = os.getenv("REPRO_SCALE")
                """,
            },
        )
        assert "RPL001" not in codes_of(lint(package, tmp_path))

    def test_disable_all(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                import os
                A = os.environ.get("REPRO_JOBS")  # reprolint: disable=all
                """,
            },
        )
        assert "RPL001" not in codes_of(lint(package, tmp_path))


# ---------------------------------------------------------------------------
# CLI + the check that gates CI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        package = make_tree(tmp_path, {"fine.py": "X = 1\n"})
        code = devtools_main(["lint", "--package-root", str(package)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reprolint: clean" in out

    def test_lint_bad_tree_exits_one_with_counts(self, tmp_path, capsys):
        package = make_tree(
            tmp_path,
            {"bad.py": "import os\nA = os.environ.get('REPRO_JOBS')\n"},
        )
        code = devtools_main(["lint", "--package-root", str(package)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.py:2: RPL001" in out
        assert "RPL001 (env-precedence): 1" in out
        assert "reprolint: 1 finding(s)" in out

    def test_codes_filter(self, tmp_path, capsys):
        package = make_tree(
            tmp_path,
            {"bad.py": "import os\nA = os.environ.get('REPRO_JOBS')\n"},
        )
        code = devtools_main(
            ["lint", "--package-root", str(package), "--codes", "RPL002"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_code_rejected(self, tmp_path):
        package = make_tree(tmp_path, {"fine.py": "X = 1\n"})
        with pytest.raises(SystemExit):
            devtools_main(
                ["lint", "--package-root", str(package), "--codes", "RPL999"]
            )

    def test_baseline_command_fixes_drift(self, tmp_path, capsys):
        package = make_tree(tmp_path, {"runtime/cache.py": _TRACKED_CACHE})
        baseline = tmp_path / "schema_baseline.json"
        args = ["--package-root", str(package), "--baseline", str(baseline)]
        assert devtools_main(["lint", *args]) == 1  # no baseline yet: RPL004
        assert devtools_main(["baseline", *args]) == 0
        assert baseline.is_file()
        assert devtools_main(["lint", *args]) == 0
        capsys.readouterr()


class TestLiveTree:
    def test_live_tree_lints_clean(self):
        findings = run_lint(PACKAGE_ROOT)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_registered_and_documented_shape(self):
        assert len(RULES) >= 6
        for code, rule in RULES.items():
            assert code == rule.code
            assert rule.summary
