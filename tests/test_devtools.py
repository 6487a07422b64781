"""reprolint (repro.devtools): per-rule fixtures, suppressions, CLI.

Every rule gets a bad fixture (asserting the exact RPLxxx code fires)
and a good fixture (asserting it stays quiet), all built as tiny
synthetic package trees — plus the one test that matters most in CI:
the live tree lints clean.

The retired rules RPL003, RPL005, RPL006 and RPL007 keep their fixtures
here, now seeded into the imported objects and run through the checks in
``tests/invariants.py`` that replaced them.
"""

from __future__ import annotations

import copy
import json
import textwrap
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import pytest

from invariants import (
    counter_collisions,
    devtools_doc_gaps,
    digest_blind_leaves,
    load_docs_generator,
    registry_drift,
)
from repro import load_workload
from repro.core.engine import FrontEndEngine
from repro.core.mechanisms import _TRAITS, MECHANISMS, STAGE_COMPOSERS, make_config
from repro.devtools import RULES, run_lint
from repro.devtools.__main__ import main as devtools_main
from repro.devtools.formats import format_facts, write_baseline
from repro.devtools.rules import _DURABLE_MODULES
from repro.devtools.sources import load_context, parse_suppressions
from repro.envopts import REPRO_ENV_OPTIONS, EnvOption
from repro.workloads.profiles import PROFILE_SETS

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


def lint(package: Path, tmp_path: Path) -> list:
    """Lint a synthetic tree against an empty (absent) schema baseline."""
    return run_lint(package, schema_baseline=tmp_path / "no_baseline.json")


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
            {"good.py": "from .envopts import resolve\nX = resolve('REPRO_JOBS')\n"},
        )
        assert "RPL001" not in codes_of(lint(package, tmp_path))

    def test_parsing_a_read_env_result_flagged(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                from .envopts import read_env

                def jobs():
                    raw = read_env("REPRO_JOBS")
                    return int(raw) if raw else 1

                LEASE = float(read_env("REPRO_BROKER_LEASE") or "300")
                """,
            },
        )
        findings = [f for f in lint(package, tmp_path) if f.code == "RPL001"]
        assert [(f.rel, f.line) for f in findings] == [("bad.py", 6), ("bad.py", 8)]
        assert all("resolve" in f.message for f in findings)

    def test_parsing_other_values_clean(self, tmp_path):
        package = make_tree(
            tmp_path,
            {
                "good.py": """
                from .envopts import read_env, resolve

                STORE = read_env("REPRO_TRACE_STORE")
                JOBS = int(resolve("REPRO_JOBS"))
                WIDTH = int("4")
                """,
            },
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
# RPL003 (retired) — config-digest coverage, now a walk over the config objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Nested:
    xs: tuple[int, ...] = (1, 2)
    mapping: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class _BadConfig:
    a: int = 1
    b: _Nested = _Nested()
    anything: object = 0


@dataclass(frozen=True)
class _Inner:
    pair: tuple[tuple[str, float], ...] = (("x", 1.0),)


@dataclass(frozen=True)
class _GoodConfig:
    KNOWN: ClassVar[dict] = {}
    a: int = 1
    b: _Inner = _Inner()
    c: str | None = None
    d: tuple[int, ...] = (1, 2)


class TestRPL003:
    def test_uncanonicalizable_fields_flagged(self):
        problems = digest_blind_leaves(_BadConfig())
        assert len(problems) == 2
        assert any(p.startswith("_BadConfig.b.mapping:") for p in problems)
        assert any(p.startswith("_BadConfig.anything:") for p in problems)

    def test_unreachable_dataclass_not_checked(self):
        # _Nested's dict field is flagged where a walk reaches it, only there.
        assert len(digest_blind_leaves(_Nested())) == 1
        assert digest_blind_leaves(_GoodConfig()) == []

    def test_good_annotations_clean(self):
        assert digest_blind_leaves(_GoodConfig()) == []

    def test_live_config_tree_is_exhaustive(self):
        # Every config the mechanism registry builds and every registered
        # profile, not just the defaults test_every_layer_contributes walks.
        roots = [make_config(m) for m in MECHANISMS] + list(PROFILE_SETS["all"])
        assert [p for root in roots for p in digest_blind_leaves(root)] == []


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

    def test_cfg_layout_change_is_trace_store_drift(self, tmp_path):
        # Trace-store records hold the CFG's columns as-is, so the layout
        # constant in workloads/cfg.py is a trace-store format fact.
        store = '_SCHEMA_MAJOR = "trace-v1"\n_MAGIC = b"X"\n'
        layout = 'CFG_ARRAYS = (("block.start", "q"),)\n'

        def tree(root, cfg_src):
            return make_tree(
                root, {"workloads/tracestore.py": store, "workloads/cfg.py": cfg_src}
            )

        baseline = tmp_path / "schema_baseline.json"
        base_ctx = load_context(tree(tmp_path / "base", layout), schema_baseline=baseline)
        write_baseline(baseline, format_facts(base_ctx))
        same = run_lint(tree(tmp_path / "same", layout), schema_baseline=baseline)
        assert "RPL004" not in codes_of(same)
        changed = tree(tmp_path / "changed", layout.replace('"q"', '"i"'))
        [finding] = [
            f for f in run_lint(changed, schema_baseline=baseline) if f.code == "RPL004"
        ]
        assert "'trace-store'" in finding.message and "bump the tag" in finding.message

    def test_trace_layout_change_is_trace_store_drift(self, tmp_path):
        # The trace columns are written as-is too (workloads/trace.py).
        store = '_SCHEMA_MAJOR = "trace-v1"\n_MAGIC = b"X"\n'
        layout = 'COLUMN_SPECS = (("start", "I"), ("ninstr", "H"))\n'

        def tree(root, trace_src):
            return make_tree(
                root, {"workloads/tracestore.py": store, "workloads/trace.py": trace_src}
            )

        baseline = tmp_path / "schema_baseline.json"
        base_ctx = load_context(tree(tmp_path / "base", layout), schema_baseline=baseline)
        write_baseline(baseline, format_facts(base_ctx))
        changed = tree(tmp_path / "changed", layout.replace('"I"', '"q"'))
        [finding] = [
            f for f in run_lint(changed, schema_baseline=baseline) if f.code == "RPL004"
        ]
        assert "'trace-store'" in finding.message and "bump the tag" in finding.message

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
# RPL005 (retired) — counter namespaces, now checked on the composed stages
# ---------------------------------------------------------------------------


class _FetchUnit:
    def counters(self):
        return {"stalls": 1}


class _BPUStage:
    def counters(self):
        return {"stalls": 2}


class _SubBPU(_BPUStage):
    pass


class _QuietUnit:
    def counters(self):
        return {"quiet_hits": 3}


@pytest.fixture(scope="module")
def boomerang_engine():
    return FrontEndEngine(
        load_workload("streaming", scale=0.05), make_config("boomerang")
    )


class TestRPL005:
    def test_cross_stage_collision_flagged(self, boomerang_engine):
        [clash] = counter_collisions([_FetchUnit(), _BPUStage()], boomerang_engine)
        assert clash == "'stalls': _FetchUnit and _BPUStage"

    def test_collision_via_inherited_counters(self, boomerang_engine):
        # _SubBPU declares no counters() of its own; it inherits
        # _BPUStage's keys, which still collide with _FetchUnit's.
        clashes = counter_collisions([_FetchUnit(), _SubBPU()], boomerang_engine)
        assert clashes == ["'stalls': _FetchUnit and _SubBPU"]
        # The same on real stages: a subclass of boomerang's BPU stage
        # composed next to it writes every inherited key twice.
        [stage] = [s for s in boomerang_engine.stages if type(s).__name__ == "MissProbeBPU"]
        assert stage.counters()
        clone = copy.copy(stage)
        clone.__class__ = type("SubStage", (type(stage),), {"__slots__": ()})
        assert counter_collisions(
            [*boomerang_engine.stages, clone], boomerang_engine
        )

    def test_reserved_aggregate_key_flagged(self, boomerang_engine):
        class CycleThief:
            def counters(self):
                return {"cycles": 9}

        class MissThief:
            def counters(self):
                return dict.fromkeys(boomerang_engine.mem.counters(), 0)

        [clash] = counter_collisions([CycleThief()], boomerang_engine)
        assert clash == "'cycles': aggregate_stage_counters and CycleThief"
        assert counter_collisions([MissThief()], boomerang_engine)

    def test_composition_through_helpers_resolved(self, boomerang_engine):
        # The check reads the composed stage tuple, so stages a composer
        # builds through the shared _spine helper are in it.
        stages = boomerang_engine.stages
        names = [type(s).__name__ for s in stages]
        for helper_built in ("SquashUnit", "RetireUnit", "DecodeDispatch", "FetchUnit"):
            assert helper_built in names
        fetch = stages[names.index("FetchUnit")]
        assert counter_collisions(stages, boomerang_engine) == []
        assert counter_collisions([*stages, copy.copy(fetch)], boomerang_engine)

    def test_disjoint_namespaces_clean(self, boomerang_engine):
        assert counter_collisions([_FetchUnit(), _QuietUnit()], boomerang_engine) == []


# ---------------------------------------------------------------------------
# RPL006 (retired) — registry agreement, now set checks on the registries
# ---------------------------------------------------------------------------


class TestRPL006:
    def test_mechanism_registry_drift_flagged(self):
        ghost = {**STAGE_COMPOSERS, "ghost": STAGE_COMPOSERS["none"]}
        missing = {k: v for k, v in STAGE_COMPOSERS.items() if k != "pif"}
        assert registry_drift(composers=ghost) == [
            "STAGE_COMPOSERS keys disagree with MECHANISMS on ['ghost']"
        ]
        assert registry_drift(composers=missing) == [
            "STAGE_COMPOSERS keys disagree with MECHANISMS on ['pif']"
        ]
        # _TRAITS is the single source: the tuple cannot drift from it.
        assert MECHANISMS == tuple(_TRAITS)

    def test_env_choices_drift_flagged(self):
        backend = REPRO_ENV_OPTIONS["REPRO_BACKEND"]
        options = {
            **REPRO_ENV_OPTIONS,
            "REPRO_BACKEND": replace(backend, choices=("auto", "serial")),
        }
        assert registry_drift(env_options=options) == [
            "REPRO_BACKEND choices disagree with its registry"
        ]
        extra = EnvOption("REPRO_EXTRA", "unregistered choice", choices=("a",))
        options = {**REPRO_ENV_OPTIONS, extra.name: extra}
        assert registry_drift(env_options=options) == [
            "env options with choices disagree on ['REPRO_EXTRA']"
        ]

    def test_live_registries_consistent(self):
        assert registry_drift() == []


# ---------------------------------------------------------------------------
# RPL007 (retired) — docs drift, now checked on the docs and the generator
# ---------------------------------------------------------------------------


class TestRPL007:
    def _repo(self, tmp_path, *, rule_doc=True, linked=True):
        (tmp_path / "docs").mkdir()
        codes = " ".join(sorted(RULES)) if rule_doc else "RPL001 only"
        (tmp_path / "docs" / "devtools.md").write_text(f"# reprolint\n{codes}\n")
        link = "see docs/devtools.md" if linked else "no link here"
        (tmp_path / "README.md").write_text(link + "\n")
        (tmp_path / "docs" / "architecture.md").write_text(link + "\n")
        return tmp_path

    def test_missing_generated_marker_flagged(self):
        generator = load_docs_generator()
        committed = generator.DOC_PATH.read_text()
        for name in generator.BLOCKS:
            for end in ("begin", "end"):
                marker = f"<!-- generated:{end} {name} -->\n"
                assert marker in committed
                with pytest.raises(SystemExit, match=f"lost its {name!r} markers"):
                    generator.render(committed.replace(marker, ""))

    def test_undocumented_rule_flagged(self, tmp_path):
        assert devtools_doc_gaps(self._repo(tmp_path, rule_doc=False)) == [
            f"{code} is not in docs/devtools.md" for code in RULES if code != "RPL001"
        ]
        # A rule registered in the live tree without its doc entry.
        assert devtools_doc_gaps(REPO_ROOT, {**RULES, "RPL008": None}) == [
            "RPL008 is not in docs/devtools.md"
        ]

    def test_unlinked_doc_flagged(self, tmp_path):
        assert devtools_doc_gaps(self._repo(tmp_path, linked=False)) == [
            "README.md does not link docs/devtools.md",
            "docs/architecture.md does not link docs/devtools.md",
        ]

    def test_complete_docs_clean(self, tmp_path):
        assert devtools_doc_gaps(self._repo(tmp_path)) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_parse(self):
        assert parse_suppressions(
            "x = 1  # reprolint: disable=RPL001,RPL002\n"
            "y = 2\n"
            "z = 3  # reprolint: disable=RPL004\n"
        ) == {1: {"RPL001", "RPL002"}, 3: {"RPL004"}}

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
        # There is no file-wide scope: such a comment silences nothing.
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                # reprolint: disable-file=RPL001
                import os
                A = os.environ.get("REPRO_JOBS")
                """,
            },
        )
        assert [f.line for f in lint(package, tmp_path)] == [4]

    def test_disable_all(self, tmp_path):
        # Codes must be named: ``disable=all`` silences nothing.
        package = make_tree(
            tmp_path,
            {
                "bad.py": """
                import os
                A = os.environ.get("REPRO_JOBS")  # reprolint: disable=all
                """,
            },
        )
        assert [f.line for f in lint(package, tmp_path)] == [3]

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

    def test_baseline_command_fixes_drift(self, tmp_path, capsys):
        package = make_tree(tmp_path, {"runtime/cache.py": _TRACKED_CACHE})
        baseline = tmp_path / "schema_baseline.json"
        args = ["--package-root", str(package), "--baseline", str(baseline)]
        assert devtools_main(["lint", *args]) == 1  # no baseline yet: RPL004
        assert devtools_main(["baseline", *args]) == 0
        assert baseline.is_file()
        assert devtools_main(["lint", *args]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["lint", "baseline"])
    def test_unparsable_file_is_a_hard_error(self, tmp_path, capsys, command):
        package = make_tree(tmp_path, {"broken.py": "X = 1\ndef f(:\n"})
        code = devtools_main([command, "--package-root", str(package)])
        assert code == 2
        assert capsys.readouterr().out.startswith("broken.py:2: syntax error: ")


class TestLiveTree:
    def test_live_tree_lints_clean(self):
        findings = run_lint(PACKAGE_ROOT)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_registered_and_documented_shape(self):
        assert set(RULES) == {"RPL001", "RPL002", "RPL004"}
        for code, rule in RULES.items():
            assert code == rule.code
            assert rule.summary

    def test_durable_modules_exist(self):
        # A stale entry silently shrinks RPL002's scope.
        missing = [m for m in _DURABLE_MODULES if not (PACKAGE_ROOT / m).is_file()]
        assert missing == []
