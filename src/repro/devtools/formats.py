"""On-disk format fingerprinting for the schema-tag drift rule (RPL004).

The engine's :data:`~repro.runtime.cache.SCHEMA_TAG` and the trace
store's tag fingerprint *semantic* sources automatically — but both
deliberately exclude the ``runtime`` layer from their fingerprint, and
the broker queue and sweep manifests carry plain hand-bumped tags. So
the exact constants that define what is **on disk** — record field
sets, the queue filename grammar (including the ``__w`` cost token),
the trace-store magic — have no drift protection
at all: change one, forget the tag bump, and new code silently
misreads (or silently orphans) old records.

This module extracts those *format facts* straight from the AST:

* literal constants (``_MAGIC``, ``_NAME_DIGEST_CHARS``, and the trace
  and CFG column layouts ``COLUMN_SPECS`` and ``CFG_ARRAYS`` that
  trace-store records hold as-is, read from ``workloads/trace.py`` and
  ``workloads/cfg.py``),
* filename-grammar functions (``_job_filename`` / ``_parse_job_name`` /
  ``_path`` / ``manifest_path``),
  fingerprinted by a docstring-stripped
  ``ast.dump`` so comments and formatting never count as drift,
* the string keys of every record dict a writer builds, plus the
  ``crc32`` that :func:`~repro.runtime.atomicio.atomic_write_json`
  stamps on each JSON record,
* the lifecycle directory-name regexes.

Each fact group hashes to a 12-hex fingerprint that is committed next to
the manual tag in ``schema_baseline.json``. RPL004 recomputes the facts
and compares: a changed fingerprint under an unchanged tag means "you
changed the on-disk format — bump the tag"; a changed tag means "refresh
the baseline" (``python -m repro.devtools baseline``). Either way the
change is loud, reviewed, and recorded.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .sources import LintContext, SourceFile


@dataclass(frozen=True)
class GroupSpec:
    """What to fingerprint for one on-disk format."""

    group: str
    #: Package-relative module holding the format (and its tag constant).
    file: str
    tag_const: str
    #: Literal module constants recorded verbatim.
    consts: tuple[str, ...] = ()
    #: (package-relative module, name) of literal constants that define
    #: the format from another module, recorded verbatim too.
    other_consts: tuple[tuple[str, str], ...] = ()
    #: ``NAME = re.compile(...)`` assignments, fingerprinted by pattern AST.
    regexes: tuple[str, ...] = ()
    #: Functions whose bodies *are* the format (filename grammars, parsers).
    funcs: tuple[str, ...] = ()
    #: Functions whose dict-literal keys are the record field sets.
    dict_key_funcs: tuple[str, ...] = ()
    #: Records are JSON written by ``atomic_write_json``, which adds
    #: :data:`STAMP_KEY` to every field set.
    json_records: bool = False


#: The key ``repro.runtime.atomicio.atomic_write_json`` stamps.
STAMP_KEY = "crc32"


GROUPS: tuple[GroupSpec, ...] = (
    GroupSpec(
        group="engine-cache",
        file="runtime/cache.py",
        tag_const="_SCHEMA_MAJOR",
        consts=("_NAME_DIGEST_CHARS",),
        regexes=("_TAG_DIR_RE",),
        funcs=("_path",),
        dict_key_funcs=("put",),
        json_records=True,
    ),
    GroupSpec(
        group="broker-queue",
        file="runtime/broker.py",
        tag_const="BROKER_SCHEMA",
        funcs=("_job_filename", "_parse_job_name", "job_id", "key_job_id"),
        dict_key_funcs=("job_spec", "complete", "_fail_terminal"),
        json_records=True,
    ),
    GroupSpec(
        group="supervisor-state",
        file="runtime/supervisor.py",
        tag_const="SUPERVISOR_SCHEMA",
        dict_key_funcs=("_state_record",),
        json_records=True,
    ),
    GroupSpec(
        group="status-snapshot",
        file="runtime/supervisor.py",
        tag_const="STATUS_SCHEMA",
        consts=("CELL_STATES",),
        funcs=("cell_job_id",),
        dict_key_funcs=("build_status", "sweep_progress"),
    ),
    GroupSpec(
        group="trace-store",
        file="workloads/tracestore.py",
        tag_const="_SCHEMA_MAJOR",
        consts=("_MAGIC", "_NAME_DIGEST_CHARS", "_PREFIX"),
        other_consts=(
            ("workloads/trace.py", "COLUMN_SPECS"),
            ("workloads/cfg.py", "CFG_ARRAYS"),
        ),
        regexes=("_TAG_DIR_RE",),
        funcs=("_path",),
        dict_key_funcs=("put",),
    ),
    GroupSpec(
        group="sweep-manifest",
        file="experiments/sweeps/manifest.py",
        tag_const="MANIFEST_SCHEMA",
        funcs=("manifest_path",),
        dict_key_funcs=("write_manifest",),
        json_records=True,
    ),
    GroupSpec(
        group="analytic-store",
        file="runtime/cache.py",
        tag_const="_ANALYTIC_MAJOR",
        consts=("_NAME_DIGEST_CHARS",),
        regexes=("_ANALYTIC_TAG_DIR_RE",),
        funcs=("_path",),
        dict_key_funcs=("put",),
        json_records=True,
    ),
    GroupSpec(
        group="warehouse",
        file="warehouse/core.py",
        tag_const="WAREHOUSE_SCHEMA",
        consts=("DB_NAME", "_DDL"),
        funcs=("db_path",),
    ),
)


# ---------------------------------------------------------------------------
# AST extraction helpers
# ---------------------------------------------------------------------------


def _assignments(tree: ast.Module) -> dict[str, ast.expr]:
    """Module-level ``NAME = value`` (and annotated) assignment values."""
    out: dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                out[node.target.id] = node.value
    return out


def _strip_docstrings(node: ast.AST) -> ast.AST:
    """A copy of ``node`` without docstrings or type annotations.

    Neither is part of what reaches the disk, so neither may count as
    format drift — annotating a writer function must not trip RPL004.
    """
    clone = copy.deepcopy(node)
    for sub in ast.walk(clone):
        body = getattr(sub, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            sub.body = body[1:] or [ast.Pass()]
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sub.returns = None
            for arg in ast.walk(sub.args):
                if isinstance(arg, ast.arg):
                    arg.annotation = None
    return clone


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    """The first (possibly nested/method) function definition named ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _dump(node: ast.AST) -> str:
    """Position-independent structural fingerprint input for a node."""
    return ast.dump(_strip_docstrings(node))


def _dict_keys(func: ast.FunctionDef) -> list[str]:
    """Every string key of every dict literal inside ``func``, sorted."""
    keys: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return sorted(keys)


def _const_repr(value_node: ast.expr) -> str:
    try:
        return repr(ast.literal_eval(value_node))
    except ValueError:
        return _dump(value_node)  # f-strings and other computed constants


def _regex_fact(value_node: ast.expr) -> str | None:
    """Fingerprint input for a ``re.compile(<pattern>, ...)`` assignment."""
    if isinstance(value_node, ast.Call) and value_node.args:
        return _dump(value_node.args[0])
    return None


# ---------------------------------------------------------------------------
# Facts and fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFacts:
    """Computed format facts of one group in one tree."""

    group: str
    #: Display path and line of the tag constant (findings anchor here).
    rel: str
    line: int
    tag: str
    fingerprint: str
    src: SourceFile


def _collect_group(ctx: LintContext, spec: GroupSpec) -> GroupFacts | None:
    src = ctx.get(spec.file)
    if src is None:
        return None  # synthetic test trees carry only the files under test
    assigns = _assignments(src.tree)
    tag_node = assigns.get(spec.tag_const)
    if tag_node is None:
        return None
    try:
        tag = str(ast.literal_eval(tag_node))
    except ValueError:
        return None
    line = tag_node.lineno
    facts: dict[str, object] = {}
    for name in spec.consts:
        if name in assigns:
            facts[f"const:{name}"] = _const_repr(assigns[name])
    for file, name in spec.other_consts:
        other = ctx.get(file)
        value = _assignments(other.tree).get(name) if other is not None else None
        if value is not None:
            facts[f"const:{file}:{name}"] = _const_repr(value)
    for name in spec.regexes:
        if name in assigns:
            fact = _regex_fact(assigns[name])
            if fact is not None:
                facts[f"regex:{name}"] = fact
    for name in spec.funcs:
        func = _find_function(src.tree, name)
        if func is not None:
            facts[f"func:{name}"] = _dump(func)
    for name in spec.dict_key_funcs:
        func = _find_function(src.tree, name)
        if func is not None:
            keys = _dict_keys(func)
            if spec.json_records:
                keys = sorted({*keys, STAMP_KEY})
            facts[f"keys:{name}"] = keys
    payload = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return GroupFacts(
        group=spec.group,
        rel=src.rel,
        line=line,
        tag=tag,
        fingerprint=fingerprint,
        src=src,
    )


def format_facts(ctx: LintContext) -> dict[str, GroupFacts]:
    """Group name → computed facts, for every group present in the tree."""
    out: dict[str, GroupFacts] = {}
    for spec in GROUPS:
        facts = _collect_group(ctx, spec)
        if facts is not None:
            out[facts.group] = facts
    return out


def read_baseline(path: Path) -> dict[str, dict[str, str]]:
    """The committed {group: {tag, fingerprint}} baseline (empty if absent)."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return record if isinstance(record, dict) else {}


def write_baseline(path: Path, facts: dict[str, GroupFacts]) -> None:
    record = {
        group: {"tag": gf.tag, "fingerprint": gf.fingerprint}
        for group, gf in sorted(facts.items())
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
