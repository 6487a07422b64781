"""The reprolint rules: RPL001, RPL002 and RPL004.

Each rule checks a property of the source text that no runtime test can
see — where the environment is read, how durable files are written, what
an on-disk format looks like — as a pure function
``LintContext -> list[Finding]``. Rules are registered in :data:`RULES`
and documented in ``docs/devtools.md``. Invariants that the imported
objects expose directly (config-digest coverage, counter namespaces,
registry agreement, docs links) are plain tests instead; the doc's table
says where each lives.

Rules must tolerate partial trees: the fixture tests run them against
synthetic packages containing only the files under test, so a rule
returns no findings for a module the tree does not have.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable

from .formats import format_facts, read_baseline
from .sources import Finding, LintContext, SourceFile

# ---------------------------------------------------------------------------
# RPL001 — environment reads outside repro.envopts
# ---------------------------------------------------------------------------

#: The one module allowed to touch ``os.environ`` directly.
_ENV_ACCESSOR = "envopts.py"


def _is_read_env(node: ast.AST, bound: set[str]) -> bool:
    """``read_env(...)``, a name bound to one, or an ``or`` chain of either."""
    if isinstance(node, ast.BoolOp):
        return any(_is_read_env(value, bound) for value in node.values)
    if isinstance(node, ast.Name):
        return node.id in bound
    return isinstance(node, ast.Call) and _call_name(node) == "read_env"


def _read_env_names(tree: ast.AST) -> set[str]:
    """Names the module binds to a ``read_env`` result, in any scope."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _is_read_env(node.value, set()):
                bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


def rule_env_reads(ctx: LintContext) -> list[Finding]:
    """Environment reads or option parsing anywhere but :mod:`repro.envopts`.

    Option precedence (flag > env > default) and each option's type and
    bounds live in one place, :func:`repro.envopts.resolve`; a raw
    environment read, or an ``int(...)`` / ``float(...)`` of a
    ``read_env`` result, anywhere else is a second resolution point that
    silently diverges (a malformed value then raises whatever that copy
    raises, not the ``ConfigError`` every CLI reports).
    """
    findings: list[Finding] = []

    def flag(src: SourceFile, node: ast.AST, what: str) -> None:
        finding = ctx.finding(
            src,
            node.lineno,
            "RPL001",
            f"{what} outside repro.envopts: declare the option in "
            f"REPRO_ENV_OPTIONS and read it with repro.envopts.resolve",
        )
        if finding is not None:
            findings.append(finding)

    for src in ctx.sources:
        if src.modrel == _ENV_ACCESSOR:
            continue
        bound = _read_env_names(src.tree)
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("int", "float")
                and node.args
                and _is_read_env(node.args[0], bound)
            ):
                flag(src, node, f"{node.func.id}() of a read_env result")
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("environ", "getenv")
                ):
                    flag(src, node, f"os.{node.attr} use")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "os":
                    for alias in node.names:
                        if alias.name in ("environ", "getenv"):
                            flag(src, node, f"`from os import {alias.name}`")
    return findings


# ---------------------------------------------------------------------------
# RPL002 — durable-state writes outside the atomic-write helper
# ---------------------------------------------------------------------------

#: Modules whose files ARE the durable state; every write in them must go
#: through repro.runtime.atomicio (which is itself the one exemption).
_DURABLE_MODULES = (
    "runtime/cache.py",
    "runtime/broker.py",
    "runtime/supervisor.py",
    "workloads/tracestore.py",
    "experiments/sweeps/manifest.py",
    "warehouse/core.py",
)

_WRITE_MODES = re.compile(r"[wax+]")


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _open_mode(node: ast.Call) -> str | None:
    """The literal mode of an ``open(...)``-shaped call, if present."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    elif node.args or isinstance(node.func, ast.Attribute):
        # path.open(mode) puts mode first; builtin open(path, mode) second.
        if isinstance(node.func, ast.Attribute) and node.args:
            mode = node.args[0]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def rule_atomic_writes(ctx: LintContext) -> list[Finding]:
    """Raw write idioms inside the cache/queue/trace-store modules.

    Durable records must be written via :mod:`repro.runtime.atomicio`
    (temp file in the destination directory + ``os.replace``); a plain
    ``open(.., "w")`` or ``write_text`` can leave a torn record that a
    concurrent reader then consumes. PR 5's crash-safety guarantees rest
    entirely on this idiom.
    """
    findings: list[Finding] = []

    def flag(src: SourceFile, node: ast.AST, what: str) -> None:
        finding = ctx.finding(
            src,
            node.lineno,
            "RPL002",
            f"{what} in a durable-state module: write through "
            f"repro.runtime.atomicio (atomic_writer / atomic_write_json)",
        )
        if finding is not None:
            findings.append(finding)

    for src in ctx.sources:
        if src.modrel not in _DURABLE_MODULES:
            continue
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "open" and not (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                mode = _open_mode(node)
                if mode is not None and _WRITE_MODES.search(mode):
                    flag(src, node, f"open(..., {mode!r})")
            elif name in ("write_text", "write_bytes"):
                flag(src, node, f".{name}() call")
            elif name == "mkstemp":
                flag(src, node, "hand-rolled tempfile.mkstemp")
            elif name == "replace" and (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                flag(src, node, "hand-rolled os.replace")
    return findings


# ---------------------------------------------------------------------------
# RPL004 — on-disk format drift without a schema-tag bump
# ---------------------------------------------------------------------------


def rule_schema_drift(ctx: LintContext) -> list[Finding]:
    """Format facts changed relative to the committed fingerprint baseline.

    See :mod:`repro.devtools.formats` for what is fingerprinted. The
    committed ``schema_baseline.json`` records (tag, fingerprint) per
    format group; any divergence is an error whose message says which of
    the two legal moves to make.
    """
    findings: list[Finding] = []
    facts = format_facts(ctx)
    if not facts:
        return findings
    baseline = read_baseline(ctx.schema_baseline)
    for group, gf in sorted(facts.items()):
        base = baseline.get(group)
        if base is None:
            finding = ctx.finding(
                gf.src,
                gf.line,
                "RPL004",
                f"format group {group!r} has no committed fingerprint "
                f"baseline; run `python -m repro.devtools baseline` and "
                f"commit schema_baseline.json",
            )
        elif (
            base.get("fingerprint") == gf.fingerprint
            and base.get("tag") == gf.tag
        ):
            continue
        elif base.get("tag") == gf.tag:
            finding = ctx.finding(
                gf.src,
                gf.line,
                "RPL004",
                f"on-disk format facts of {group!r} changed but its schema "
                f"tag is still {gf.tag!r}: bump the tag (old records must "
                f"be orphaned, not misread), then run "
                f"`python -m repro.devtools baseline`",
            )
        else:
            finding = ctx.finding(
                gf.src,
                gf.line,
                "RPL004",
                f"schema tag of {group!r} changed "
                f"({base.get('tag')!r} -> {gf.tag!r}): refresh the committed "
                f"baseline with `python -m repro.devtools baseline`",
            )
        if finding is not None:
            findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    check: Callable[[LintContext], list[Finding]]


RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "RPL001",
            "env-precedence",
            "REPRO_* options are read and parsed only by repro.envopts",
            rule_env_reads,
        ),
        Rule(
            "RPL002",
            "atomic-write-discipline",
            "durable-state modules write only via repro.runtime.atomicio",
            rule_atomic_writes,
        ),
        Rule(
            "RPL004",
            "schema-tag-drift",
            "on-disk format changes require a schema-tag bump + baseline "
            "refresh",
            rule_schema_drift,
        ),
    )
}
