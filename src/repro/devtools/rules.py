"""The reprolint rules (RPL001-RPL007).

Every rule encodes an invariant this repository has already paid to
learn, as a pure function ``LintContext -> list[Finding]``. Rules are
registered in :data:`RULES` (in code order) and documented — invariant,
historical bug, example violation — in ``docs/devtools.md``; the lint
driver in :mod:`repro.devtools` applies suppressions and sorting.

Rules must tolerate partial trees: the fixture tests run them against
synthetic packages containing only the files under test, so a rule that
needs ``core/mechanisms.py`` simply returns no findings when the tree
has no such file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable

from .formats import format_facts, read_baseline
from .sources import Finding, LintContext, SourceFile

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _module_assignments(tree: ast.Module) -> dict[str, ast.expr]:
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


def _literal_strings(node: ast.expr | None) -> tuple[str, ...] | None:
    """The string elements of a literal tuple/list, or ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return tuple(out)


def _dict_string_keys(node: ast.expr | None) -> tuple[str, ...] | None:
    """The string keys of a dict literal, or ``None``."""
    if not isinstance(node, ast.Dict):
        return None
    out = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append(key.value)
        else:
            return None
    return tuple(out)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# ---------------------------------------------------------------------------
# RPL001 — environment reads outside repro.envopts
# ---------------------------------------------------------------------------

#: The one module allowed to touch ``os.environ`` directly.
_ENV_ACCESSOR = "envopts.py"


def rule_env_reads(ctx: LintContext) -> list[Finding]:
    """``os.environ`` / ``os.getenv`` anywhere but the registered accessor.

    Option precedence (flag > env > default) is asserted in exactly one
    resolver per option; a raw environment read anywhere else creates a
    second resolution point that silently diverges — the bug class PR 4
    fixed. All reads go through :mod:`repro.envopts`.
    """
    findings: list[Finding] = []

    def flag(src: SourceFile, node: ast.AST, what: str) -> None:
        finding = ctx.finding(
            src,
            node.lineno,
            "RPL001",
            f"{what} outside repro.envopts: route REPRO_* reads through "
            f"repro.envopts.read_env/env_str (the registered accessor)",
        )
        if finding is not None:
            findings.append(finding)

    for src in ctx.sources:
        if src.modrel == _ENV_ACCESSOR:
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute):
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
    "analytic/store.py",
    "warehouse/core.py",
)

_WRITE_MODES = re.compile(r"[wax+]")


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
# RPL003 — confighash exhaustiveness over the frozen config trees
# ---------------------------------------------------------------------------

#: (module, root dataclass) pairs whose whole field tree must canonicalize.
_DIGEST_ROOTS = (
    ("config.py", "SimConfig"),
    ("workloads/profiles.py", "WorkloadProfile"),
)

_CANONICAL_SCALARS = ("int", "float", "str", "bool")


def _dataclasses_in(tree: ast.Module) -> dict[str, ast.ClassDef]:
    out: dict[str, ast.ClassDef] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name == "dataclass":
                out[node.name] = node
                break
    return out


def _is_classvar(annotation: ast.expr) -> bool:
    target = (
        annotation.value if isinstance(annotation, ast.Subscript) else annotation
    )
    return (
        isinstance(target, ast.Name)
        and target.id == "ClassVar"
        or isinstance(target, ast.Attribute)
        and target.attr == "ClassVar"
    )


def _annotation_ok(
    node: ast.expr, classes: dict[str, ast.ClassDef], reached: set[str]
) -> bool:
    """Can a value of this annotated type always be canonicalized?"""
    if isinstance(node, ast.Name):
        if node.id in _CANONICAL_SCALARS:
            return True
        if node.id in classes:
            reached.add(node.id)
            return True
        return False
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return True
        if isinstance(node.value, str):  # forward reference
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return False
            return _annotation_ok(parsed, classes, reached)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_ok(node.left, classes, reached) and _annotation_ok(
            node.right, classes, reached
        )
    if isinstance(node, ast.Subscript):
        if not (isinstance(node.value, ast.Name) and node.value.id == "tuple"):
            return False
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_ok(el, classes, reached) for el in elements)
    return False


def rule_confighash_exhaustive(ctx: LintContext) -> list[Finding]:
    """Un-canonicalizable fields reachable from the digest root dataclasses.

    The cache key digests the *entire* config tree through
    ``repro.runtime.confighash.canonicalize``; a field whose type that
    walker cannot handle would make a freshly added knob raise — or
    worse, a hand-special-cased one go silently unhashed, the PR 1
    collision bug class. Every field must be a canonicalizable scalar,
    an optional/tuple of such, or another frozen dataclass in the tree.
    """
    findings: list[Finding] = []
    for modrel, root in _DIGEST_ROOTS:
        src = ctx.get(modrel)
        if src is None:
            continue
        classes = _dataclasses_in(src.tree)
        if root not in classes:
            continue
        pending = [root]
        visited: set[str] = set()
        while pending:
            cls_name = pending.pop()
            if cls_name in visited:
                continue
            visited.add(cls_name)
            cls = classes[cls_name]
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                if _is_classvar(stmt.annotation):
                    continue
                reached: set[str] = set()
                if not _annotation_ok(stmt.annotation, classes, reached):
                    finding = ctx.finding(
                        src,
                        stmt.lineno,
                        "RPL003",
                        f"field {cls_name}.{stmt.target.id}: annotation "
                        f"`{ast.unparse(stmt.annotation)}` is not "
                        f"canonicalizable by repro.runtime.confighash "
                        f"(allowed: int/float/str/bool, X | None, "
                        f"tuple[...] of these, nested dataclasses)",
                    )
                    if finding is not None:
                        findings.append(finding)
                pending.extend(reached - visited)
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
# RPL005 — counter-namespace collisions in stage compositions
# ---------------------------------------------------------------------------


def _stage_counter_keys(ctx: LintContext) -> dict[str, tuple[str, ...]]:
    """Stage class -> counter keys, with single-inheritance resolution."""
    declared: dict[str, tuple[str, ...] | None] = {}
    bases: dict[str, str | None] = {}
    for src in ctx.sources:
        if not src.modrel.startswith("core/stages/"):
            continue
        for node in src.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            base = None
            if node.bases and isinstance(node.bases[0], ast.Name):
                base = node.bases[0].id
            bases[node.name] = base
            keys: tuple[str, ...] | None = None
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "counters":
                    collected: list[str] = []
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Dict):
                            for key in sub.keys:
                                if isinstance(key, ast.Constant) and isinstance(
                                    key.value, str
                                ):
                                    collected.append(key.value)
                    keys = tuple(collected)
            declared[node.name] = keys
    resolved: dict[str, tuple[str, ...]] = {}

    def resolve(name: str, chain: set[str]) -> tuple[str, ...]:
        if name in resolved:
            return resolved[name]
        keys = declared.get(name)
        if keys is None:
            base = bases.get(name)
            keys = (
                resolve(base, chain | {name})
                if base in declared and base not in chain
                else ()
            )
        resolved[name] = keys
        return keys

    for name in declared:
        resolve(name, set())
    return resolved


def _reserved_counter_keys(ctx: LintContext) -> dict[str, str]:
    """Counter key -> owner, for keys the aggregator itself populates."""
    reserved: dict[str, str] = {}
    results = ctx.get("core/results.py")
    if results is not None:
        for node in ast.walk(results.tree):
            if isinstance(node, ast.FunctionDef) and node.name == (
                "aggregate_stage_counters"
            ):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Dict):
                        for key in sub.keys:
                            if isinstance(key, ast.Constant) and isinstance(
                                key.value, str
                            ):
                                reserved[key.value] = "aggregate_stage_counters"
                    elif isinstance(sub, ast.Subscript) and isinstance(
                        sub.slice, ast.Constant
                    ):
                        if isinstance(sub.slice.value, str):
                            reserved[sub.slice.value] = "aggregate_stage_counters"
    hierarchy = ctx.get("memory/hierarchy.py")
    if hierarchy is not None:
        for node in ast.walk(hierarchy.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "counters":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Dict):
                        for key in sub.keys:
                            if isinstance(key, ast.Constant) and isinstance(
                                key.value, str
                            ):
                                reserved[key.value] = "MemoryHierarchy.counters"
    return reserved


def rule_counter_collisions(ctx: LintContext) -> list[Finding]:
    """Colliding counter names inside one ``STAGE_COMPOSERS`` composition.

    ``aggregate_stage_counters`` flattens per-stage ``counters()`` dicts
    with ``dict.update`` — a duplicated key silently overwrites, and a
    stage key matching an aggregator/memory key is clobbered after the
    stages run. Either way a counter vanishes without any error.
    """
    findings: list[Finding] = []
    src = ctx.get("core/mechanisms.py")
    if src is None:
        return findings
    module_funcs = {
        node.name: node
        for node in src.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    stage_keys = _stage_counter_keys(ctx)
    reserved = _reserved_counter_keys(ctx)
    composers = _module_assignments(src.tree).get("STAGE_COMPOSERS")
    if not isinstance(composers, ast.Dict):
        return findings

    def classes_used(func: ast.FunctionDef, seen: set[str]) -> set[str]:
        used: set[str] = set()
        seen = seen | {func.name}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name in stage_keys:
                    used.add(name)
                elif name in module_funcs and name not in seen:
                    used |= classes_used(module_funcs[name], seen)
        return used

    for key_node, value_node in zip(composers.keys, composers.values):
        if not (
            isinstance(key_node, ast.Constant)
            and isinstance(key_node.value, str)
            and isinstance(value_node, ast.Name)
        ):
            continue
        mechanism = key_node.value
        composer = module_funcs.get(value_node.id)
        if composer is None:
            continue
        owners: dict[str, str] = {}
        for cls in sorted(classes_used(composer, set())):
            for counter in stage_keys.get(cls, ()):
                other = owners.get(counter)
                if other is not None and other != cls:
                    finding = ctx.finding(
                        src,
                        key_node.lineno,
                        "RPL005",
                        f"mechanism {mechanism!r}: counter {counter!r} is "
                        f"declared by both {other} and {cls}; "
                        f"aggregate_stage_counters would silently merge "
                        f"them — rename one",
                    )
                    if finding is not None:
                        findings.append(finding)
                else:
                    owners[counter] = cls
                owner = reserved.get(counter)
                if owner is not None:
                    finding = ctx.finding(
                        src,
                        key_node.lineno,
                        "RPL005",
                        f"mechanism {mechanism!r}: stage {cls} counter "
                        f"{counter!r} collides with the {owner} key of the "
                        f"same name — the aggregator would clobber it",
                    )
                    if finding is not None:
                        findings.append(finding)
    return findings


# ---------------------------------------------------------------------------
# RPL006 — registry consistency across modules
# ---------------------------------------------------------------------------


def _envopts_choices(ctx: LintContext) -> dict[str, tuple[tuple[str, ...], int]]:
    """Registered option -> (choices literal, line) from envopts.py."""
    src = ctx.get("envopts.py")
    out: dict[str, tuple[tuple[str, ...], int]] = {}
    if src is None:
        return out
    for node in ast.walk(src.tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "EnvOption"):
            continue
        if not (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        name = node.args[0].value
        for kw in node.keywords:
            if kw.arg == "choices":
                choices = _literal_strings(kw.value)
                if choices is not None:
                    out[name] = (choices, node.lineno)
    return out


def rule_registry_consistency(ctx: LintContext) -> list[Finding]:
    """Registry literals that must agree with each other, checked as sets.

    The mechanism registry (names / traits / composers), the envopts
    ``choices`` documentation against each option's authoritative value
    list, and sweep ``exhibit`` references against the experiments
    registry. Drift here means a CLI accepts a name the engine rejects
    (or documents one that no longer exists).
    """
    findings: list[Finding] = []

    def report(src: SourceFile, line: int, message: str) -> None:
        finding = ctx.finding(src, line, "RPL006", message)
        if finding is not None:
            findings.append(finding)

    def diff(a: tuple[str, ...], b: tuple[str, ...]) -> str:
        extra = sorted(set(a) - set(b))
        missing = sorted(set(b) - set(a))
        parts = []
        if extra:
            parts.append(f"extra: {', '.join(extra)}")
        if missing:
            parts.append(f"missing: {', '.join(missing)}")
        return "; ".join(parts)

    mech = ctx.get("core/mechanisms.py")
    if mech is not None:
        assigns = _module_assignments(mech.tree)
        mechanisms = _literal_strings(assigns.get("MECHANISMS"))
        figure = _literal_strings(assigns.get("FIGURE_MECHANISMS"))
        traits = _dict_string_keys(assigns.get("_TRAITS"))
        composer_node = assigns.get("STAGE_COMPOSERS")
        composers = _dict_string_keys(composer_node)
        if mechanisms is not None:
            if traits is not None and set(traits) != set(mechanisms):
                report(
                    mech,
                    assigns["_TRAITS"].lineno,
                    f"_TRAITS keys disagree with MECHANISMS "
                    f"({diff(traits, mechanisms)})",
                )
            if composers is not None and set(composers) != set(mechanisms):
                report(
                    mech,
                    composer_node.lineno,
                    f"STAGE_COMPOSERS keys disagree with MECHANISMS "
                    f"({diff(composers, mechanisms)})",
                )
            if figure is not None and not set(figure) <= set(mechanisms):
                report(
                    mech,
                    assigns["FIGURE_MECHANISMS"].lineno,
                    f"FIGURE_MECHANISMS is not a subset of MECHANISMS "
                    f"({diff(figure, mechanisms)})",
                )

    choices = _envopts_choices(ctx)
    envopts_src = ctx.get("envopts.py")

    def check_choices(option: str, modrel: str, const: str) -> None:
        if envopts_src is None or option not in choices:
            return
        src = ctx.get(modrel)
        if src is None:
            return
        assigns = _module_assignments(src.tree)
        node = assigns.get(const)
        authoritative = _literal_strings(node)
        if authoritative is None:
            authoritative = _dict_string_keys(node)
        if authoritative is None:
            return
        declared, line = choices[option]
        if set(declared) != set(authoritative):
            report(
                envopts_src,
                line,
                f"{option} choices disagree with {modrel}:{const} "
                f"({diff(declared, authoritative)})",
            )

    check_choices("REPRO_BACKEND", "runtime/executors.py", "BACKEND_NAMES")
    check_choices("REPRO_SCALE", "experiments/common.py", "SCALES")
    check_choices("REPRO_WORKLOAD_SET", "workloads/profiles.py", "PROFILE_SETS")
    check_choices("REPRO_FIDELITY", "analytic/__init__.py", "FIDELITY_NAMES")

    wh_init = ctx.get("warehouse/__init__.py")
    wh_queries = ctx.get("warehouse/queries.py")
    if wh_init is not None and wh_queries is not None:
        names_node = _module_assignments(wh_init.tree).get("QUERY_NAMES")
        names = _literal_strings(names_node)
        registry = _dict_string_keys(
            _module_assignments(wh_queries.tree).get("QUERIES")
        )
        if (
            names_node is not None
            and names is not None
            and registry is not None
            and set(names) != set(registry)
        ):
            report(
                wh_init,
                names_node.lineno,
                f"QUERY_NAMES disagrees with warehouse/queries.py:QUERIES "
                f"({diff(names, registry)})",
            )

    sweeps = ctx.get("experiments/sweeps/__init__.py")
    experiments = ctx.get("experiments/__init__.py")
    if sweeps is not None and experiments is not None:
        exhibits = _dict_string_keys(
            _module_assignments(experiments.tree).get("EXPERIMENTS")
        )
        if exhibits is not None:
            for node in ast.walk(sweeps.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _call_name(node) == "SweepSpec"
                ):
                    continue
                for kw in node.keywords:
                    if (
                        kw.arg == "exhibit"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                        and kw.value.value not in exhibits
                    ):
                        report(
                            sweeps,
                            kw.value.lineno,
                            f"sweep exhibit {kw.value.value!r} is not a key "
                            f"of repro.experiments.EXPERIMENTS",
                        )
    return findings


# ---------------------------------------------------------------------------
# RPL007 — docs and generator drift
# ---------------------------------------------------------------------------


def rule_docs_drift(ctx: LintContext) -> list[Finding]:
    """Docs that must track code registries, checked structurally.

    The generated-table markers in ``docs/experiments.md`` must exist for
    every block the generator owns (losing a marker silently freezes that
    table), ``docs/devtools.md`` must document every lint rule, and the
    devtools doc must stay linked from the README and architecture doc.
    """
    findings: list[Finding] = []
    root = ctx.repo_root

    def report(rel: str, line: int, message: str) -> None:
        findings.append(Finding(rel=rel, line=line, code="RPL007", message=message))

    generator = root / "scripts" / "generate_docs_tables.py"
    experiments_md = root / "docs" / "experiments.md"
    if generator.is_file() and experiments_md.is_file():
        try:
            gen_tree = ast.parse(generator.read_text())
        except SyntaxError:
            gen_tree = None
        doc_text = experiments_md.read_text()
        blocks = (
            _dict_string_keys(_module_assignments(gen_tree).get("BLOCKS"))
            if gen_tree is not None
            else None
        )
        for block in blocks or ():
            for marker in (
                f"<!-- generated:begin {block} -->",
                f"<!-- generated:end {block} -->",
            ):
                if marker not in doc_text:
                    report(
                        "docs/experiments.md",
                        1,
                        f"missing generated-table marker {marker!r} for "
                        f"block {block!r} owned by "
                        f"scripts/generate_docs_tables.py",
                    )

    devtools_md = root / "docs" / "devtools.md"
    if devtools_md.is_file():
        doc_text = devtools_md.read_text()
        for code in sorted(RULES):
            if code not in doc_text:
                report(
                    "docs/devtools.md",
                    1,
                    f"lint rule {code} is not documented in docs/devtools.md",
                )
        for rel in ("README.md", "docs/architecture.md"):
            path = root / rel
            if path.is_file() and "devtools.md" not in path.read_text():
                report(
                    rel,
                    1,
                    f"{rel} does not link docs/devtools.md (the lint-rule "
                    f"reference must stay discoverable)",
                )
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
            "REPRO_* environment reads must go through repro.envopts",
            rule_env_reads,
        ),
        Rule(
            "RPL002",
            "atomic-write-discipline",
            "durable-state modules write only via repro.runtime.atomicio",
            rule_atomic_writes,
        ),
        Rule(
            "RPL003",
            "confighash-exhaustiveness",
            "every field reachable from SimConfig/WorkloadProfile "
            "canonicalizes",
            rule_confighash_exhaustive,
        ),
        Rule(
            "RPL004",
            "schema-tag-drift",
            "on-disk format changes require a schema-tag bump + baseline "
            "refresh",
            rule_schema_drift,
        ),
        Rule(
            "RPL005",
            "counter-collisions",
            "stage compositions may not declare colliding counter names",
            rule_counter_collisions,
        ),
        Rule(
            "RPL006",
            "registry-consistency",
            "mechanism/env-option/sweep registries agree with each other",
            rule_registry_consistency,
        ),
        Rule(
            "RPL007",
            "docs-drift",
            "generated-table markers and rule/option docs stay present",
            rule_docs_drift,
        ),
    )
}
