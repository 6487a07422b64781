"""Cross-registry invariants, checked over the imported objects.

Each check returns a list of problems (empty when the invariant holds), so
one function serves both the live-tree test next to the object it checks
and the seeded-violation fixtures in ``tests/test_devtools.py`` that prove
the check fires. These replaced the AST lint rules RPL003 (config-digest
coverage), RPL005 (counter namespaces), RPL006 (registry agreement) and
RPL007 (docs), which rebuilt the same facts from source text.

Consumers: ``test_runtime.py``, ``test_stages.py``, ``test_docs_drift.py``
and ``test_devtools.py``.
"""

from __future__ import annotations

import importlib.util
import sys
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from repro.analytic import FIDELITY_NAMES
from repro.config import PredictorParams
from repro.core.mechanisms import MECHANISMS, STAGE_COMPOSERS
from repro.core.results import aggregate_stage_counters
from repro.devtools import RULES
from repro.envopts import REPRO_ENV_OPTIONS
from repro.errors import ConfigError
from repro.experiments.common import SCALES
from repro.runtime import config_digest
from repro.runtime.executors import BACKEND_NAMES
from repro.workloads.profiles import PROFILE_SETS

REPO_ROOT = Path(__file__).resolve().parents[1]


def config_leaves(obj, prefix=()):
    """``(path, type hint, value)`` for every non-dataclass field under obj."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from config_leaves(value, (*prefix, f.name))
        else:
            yield (*prefix, f.name), hints[f.name], value


def _canonical_hint(hint) -> bool:
    """Built from scalars, ``X | None`` and ``tuple[...]`` only."""
    if hint in (bool, int, float, str, type(None)):
        return True
    if typing.get_origin(hint) not in (tuple, types.UnionType):
        return False
    return all(arg is Ellipsis or _canonical_hint(arg) for arg in typing.get_args(hint))


def _replace_at(obj, path, value):
    head, *rest = path
    inner = _replace_at(getattr(obj, head), rest, value) if rest else value
    return replace(obj, **{head: inner})


def _perturbed(root, path, value):
    """``root`` with one leaf changed to the first candidate that validates."""
    if isinstance(value, bool):
        candidates = [not value]
    elif isinstance(value, (int, float)):
        candidates = [value * 2 or 1, value + 1]
    elif isinstance(value, str):
        candidates = [value + "-x", "crossbar", *PredictorParams.KNOWN_KINDS]
    elif isinstance(value, tuple):
        candidates = [value[::-1], value[:-1]]
    else:  # None: the optional leaves are cycle counts
        candidates = [1]
    for candidate in candidates:
        if candidate == value:
            continue
        try:
            return _replace_at(root, path, candidate)
        except ConfigError:
            continue
    return None


def digest_blind_leaves(root) -> list[str]:
    """Leaves of ``root`` that ``config_digest`` may not see.

    A leaf fails if its type hint is not canonical, if no valid value can
    replace it, or if replacing it leaves the digest unchanged (a field
    that canonicalizes to a constant).
    """
    base = config_digest(root)
    problems = []
    for path, hint, value in config_leaves(root):
        name = f"{type(root).__name__}.{'.'.join(path)}"
        if not _canonical_hint(hint):
            problems.append(f"{name}: {hint} is not canonical")
            continue
        variant = _perturbed(root, path, value)
        if variant is None:
            problems.append(f"{name}: no valid perturbation")
        elif config_digest(variant) == base:
            problems.append(f"{name}: digest unchanged")
    return problems


def counter_collisions(stages, engine) -> list[str]:
    """Keys written twice when ``aggregate_stage_counters`` flattens ``stages``
    with ``engine``'s shared blocks; ``dict.update`` keeps only one count."""
    shared = (engine.btb, engine.btb_pf_buffer, engine.ftq, engine.mem)
    owners = dict.fromkeys(
        aggregate_stage_counters(0, 0, (), *shared), "aggregate_stage_counters"
    )
    clashes = []
    for stage in stages:
        name = type(stage).__name__
        for key in stage.counters():
            if key in owners:
                clashes.append(f"{key!r}: {owners[key]} and {name}")
            owners[key] = name
    return clashes


#: Every env option with ``choices``, and the registry it must mirror.
ENV_CHOICE_REGISTRIES = {
    "REPRO_BACKEND": BACKEND_NAMES,
    "REPRO_SCALE": SCALES,
    "REPRO_WORKLOAD_SET": PROFILE_SETS,
    "REPRO_FIDELITY": FIDELITY_NAMES,
}


def registry_drift(
    *, composers=STAGE_COMPOSERS, env_options=REPRO_ENV_OPTIONS
) -> list[str]:
    """Registries that name the same things but disagree as sets: a CLI
    that accepts a name the engine rejects fails three calls later."""
    drift = []
    if set(composers) != set(MECHANISMS):
        odd = sorted(set(composers) ^ set(MECHANISMS))
        drift.append(f"STAGE_COMPOSERS keys disagree with MECHANISMS on {odd}")
    with_choices = {name for name, opt in env_options.items() if opt.choices}
    if with_choices != set(ENV_CHOICE_REGISTRIES):
        odd = sorted(with_choices ^ set(ENV_CHOICE_REGISTRIES))
        drift.append(f"env options with choices disagree on {odd}")
    for name, registry in ENV_CHOICE_REGISTRIES.items():
        if name in env_options and set(env_options[name].choices) != set(registry):
            drift.append(f"{name} choices disagree with its registry")
    return drift


def devtools_doc_gaps(repo_root: Path, rules=RULES) -> list[str]:
    """Lint codes ``docs/devtools.md`` misses, and docs that do not link it."""
    doc = (repo_root / "docs" / "devtools.md").read_text()
    gaps = [f"{code} is not in docs/devtools.md" for code in rules if code not in doc]
    for rel in ("README.md", "docs/architecture.md"):
        if "devtools.md" not in (repo_root / rel).read_text():
            gaps.append(f"{rel} does not link docs/devtools.md")
    return gaps


def load_docs_generator():
    """Import ``scripts/generate_docs_tables.py`` as a module."""
    scripts = REPO_ROOT / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        spec = importlib.util.spec_from_file_location(
            "generate_docs_tables", scripts / "generate_docs_tables.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(scripts))
