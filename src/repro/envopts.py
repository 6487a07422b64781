"""The single ``os.environ`` access point for every ``REPRO_*`` option.

Option *precedence* (explicit kwargs/CLI flags beat environment variables
beat defaults) is asserted in :func:`repro.runtime.resolve_options` and the
other documented resolvers — but before this module existed, the *reads*
themselves were scattered: ~21 raw ``os.environ`` lookups across 10 files,
each free to invent its own empty-string semantics, typo a variable name,
or quietly introduce a second resolution point for an option that already
has one. Every read now funnels through :func:`read_env`, which only
accepts names registered in :data:`REPRO_ENV_OPTIONS` — an unregistered
(or misspelled) variable is a hard :class:`~repro.errors.ConfigError`
instead of a silently-ignored knob.

``reprolint`` (:mod:`repro.devtools`) enforces the funnel mechanically:
rule ``RPL001`` flags any ``os.environ`` / ``os.getenv`` use in the
``repro`` package outside this module, so a new environment read cannot
bypass the registry. The registry doubles as the authoritative list of
environment knobs for docs and ``--help`` text.

Semantics helpers:

* :func:`read_env` — the raw value, exactly as set (``""`` is preserved:
  ``REPRO_TRACE_STORE=""`` means *explicitly disabled*, distinct from
  unset);
* :func:`env_str` — collapse unset *and* empty to a default (the common
  "empty means default" convention of the other options);
* :func:`env_flag` — boolean convention shared by ``REPRO_BROKER_STEAL``
  and ``REPRO_WAREHOUSE_AUTOREFRESH`` (``1`` / ``true`` / ``yes`` enable,
  ``0`` / ``false`` / ``no`` disable, unset or empty → default, anything
  else is a :class:`~repro.errors.ConfigError`);
* :func:`exported` — temporarily export a value for child processes
  (spawn-started pool workers) and restore the previous state after.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, overload

from .errors import ConfigError


@dataclass(frozen=True)
class EnvOption:
    """One registered ``REPRO_*`` environment option."""

    name: str
    description: str
    #: Value shape, for docs: "int", "float", "path", "choice", "flag", "str".
    kind: str = "str"
    #: Valid values for ``kind="choice"`` options, if statically known.
    choices: tuple[str, ...] = ()
    #: Dotted module owning the documented resolution point for this option.
    owner: str = "repro.runtime.runner"


#: Every environment variable the repro package reads, by name.
REPRO_ENV_OPTIONS: dict[str, EnvOption] = {
    opt.name: opt
    for opt in (
        EnvOption(
            "REPRO_JOBS",
            "process-pool width for the experiment runtime (>= 1)",
            kind="int",
        ),
        EnvOption(
            "REPRO_CACHE_DIR",
            "persistent result-cache directory (also hosts the broker queue)",
            kind="path",
        ),
        EnvOption(
            "REPRO_BACKEND",
            "executor backend: auto | serial | pool | broker",
            kind="choice",
            choices=("auto", "serial", "pool", "broker"),
        ),
        EnvOption(
            "REPRO_FIDELITY",
            "result fidelity tier: exact | analytic | hybrid",
            kind="choice",
            choices=("exact", "analytic", "hybrid"),
        ),
        EnvOption(
            "REPRO_ANALYTIC_ANCHORS",
            "per-series calibration anchor grid 'LATxBTB' (default 3x2)",
            kind="str",
        ),
        EnvOption(
            "REPRO_ANALYTIC_MAX_ERR",
            "hybrid: series above this error bound re-dispatch exact (0..1]",
            kind="float",
        ),
        EnvOption(
            "REPRO_SCALE",
            "experiment scale: quick | default | full",
            kind="choice",
            choices=("quick", "default", "full"),
            owner="repro.experiments.common",
        ),
        EnvOption(
            "REPRO_WORKLOAD_SET",
            "workload profile set: paper | extended | all",
            kind="choice",
            choices=("paper", "extended", "all"),
            owner="repro.workloads.profiles",
        ),
        EnvOption(
            "REPRO_TRACE_STORE",
            "workload trace-store directory ('' = explicitly disabled)",
            kind="path",
            owner="repro.workloads.workload",
        ),
        EnvOption(
            "REPRO_BROKER_LEASE",
            "broker lease duration in seconds before a claim is recoverable",
            kind="float",
            owner="repro.runtime.broker",
        ),
        EnvOption(
            "REPRO_BROKER_MAX_ATTEMPTS",
            "execution attempts before a broker job fails terminally",
            kind="int",
            owner="repro.runtime.broker",
        ),
        EnvOption(
            "REPRO_BROKER_TIMEOUT",
            "coordinator wait budget, positive seconds (unset = wait forever)",
            kind="float",
            owner="repro.runtime.broker",
        ),
        EnvOption(
            "REPRO_BROKER_STEAL",
            "whether the submitting coordinator steals jobs itself",
            kind="flag",
            owner="repro.runtime.broker",
        ),
        EnvOption(
            "REPRO_SUPERVISOR_MAX",
            "supervisor fleet ceiling, whatever the backlog demands (>= 1)",
            kind="int",
            owner="repro.runtime.supervisor",
        ),
        EnvOption(
            "REPRO_FAULTPOINTS",
            "fault-injection spec 'point:N,...' (test harness only)",
            kind="str",
            owner="repro.runtime.faultpoints",
        ),
        EnvOption(
            "REPRO_WAREHOUSE_AUTOREFRESH",
            "refresh the result warehouse after each cached sweep run",
            kind="flag",
            owner="repro.warehouse.core",
        ),
    )
}

#: Values :func:`env_flag` accepts, case-insensitively.
_TRUTHY = ("1", "true", "yes")
_FALSY = ("0", "false", "no")


def _require_registered(name: str) -> None:
    if name not in REPRO_ENV_OPTIONS:
        known = ", ".join(sorted(REPRO_ENV_OPTIONS))
        raise ConfigError(
            f"unregistered environment option {name!r}; every REPRO_* "
            f"variable must be declared in repro.envopts.REPRO_ENV_OPTIONS "
            f"(known: {known})"
        )


def read_env(name: str) -> str | None:
    """The raw value of a registered option (``None`` when unset).

    The empty string is preserved — ``REPRO_TRACE_STORE=""`` carries
    meaning (explicit disable). Use :func:`env_str` for options where
    empty should collapse to the default.
    """
    _require_registered(name)
    return os.environ.get(name)


@overload
def env_str(name: str, default: str) -> str: ...


@overload
def env_str(name: str, default: None = None) -> str | None: ...


def env_str(name: str, default: str | None = None) -> str | None:
    """A registered option's value, with unset *and* empty → ``default``."""
    return read_env(name) or default


def env_flag(name: str, default: bool = True) -> bool:
    """Boolean option: unset or empty → ``default``; a bad value raises."""
    raw = read_env(name)
    if not raw:
        return default
    value = raw.lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ConfigError(
        f"{name} must be one of {', '.join(_TRUTHY + _FALSY)} "
        f"(case-insensitive), got {raw!r}"
    )


@contextmanager
def exported(name: str, value: str | None) -> Iterator[None]:
    """Temporarily export ``name=value`` for child processes.

    ``None`` means nothing to export (no-op). The previous state —
    including "was unset" — is restored on exit, so a transient export
    for a pool's lifetime can never leak into later resolution.
    """
    _require_registered(name)
    if value is None:
        yield
        return
    before = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = before
