"""Every ``REPRO_*`` option: its registry entry and its one resolver.

:data:`REPRO_ENV_OPTIONS` declares each environment variable the
package reads, with its type (``kind``), default, bounds or choices, and
the argument name an explicit value arrives under. :func:`resolve` is
the one place an option's value is decided:

* an explicit value (a keyword argument, or a CLI flag forwarded as
  one) wins, and the variable is not even read, so a stale or malformed
  ``REPRO_*`` value cannot break an explicit choice;
* otherwise the variable applies; unset and ``""`` both mean the
  default;
* the value is parsed by ``kind`` (``int``, ``float``, ``flag``,
  ``choice``, ``path``, ``str``) and checked against the option's bounds
  or choices, whichever way it arrived.

A bad value raises one :class:`~repro.errors.ConfigError` naming the
variable, the argument and the value it got, for example::

    ConfigError: REPRO_JOBS: jobs must be an integer, got 'bogus'
    ConfigError: REPRO_BROKER_LEASE: lease_seconds must be finite and > 0, got -5
    ConfigError: REPRO_SCALE: unknown scale 'huge'; valid scales: quick, default, full

Every CLI catches ``ConfigError`` in its ``main()`` and exits 2 with
that one line. The aggregators (:func:`repro.runtime.resolve_options`,
``broker_env_options``, ``supervisor_options``) only call :func:`resolve`.
``reprolint`` rule ``RPL001`` flags any ``os.environ`` read outside this
module and any ``int(...)`` / ``float(...)`` of a :func:`read_env`
result. :func:`read_env` is the raw read, kept for ``REPRO_TRACE_STORE``
(whose ``""`` means *explicitly disabled*) and for asking whether a
variable is set at all; :func:`exported` exports a value for children.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import ConfigError


@dataclass(frozen=True)
class EnvOption:
    """One registered ``REPRO_*`` environment option."""

    name: str
    description: str
    #: Value type: "int", "float", "path", "choice", "flag" or "str".
    kind: str = "str"
    #: The value when neither an explicit value nor the variable is given.
    default: Any = None
    #: Valid values for ``kind="choice"`` options.
    choices: tuple[str, ...] = ()
    #: Lower bound: inclusive for an ``int``, exclusive for a ``float``.
    low: float | None = None
    #: Inclusive upper bound of a ``float``; every float must be finite.
    high: float | None = None
    #: What the explicit argument is called (in error messages).
    arg: str = ""

    def parse(self, value: Any) -> Any:
        """``value`` (a string from the environment, or an explicit
        value) converted to this option's type and checked."""
        arg = self.arg or self.name.removeprefix("REPRO_").lower()

        def bad(problem: str) -> ConfigError:
            return ConfigError(f"{self.name}: {problem}")

        if self.kind == "int":
            if isinstance(value, str):
                try:
                    value = int(value)
                except ValueError:
                    raise bad(f"{arg} must be an integer, got {value!r}") from None
            if not isinstance(value, int) or isinstance(value, bool):
                raise bad(f"{arg} must be an integer, got {value!r}")
            if self.low is not None and value < self.low:
                raise bad(f"{arg} must be >= {self.low:g}, got {value}")
            return value
        if self.kind == "float":
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise bad(f"{arg} must be a number, got {value!r}") from None
            low = -math.inf if self.low is None else self.low
            high = math.inf if self.high is None else self.high
            if not (math.isfinite(value) and low < value <= high):
                rule = (
                    f"finite and > {low:g}" if self.high is None
                    else f"in ({low:g}, {high:g}]"
                )
                raise bad(f"{arg} must be {rule}, got {value:g}")
            return value
        if self.kind == "flag":
            if isinstance(value, bool):
                return value
            if str(value).lower() in _TRUTHY:
                return True
            if str(value).lower() in _FALSY:
                return False
            raise bad(
                f"{arg} must be one of {', '.join(_TRUTHY + _FALSY)} "
                f"(case-insensitive), got {value!r}"
            )
        if self.kind == "choice" and value not in self.choices:
            raise bad(
                f"unknown {arg} {value!r}; valid {arg}s: {', '.join(self.choices)}"
            )
        return os.fspath(value) if self.kind == "path" else str(value)


#: Values a ``flag`` option accepts, case-insensitively.
_TRUTHY = ("1", "true", "yes")
_FALSY = ("0", "false", "no")

#: Every environment variable the repro package reads, by name.
REPRO_ENV_OPTIONS: dict[str, EnvOption] = {
    opt.name: opt
    for opt in (
        EnvOption(
            "REPRO_JOBS",
            "process-pool width for the experiment runtime (>= 1)",
            kind="int",
            default=1,
            low=1,
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
            default="auto",
            choices=("auto", "serial", "pool", "broker"),
        ),
        EnvOption(
            "REPRO_FIDELITY",
            "result fidelity tier: exact | analytic | hybrid",
            kind="choice",
            default="exact",
            choices=("exact", "analytic", "hybrid"),
            arg="fidelity tier",
        ),
        EnvOption(
            "REPRO_ANALYTIC_ANCHORS",
            "per-series calibration anchor grid 'LATxBTB' (default 3x2)",
            default="3x2",
            arg="anchors",
        ),
        EnvOption(
            "REPRO_ANALYTIC_MAX_ERR",
            "hybrid: series above this error bound re-dispatch exact (0..1]",
            kind="float",
            default=0.10,
            low=0.0,
            high=1.0,
            arg="max_rel_err",
        ),
        EnvOption(
            "REPRO_SCALE",
            "experiment scale: quick | default | full",
            kind="choice",
            default="default",
            choices=("quick", "default", "full"),
            arg="scale",
        ),
        EnvOption(
            "REPRO_WORKLOAD_SET",
            "workload profile set: paper | extended | all",
            kind="choice",
            default="paper",
            choices=("paper", "extended", "all"),
            arg="workload set",
        ),
        EnvOption(
            "REPRO_TRACE_STORE",
            "workload trace-store directory ('' = explicitly disabled)",
            kind="path",
        ),
        EnvOption(
            "REPRO_BROKER_LEASE",
            "broker lease duration in seconds before a claim is recoverable",
            kind="float",
            default=300.0,
            low=0.0,
            arg="lease_seconds",
        ),
        EnvOption(
            "REPRO_BROKER_MAX_ATTEMPTS",
            "execution attempts before a broker job fails terminally",
            kind="int",
            default=3,
            low=1,
            arg="max_attempts",
        ),
        EnvOption(
            "REPRO_BROKER_TIMEOUT",
            "coordinator wait budget, positive seconds (unset = wait forever)",
            kind="float",
            low=0.0,
            arg="timeout",
        ),
        EnvOption(
            "REPRO_BROKER_STEAL",
            "whether the submitting coordinator steals jobs itself",
            kind="flag",
            default=True,
            arg="steal",
        ),
        EnvOption(
            "REPRO_SUPERVISOR_MAX",
            "supervisor fleet ceiling, whatever the backlog demands (>= 1)",
            kind="int",
            default=4,
            low=1,
            arg="max_workers",
        ),
        EnvOption(
            "REPRO_FAULTPOINTS",
            "fault-injection spec 'point:N,...' (test harness only)",
        ),
        EnvOption(
            "REPRO_WAREHOUSE_AUTOREFRESH",
            "refresh the result warehouse after each cached sweep run",
            kind="flag",
            default=False,
            arg="refresh_warehouse",
        ),
    )
}


def _require_registered(name: str) -> EnvOption:
    try:
        return REPRO_ENV_OPTIONS[name]
    except KeyError:
        known = ", ".join(sorted(REPRO_ENV_OPTIONS))
        raise ConfigError(
            f"unregistered environment option {name!r}; every REPRO_* "
            f"variable must be declared in repro.envopts.REPRO_ENV_OPTIONS "
            f"(known: {known})"
        ) from None


def read_env(name: str) -> str | None:
    """The raw value of a registered option (``None`` when unset).

    The empty string is preserved: ``REPRO_TRACE_STORE=""`` means
    explicitly disabled. Every other option is read with :func:`resolve`.
    """
    _require_registered(name)
    return os.environ.get(name)


def resolve(name: str, explicit: Any = None) -> Any:
    """The value of option ``name``: explicit > environment > default.

    ``explicit`` counts as given unless it is ``None`` or ``""``; a given
    value is checked like an environment value, and the variable is not
    read. Raises :class:`~repro.errors.ConfigError` on a bad value.
    """
    option = _require_registered(name)
    if explicit is not None and explicit != "":
        return option.parse(explicit)
    raw = os.environ.get(name)
    return option.parse(raw) if raw else option.default


def require_cache_dir(explicit: str | None) -> str:
    """``--cache-dir`` else ``REPRO_CACHE_DIR``, for a CLI that needs one."""
    cache_dir: str | None = resolve("REPRO_CACHE_DIR", explicit)
    if cache_dir is None:
        raise ConfigError("no cache directory: pass --cache-dir or set REPRO_CACHE_DIR")
    return cache_dir


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
