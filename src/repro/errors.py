"""Exception types for the Boomerang reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class WorkloadError(ReproError):
    """Raised when a workload/CFG cannot be built or is malformed."""


class SimulationError(ReproError):
    """Raised when the simulation engine reaches an impossible state."""


class BrokerError(ReproError):
    """Raised when the distributed job broker cannot complete a batch."""


class CorruptRecord(Exception):
    """A stored record exists but fails the named check in its message.

    Raised by the record readers (:func:`repro.runtime.atomicio.read_json`
    and the trace-store codec) and caught by the stores that call them,
    which count it and answer a miss. It never crosses the library
    boundary, so it is not a :class:`ReproError`.
    """


class UnknownMechanismError(ConfigError):
    """Raised when a mechanism name is not in the registry."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown control-flow delivery mechanism {name!r}; "
            f"known mechanisms: {', '.join(known)}"
        )
