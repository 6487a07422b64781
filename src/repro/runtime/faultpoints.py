"""Deterministic crash injection for the fault-tolerance test harness.

The broker and the warehouse survive processes being SIGKILLed at
arbitrary moments — but "arbitrary" is untestable. This module gives the
test harness (``tests/faultinject.py``) *named* crash points: set

    REPRO_FAULTPOINTS="worker-claimed:1,warehouse-refresh:10"

in a subprocess's environment and the Nth time that process passes the
named point it SIGKILLs itself — no cleanup handlers, no ``atexit``, no
flushing, exactly the state a power cut or an OOM kill leaves behind.
A bare ``point`` means ``point:1``. A name outside :data:`FAULT_POINTS`
or a count that is not a positive integer raises :class:`ConfigError`
naming the spec, so a typo cannot silently disable a crash test.

Production runs never set the variable, so the cost of a fault point is
one environment lookup. The points wired in:

``worker-claimed``
    ``run_worker`` just claimed a job (the lease is held, nothing ran).
``warehouse-refresh``
    the warehouse rebuild is about to insert its Nth row inside the
    refresh transaction (nothing may be durable until COMMIT; the
    previous snapshot must stay readable and the next refresh must
    converge).
"""

from __future__ import annotations

import os
import signal

from ..envopts import resolve
from ..errors import ConfigError

#: Every point a ``maybe_fault`` call site passes.
FAULT_POINTS = ("worker-claimed", "warehouse-refresh")

#: Per-process pass counts for each named point.
_hits: dict[str, int] = {}


def _parse(spec: str) -> dict[str, int]:
    targets: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, count = part.partition(":")
        if name not in FAULT_POINTS:
            raise ConfigError(
                f"REPRO_FAULTPOINTS={spec!r}: unknown fault point {name!r}; "
                f"known points: {', '.join(FAULT_POINTS)}"
            )
        if not sep:
            count = "1"
        if not count.isdecimal() or int(count) < 1:
            raise ConfigError(
                f"REPRO_FAULTPOINTS={spec!r}: count {count!r} for {name!r} "
                f"is not a positive integer"
            )
        targets[name] = int(count)
    return targets


def maybe_fault(point: str) -> None:
    """SIGKILL this process if ``point`` has now been hit its target count.

    A no-op (one env lookup) unless ``REPRO_FAULTPOINTS`` names ``point``.
    SIGKILL — not ``sys.exit`` — because the entire contract under test is
    that *nothing* gets a chance to clean up.
    """
    spec = resolve("REPRO_FAULTPOINTS")
    if not spec:
        return
    targets = _parse(spec)
    if point not in targets:
        return
    _hits[point] = _hits.get(point, 0) + 1
    if _hits[point] >= targets[point]:
        os.kill(os.getpid(), signal.SIGKILL)
