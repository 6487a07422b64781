"""The one blessed atomic-write idiom for every durable-state file.

Several subsystems persist crash-safe state — the result cache, the
broker queue, the workload trace store, sweep manifests, the analytic
store — and before this module each carried its own copy of the same
temp-file + ``os.replace`` block, free to rot independently. The idiom
now lives here, once:

* the temp file is created **in the destination directory** (``mkstemp``
  with ``dir=``), so the final ``os.replace`` is same-filesystem and
  therefore atomic — a reader observes either the old complete file or
  the new complete file, never a prefix;
* the destination's parent directories are created on demand;
* on *any* failure — including ``KeyboardInterrupt`` and the SIGKILL-style
  fault points the crash tests inject — the temp file is unlinked, so an
  interrupted writer leaves at most an ignorable ``*.tmp`` behind.

The guarantee is atomicity against a killed process, not durability
against a power cut: there is no ``fsync``, so an OS crash can still lose
the latest writes (a lost result record is a cache miss that re-simulates).

``reprolint`` rule ``RPL002`` enforces that cache/queue/trace-store code
performs durable writes only through these helpers, so another copy — or
a raw ``open(path, "w")`` that can tear — cannot creep back in.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator


@contextmanager
def atomic_writer(path: Path, mode: str = "w") -> Iterator[IO[Any]]:
    """Yield a handle whose contents atomically replace ``path`` on exit.

    ``mode`` is ``"w"`` (text) or ``"wb"`` (binary). Propagates ``OSError``
    (read-only directory, full disk) to the caller — cache-style writers
    that degrade to "no caching" catch it around this call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_json(path: Path, record: dict) -> None:
    """Atomically write one compact JSON record to ``path``."""
    with atomic_writer(path) as fh:
        json.dump(record, fh, separators=(",", ":"))
