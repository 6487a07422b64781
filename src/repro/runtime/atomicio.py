"""The one blessed atomic-write idiom, and the one JSON record reader.

Several subsystems persist crash-safe state — the result cache, the
broker queue, the workload trace store, sweep manifests — and before
this module each carried its own copy of the same temp-file +
``os.replace`` block, free to rot independently. The idiom now lives
here, once:

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

Every JSON record is written by :func:`atomic_write_json`, which stamps a
``crc32`` of its canonical JSON, and read by :func:`read_json`, which
checks it: a flipped byte or a truncated file is a
:class:`CorruptRecord`, never a different record.

``reprolint`` rule ``RPL002`` enforces that cache/queue/trace-store code
performs durable writes only through these helpers, so another copy — or
a raw ``open(path, "w")`` that can tear — cannot creep back in.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from collections.abc import Container
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

#: The key :func:`atomic_write_json` stamps on every record.
CRC_KEY = "crc32"


class CorruptRecord(Exception):
    """A record file exists but is not a JSON object or fails its crc32."""


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


def record_crc(record: dict) -> int:
    """crc32 of ``record``'s canonical JSON, leaving out its ``crc32`` key."""
    body = {key: value for key, value in record.items() if key != CRC_KEY}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode())


def atomic_write_json(path: Path, record: dict) -> None:
    """Atomically write one compact JSON record to ``path``, crc32 last."""
    with atomic_writer(path) as fh:
        json.dump({**record, CRC_KEY: record_crc(record)}, fh, separators=(",", ":"))


def read_json(path: Path, current: Container[str] | None = None) -> dict | None:
    """The record at ``path`` without its ``crc32``; ``None`` if unreadable.

    ``None`` means no file could be read (absent, or renamed away
    mid-read). Raises :class:`CorruptRecord` when the bytes are not a
    JSON object, or the ``crc32`` is wrong or missing. A caller that
    meets records written before the checksum existed names the schemas
    it writes in ``current``: a record with no ``crc32`` key whose
    ``schema`` is none of them is then returned, for the caller's own
    schema check to judge.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    try:
        record = json.loads(blob)
    except ValueError:
        raise CorruptRecord(f"{path}: not JSON") from None
    if not isinstance(record, dict):
        raise CorruptRecord(f"{path}: not a JSON object")
    if CRC_KEY in record:
        if record.pop(CRC_KEY) != record_crc(record):
            raise CorruptRecord(f"{path}: crc32 mismatch")
    elif current is None or record.get("schema") in current:
        raise CorruptRecord(f"{path}: no crc32")
    return record
