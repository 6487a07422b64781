"""File-based distributed job broker: work stealing over a shared directory.

Any number of worker processes — on one machine or on several machines
sharing a filesystem — coordinate through a queue that lives entirely
under ``<cache-dir>/queue/``. There is no server and no network protocol:
every transition a job can take is a single atomic ``os.rename`` on the
shared filesystem, so exactly one claimant ever wins a job and a crashed
worker can never corrupt the queue.

Queue layout::

    <cache-dir>/queue/
      pending/<job-id>__w<COST>__a<N>.json  # runnable; N = attempts so far
      claimed/<job-id>__w<COST>__a<N>.json  # leased (mtime = heartbeat)
      done/<job-id>.json                    # result + per-job telemetry
      failed/<job-id>.json                  # terminal error after retry cap

``COST`` is the job's deterministic cost estimate (its scaled trace
length in instructions, :func:`~repro.runtime.runner.estimate_job_cost`;
host time ranks with it at Spearman 0.74, against −0.06 for the earlier
trace length × LLC round trip), recorded both in the payload and in the
filename — as a weight token ``__w``, whose letter can never occur inside
the job id's hex digest — so the **longest-first scheduler** can order
claims from one ``listdir``: stragglers start first and tail latency
drops. Jobs without an estimate (no ``__w`` token: an unknown
workload) fall back to name order after every costed job.

Job lifecycle:

1. **Enqueue** — the submitting process writes a spec (workload, scale,
   full canonicalized config, config digest, engine schema tag) to a temp
   file and renames it into ``pending/``. The job id is the runtime's
   cache key (``workload__s<scale>__<digest16>``), so re-submitting an
   already-done job is a no-op — the done record *is* the answer.
2. **Claim** — a worker renames ``pending/X`` to ``claimed/X``. The rename
   either succeeds (the worker owns the job) or raises — two stealers can
   never both win. While executing, the worker touches the claimed file's
   mtime every ``lease_seconds / 3`` as a heartbeat.
3. **Complete** — the worker writes the result + telemetry (worker id,
   queue wait, run time, attempts) to ``done/`` atomically, mirrors the
   result into the shared :class:`~repro.runtime.cache.ResultCache`, and
   removes its claim.
4. **Crash recovery** — any participant that notices a claimed file whose
   mtime is older than the lease renames it back to ``pending/`` with the
   attempt counter bumped (again atomic: exactly one recoverer wins). A
   job whose attempts reach ``max_attempts`` is moved to ``failed/``
   instead, and the submitting coordinator surfaces one clean
   :class:`~repro.errors.BrokerError` naming the job and its last error.

The submitting process (:class:`BrokerBackend`) participates in stealing
by default, so a broker run completes with zero external workers; extra
``python -m repro.runtime worker`` processes simply drain the queue
faster. Results are deterministic regardless of who ran what.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .. import config as config_module
from ..config import SimConfig
from ..core.results import SimulationResult
from ..envopts import REPRO_ENV_OPTIONS, read_env, resolve
from ..errors import BrokerError, CorruptRecord
from .atomicio import atomic_write_json, read_json
from .cache import SCHEMA_TAG, ResultCache
from .confighash import canonicalize, config_digest
from .faultpoints import maybe_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from .runner import SimJob

#: Queue record format version (independent of the engine schema tag).
#: v2: batched work units — specs may carry ``configs``/``digests`` lists
#: instead of a single ``config``, and their done records a ``results``
#: list instead of a single ``result``.
#: v3: requeue-aware wait telemetry — requeued specs carry ``requeued_at``,
#: done records report ``queue_wait_s`` from the *latest* (re)queue time
#: and the new ``age_s`` from the original ``enqueued_at``.
#: v4: one job per spec again — v2's ``configs``/``digests`` specs and
#: list-valued ``results`` done records are gone. A spec of any other
#: queue schema is stale, like one of another engine schema
#: (:func:`_stale_spec`).
#: v5: every spec, done and failed record carries a ``crc32``
#: (:mod:`repro.runtime.atomicio`); a damaged one is never served.
BROKER_SCHEMA = "broker-v5"

#: Defaults, overridable via REPRO_BROKER_* (see :func:`broker_env_options`).
DEFAULT_LEASE_SECONDS: float = REPRO_ENV_OPTIONS["REPRO_BROKER_LEASE"].default
DEFAULT_MAX_ATTEMPTS: int = REPRO_ENV_OPTIONS["REPRO_BROKER_MAX_ATTEMPTS"].default
DEFAULT_POLL_SECONDS = 0.2

#: The claim order: the most expensive pending job first.
DEFAULT_SCHEDULER = "longest"


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def key_job_id(key: tuple[str, str, str]) -> str:
    """The queue id of the job with cache key ``(workload, scale, digest)``."""
    workload, scale_tok, digest = key
    return f"{workload}__s{scale_tok}__{digest[:16]}"


# ---------------------------------------------------------------------------
# Config/job (de)serialization
# ---------------------------------------------------------------------------

#: Class-name registry for rebuilding canonicalized config trees. Derived
#: from the config module so a params class added tomorrow is picked up
#: automatically — the same no-hand-maintained-list principle as the digest.
_CONFIG_CLASSES = {
    cls.__name__: cls
    for cls in vars(config_module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


def config_from_canonical(obj: object) -> object:
    """Rebuild a config value from its :func:`canonicalize` form.

    Tagged objects become their dataclass (validated through
    ``__post_init__`` exactly like a hand-built config), arrays become
    tuples (the only sequence type in config trees), scalars pass through.
    """
    if isinstance(obj, dict):
        tag = obj.get("__class__")
        if tag is None:
            raise BrokerError(f"config record without a __class__ tag: {obj!r}")
        cls = _CONFIG_CLASSES.get(tag)
        if cls is None:
            known = ", ".join(sorted(_CONFIG_CLASSES))
            raise BrokerError(
                f"unknown config class {tag!r} in job spec (worker running "
                f"older code?); known classes: {known}"
            )
        kwargs = {
            key: config_from_canonical(value)
            for key, value in obj.items()
            if key != "__class__"
        }
        return cls(**kwargs)
    if isinstance(obj, list):
        return tuple(config_from_canonical(v) for v in obj)
    return obj


def job_spec(job: SimJob) -> dict:
    """The JSON job description a worker needs to execute ``job``."""
    from .runner import estimate_job_cost

    workload, scale_tok, digest = job.key
    return {
        "schema": BROKER_SCHEMA,
        "engine_schema": SCHEMA_TAG,
        "workload": workload,
        "scale": scale_tok,
        "digest": digest,
        "config": canonicalize(job.config),
        "cost": estimate_job_cost(job),
        "enqueued_at": time.time(),
    }


def _stale_spec(spec: dict | None) -> bool:
    """Was this readable spec written under another engine or queue schema?

    Such a spec is dead weight: its counters (engine schema) or its very
    shape (queue schema — e.g. a ``broker-v3`` batch spec carrying
    ``configs``/``digests`` lists) do not match this code, so it is
    purged from ``pending/`` and from expired claims, and terminal-failed
    rather than executed if claimed. An unreadable spec is not stale;
    the claim path handles it.
    """
    return spec is not None and (
        spec.get("engine_schema") != SCHEMA_TAG
        or spec.get("schema") != BROKER_SCHEMA
    )


def job_from_spec(spec: dict) -> SimJob:
    """Rebuild the job a spec describes.

    The config digest is recomputed from the rebuilt config and checked
    against the spec's — catching serialization drift or a worker running
    different config code before it can produce a wrongly-keyed result.
    """
    from .runner import SimJob

    config = config_from_canonical(spec["config"])
    if not isinstance(config, SimConfig):
        raise BrokerError("job spec config does not describe a SimConfig")
    job = SimJob(spec["workload"], config, float(spec["scale"]))
    if config_digest(config) != spec["digest"]:
        raise BrokerError(
            f"config digest mismatch for job {spec['workload']!r}: the spec "
            f"says {spec['digest'][:16]} but this worker's code computes "
            f"{config_digest(config)[:16]} — submitter and worker are "
            f"running different repro versions"
        )
    return job


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------


@dataclass
class ClaimedJob:
    """A job this process owns (claimed but not yet completed)."""

    job_id: str
    attempts: int  # prior execution attempts (0 on the first claim)
    path: Path  # current location in claimed/
    spec: dict
    claimed_at: float
    #: When the job last became runnable — the pending file's mtime at
    #: claim time. A fresh enqueue writes the file then, a retry requeue
    #: rewrites it then, and lease recovery touches it then, so this is
    #: the *latest* (re)queue time: the basis for an honest
    #: ``queue_wait_s`` that never absorbs a prior attempt's run time.
    runnable_at: float


def _job_filename(job_id: str, cost: int | None, attempts: int) -> str:
    """The queue filename carrying a job's id, cost estimate and attempts."""
    cost_part = f"__w{cost}" if cost is not None else ""
    return f"{job_id}{cost_part}__a{attempts}.json"


def _parse_job_name(filename: str) -> tuple[str, int | None, int] | None:
    """``<job-id>[__w<COST>]__a<N>.json`` → (job id, cost, N).

    ``None`` for temp files and foreign clutter. The cost (weight) token
    is optional so jobs without an estimate still parse — they read as
    cost ``None``, the name-order fallback bucket. ``w`` is not a hex
    digit, so the token can never be confused with the tail of the job
    id's config-digest segment.
    """
    stem = filename[: -len(".json")]
    job_id, sep, attempts = stem.rpartition("__a")
    if not sep or not attempts.isdigit():
        return None
    head, sep, cost = job_id.rpartition("__w")
    if sep and cost.isdigit():
        return head, int(cost), int(attempts)
    return job_id, None, int(attempts)


class BrokerQueue:
    """Filesystem job queue; every state transition is one atomic rename."""

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        lease_seconds: float | None = None,
        max_attempts: int | None = None,
    ):
        """``None`` takes ``REPRO_BROKER_LEASE``/``REPRO_BROKER_MAX_ATTEMPTS``,
        or their defaults; an explicit value beats the environment."""
        self.root = Path(cache_dir) / "queue"
        self.pending = self.root / "pending"
        self.claimed = self.root / "claimed"
        self.done = self.root / "done"
        self.failed = self.root / "failed"
        #: A NaN lease would never expire, so a dead worker's claim would
        #: be held forever: resolve rejects any non-finite value.
        self.lease_seconds: float = resolve("REPRO_BROKER_LEASE", lease_seconds)
        self.max_attempts: int = resolve("REPRO_BROKER_MAX_ATTEMPTS", max_attempts)
        #: Queue records this object found damaged (failed their crc32 or
        #: were not JSON objects), each counted once however often it is
        #: read; none of them is ever served.
        self.damaged: set[Path] = set()

    @property
    def corrupt(self) -> int:
        return len(self.damaged)

    def _ensure_dirs(self) -> None:
        for directory in (self.pending, self.claimed, self.done, self.failed):
            directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def job_id(job: SimJob) -> str:
        return key_job_id(job.key)

    def list_jobs(self, directory: Path) -> list[tuple[str, str, int | None, int]]:
        """``(filename, job id, cost, attempts)`` of every spec in ``directory``.

        One ``listdir`` of ``pending/`` or ``claimed/``, parsed by the
        queue filename grammar; temp files and foreign clutter are
        skipped, and an unreadable directory lists nothing.
        """
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [
            (name, *parsed)
            for name in names
            if name.endswith(".json") and (parsed := _parse_job_name(name))
        ]

    def read_record(self, path: Path) -> dict | None:
        """The queue record at ``path``; ``None`` when absent.

        Raises :class:`CorruptRecord` for a damaged record, after adding
        it to :attr:`damaged`. None is ever served: a damaged spec is
        purged by :meth:`_visible` or fails its job when claimed, and a
        damaged done record's job runs again, its worker's record
        replacing the damaged one. A record of an older queue schema may
        carry no ``crc32``; :func:`_stale_spec` and :meth:`done_record`
        refuse it by its schema.
        """
        try:
            return read_json(path, current=(BROKER_SCHEMA,))
        except CorruptRecord:
            self.damaged.add(path)
            raise

    def _read_or_none(self, path: Path) -> dict | None:
        """:meth:`read_record`, with a damaged record read as absent."""
        try:
            return self.read_record(path)
        except CorruptRecord:
            return None

    def _dead_spec(self, path: Path) -> bool:
        """Is the spec at ``path`` damaged, or stale (:func:`_stale_spec`)?"""
        try:
            return _stale_spec(self.read_record(path))
        except CorruptRecord:
            return True

    # ------------------------------------------------------------- enqueue

    def enqueue(self, job: SimJob) -> str:
        """Make ``job`` runnable unless it is already visible anywhere.

        Racing submitters are harmless: both write identical specs, and a
        same-name rename collapses them into one pending file.
        """
        job_id = self.job_id(job)
        if self.read_done(job_id) is None:
            self.submit(job, job_id)
        return job_id

    def submit(self, job: SimJob, job_id: str) -> None:
        """Queue a spec for a job with no current done record.

        A no-op while a spec for it is pending or claimed, or once it is
        done: :meth:`complete` writes the done record before it releases
        the claim, so a job that finished since the caller looked has its
        record in place by the time no spec is visible. A stale or
        damaged done record is left for the job's worker to replace. A
        leftover terminal failure from an earlier batch must not poison
        this (fresh) submission: it is cleared and the job starts over
        at attempt 0.
        """
        self._ensure_dirs()
        if self._visible(job_id) or self.read_done(job_id) is not None:
            return
        (self.failed / f"{job_id}.json").unlink(missing_ok=True)
        spec = job_spec(job)
        name = _job_filename(job_id, spec.get("cost"), 0)
        atomic_write_json(self.pending / name, spec)

    def _visible(self, job_id: str) -> bool:
        """Is a runnable/leased spec for ``job_id`` already in the queue?

        A *pending* spec that is damaged or was written under another
        engine or queue schema (an interrupted run that predates a source
        change, see :func:`_stale_spec`) is dead weight — its claimer would only
        terminal-fail it on the schema check — so it is deleted here and
        reported not-visible, letting the caller enqueue a fresh
        current-schema spec instead. A *claimed* spec in the same
        situation whose lease has expired (its old-schema owner crashed)
        is equally dead weight and gets the same treatment; while its
        lease is live it stays visible — a running worker is never
        robbed, even a doomed one.
        """
        visible = False
        now = time.time()
        for directory in (self.pending, self.claimed):
            for name, listed_id, _, _ in self.list_jobs(directory):
                if listed_id != job_id:
                    continue
                if self._dead_spec(directory / name):
                    if directory is self.pending:
                        (directory / name).unlink(missing_ok=True)
                        continue
                    try:
                        expired = (
                            now - (directory / name).stat().st_mtime
                            > self.lease_seconds
                        )
                    except OSError:
                        continue  # released or recovered concurrently
                    if expired:
                        (directory / name).unlink(missing_ok=True)
                        continue
                visible = True
        return visible

    # --------------------------------------------------------------- claim

    def _claim_order(self) -> list[tuple[str, str, int | None, int]]:
        """Pending jobs, from one ``listdir``, in longest-first claim order.

        Sorted by estimated cost, descending, so the slowest jobs — the
        ones that would otherwise anchor the batch's tail — start first.
        Jobs without a cost estimate come after every costed job, in
        name order.
        """
        candidates = self.list_jobs(self.pending)
        candidates.sort(key=lambda c: (c[2] is None, -(c[2] or 0), c[0]))
        return candidates

    def claim(self, worker_id: str | None = None) -> ClaimedJob | None:
        """Steal one pending job, or ``None`` when the queue is empty.

        Candidates are tried longest-first (see :meth:`_claim_order`).
        The ``os.rename(pending/X, claimed/X)`` either succeeds — this
        process now exclusively owns the job — or raises because another
        stealer won the race, in which case the next candidate is tried.
        """
        self._ensure_dirs()
        for name, job_id, _cost, attempts in self._claim_order():
            src = self.pending / name
            dst = self.claimed / name
            now = time.time()
            try:
                # The pending file's mtime is when the job last became
                # runnable (enqueue write, retry rewrite, or recovery
                # touch) — captured before the lease touch below erases it.
                runnable_at = src.stat().st_mtime
                # Start the lease clock BEFORE the rename: the rename
                # preserves mtime, and a job that sat pending longer than
                # the lease would otherwise arrive in claimed/ already
                # "expired" and be recoverable out from under its claimer.
                os.utime(src, (now, now))
                os.rename(src, dst)
            except OSError:
                continue  # lost the race for this job; try the next one
            spec = self._read_or_none(dst)
            if spec is None:
                # Unreadable or damaged spec: nothing to execute or retry.
                self._fail_terminal(job_id, attempts, "unreadable job spec")
                dst.unlink(missing_ok=True)
                continue
            return ClaimedJob(
                job_id,
                attempts,
                dst,
                spec,
                claimed_at=now,
                runnable_at=min(runnable_at, now),
            )
        return None

    def heartbeat(self, claimed: ClaimedJob) -> None:
        """Refresh the lease on a job this process is still executing."""
        now = time.time()
        try:
            os.utime(claimed.path, (now, now))
        except OSError:
            pass  # claim was recovered from under us; completion will dedupe

    # ------------------------------------------------------------ complete

    def complete(
        self,
        claimed: ClaimedJob,
        result: SimulationResult,
        worker_id: str,
        run_seconds: float,
    ) -> dict:
        """Publish the result + telemetry, then release the claim.

        ``queue_wait_s`` measures from the job's *latest* (re)queue time
        (:attr:`ClaimedJob.runnable_at`), so a retried job's wait never
        absorbs a prior attempt's run time or the lease-expiry window;
        ``age_s`` keeps the end-to-end view from the original
        ``enqueued_at``.
        """
        record = {
            "schema": BROKER_SCHEMA,
            "engine_schema": SCHEMA_TAG,
            "job_id": claimed.job_id,
            "digest": claimed.spec["digest"],
            "worker": worker_id,
            "attempts": claimed.attempts + 1,
            "queue_wait_s": round(
                max(0.0, claimed.claimed_at - claimed.runnable_at), 6
            ),
            "age_s": round(
                max(
                    0.0,
                    claimed.claimed_at
                    - claimed.spec.get("enqueued_at", claimed.claimed_at),
                ),
                6,
            ),
            "run_s": round(run_seconds, 6),
            "completed_at": time.time(),
            "result": {
                "workload": result.workload,
                "mechanism": result.mechanism,
                "raw": result.raw,
            },
        }
        atomic_write_json(self.done / f"{claimed.job_id}.json", record)
        claimed.path.unlink(missing_ok=True)
        return record

    def fail(self, claimed: ClaimedJob, error: str) -> bool:
        """Record a failed execution attempt by the claim's owner.

        Returns ``True`` when the job remains runnable (requeued here, or
        already requeued by lease recovery) and ``False`` when the retry
        cap was reached and it is now terminal. A worker whose claim file
        is gone lost its lease to recovery while it was busy — the job is
        already back in circulation under a bumped attempt, so requeueing
        it *again* here would create a duplicate pending spec whose later
        claim could rename over another worker's active claim file.
        """
        if not claimed.path.exists():
            return True  # lease recovered from under us; job lives on
        attempts = claimed.attempts + 1
        if attempts >= self.max_attempts:
            self._fail_terminal(claimed.job_id, attempts, error)
            claimed.path.unlink(missing_ok=True)
            return False
        spec = dict(claimed.spec)
        spec["last_error"] = error
        # The rewrite stamps both the spec and (via the fresh file's
        # mtime) the queue timestamp, so the next claimer's
        # ``runnable_at`` — and thus ``queue_wait_s`` — starts here, not
        # at the original enqueue.
        spec["requeued_at"] = time.time()
        name = _job_filename(claimed.job_id, spec.get("cost"), attempts)
        atomic_write_json(self.pending / name, spec)
        claimed.path.unlink(missing_ok=True)
        return True

    def _fail_terminal(self, job_id: str, attempts: int, error: str) -> None:
        atomic_write_json(
            self.failed / f"{job_id}.json",
            {
                "schema": BROKER_SCHEMA,
                "job_id": job_id,
                "attempts": attempts,
                "error": error,
                "failed_at": time.time(),
            },
        )

    # ------------------------------------------------------ crash recovery

    def recover_expired(self) -> int:
        """Requeue every claimed job whose lease has expired.

        Safe to call from any participant at any time: the requeue is an
        atomic rename (one recoverer wins), a claim whose job already has
        a done record is just a leftover to delete, and a job that has
        exhausted its attempts goes to ``failed/`` instead. An expired
        claim whose spec was written under another engine or queue schema
        (a worker running pre-source-change code that crashed) is deleted
        rather than requeued — its next claimer could only terminal-fail
        it on the schema check, poisoning a fresh resubmission of the
        same job id. Returns how many jobs changed state.
        """
        recovered = 0
        now = time.time()
        for name, job_id, cost, attempts in sorted(self.list_jobs(self.claimed)):
            path = self.claimed / name
            if self.read_done(job_id) is not None:
                # Completed but the worker died before releasing its claim.
                path.unlink(missing_ok=True)
                recovered += 1
                continue
            try:
                expired = now - path.stat().st_mtime > self.lease_seconds
            except OSError:
                continue  # released or recovered concurrently
            if not expired:
                continue
            spec = self._read_or_none(path)
            if _stale_spec(spec):
                # Dead weight from a crashed old-schema worker: purge it
                # (like a stale pending spec) so a current-schema spec
                # can be enqueued in its place.
                path.unlink(missing_ok=True)
                recovered += 1
                continue
            next_attempts = attempts + 1
            if next_attempts >= self.max_attempts:
                error = (spec or {}).get("last_error") or (
                    f"lease expired {next_attempts} times (worker crash?)"
                )
                self._fail_terminal(job_id, next_attempts, error)
                path.unlink(missing_ok=True)
                recovered += 1
                continue
            try:
                # Touch before the rename (which preserves mtime), so the
                # requeued pending file's mtime — the next claimer's
                # ``runnable_at`` — is the recovery time, not the dead
                # worker's last heartbeat. The spec itself cannot be
                # rewritten here: the atomic rename is what guarantees
                # exactly one recoverer wins.
                os.utime(path, (now, now))
                os.rename(
                    path, self.pending / _job_filename(job_id, cost, next_attempts)
                )
            except OSError:
                continue  # another participant recovered it first
            recovered += 1
        return recovered

    # ------------------------------------------------------------- lookups

    def done_record(self, job_id: str) -> dict | None:
        """The done record for ``job_id``, if its schemas are current.

        A record produced by a different engine version is stale — its
        counters may not match this code — and reads as absent. Raises
        :class:`CorruptRecord` for a damaged one (:meth:`read_record`).
        """
        record = self.read_record(self.done / f"{job_id}.json")
        if (
            record is None
            or record.get("schema") != BROKER_SCHEMA
            or record.get("engine_schema") != SCHEMA_TAG
        ):
            return None
        return record

    def read_done(self, job_id: str) -> dict | None:
        """:meth:`done_record`, with a damaged record read as absent."""
        try:
            return self.done_record(job_id)
        except CorruptRecord:
            return None

    def failed_record(self, job_id: str) -> dict | None:
        """The terminal failure of ``job_id``; raises like :meth:`read_record`."""
        return self.read_record(self.failed / f"{job_id}.json")

    def read_failed(self, job_id: str) -> dict | None:
        return self._read_or_none(self.failed / f"{job_id}.json")

    def counts(self) -> dict[str, int]:
        """Per-state queue sizes (for status displays and smoke checks).

        Done and failed records are named by bare job id, so those two
        states count ``*.json`` files instead of parsing spec names.
        """
        out = {
            "pending": len(self.list_jobs(self.pending)),
            "claimed": len(self.list_jobs(self.claimed)),
        }
        for state, directory in (("done", self.done), ("failed", self.failed)):
            try:
                out[state] = sum(n.endswith(".json") for n in os.listdir(directory))
            except OSError:
                out[state] = 0
        return out


# ---------------------------------------------------------------------------
# Executing a claim (shared by workers and the stealing coordinator)
# ---------------------------------------------------------------------------


def execute_claimed(
    queue: BrokerQueue,
    claimed: ClaimedJob,
    cache: ResultCache | None,
    worker_id: str,
) -> dict | None:
    """Run one claimed job to a done (or failed/requeued) record.

    A daemon thread refreshes the lease every third of its duration while
    the simulation runs, so long jobs are never falsely recovered. The
    result is mirrored into the shared result cache (warm future runs)
    besides being published in the done record (the delivery path — it
    works even when the cache directory is read-only for workers).
    """
    if _stale_spec(claimed.spec):
        queue._fail_terminal(
            claimed.job_id,
            claimed.attempts + 1,
            f"schema mismatch: job submitted by "
            f"{claimed.spec.get('schema')!r}/{claimed.spec.get('engine_schema')!r}, "
            f"worker runs {BROKER_SCHEMA!r}/{SCHEMA_TAG!r}",
        )
        claimed.path.unlink(missing_ok=True)
        return None
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(queue.lease_seconds / 3):
            queue.heartbeat(claimed)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    started = time.time()
    try:
        from .runner import execute_job

        job = job_from_spec(claimed.spec)
        result = execute_job(job)
    except Exception as exc:  # noqa: BLE001 - any failure becomes a record
        stop.set()
        beater.join()
        queue.fail(claimed, f"{type(exc).__name__}: {exc}")
        return None
    stop.set()
    beater.join()
    record = queue.complete(claimed, result, worker_id, time.time() - started)
    if cache is not None:
        cache.put(*job.key, result)
    return record


# ---------------------------------------------------------------------------
# The backend (submitting side)
# ---------------------------------------------------------------------------


def broker_env_options() -> dict:
    """Broker tunables from the ``REPRO_BROKER_*`` variables (or defaults)."""
    return {
        "lease_seconds": resolve("REPRO_BROKER_LEASE"),
        "max_attempts": resolve("REPRO_BROKER_MAX_ATTEMPTS"),
        "timeout": resolve("REPRO_BROKER_TIMEOUT"),
        "steal": resolve("REPRO_BROKER_STEAL"),
    }


class BrokerBackend:
    """Submit a batch to the shared queue and collect done records.

    The coordinator loop interleaves three duties until every job in the
    batch is resolved: collect freshly-done results, recover expired
    leases, and (unless ``steal=False``) claim and execute jobs itself —
    making it a peer of every external worker rather than a passive
    waiter.
    """

    name = "broker"

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        lease_seconds: float | None = None,
        max_attempts: int | None = None,
        steal: bool = True,
        timeout: float | None = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        worker_id: str | None = None,
    ):
        self.queue = BrokerQueue(cache_dir, lease_seconds, max_attempts)
        self.cache = ResultCache(cache_dir)
        self.steal = steal
        #: ``None`` waits forever; a given deadline is checked like the env's.
        self.timeout: float | None = (
            None if timeout is None else resolve("REPRO_BROKER_TIMEOUT", timeout)
        )
        self.poll_seconds = poll_seconds
        self.worker_id = worker_id or default_worker_id()
        self._job_records: list[dict] = []
        #: Jobs of the last batch answered by pre-existing done records
        #: (not executed by anyone during the batch).
        self.reused_results = 0

    @classmethod
    def from_env(cls, cache_dir: str | os.PathLike) -> "BrokerBackend":
        return cls(cache_dir, **broker_env_options())

    def run_batch(self, jobs: list[SimJob]) -> list[SimulationResult]:
        deadline = None if self.timeout is None else time.time() + self.timeout
        order: list[str] = []
        by_id: dict[str, SimJob] = {}
        self.reused_results = 0
        self.queue.damaged.clear()
        for job in jobs:
            job_id = self.queue.job_id(job)
            if self.queue.read_done(job_id) is not None:
                # A surviving done record (e.g. an interrupted earlier
                # batch) is the answer — nothing is (re-)executed for it.
                self.reused_results += 1
            else:
                self.queue.submit(job, job_id)
            order.append(job_id)
            by_id[job_id] = job
        unresolved = dict.fromkeys(order)  # insertion-ordered job-id set
        results: dict[str, SimulationResult] = {}
        self._job_records = []
        while unresolved:
            for job_id in list(unresolved):
                try:
                    record = self.queue.done_record(job_id)
                    if record is not None:
                        results[job_id] = SimulationResult(**record["result"])
                        self._job_records.append(record)
                        del unresolved[job_id]
                        continue
                    failure = self.queue.failed_record(job_id)
                except CorruptRecord:
                    # Never served: the job runs again, and its worker's
                    # done record replaces a damaged one.
                    self.queue.submit(by_id[job_id], job_id)
                    continue
                if failure is not None:
                    raise BrokerError(
                        f"job {job_id} failed after {failure.get('attempts')} "
                        f"attempt(s): {failure.get('error')} "
                        f"(record: {self.queue.failed / (job_id + '.json')})"
                    )
            if not unresolved:
                break
            self.queue.recover_expired()
            worked = False
            if self.steal:
                claimed = self.queue.claim(self.worker_id)
                if claimed is not None:
                    execute_claimed(self.queue, claimed, self.cache, self.worker_id)
                    worked = True
            if not worked:
                if deadline is not None and time.time() > deadline:
                    states = self.queue.counts()
                    raise BrokerError(
                        f"timed out after {self.timeout:.0f}s waiting for "
                        f"{len(unresolved)} job(s); queue state: {states} — "
                        f"are any `python -m repro.runtime worker` processes "
                        f"running against this cache dir?"
                    )
                time.sleep(self.poll_seconds)
        return [results[job_id] for job_id in order]

    def telemetry(self) -> dict:
        """Aggregate per-job telemetry of the last batch."""
        records = self._job_records
        if not records:
            return {}
        per_worker: dict[str, int] = {}
        for record in records:
            per_worker[record["worker"]] = per_worker.get(record["worker"], 0) + 1
        corrupt = {"broker_corrupt": self.queue.corrupt} if self.queue.corrupt else {}
        return {
            **corrupt,
            "broker_reused": self.reused_results,
            "broker_jobs": len(records),
            "broker_workers": dict(sorted(per_worker.items())),
            "broker_queue_wait_s": round(
                sum(r["queue_wait_s"] for r in records), 3
            ),
            "broker_run_s": round(sum(r["run_s"] for r in records), 3),
            "broker_longest_job_s": round(
                max(r["run_s"] for r in records), 3
            ),
            "broker_retries": sum(r["attempts"] - 1 for r in records),
        }


# ---------------------------------------------------------------------------
# Stand-alone worker loop (``python -m repro.runtime worker``)
# ---------------------------------------------------------------------------

#: In drain mode, a non-empty ``claimed/`` extends the idle allowance to
#: this many leases: long enough for a crashed peer's lease to expire and
#: its job to requeue (which this worker's own ``recover_expired`` then
#: picks up), short enough that a healthy peer grinding a long job does
#: not pin the drainer forever.
DRAIN_LEASE_WAIT_FACTOR = 2.0


def run_worker(
    cache_dir: str | os.PathLike,
    worker_id: str | None = None,
    drain: bool = False,
    max_idle: float | None = None,
    poll_seconds: float = 0.5,
    lease_seconds: float | None = None,
    max_attempts: int | None = None,
    max_jobs: int | None = None,
) -> int:
    """Steal and execute jobs until idle for too long (or forever).

    ``drain`` exits once the queue has stayed empty for ``max_idle``
    seconds (default 10 — long enough to survive the gap between worker
    start-up and the coordinator's enqueue); without ``drain`` the worker
    runs until ``max_idle`` (if given) or until killed. "Empty" means no
    *runnable* work anywhere: while another worker still holds a claim,
    a draining worker's idle allowance stretches to
    ``DRAIN_LEASE_WAIT_FACTOR`` leases — if that peer crashed, its lease
    expires within one lease period and this worker recovers and runs
    the job instead of exiting with work stranded. Returns the number of
    jobs this worker completed.
    """
    from ..workloads.workload import configure_trace_store

    queue = BrokerQueue(cache_dir, lease_seconds, max_attempts)
    cache = ResultCache(cache_dir)
    # Share workload builds with everyone else using this cache dir
    # (unless REPRO_TRACE_STORE points the store somewhere specific).
    if read_env("REPRO_TRACE_STORE") is None:
        configure_trace_store(cache_dir)
    me = worker_id or default_worker_id()
    if drain and max_idle is None:
        max_idle = 10.0
    completed = 0
    idle_since: float | None = None
    print(f"[worker {me}] stealing from {queue.root}", flush=True)
    while True:
        queue.recover_expired()
        claimed = queue.claim(me)
        if claimed is None:
            now = time.time()
            if idle_since is None:
                idle_since = now
            idle_limit = max_idle
            if drain and idle_limit is not None and queue.list_jobs(queue.claimed):
                # Jobs leased by peers are not "queue empty": wait for
                # the lease verdict (completion or expiry-and-recovery)
                # before concluding there is nothing left to drain.
                idle_limit = max(
                    idle_limit, DRAIN_LEASE_WAIT_FACTOR * queue.lease_seconds
                )
            if idle_limit is not None and now - idle_since >= idle_limit:
                break
            time.sleep(poll_seconds)
            continue
        idle_since = None
        maybe_fault("worker-claimed")  # fault harness: die holding the lease
        record = execute_claimed(queue, claimed, cache, me)
        if record is not None:
            completed += 1
            print(
                f"[worker {me}] done {claimed.job_id} "
                f"(attempt {record['attempts']}, {record['run_s']:.2f}s)",
                flush=True,
            )
        else:
            print(f"[worker {me}] failed attempt on {claimed.job_id}", flush=True)
        if max_jobs is not None and completed >= max_jobs:
            break
    print(f"[worker {me}] exiting after {completed} job(s)", flush=True)
    return completed
