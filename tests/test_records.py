"""Every JSON record format, damaged, read back through its real reader.

``repro.runtime.atomicio`` writes every JSON record with a ``crc32`` and
reads it back with the checksum verified. Over each format — exact and
analytic result records, broker spec/done/failed records, the
supervisor state and a sweep manifest — a damaged file (one flipped
byte, or a truncation) must end as a counted corrupt record, a miss, or
a named error, never as a different result. The only other outcome is
damage that leaves the JSON meaning the same (``1e-05`` read as
``1E-05``): then the record is served, unchanged.

``test_damaged_done_record_reruns_its_job`` pins the wrong-result path
this closed: a broker done record with one changed digit used to be
served as a real result.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanisms import make_config
from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.experiments.sweeps import get_sweep
from repro.experiments.sweeps.manifest import load_manifest, write_manifest
from repro.runtime import SimJob
from repro.runtime.atomicio import CorruptRecord, atomic_write_json, read_json
from repro.runtime.broker import BrokerBackend, BrokerQueue
from repro.runtime.cache import ANALYTIC_SCHEMA_TAG, SCHEMA_TAG, ResultCache
from repro.runtime.supervisor import Supervisor, read_supervisor_state

RAW = {"cycles": 33734, "retired_instrs": 1500.0, "ratio": 1e-05, "tiny": -2.5e-07}
KEY = ("wl", "0.25", "ab" * 32)


@dataclass
class Format:
    """One on-disk record and its reader.

    ``read`` returns what the reader serves (``None`` for nothing) and
    raises :class:`ConfigError` for a named error; ``counted`` says
    whether a damaged record the reader refused was counted, and is
    ``None`` where refusing is a plain miss.
    """

    path: Path
    expected: object
    read: Callable[[], object]
    counted: Callable[[], bool] | None
    cleanup: Callable[[], None] = lambda: None


def _result_format(cache_dir: Path, tag: str) -> Format:
    ResultCache(cache_dir, tag).put(*KEY, SimulationResult("wl", "fdip", dict(RAW)))
    cache = ResultCache(cache_dir, tag)

    def read() -> object:
        cache.hits = cache.misses = cache.corrupt = 0
        got = cache.get(*KEY)
        return None if got is None else (got.mechanism, got.raw)

    path = next((cache_dir / tag).rglob("*.json"))
    return Format(path, ("fdip", RAW), read, lambda: cache.corrupt == 1)


def _broker_formats(cache_dir: Path) -> dict[str, Format]:
    queue = BrokerQueue(cache_dir)
    done_job = SimJob("apache", make_config("fdip"), 0.05)
    queue.enqueue(done_job)
    claimed = queue.claim("w1")
    assert claimed is not None
    queue.complete(claimed, SimulationResult("apache", "fdip", dict(RAW)), "w1", 1.0)
    done_id = queue.job_id(done_job)
    spec_job = SimJob("apache", make_config("boomerang"), 0.05)
    queue.enqueue(spec_job)
    (spec_path,) = queue.pending.iterdir()
    queue._fail_terminal("failed__s0.05__0123456789abcdef", 3, "boom")

    def reset() -> None:
        queue.damaged.clear()

    def read_done() -> object:
        reset()
        return queue.read_done(done_id)

    def read_failed() -> object:
        reset()
        return queue.read_failed("failed__s0.05__0123456789abcdef")

    def claim_spec() -> object:
        reset()
        got = queue.claim("w2")
        if got is not None:
            return got.spec
        failure = queue.read_failed(queue.job_id(spec_job))
        assert failure is not None and "job spec" in failure["error"]
        return None

    def release_spec() -> None:
        for directory in (queue.claimed, queue.failed):
            for path in directory.glob(f"{queue.job_id(spec_job)}*"):
                path.unlink()

    return {
        "broker-done": Format(
            queue.done / f"{done_id}.json",
            read_json(queue.done / f"{done_id}.json"),
            read_done,
            lambda: queue.corrupt == 1,
        ),
        "broker-failed": Format(
            queue.failed / "failed__s0.05__0123456789abcdef.json",
            read_json(queue.failed / "failed__s0.05__0123456789abcdef.json"),
            read_failed,
            lambda: queue.corrupt == 1,
        ),
        "broker-spec": Format(
            spec_path,
            read_json(spec_path),
            claim_spec,
            lambda: queue.corrupt == 1,
            release_spec,
        ),
    }


def _manifest_view(path: Path) -> object:
    manifest = load_manifest(path)
    return (manifest.sweep, manifest.engine_schema, manifest.spec_digest, manifest.cells)


@pytest.fixture(scope="module")
def formats(tmp_path_factory) -> dict[str, Format]:
    cache_dir = tmp_path_factory.mktemp("records")
    out = {
        "exact-result": _result_format(cache_dir / "exact", SCHEMA_TAG),
        "analytic-result": _result_format(cache_dir / "analytic", ANALYTIC_SCHEMA_TAG),
        **_broker_formats(cache_dir / "broker"),
    }
    supervisor = Supervisor(cache_dir / "fleet")
    supervisor._event("spawn", "w1", pending=3)
    supervisor.write_state()
    out["supervisor-state"] = Format(
        supervisor.state_path,
        read_supervisor_state(supervisor.queue),
        lambda: read_supervisor_state(supervisor.queue),
        None,  # a damaged state reads as absent: a miss
    )
    manifest = write_manifest(cache_dir / "sweep", get_sweep("smoke"), "quick", "paper")
    assert manifest.path is not None
    out["sweep-manifest"] = Format(
        manifest.path,
        _manifest_view(manifest.path),
        lambda: _manifest_view(manifest.path),
        None,  # a damaged manifest is a named ConfigError
    )
    return out


FORMATS = (
    "exact-result",
    "analytic-result",
    "broker-spec",
    "broker-done",
    "broker-failed",
    "supervisor-state",
    "sweep-manifest",
)


def _check(fmt: Format, blob: bytes) -> None:
    original = fmt.path.read_bytes()
    fmt.path.write_bytes(blob)
    try:
        try:
            served = fmt.read()
        except ConfigError:
            return  # a named error
        if served is not None:
            assert served == fmt.expected, "a damaged record read as a different one"
        elif fmt.counted is not None:
            assert fmt.counted(), "a refused record went uncounted"
    finally:
        fmt.cleanup()
        fmt.path.write_bytes(original)


class TestDamagedRecords:
    def test_every_format_reads_back_whole(self, formats):
        for name in FORMATS:
            fmt = formats[name]
            original = fmt.path.read_bytes()
            assert json.loads(original)["crc32"] >= 0, name
            try:
                assert fmt.read() == fmt.expected, name
            finally:
                fmt.cleanup()
                fmt.path.write_bytes(original)

    @pytest.mark.parametrize("name", FORMATS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flipped_byte(self, formats, name, data):
        fmt = formats[name]
        original = fmt.path.read_bytes()
        index = data.draw(st.integers(0, len(original) - 1), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        blob = bytearray(original)
        blob[index] ^= mask
        _check(fmt, bytes(blob))

    @pytest.mark.parametrize("name", FORMATS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_truncated(self, formats, name, data):
        fmt = formats[name]
        original = fmt.path.read_bytes()
        keep = data.draw(st.integers(0, len(original) - 1), label="keep")
        _check(fmt, original[:keep])

    @pytest.mark.parametrize("name", FORMATS)
    def test_changed_digit_is_refused_and_counted(self, formats, name):
        """The crc32 catches what a JSON parser cannot: a record that is
        still well-formed but says something else."""
        fmt = formats[name]
        original = fmt.path.read_bytes()
        record = json.loads(original)
        text = json.dumps({**record, "crc32": record["crc32"] ^ 1}, separators=(",", ":"))
        fmt.path.write_text(text)
        try:
            try:
                served = fmt.read()
            except ConfigError as exc:
                assert "damaged" in str(exc)
                return
            assert served is None
            assert fmt.counted is None or fmt.counted()
        finally:
            fmt.cleanup()
            fmt.path.write_bytes(original)


class TestCodec:
    def test_write_stamps_the_canonical_crc_last(self, tmp_path):
        path = tmp_path / "r.json"
        atomic_write_json(path, {"b": 1, "a": [1.5, "x"]})
        assert path.read_text().startswith('{"b":1,"a":[1.5,"x"],"crc32":')
        assert read_json(path) == {"b": 1, "a": [1.5, "x"]}

    def test_missing_file_is_none(self, tmp_path):
        assert read_json(tmp_path / "absent.json") is None

    @pytest.mark.parametrize("text", ["", "{", "[1]", '{"a":1}', '{"a":1,"crc32":0}'])
    def test_damaged_or_unchecked_is_corrupt(self, tmp_path, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        with pytest.raises(CorruptRecord):
            read_json(path)

    def test_a_record_from_before_the_checksum_reads_only_if_stale(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema":"v1"}')
        assert read_json(path, current=("v2",)) == {"schema": "v1"}
        with pytest.raises(CorruptRecord):
            read_json(path, current=("v1", "v2"))


def test_damaged_done_record_reruns_its_job(tmp_path):
    """apache/fdip at scale 0.05 runs 33734 cycles. A done record whose
    cycle count has one changed digit must be counted, dropped and
    re-run, not returned; the batch still ends well before its timeout."""
    job = SimJob("apache", make_config("fdip"), 0.05)
    (truth,) = BrokerBackend(tmp_path, timeout=120).run_batch([job])
    path = BrokerQueue(tmp_path).done / f"{BrokerQueue.job_id(job)}.json"
    digits = str(truth.raw["cycles"])
    damaged = ("1" if digits[0] != "1" else "2") + digits[1:]
    text = path.read_text()
    needle = f'"cycles":{digits},'
    assert text.count(needle) == 1
    path.write_text(text.replace(needle, f'"cycles":{damaged},'))

    rerun = BrokerBackend(tmp_path, timeout=120)
    started = time.monotonic()
    (result,) = rerun.run_batch([job])
    assert time.monotonic() - started < 60
    assert result.raw == truth.raw
    assert rerun.reused_results == 0
    assert rerun.telemetry()["broker_corrupt"] == 1
    assert rerun.queue.read_done(BrokerQueue.job_id(job)) is not None


def test_done_record_written_during_submit_survives(tmp_path, monkeypatch):
    """A worker may finish a job between a coordinator's ``read_done``
    and its ``submit``: the fresh done record must be kept, and the job
    must not be queued again."""
    queue = BrokerQueue(tmp_path)
    job = SimJob("apache", make_config("fdip"), 0.05)
    job_id = queue.enqueue(job)
    claimed = queue.claim("w1")
    assert claimed is not None and queue.read_done(job_id) is None
    visible = BrokerQueue._visible

    def finish_then_look(self: BrokerQueue, job_id: str) -> bool:
        self.complete(claimed, SimulationResult("apache", "fdip", dict(RAW)), "w1", 1.0)
        return visible(self, job_id)

    monkeypatch.setattr(BrokerQueue, "_visible", finish_then_look)
    queue.submit(job, job_id)
    record = queue.read_done(job_id)
    assert record is not None and record["result"]["raw"] == RAW
    assert list(queue.pending.iterdir()) == []
    assert queue.corrupt == 0
