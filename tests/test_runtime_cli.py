"""CLI surface of ``python -m repro.runtime`` (worker/queue/status/serve).

The worker tests spawn the real module as a subprocess — the contract
under test is the command line itself (flags, exit codes, printed
output), which an in-process call can't exercise. Queue/status/serve
argument handling is tested in-process via ``main(argv)`` + capsys,
which keeps the no-engine-work paths fast.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import faultinject
from repro.core.mechanisms import make_config
from repro.runtime import SimJob
from repro.runtime.__main__ import main
from repro.runtime.broker import BrokerQueue
from repro.runtime.supervisor import STATUS_SCHEMA
from repro.workloads.workload import reset_trace_store

WL = "streaming"
SCALE = 0.05


@pytest.fixture(autouse=True)
def _no_ambient_cache_dir(monkeypatch):
    """CLI resolution tests must not inherit the shell's REPRO_CACHE_DIR."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    yield
    reset_trace_store()


def _job(llc: int | None = None) -> SimJob:
    cfg = make_config("none")
    if llc is not None:
        cfg = cfg.with_llc_latency(llc)
    return SimJob(WL, cfg, SCALE)


def _run_worker_cli(cache_dir, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        "-m",
        "repro.runtime",
        "worker",
        "--cache-dir",
        str(cache_dir),
        *extra,
    ]
    return subprocess.run(
        cmd,
        env=faultinject._subprocess_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )


class TestWorkerCli:
    def test_drain_on_an_empty_queue_exits_clean(self, tmp_path):
        proc = _run_worker_cli(tmp_path, "--drain", "--max-idle", "0.2")
        assert proc.returncode == 0, proc.stderr
        assert "stealing from" in proc.stdout
        assert "exiting after 0 job(s)" in proc.stdout

    def test_max_jobs_stops_after_the_budget(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        queue.enqueue(_job(20))
        queue.enqueue(_job(40))
        proc = _run_worker_cli(
            tmp_path, "--drain", "--max-idle", "5", "--max-jobs", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert "exiting after 1 job(s)" in proc.stdout
        counts = queue.counts()
        assert counts["done"] == 1
        assert counts["pending"] == 1  # budget left the second job alone

    def test_worker_id_flag_lands_in_done_telemetry(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job_id = queue.enqueue(_job(20))
        proc = _run_worker_cli(
            tmp_path,
            "--drain",
            "--max-idle",
            "0.5",
            "--worker-id",
            "cli-test-worker",
        )
        assert proc.returncode == 0, proc.stderr
        assert "[worker cli-test-worker]" in proc.stdout
        record = queue.read_done(job_id)
        assert record is not None
        assert record["worker"] == "cli-test-worker"

    def test_missing_cache_dir_is_a_usage_error(self, capsys):
        assert main(["worker", "--drain"]) == 2
        assert "cache directory" in capsys.readouterr().err


class TestQueueCli:
    def test_reports_per_state_counts(self, tmp_path, capsys):
        queue = BrokerQueue(tmp_path)
        queue.enqueue(_job(20))
        queue.enqueue(_job(40))
        assert queue.claim("t") is not None
        assert main(["queue", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"broker queue at {queue.root}" in out
        for state, count in (
            ("pending", 1),
            ("claimed", 1),
            ("done", 0),
            ("failed", 0),
        ):
            assert f"{state:<8s} {count:6d} job(s)" in out


class TestStatusCli:
    def test_json_snapshot_schema(self, tmp_path, capsys):
        assert main(["status", "--cache-dir", str(tmp_path), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["schema"] == STATUS_SCHEMA
        assert set(status["queue"]) == {"pending", "claimed", "done", "failed"}
        for key in (
            "generated_at",
            "cache_dir",
            "engine_schema",
            "claims",
            "workers",
            "cache",
            "traces",
            "supervisor",
            "sweep",
        ):
            assert key in status

    def test_default_output_is_the_rendered_dashboard(self, tmp_path, capsys):
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro service status" in out
        assert "queue" in out

    def test_missing_cache_dir_is_a_usage_error(self, capsys):
        assert main(["status", "--json"]) == 2
        assert "cache directory" in capsys.readouterr().err


class TestServeCli:
    def test_unknown_sweep_is_a_config_error(self, tmp_path, capsys):
        rc = main(["serve", "no-such-sweep", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_invalid_fleet_bounds_are_a_config_error(self, tmp_path, capsys):
        rc = main(
            [
                "serve",
                "smoke",
                "--cache-dir",
                str(tmp_path),
                "--max-workers",
                "0",
            ]
        )
        assert rc == 2
        assert "max_workers" in capsys.readouterr().err


class TestSweepsServeFlag:
    """``sweeps run --serve`` argument validation (no fleet is spawned)."""

    @staticmethod
    def _sweeps_main(argv):
        from repro.experiments.sweeps.__main__ import main as sweeps_main

        return sweeps_main(argv)

    def test_serve_requires_a_sweep_name(self, capsys):
        rc = self._sweeps_main(["run", "--serve"])
        assert rc == 2
        assert "sweep name" in capsys.readouterr().err

    def test_serve_rejects_resume(self, tmp_path, capsys):
        rc = self._sweeps_main(
            ["run", "smoke", "--serve", "--resume", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_serve_rejects_non_broker_backends(self, tmp_path, capsys):
        rc = self._sweeps_main(
            [
                "run",
                "smoke",
                "--serve",
                "--backend",
                "serial",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "broker backend" in capsys.readouterr().err

    def test_serve_needs_a_cache_dir(self, capsys):
        rc = self._sweeps_main(["run", "smoke", "--serve"])
        assert rc == 2
        assert "cache directory" in capsys.readouterr().err
