"""``repro.envopts.resolve``: one table row per typed ``REPRO_*`` option.

Every ``int``, ``float``, ``flag`` and ``choice`` option in
``REPRO_ENV_OPTIONS`` must have a row in :data:`ROWS`, so an option
registered later is covered the day it lands. The subprocess cases check
that a bad value reaches each CLI as one line on stderr and exit code 2.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from typing import Any

import pytest

from faultinject import _subprocess_env
from repro.envopts import REPRO_ENV_OPTIONS, resolve
from repro.errors import ConfigError

#: The option kinds the table must cover.
TYPED_KINDS = ("int", "float", "flag", "choice")


@dataclass(frozen=True)
class Row:
    #: A valid explicit value, and what it resolves to.
    good: Any
    #: An environment value that does not parse (or is no choice).
    malformed: str
    #: A value of the right type outside the option's bounds.
    out_of_range: Any


ROWS: dict[str, Row] = {
    "REPRO_JOBS": Row(3, "three", 0),
    "REPRO_BACKEND": Row("pool", "slurm", "Serial"),
    "REPRO_FIDELITY": Row("hybrid", "bogus-tier", "EXACT"),
    "REPRO_ANALYTIC_MAX_ERR": Row(0.25, "many", 1.5),
    "REPRO_SCALE": Row("quick", "enormous", "Quick"),
    "REPRO_WORKLOAD_SET": Row("all", "imaginary", "Paper"),
    "REPRO_BROKER_LEASE": Row(0.5, "soon", 0.0),
    "REPRO_BROKER_MAX_ATTEMPTS": Row(1, "once", 0),
    "REPRO_BROKER_TIMEOUT": Row(2.5, "later", -1.0),
    "REPRO_BROKER_STEAL": Row(False, "maybe", "2"),
    "REPRO_SUPERVISOR_MAX": Row(2, "lots", 0),
    "REPRO_WAREHOUSE_AUTOREFRESH": Row(True, "sometimes", "on"),
}


def test_every_typed_option_has_a_row():
    typed = {name for name, opt in REPRO_ENV_OPTIONS.items() if opt.kind in TYPED_KINDS}
    assert typed == set(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
class TestResolveTable:
    def test_unset_and_empty_mean_the_default(self, name, monkeypatch):
        default = REPRO_ENV_OPTIONS[name].default
        monkeypatch.delenv(name, raising=False)
        assert resolve(name) == default
        monkeypatch.setenv(name, "")
        assert resolve(name) == default

    def test_default_is_within_its_own_bounds(self, name):
        option = REPRO_ENV_OPTIONS[name]
        if option.default is not None:
            assert option.parse(option.default) == option.default

    def test_env_value_is_parsed(self, name, monkeypatch):
        monkeypatch.setenv(name, str(ROWS[name].good))
        assert resolve(name) == ROWS[name].good

    def test_malformed_env_value_names_the_variable(self, name, monkeypatch):
        raw = ROWS[name].malformed
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError) as err:
            resolve(name)
        assert name in str(err.value) and repr(raw) in str(err.value)

    def test_out_of_range_env_value_rejected(self, name, monkeypatch):
        monkeypatch.setenv(name, str(ROWS[name].out_of_range))
        with pytest.raises(ConfigError, match=name):
            resolve(name)

    def test_explicit_beats_a_malformed_env_value(self, name, monkeypatch):
        monkeypatch.setenv(name, ROWS[name].malformed)
        assert resolve(name, ROWS[name].good) == ROWS[name].good

    def test_explicit_out_of_range_rejected(self, name, monkeypatch):
        monkeypatch.delenv(name, raising=False)
        with pytest.raises(ConfigError, match=name):
            resolve(name, ROWS[name].out_of_range)


def test_unregistered_name_is_rejected():
    with pytest.raises(ConfigError, match="REPRO_CACHEDIR"):
        resolve("REPRO_CACHEDIR")


# ---------------------------------------------------------------------------
# A bad value reaches every CLI as one line and exit code 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "variable, value, argv",
    [
        (
            "REPRO_JOBS",
            "bogus",
            ["repro.experiments.sweeps", "run", "smoke", "--scale", "quick"],
        ),
        (
            "REPRO_BROKER_LEASE",
            "0",
            ["repro.runtime", "worker", "--cache-dir", "{cache}", "--drain"],
        ),
        ("REPRO_ANALYTIC_MAX_ERR", "2", ["repro.experiments", "quick", "figure1"]),
        (
            "REPRO_SUPERVISOR_MAX",
            "0",
            ["repro.runtime", "serve", "smoke", "--cache-dir", "{cache}"],
        ),
        (
            "REPRO_BROKER_LEASE",
            "bogus",
            ["repro.runtime", "queue", "--cache-dir", "{cache}"],
        ),
        (
            "REPRO_BROKER_MAX_ATTEMPTS",
            "0",
            ["repro.runtime", "queue", "--cache-dir", "{cache}"],
        ),
    ],
)
def test_cli_reports_a_bad_option_in_one_line(tmp_path, variable, value, argv):
    env = _subprocess_env()
    for name in REPRO_ENV_OPTIONS:
        env.pop(name, None)
    env[variable] = value
    args = [arg.format(cache=tmp_path) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and variable in lines[0], proc.stderr


def test_broker_queue_reads_its_options_from_the_env(tmp_path, monkeypatch):
    from repro.runtime.broker import BrokerQueue

    monkeypatch.setenv("REPRO_BROKER_LEASE", "7.5")
    monkeypatch.setenv("REPRO_BROKER_MAX_ATTEMPTS", "5")
    queue = BrokerQueue(tmp_path)
    assert (queue.lease_seconds, queue.max_attempts) == (7.5, 5)
    explicit = BrokerQueue(tmp_path, lease_seconds=2.0, max_attempts=2)
    assert (explicit.lease_seconds, explicit.max_attempts) == (2.0, 2)
