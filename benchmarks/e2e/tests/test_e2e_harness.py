"""Smoke tests of the benchmark harness (tiny sizes, under 30 s).

Not part of Tier-1 (``testpaths`` is ``tests/``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import quiet  # noqa: E402
import spec as contract  # noqa: E402

RUN = [sys.executable, str(E2E / "run.py")]
MARK = "E2E_TEST_MARK"


def run_smoke(workload: str, seed: int = 0, trace: int = 0, env=None) -> tuple[dict, str]:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def marked_processes(mark: str) -> list[int]:
    """Live processes that inherited ``E2E_TEST_MARK=mark``."""
    needle = f"{MARK}={mark}".encode()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
            state = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != "Z":
            alive.append(int(entry))
    return alive


def wait_gone(mark: str, seconds: float) -> list[int]:
    deadline = time.monotonic() + seconds
    while (alive := marked_processes(mark)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return alive


def test_benchmark_json_meets_the_contract():
    spec = contract.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == [
        "plan_estimate", "execute_local", "serve_data", "churn_maintain"
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert "error_ratio" not in names  # reads as a failure share


def test_quiet_time_ignores_injected_bursts():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.004, 0.020, size=128)
    t = np.tile(base, (10, 1))
    # Additive interference: a third of all samples get 5-50 ms on top,
    # and one request is never quiet.
    hit = rng.random(t.shape) < 0.33
    t = t + hit * rng.uniform(0.005, 0.050, size=t.shape)
    t[:, 7] += 0.030
    recovered = quiet.quiet_times(t)
    clean = ~hit.all(axis=0)
    clean[7] = False
    assert np.array_equal(recovered[clean], base[clean])
    summary = quiet.summarize(t, ops_per_pass=128)
    truth = quiet.summarize(np.tile(base, (1, 1)), ops_per_pass=128)
    assert summary["request_p50_ms"] == pytest.approx(truth["request_p50_ms"], rel=0.01)
    assert summary["ops_per_s"] == pytest.approx(truth["ops_per_s"], rel=0.03)
    assert summary["beyond_p90"] >= 10
    assert summary["noise_ratio"] > 1.3  # the mean is what the bursts move
    with pytest.raises(ValueError):
        quiet.quiet_times(np.zeros((0, 4)))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_equal_benchmark_json(trace, section):
    declared = {m["name"]: m for m in contract.load_spec()[section]}
    result, output = run_smoke("plan_estimate", trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]["unit"]
        row = next(line for line in output.splitlines() if line.split()[:1] == [name])
        assert f"{declared[name]['better']} is better" in row
        if "bound" in declared[name]:
            assert f"bound {declared[name]['bound']:.0%}" in row
    if trace:
        trace_file = contract.OUT_DIR / "trace-plan_estimate-seed0.json"
        document = json.loads(trace_file.read_text())
        roots = [s for s in document["spans"] if s["parent"] is None]
        assert len(roots) == 3 * 16 and {s["name"] for s in roots} == {"engine.explain"}
        assert all(s["end_us"] >= s["start_us"] for s in document["spans"])


def test_exact_metrics_repeat_for_a_seed_and_differ_across_seeds():
    exact = ("blocks_per_query", "est_error_ratio", "catalog_mb")
    first, __ = run_smoke("execute_local", seed=3)
    again, __ = run_smoke("execute_local", seed=3)
    other, __ = run_smoke("execute_local", seed=4)
    for name in exact:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"]
        assert first["metrics"][name]["value"] != other["metrics"][name]["value"]


def test_no_process_survives_serve_data():
    mark = uuid.uuid4().hex
    result, __ = run_smoke("serve_data", env={**os.environ, MARK: mark})
    assert result["correct"] is True
    assert marked_processes(mark) == []


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL])
def test_no_process_survives_a_killed_run(signum):
    mark = uuid.uuid4().hex
    runner = subprocess.Popen(
        RUN + ["--workload", "serve_data", "--seconds", "30", "--smoke"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, MARK: mark},
    )
    try:
        # Wait until the tier's workers exist: runner + workload + tracker + 2.
        deadline = time.monotonic() + 20
        while len(marked_processes(mark)) < 5 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(marked_processes(mark)) >= 5
        runner.send_signal(signum)
        assert runner.wait(timeout=10) != 0
    finally:
        runner.kill()
        runner.wait()
    assert wait_gone(mark, 5.0) == []
