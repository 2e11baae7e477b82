"""The benchmark's contract: metric table, sizes, pinned process inputs.

``BENCHMARK.json`` at the repository root is the single statement of
metric names, units, directions and regression bounds; everything the
harness prints is checked against it, so the file and the program
cannot drift apart.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Trace files and other run outputs; listed in the root ``.gitignore``.
OUT_DIR = HERE / "_out"

#: Inputs of the measured process that would otherwise vary between
#: hosts and invocations.  One thread per numeric library: this machine
#: has two cores and ``serve_data`` already runs two workers beside the
#: coordinator, so library threads would time the scheduler.
PINNED_ENV = {
    "REPRO_KERNEL_BACKEND": "numpy",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def load_spec() -> dict:
    """Parse ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


def child_env() -> dict[str, str]:
    """Environment of the workload process (inherited by spawn workers)."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    return env


def describe_process() -> dict[str, str]:
    """The pinned inputs and interpreter facts echoed in every report."""
    import numpy

    facts = {name: os.environ.get(name, "<unset>") for name in PINNED_ENV}
    facts["python"] = sys.version.split()[0]
    facts["numpy"] = numpy.__version__
    facts["nproc"] = str(os.cpu_count())
    return facts


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the four workloads.

    ``FULL`` was sized on a 2-core sandbox.  Requests are as short as
    the public calls allow (3-10 ms): when the host is busy its quiet
    windows are a few milliseconds long, and a request is measured
    well only if some repetition of it fits inside one.  One run must
    also fit the driver's time cap.  ``SMOKE``
    exercises the same code paths in a few seconds for the tests.
    """

    n_points: int
    n_pois: int
    capacity: int
    max_k: int
    join_sample_size: int
    plan_select_requests: int
    plan_batch: int
    plan_join_requests: int
    exec_requests: int
    exec_batch: int
    churn_points: int
    churn_capacity: int
    churn_max_k: int
    churn_phases: int
    churn_inserts: int
    churn_deletes: int
    churn_queries: int
    verify_sample: int
    setups: int
    min_passes: int


FULL = Sizes(
    n_points=60_000,
    n_pois=20_000,
    capacity=64,
    max_k=256,
    join_sample_size=400,
    plan_select_requests=96,
    plan_batch=64,
    plan_join_requests=32,
    exec_requests=128,
    exec_batch=4,
    churn_points=1_000,
    churn_capacity=16,
    churn_max_k=32,
    churn_phases=100,
    churn_inserts=1,
    churn_deletes=1,
    churn_queries=20,
    verify_sample=1_024,
    setups=4,
    min_passes=3,
)

SMOKE = Sizes(
    n_points=3_000,
    n_pois=1_000,
    capacity=64,
    max_k=256,
    join_sample_size=40,
    plan_select_requests=12,
    plan_batch=16,
    plan_join_requests=4,
    exec_requests=16,
    exec_batch=8,
    churn_points=600,
    churn_capacity=16,
    churn_max_k=32,
    churn_phases=12,
    churn_inserts=2,
    churn_deletes=1,
    churn_queries=8,
    verify_sample=48,
    setups=2,
    min_passes=2,
)
