"""The measured process: one workload, untraced or traced.

Started by ``run.py`` in its own session with the pinned environment;
run it directly only for debugging.  Prints a report and, as the last
line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Everything that starts work sits under the ``__main__`` check: the
serving tier's workers are ``spawn``-context processes and import this
module again.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

TRACED_PASSES = 3


def watch_lifeline(fd: int) -> None:
    """Kill this whole process group when the supervisor goes away.

    ``run.py`` holds the write end of a pipe for as long as it lives;
    end-of-file here means it died without cleaning up (SIGKILL), so
    the workload and every worker it spawned must not outlive it.
    """

    def wait() -> None:
        try:
            os.read(fd, 1)
        finally:
            os.killpg(os.getpgrp(), signal.SIGKILL)

    threading.Thread(target=wait, name="lifeline", daemon=True).start()


def timed_setup(workload) -> float:
    """One cold set-up, in seconds, leaving the collector quiet.

    Objects that survive set-up are frozen out of the collector's
    generations (and thawed before the next set-up, so discarded
    state is freed); the collector itself stays enabled.
    """
    workload.close()
    gc.unfreeze()
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    gc.collect()
    gc.freeze()
    return seconds


class Replay:
    """Replays a workload's request list pass after pass."""

    def __init__(self, workload) -> None:
        from scenarios import same_digest

        self.workload = workload
        self._same = same_digest
        self.references: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.setup_seconds: list[float] = []
        self._tracebacks = 0

    def warm_up(self) -> None:
        """One untimed pass; its responses become the reference answers."""
        w = self.workload
        if w.rebuild_each_pass:
            self.setup_seconds.append(timed_setup(w))
        self.references = [w.digest(j, w.serve(j)) for j in range(w.n_requests)]

    def one_pass(self, pass_index: int, recorder=None) -> list[float]:
        """Serve every request once; returns the per-request seconds.

        Only ``workload.serve(j)`` is inside the timer.  Checking the
        answer and (traced run) re-executing the layer calls behind it
        happen between requests.
        """
        w = self.workload
        if w.rebuild_each_pass:
            self.setup_seconds.append(timed_setup(w))
        row = []
        for j in range(w.n_requests):
            ops = w.ops(j)
            self.attempted += ops
            start = time.perf_counter()
            try:
                response = w.serve(j)
            except Exception:
                row.append(time.perf_counter() - start)
                self.failed += ops
                self._tracebacks += 1
                if self._tracebacks <= 3:
                    traceback.print_exc()
                continue
            end = time.perf_counter()
            row.append(end - start)
            if self._same(w.digest(j, response), self.references[j]):
                self.failed += min(ops, w.bad_ops(j, response))
            else:
                self.failed += ops
            if recorder is not None:
                root = recorder.add(w.root_span, j, pass_index, start, end)
                record_children(recorder, w.trace_children(j, response), j, pass_index, root, start)
        return row

    def passes(self, seconds: float, at_least: int) -> list[list[float]]:
        """Timed passes until ``seconds`` have gone by (and ``at_least``)."""
        deadline = time.perf_counter() + seconds
        t: list[list[float]] = []
        while len(t) < at_least or time.perf_counter() < deadline:
            t.append(self.one_pass(len(t)))
        return t


def record_children(recorder, children, request, pass_index, parent, parent_start) -> None:
    for child in children:
        if child.run is None:
            start, end, kind = parent_start, parent_start + child.seconds, "counter"
        else:
            start = time.perf_counter()
            child.run()
            end, kind = time.perf_counter(), "reexec"
        span = recorder.add(child.name, request, pass_index, start, end, parent, kind)
        record_children(recorder, child.children, request, pass_index, span, start)


def run_untraced(workload, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    from quiet import summarize

    sizes = workload.sizes
    replay = Replay(workload)
    if not workload.rebuild_each_pass:
        for __ in range(sizes.setups):
            replay.setup_seconds.append(timed_setup(workload))
    replay.warm_up()
    t = replay.passes(seconds, sizes.min_passes)
    # Everything below is outside the timed sections.
    verification = workload.verify(replay.references)
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb = own_rss_kb + workload.extra_rss_kb()
    summary = summarize(t, workload.ops_per_pass)
    metrics = {
        "setup_s": min(replay.setup_seconds),
        "ops_per_s": summary["ops_per_s"],
        "request_p50_ms": summary["request_p50_ms"],
        "request_p90_ms": summary["request_p90_ms"],
        "peak_rss_mb": rss_kb / 1024.0,
        **verification.exact,
    }
    failed_checks = [c for c in verification.checks if not c[1]]
    return {
        "metrics": metrics,
        "attempted": replay.attempted,
        "failed": min(replay.attempted, replay.failed + len(failed_checks)),
        "checks": verification.checks,
        "shape": {
            "J": workload.n_requests,
            "R": len(t),
            "S": len(replay.setup_seconds),
            "ops_per_pass": workload.ops_per_pass,
            "samples_beyond_p90": summary["beyond_p90"],
            "setup_samples_s": [round(s, 4) for s in replay.setup_seconds],
            "host.raw_request_p50_ms": summary["raw_request_p50_ms"],
            "host.raw_request_p99_ms": summary["raw_request_p99_ms"],
            "host.noise_ratio": summary["noise_ratio"],
        },
    }


def run_traced(workload, trace_out: Path, header: dict) -> dict:
    """Per-layer metrics: a short untraced replay, the same replay with
    spans, then the layer probes."""
    import probes
    from quiet import host_calibration, summarize
    from spans import SpanRecorder

    calib_before = host_calibration()
    replay = Replay(workload)
    if not workload.rebuild_each_pass:
        replay.setup_seconds.append(timed_setup(workload))
    replay.warm_up()
    untraced = [replay.one_pass(r) for r in range(TRACED_PASSES)]
    recorder = SpanRecorder()
    traced = [replay.one_pass(r, recorder) for r in range(TRACED_PASSES)]
    workload.close()
    gc.unfreeze()
    layer, problems = probes.run_all(workload.fixture)
    calib_after = host_calibration()

    plain = summarize(untraced, workload.ops_per_pass)
    spanned = summarize(traced, workload.ops_per_pass)
    cover = recorder.child_cover_ratio()
    if cover > 1.15:
        problems.append(f"children cover {cover:.2f} of their roots' quiet time (> 1.15)")
    metrics = dict(layer)
    metrics.update(
        {
            "host.calib_ms": min(calib_before, calib_after),
            "host.raw_request_p50_ms": plain["raw_request_p50_ms"],
            "host.raw_request_p99_ms": plain["raw_request_p99_ms"],
            "host.noise_ratio": plain["noise_ratio"],
            "trace.overhead_ratio": plain["ops_per_s"] / spanned["ops_per_s"],
            "trace.child_cover_ratio": cover,
        }
    )
    recorder.write(trace_out, header)
    self_seconds = recorder.self_times()
    return {
        "metrics": metrics,
        "attempted": replay.attempted,
        "failed": min(replay.attempted, replay.failed + len(problems)),
        "checks": [(p, False, "") for p in problems],
        "shape": {
            "J": workload.n_requests,
            "R": TRACED_PASSES,
            "ops_per_pass": workload.ops_per_pass,
            "trace_file": str(trace_out),
            "spans": len(recorder.spans),
            "host.calib_ms_before_after": [round(calib_before, 3), round(calib_after, 3)],
            "self_ms_per_request": {
                name: round(1e3 * seconds / workload.n_requests, 4)
                for name, seconds in sorted(self_seconds.items())
            },
        },
    }


def report(args, spec: dict, outcome: dict, facts: dict) -> bool:
    """Print every metric by name with unit, direction and bound."""
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[section]}
    metrics = outcome["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}{'  smoke' if args.smoke else ''}")
    print("process  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print("shape    " + "  ".join(f"{k}={v}" for k, v in outcome["shape"].items()))
    ok = True
    if set(metrics) != set(declared):
        ok = False
        print(f"FAIL metric names differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(metrics))} "
              f"undeclared {sorted(set(metrics) - set(declared))}")
    for name in sorted(metrics):
        entry = declared.get(name, {})
        bound = f"  bound {entry['bound']:.0%}" if "bound" in entry else ""
        print(f"  {name:44s} {metrics[name]:>16.6f} {entry.get('unit', '?'):8s}"
              f" {entry.get('better', '?')} is better{bound}")
    for name, passed, detail in outcome["checks"]:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}  {detail}")
        ok &= passed
    ok &= outcome["failed"] == 0
    print(f"operations attempted {outcome['attempted']}  failed {outcome['failed']}")
    result = {
        "correct": bool(ok),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": declared.get(name, {}).get("unit", "?")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--lifeline-fd", type=int, default=None)
    args = parser.parse_args(argv)
    if args.lifeline_fd is not None:
        watch_lifeline(args.lifeline_fd)

    import spec as contract
    from scenarios import WORKLOAD_CLASSES, Fixture

    sizes = contract.SMOKE if args.smoke else contract.FULL
    workload = WORKLOAD_CLASSES[args.workload](Fixture(args.seed, sizes))
    try:
        if args.trace:
            trace_out = args.trace_out or (
                contract.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            )
            header = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke}
            outcome = run_traced(workload, trace_out, header)
        else:
            outcome = run_untraced(workload, args.seconds)
    finally:
        workload.close()
    ok = report(args, contract.load_spec(), outcome, contract.describe_process())
    sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
