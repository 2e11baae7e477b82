"""One command for the repo benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` all four run in turn.
``--selfcheck N`` measures the benchmark itself: N runs per workload,
twice, and whether the two sets agree within the regression bounds.

This process measures nothing.  It starts ``workload.py`` in a session
of its own with the pinned environment, and whatever happens — success,
failed check, timeout, Ctrl-C, SIGTERM — kills that whole session and
waits until ``/proc`` shows none of its processes left, exiting
non-zero and naming the pids if any survive.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The checkout holds sources only; keep it that way (the workload
# process gets PYTHONDONTWRITEBYTECODE from the pinned environment).
sys.dont_write_bytecode = True

import spec as contract  # noqa: E402
from quiet import quartile_spread  # noqa: E402

#: The driver allows a run 180 s; leave room to clean up inside that.
RUN_TIMEOUT_S = 165.0
REAP_TIMEOUT_S = 5.0


def session_members(sid: int) -> list[int]:
    """Pids of live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid pgrp session ...; comm may hold spaces.
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def adopt_orphans() -> None:
    """Make this process the parent of the session's orphans.

    When the workload dies its workers are re-parented; as a child
    subreaper this process inherits them and can wait for them, so
    none is left even as a zombie.  Without it (no ``prctl``) that job
    falls to init.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def kill_session(child: subprocess.Popen) -> list[int]:
    """SIGKILL the child's session, reap it; pids still alive after 5 s."""
    sid = child.pid
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()  # before the catch-all wait below, which would steal its status
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        survivors = session_members(sid)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.02)


def run_workload(args, workload: str, seed: int, quiet: bool = False) -> tuple[int, dict | None]:
    """Run one workload in a child session; returns ``(status, result)``."""
    lifeline_read, lifeline_write = os.pipe()
    command = [
        sys.executable, "-B", str(contract.HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--lifeline-fd", str(lifeline_read),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out is not None:
        command += ["--trace-out", str(args.trace_out)]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=contract.child_env(),
        start_new_session=True,
        pass_fds=(lifeline_read,),
    )
    os.close(lifeline_read)
    output, problem = "", None
    try:
        output, __ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"{workload}: no result within {RUN_TIMEOUT_S:.0f} s"
    finally:
        survivors = kill_session(child)
        os.close(lifeline_write)
    if survivors:
        problem = f"{workload}: processes still alive after SIGKILL: {survivors}"
    lines = output.splitlines()
    result = None
    if problem is None and child.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            problem = f"{workload}: last line of output is not JSON"
    elif problem is None:
        problem = f"{workload}: workload process exited with {child.returncode}"
    if not quiet or problem is not None:
        print("\n".join(lines[:-1] if result is not None else lines))
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2, None
    if not quiet:
        print(lines[-1])
    return child.returncode, result


def selfcheck(args) -> int:
    """Two sets of ``N`` runs on the same code, compared like the driver does.

    A metric passes when each set's quartile spread (``setup_s``
    excepted) and the worsening of the second median over the first
    both stay within its bound.
    """
    spec = contract.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    values: dict = {}
    for which in (0, 1):
        for i in range(args.selfcheck):
            for workload in workloads:
                status, result = run_workload(args, workload, args.seed + i, quiet=True)
                if status != 0:
                    return status
                for name, entry in result["metrics"].items():
                    values.setdefault((workload, name), ([], []))[which].append(entry["value"])
                print(f"set {which + 1} run {i + 1}/{args.selfcheck} {workload} ok", flush=True)
    print(f"\n{'workload':15s} {'metric':18s} {'median 1':>12s} {'median 2':>12s}"
          f" {'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    failures = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            first, second = values[(workload, metric["name"])]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [quartile_spread(first), quartile_spread(second)]
            gated = spreads if metric["name"] != "setup_s" else []
            ok = worse <= metric["bound"] and all(s <= metric["bound"] for s in gated)
            failures += not ok
            print(f"{workload:15s} {metric['name']:18s} {m1:12.4f} {m2:12.4f} {worse:9.2%}"
                  f" {spreads[0]:9.2%} {spreads[1]:9.2%} {metric['bound']:6.0%}"
                  f"{'' if ok else '  FAIL'}")
    print(f"selfcheck: {failures} metric x workload pairs outside their bound")
    return 1 if failures else 0


def on_signal(signum, frame):
    # Turn termination into an exception so ``finally`` reaps the child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = contract.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="trace file (default: benchmarks/e2e/_out/, ignored by git)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few seconds")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5, default=None, metavar="N")
    args = parser.parse_args(argv)
    if not (contract.ROOT / "src" / "repro").is_dir():
        print("error: src/repro not found beside the benchmark", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, on_signal)
    adopt_orphans()
    if args.selfcheck is not None:
        if args.trace:
            parser.error("--selfcheck compares end-to-end metrics; drop --trace")
        return selfcheck(args)
    status = 0
    for workload in [args.workload] if args.workload else names:
        status = max(status, run_workload(args, workload, args.seed)[0])
    return status


if __name__ == "__main__":
    sys.exit(main())
