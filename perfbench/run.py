#!/usr/bin/env python3
"""Crawl-engine benchmark: one command, one workload, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload heavy_pages --seed 1 --seconds 10 --trace 0

This process only supervises.  The benchmark itself (corpus, oracle, Ray
session, crawls) runs in a child process, ``perfbench/crawl_bench.py``,
started in a session of its own so that the child, the Ray daemons it
starts (gcs_server, raylet) and every Ray worker share one session id.
From here, outside the measured process, the supervisor

- samples the summed RSS of that session every 0.2 s (``peak_rss_mb``);
- kills the whole session when the child overruns its deadline, fails,
  or this process is itself interrupted;
- waits until no process of that session is left before exiting.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Any failure exits
non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the child must be done well inside the 180 s a run may take
CHILD_DEADLINE_S = 165
SAMPLE_EVERY_S = 0.2
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[3] the session id (proc(5))
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * PAGE_BYTES
        except OSError:
            pass  # ended between listing and reading
    return total


def stop_session(sid: int) -> bool:
    """TERM, then KILL, every process of the session; True once none is
    left (zombies count as ended: their parent reaps them)."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 20.0)):
        pids = session_pids(sid)
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + grace
        while pids and time.monotonic() < end:
            time.sleep(0.1)
            pids = session_pids(sid)
        if not pids:
            return True
    return False


def peak_in_windows(samples: list[tuple[float, int]],
                    windows: list[list[float]]) -> float:
    """Median over measured crawls of the peak summed RSS inside each
    crawl's wall-clock window, in MB."""
    peaks = []
    for t0, t1 in windows:
        inside = [rss for t, rss in samples if t0 <= t <= t1]
        if inside:
            peaks.append(max(inside))
    return statistics.median(peaks) / 2**20 if peaks else 0.0


def _interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pages", type=int, default=None,
                    help="corpus size override (the self-test's tiny "
                         "corpora); default is the workload's own size")
    args = ap.parse_args()

    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "crawl_bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result_path]
    if args.pages is not None:
        cmd += ["--pages", str(args.pages)]

    signal.signal(signal.SIGTERM, _interrupted)
    samples: list[tuple[float, int]] = []
    # the child's output is diagnostics: keep stdout for the result line
    child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                             stdout=sys.stderr, start_new_session=True)
    try:
        deadline = time.monotonic() + CHILD_DEADLINE_S
        while child.poll() is None:
            if time.monotonic() > deadline:
                print(f"perfbench: child overran {CHILD_DEADLINE_S} s; "
                      "killing its session", file=sys.stderr)
                break
            samples.append((time.time(), rss_bytes(session_pids(child.pid))))
            time.sleep(SAMPLE_EVERY_S)
    finally:
        # the child's ray.shutdown() normally ends every Ray process; this
        # catches whatever a crash, a hang or an interrupt left behind
        clean = stop_session(child.pid)
        child.wait()
        shutil.rmtree(os.path.join(HERE, ".rt"), ignore_errors=True)
    if not clean:
        print("perfbench: processes of the run survived SIGKILL",
              file=sys.stderr)
        return 1
    if child.returncode != 0 or not os.path.exists(result_path):
        print(f"perfbench: run failed (exit code {child.returncode})",
              file=sys.stderr)
        return 1

    with open(result_path) as f:
        result = json.load(f)
    windows = result.pop("rss_windows")
    if args.trace == 0:
        peak = peak_in_windows(samples, windows)
        if peak <= 0:
            print("perfbench: no RSS sample fell inside a crawl",
                  file=sys.stderr)
            return 1
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
