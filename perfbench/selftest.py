#!/usr/bin/env python3
"""Self-test of the benchmark on tiny corpora (500 pages).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, with ``--trace 0`` and ``--trace 1``,
it runs the full command and checks that

- the last stdout line is the result object, ``correct`` with no failed
  crawl (the oracle gate passed);
- every end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric
  BENCHMARK.json names is printed, with its unit and a finite value, and
  no other;
- the kernel replay's stages sum to within 5% of the timed ExtractBatch
  calls (``kernel.coverage``);
- no raylet, gcs_server, ``ray::`` or default_worker process that was not
  there before is left once the command has exited.

Last, the command must fail, without a result, in a directory holding
only BENCHMARK.json and perfbench/ (no engine to benchmark).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAY_MARKERS = (b"raylet", b"gcs_server", b"ray::", b"default_worker")


def ray_processes() -> set[int]:
    found = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if any(m in cmd for m in RAY_MARKERS):
            found.add(int(name))
    return found


def run(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    with open(os.path.join(cwd, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              "--pages", "500"]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                       timeout=200)
    return p.returncode, p.stdout


def check_result(stdout: str, declared: list[dict], trace: int) -> list[str]:
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"oracle gate: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        if not (isinstance(m.get("value"), (int, float))
                and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    if trace == 1 and "kernel.coverage" in got:
        cov = got["kernel.coverage"]["value"]
        if not 0.95 <= cov <= 1.05:
            problems.append(f"kernel.coverage {cov:.3f} outside [0.95, 1.05]")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            before = ray_processes()
            code, out = run(ROOT, w["name"], trace)
            left = ray_processes() - before
            problems = ([f"exit code {code}"] if code != 0
                        else check_result(out, declared, trace))
            if left:
                problems.append(f"Ray processes left running: {sorted(left)}")
            failures += bool(problems)
            print(f"{w['name']} --trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)),
                  flush=True)

    # without the engine the command must refuse, printing no result
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", ".cache", ".rt",
                                                  "__pycache__"))
    code, out = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    refused = code != 0 and '"metrics"' not in out
    failures += not refused
    print("without the engine: "
          + ("refused" if refused else f"exit code {code}, printed {out!r}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
