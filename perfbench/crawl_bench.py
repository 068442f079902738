"""One benchmark run of the crawl engine; started by ``perfbench/run.py``.

A run generates (or reuses) the workload's corpus for ``--seed``, computes
(or reuses) the sequential oracle's result on it, then repeats crawl
cycles until ``--seconds`` have passed.  A cycle is one fresh Ray session:

    ray.init + CrawlJob(...)            -> setup_s
    job.run()                           -> urls_per_s, RSS window
    artifacts vs oracle                 -> pass / fail
    CrawlJob(..., resume=True)          -> restored state vs finished state
                                           (first cycle of a run only)

The resume makes every run read its checkpoints.  Its time is reported
per layer (``crawl.recovery_s``), not gated: it is mostly the start of
one worker process per frontier shard, which swings by a quarter with
the host's load.

With ``--trace 1`` one untraced cycle runs first (the tracing-overhead
base), then one traced cycle and an in-process kernel replay give the
per-layer metrics (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, HERE)

# imported before any work: outside a repository checkout this fails
# and the run exits non-zero without a result
from neocrawler_ray.config import CrawlSettings  # noqa: E402
from neocrawler_ray.sources.pages_gen import (GEN_VERSION,  # noqa: E402
                                              generate_corpus)

import layers  # noqa: E402

NUM_CPUS = 2  # of the 4 cores; the rest serve raylet, GCS and the driver
OBJECT_STORE_BYTES = 512 * 2**20
SETUP_SAMPLES = 3
# no new cycle may start that would end past this (run.py kills at 165 s)
BUDGET_S = 140

# Corpus and settings per workload; the reasons are in BENCHMARK.json.
WORKLOADS = {
    "heavy_pages": {
        "corpus": dict(n_pages=5000, n_domains=8, page_weight=12,
                       pages_shards=64),
        "settings": dict(schedule_quantity_limitation=20000,
                         politeness_per_host_per_wave=50000,
                         num_frontier_shards=4, extract_batch_size=40,
                         checkpoint_every=1),
    },
    "frontier_churn": {
        "corpus": dict(n_pages=5000, n_domains=20, page_weight=1,
                       pages_shards=16),
        "settings": dict(max_waves=200, checkpoint_every=1),
    },
}


_T_PROCESS = time.perf_counter()


def run_clock() -> float:
    return time.perf_counter() - _T_PROCESS


def settings_for(workload: str) -> CrawlSettings:
    return CrawlSettings(**WORKLOADS[workload]["settings"])


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


# --------------------------------------------------------------------------
# inputs: corpus and oracle, cached per (workload, size, seed)
# --------------------------------------------------------------------------
def corpus_dir(workload: str, seed: int, pages: int | None) -> str:
    params = dict(WORKLOADS[workload]["corpus"])
    if pages is not None:
        params["n_pages"] = pages
    tag = f"{workload}-p{params['n_pages']}-s{seed}-g{GEN_VERSION}"
    out = os.path.join(HERE, ".cache", "corpus", tag)
    if not os.path.exists(os.path.join(out, "meta.json")):
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        t = time.perf_counter()
        generate_corpus(tmp, seed=seed, **params)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
        log(f"corpus {tag}: {time.perf_counter() - t:.1f} s")
    return out


def oracle_result(workload: str, corpus: str) -> dict:
    """Sequential single-process crawl of the same corpus and settings:
    the expected artifacts, and the single-threaded urls/s baseline."""
    path = os.path.join(HERE, ".cache", "oracle",
                        os.path.basename(corpus) + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    from neocrawler_ray.pipelines.oracle import run_oracle

    t = time.perf_counter()
    res = run_oracle(corpus, settings_for(workload))
    wall = time.perf_counter() - t
    out = {
        "schedule": [[r["wave"], r["seq"], r["url"], r["urllib"]]
                     for r in res["schedule_log"]],
        "seen": sorted(res["url_seen"]),
        "extracted": [[e["url"], e["retries"], e["nav_round"], e["text"],
                       e["final_state"]] for e in res["extracted"]],
        "wall_s": wall,
    }
    log(f"oracle: {len(out['schedule'])} urls in {wall:.1f} s")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return out


def oracle_mismatch(out_dir: str, oracle: dict) -> str | None:
    """First difference between a run's artifacts and the oracle on
    schedule order, URL-seen set, and per-url text + final_state; None
    when they agree."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    files = layers.schedule_files(out_dir)
    sched = pa.concat_tables([pq.read_table(p) for p in files]).select(
        ["wave", "seq", "url", "urllib"]).to_pylist() if files else []
    want = oracle["schedule"]
    for i in range(max(len(sched), len(want))):
        got = list(sched[i].values()) if i < len(sched) else None
        exp = want[i] if i < len(want) else None
        if got != exp:
            return f"schedule row {i}: engine {got} != oracle {exp}"

    seen = set(pq.read_table(os.path.join(out_dir, "url_seen"))
               .column("url_md5").to_pylist())
    if seen != set(oracle["seen"]):
        extra = sorted(seen - set(oracle["seen"]))[:1]
        missing = sorted(set(oracle["seen"]) - seen)[:1]
        return (f"url_seen: {len(seen)} engine vs {len(oracle['seen'])} "
                f"oracle md5s; first extra {extra}, first missing {missing}")

    ext = pads.dataset(os.path.join(out_dir, "extracted")).to_table(
        columns=["url", "retries", "nav_round", "text", "final_state"])
    got = {(r["url"], r["retries"], r["nav_round"]):
           [r["text"], r["final_state"]] for r in ext.to_pylist()}
    exp = {(u, rt, nr): [t, st] for u, rt, nr, t, st in oracle["extracted"]}
    for key in sorted(set(got) | set(exp)):
        if got.get(key) != exp.get(key):
            return (f"extracted row {key}: engine {got.get(key)} != "
                    f"oracle {exp.get(key)}")
    return None


# --------------------------------------------------------------------------
# one crawl cycle in its own Ray session
# --------------------------------------------------------------------------
def start_ray() -> None:
    import ray

    tmp = os.path.join(HERE, ".rt")
    if len(tmp) > 40:
        # Ray nests ~62 bytes of session and socket names under its temp
        # dir and AF_UNIX paths stop at 107 bytes.  Every Ray process
        # inherits the repository root as its working directory, so this
        # short alias names the same directory in each of them.
        tmp = "/proc/self/cwd/perfbench/.rt"
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=tmp,
             log_to_driver=False, logging_level="ERROR",
             # workers import the engine from the checkout, whatever
             # their working directory
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})


def crawl_cycle(workload: str, corpus: str, oracle: dict, out_dir: str,
                resume: bool, probe=None) -> dict:
    """Returns setup_s, urls, urls_per_s, window (epoch s of the crawl),
    run_metrics (its metrics.json), mismatch (None when the run matched
    the oracle and, with ``resume``, the restored state the final one)
    and, with ``resume``, recovery_s.  ``probe`` (layers.TracedCycle)
    observes a traced cycle."""
    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob

    settings = settings_for(workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    res: dict = {}
    t0 = time.perf_counter()
    start_ray()
    try:
        if probe is not None:
            probe.start(out_dir)
        t_job, w0 = time.perf_counter(), time.time()
        job = CrawlJob(corpus, settings, out_dir)
        res["setup_s"] = time.perf_counter() - t0
        totals = job.run()
        res["window"] = [w0, time.time()]
        res["crawl_s"] = time.perf_counter() - t_job
        res["urls"] = totals["scheduled"]
        res["urls_per_s"] = totals["scheduled"] / res["crawl_s"]
        with open(os.path.join(out_dir, "metrics.json")) as f:
            res["run_metrics"] = json.load(f)
        if probe is not None:
            probe.crawl_done()
        res["mismatch"] = oracle_mismatch(out_dir, oracle)
        if not resume:
            return res

        t = time.perf_counter()
        resumed = CrawlJob(corpus, settings, out_dir, resume=True)
        res["recovery_s"] = time.perf_counter() - t
        restored = [(s["urls_seen"], s["queued"])
                    for s in ray.get([sh.stats.remote()
                                      for sh in resumed.shards])]
        if probe is not None:
            probe.recovery_done()
        final = [(s["urls_seen"], s["queued"])
                 for s in res["run_metrics"]["shards"]]
        if res["mismatch"] is None and restored != final:
            res["mismatch"] = (f"restored shards (urls_seen, queued) "
                               f"{restored} != final {final}")
    finally:
        ray.shutdown()
    return res


def setup_only(workload: str, corpus: str, out_dir: str) -> float:
    """Ray session start plus CrawlJob construction, nothing else."""
    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    start_ray()
    try:
        CrawlJob(corpus, settings_for(workload), out_dir)
        return time.perf_counter() - t0
    finally:
        ray.shutdown()


def measure(args, corpus: str, oracle: dict, out_dir: str,
            seconds: float) -> list[dict]:
    """Untraced cycles until ``seconds`` have passed (at least one); a
    cycle that raises ends the loop and counts as failed."""
    cycles: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            # the first crawl of a run also reads its checkpoints back
            c = crawl_cycle(args.workload, corpus, oracle, out_dir,
                            resume=not cycles)
        except Exception:
            traceback.print_exc()
            cycles.append({"mismatch": "crawl raised"})
            break
        c["cycle_s"] = time.perf_counter() - t
        cycles.append(c)
        log(f"crawl {len(cycles)}: {c['urls']} urls, "
            f"{c['urls_per_s']:.1f} urls/s, setup {c['setup_s']:.2f} s"
            + (f", recovery {c['recovery_s']:.2f} s" if "recovery_s" in c
               else "")
            + (f", MISMATCH {c['mismatch']}" if c["mismatch"] else ""))
        if (time.perf_counter() - t_start >= seconds
                or run_clock() + c["cycle_s"] > BUDGET_S):
            break
    return cycles


def traced_metrics(args, corpus: str, oracle: dict, out_dir: str,
                   untraced: list[dict]) -> dict:
    """One traced cycle and the kernel replay; the per-layer metrics, or
    {} when either failed (or no untraced cycle passed to compare with)."""
    if not untraced:
        return {}
    probe = layers.TracedCycle()
    try:
        res = crawl_cycle(args.workload, corpus, oracle, out_dir,
                          resume=True, probe=probe)
        metrics, spans, busy = probe.metrics(res)
        kernel, kspans, kmismatch = layers.kernel_replay(
            corpus, settings_for(args.workload), out_dir,
            os.path.join(HERE, ".work", "part.parquet"))
    except Exception:
        traceback.print_exc()
        return {}
    for problem in (res["mismatch"], kmismatch):
        if problem:
            log(f"traced run: {problem}")
    if res["mismatch"] or kmismatch:
        return {}
    base = statistics.median(c["urls_per_s"] for c in untraced)
    metrics.update(kernel)
    metrics["crawl.recovery_s"] = {"value": res["recovery_s"], "unit": "s"}
    metrics["trace.urls_per_s"] = {"value": res["urls_per_s"],
                                   "unit": "urls/s"}
    metrics["trace.untraced_urls_per_s"] = {"value": base, "unit": "urls/s"}
    metrics["trace.overhead_frac"] = {"value": 1 - res["urls_per_s"] / base,
                                      "unit": "ratio"}
    layers.write_trace(os.path.join(HERE, ".work", "trace"), spans + kspans,
                       busy, res["crawl_s"])
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--pages", type=int, default=None)
    args = ap.parse_args()
    os.chdir(ROOT)  # start_ray's temp-dir alias is relative to the root

    corpus = corpus_dir(args.workload, args.seed, args.pages)
    oracle = oracle_result(args.workload, corpus)
    out_dir = os.path.join(HERE, ".work", "out")
    log(f"workload={args.workload} seed={args.seed} "
        f"urls={len(oracle['schedule'])} num_cpus={NUM_CPUS}")

    # a traced run needs one untraced crawl as its overhead base
    cycles = measure(args, corpus, oracle, out_dir,
                     args.seconds if args.trace == 0 else 0)
    ok = [c for c in cycles if c["mismatch"] is None]
    attempted, failed = len(cycles), len(cycles) - len(ok)
    result = {"rss_windows": [c["window"] for c in ok]}

    if args.trace == 0:
        setups = [c["setup_s"] for c in ok]
        while (ok and len(setups) < SETUP_SAMPLES
               and run_clock() + 2 * max(setups) < BUDGET_S):
            setups.append(setup_only(args.workload, corpus, out_dir))
        metrics = {} if not ok else {
            "urls_per_s": {"value": statistics.median(
                c["urls_per_s"] for c in ok), "unit": "urls/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        metrics = traced_metrics(args, corpus, oracle, out_dir, ok)
        attempted += 1
        failed += 0 if metrics else 1
        metrics["ops_failed_frac"] = {"value": failed / attempted,
                                      "unit": "ratio"}
        metrics["oracle_urls_per_s"] = {
            "value": len(oracle["schedule"]) / oracle["wall_s"],
            "unit": "urls/s"}

    shutil.rmtree(out_dir, ignore_errors=True)
    result.update(correct=failed == 0, attempted=attempted, failed=failed,
                  metrics=metrics)
    with open(args.result + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(args.result + ".tmp", args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
