"""Per-layer metrics for the traced run, all measured from outside the
engine:

- a wrapper around ``run_schedule_wave`` as ``pipelines.crawl`` calls it
  (driver schedule time, urls per wave, wave boundaries);
- ``ray.timeline()`` spans of remote tasks and actor methods (frontier
  shards, fused block tasks, routing tasks, partition loads, Ray's own
  per-task overhead), grouped per actor worker for shard skew;
- files the run leaves: ``metrics.json``, ``ckpt/`` (polled while the
  crawl runs), ``extracted/``;
- an in-process replay of every wave's ``schedule/wave_k.parquet``
  through ``FetchSim`` and the ``functions.*`` calls of the extract
  kernel, timed per stage, beside one timed ``ExtractBatch`` call on the
  same rows.

Spans (the Ray timeline plus the benchmark's own, in Chrome trace
format) and the per-layer busy-time table are written to
``perfbench/.work/trace/``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import threading
import time

MS = 1e3
US = 1e6


def schedule_files(out_dir: str) -> list[str]:
    """A run's ``schedule/wave_k.parquet`` files in wave order."""
    return sorted(glob.glob(os.path.join(out_dir, "schedule", "*.parquet")),
                  key=lambda p: int(p.rsplit("_", 1)[1].split(".")[0]))


def _span(name: str, t0: float, dur_s: float, tid: str, **args) -> dict:
    return {"name": name, "cat": "perfbench", "ph": "X", "pid": "perfbench",
            "tid": tid, "ts": t0 * US, "dur": dur_s * US, "args": args}


class TracedCycle:
    """Observes one crawl cycle: ``start`` before the job is built,
    ``crawl_done`` when ``run()`` returned, ``recovery_done`` after the
    resumed job was built (Ray still up, so the timeline is fetched
    there)."""

    def __init__(self):
        self.calls: list[tuple[float, float, int]] = []  # epoch, s, urls
        self.ckpt_sizes: dict[str, int] = {}
        self.ckpt_retained = 0
        self.events: list[dict] = []
        self.crawl_end = 0.0
        self._stop = threading.Event()

    # -- hooks ------------------------------------------------------------
    def start(self, out_dir: str) -> None:
        from neocrawler_ray.pipelines import crawl

        self.out_dir = out_dir
        self._orig = crawl.run_schedule_wave

        def timed(*args, **kwargs):
            w0, t0 = time.time(), time.perf_counter()
            out = self._orig(*args, **kwargs)
            self.calls.append((w0, time.perf_counter() - t0,
                               len(out["url"] if isinstance(out, dict)
                                   else out)))
            return out

        crawl.run_schedule_wave = timed
        self._poller = threading.Thread(target=self._poll_ckpt, daemon=True)
        self._poller.start()

    def crawl_done(self) -> None:
        from neocrawler_ray.pipelines import crawl

        self.crawl_end = time.time()
        crawl.run_schedule_wave = self._orig
        self._stop.set()
        self._poller.join()
        self.ckpt_retained = sum(self._scan_ckpt().values())

    def recovery_done(self) -> None:
        import ray

        # task events reach the GCS in periodic batches: poll until the
        # span count stops growing
        prev = -1
        for _ in range(10):
            time.sleep(1.0)
            self.events = ray.timeline()
            if len(self.events) == prev:
                break
            prev = len(self.events)

    # -- checkpoint files --------------------------------------------------
    def _scan_ckpt(self) -> dict[str, int]:
        """Sizes of the checkpoint files present now (temp files, whose
        names start with '.', are not checkpoints yet)."""
        sizes = {}
        for dirpath, _dirs, files in os.walk(os.path.join(self.out_dir,
                                                          "ckpt")):
            for name in files:
                if not name.startswith("."):
                    p = os.path.join(dirpath, name)
                    try:
                        sizes[p] = os.path.getsize(p)
                    except OSError:
                        pass  # removed after listing
        for p, n in sizes.items():
            self.ckpt_sizes[p] = max(n, self.ckpt_sizes.get(p, 0))
        return sizes

    def _poll_ckpt(self) -> None:
        # bytes written = the largest size seen of every file name; a file
        # that appears and is deleted within one period goes unseen
        while not self._stop.wait(0.2):
            self._scan_ckpt()

    # -- metrics -------------------------------------------------------------
    def metrics(self, res: dict) -> tuple[dict, list[dict], dict]:
        """(per-layer values, spans, busy seconds per layer) of the
        traced cycle ``res`` (crawl_cycle's result)."""
        import pyarrow.dataset as pads

        cut = self.crawl_end * US
        crawl_ev = [e for e in self.events
                    if e.get("ph") == "X" and e["ts"] < cut]
        rec_ev = [e for e in self.events
                  if e.get("ph") == "X" and e["ts"] >= cut]

        def task_spans(evs, pred):
            return [e for e in evs if e["cat"].startswith("task::")
                    and pred(e["cat"][len("task::"):])]

        def secs(evs):
            return sum(e["dur"] for e in evs) / US

        shard = task_spans(crawl_ev, lambda n: n.startswith("FrontierShard."))
        method = {}
        for e in shard:
            method.setdefault(e["cat"].split(".", 1)[1], []).append(e)
        pops = [e for m, evs in method.items() for e in evs
                if m.startswith("schedule_pop") or m == "schedule_wave_spec"]
        commit = method.get("commit_wave_and_checkpoint", [])
        per_actor: dict[str, float] = {}
        for e in commit:
            per_actor[e["tid"]] = per_actor.get(e["tid"], 0.0) + e["dur"] / US
        blocks = [e["dur"] / US for e in
                  task_spans(crawl_ev, lambda n: n == "_wave_block_write")]
        route = task_spans(crawl_ev, lambda n: n == "_route_refs_task")
        loads = task_spans(crawl_ev, lambda n: n == "_load")
        robots = task_spans(crawl_ev, lambda n: n == "build_robots_map")
        overhead = [e for e in crawl_ev if e["cat"] in (
            "task:deserialize_arguments", "task:store_outputs", "submit_task")]
        restore = task_spans(rec_ev, lambda n: n == "FrontierShard.restore")

        starts = [w for w, _s, _n in self.calls]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        waves = sum(1 for _w, _s, n in self.calls if n)
        run = res["run_metrics"]
        tot, shards = run["totals"], run["shards"]
        offered = tot.get("links_saved", 0) + tot.get("links_rejected", 0)
        ext = pads.dataset(os.path.join(self.out_dir, "extracted")).to_table(
            columns=["valid"])
        n_valid = sum(ext.column("valid").to_pylist())

        def m(value, unit):
            return {"value": value, "unit": unit}

        out = {
            "scheduler.schedule_s": m(sum(s for _w, s, _n in self.calls), "s"),
            "scheduler.pop_rpcs": m(len(pops), "count"),
            "scheduler.urls_scheduled": m(
                sum(n for _w, _s, n in self.calls), "count"),
            "crawl.waves": m(waves, "count"),
            "crawl.wave_s.p50": m(statistics.median(gaps) if gaps else 0.0,
                                  "s"),
            "crawl.wave_s.max": m(max(gaps, default=0.0), "s"),
            "crawl.block_tasks": m(len(blocks), "count"),
            "crawl.block_task_s.sum": m(sum(blocks), "s"),
            "crawl.block_task_s.p50": m(
                statistics.median(blocks) if blocks else 0.0, "s"),
            "crawl.block_task_s.max": m(max(blocks, default=0.0), "s"),
            "frontier.commit_s": m(secs(commit), "s"),
            "frontier.commit_s.max_shard": m(
                max(per_actor.values(), default=0.0), "s"),
            "frontier.pop_s": m(secs(pops), "s"),
            "frontier.buffer_s": m(secs(method.get("buffer_results", [])),
                                   "s"),
            "frontier.finalize_s": m(secs(method.get("write_seen", []))
                                     + secs(method.get("stats", [])), "s"),
            "frontier.restore_s": m(secs(restore), "s"),
            "frontier.ckpt_bytes_written": m(sum(self.ckpt_sizes.values()),
                                             "bytes"),
            "frontier.ckpt_bytes_retained": m(self.ckpt_retained, "bytes"),
            "frontier.urls_seen.max_shard": m(
                max(s["urls_seen"] for s in shards), "count"),
            "frontier.urls_seen.min_shard": m(
                min(s["urls_seen"] for s in shards), "count"),
            "frontier.link_admit_frac": m(
                tot.get("links_saved", 0) / offered if offered else 0.0,
                "ratio"),
            "frontier.politeness_deferred": m(
                sum(s.get("politeness_deferred", 0) for s in shards),
                "count"),
            "frontier.retries_queued": m(tot.get("retries_queued", 0),
                                         "count"),
            "fetch.partition_load_s": m(secs(loads), "s"),
            "fetch.robots_s": m(secs(robots), "s"),
            "extract.valid_frac": m(n_valid / ext.num_rows
                                    if ext.num_rows else 0.0, "ratio"),
            "route.s": m(secs(route), "s"),
            "route.tasks": m(len(route), "count"),
            # every extracted row is routed once (links and its state)
            "route.feedback_rows": m(ext.num_rows, "count"),
            "ray.tasks": m(sum(1 for e in crawl_ev
                               if e["cat"] == "task:execute"), "count"),
            "ray.task_overhead_s": m(secs(overhead), "s"),
        }
        spans = [_span("schedule_wave", w, s, "driver", urls=n)
                 for w, s, n in self.calls]
        spans.append(_span("crawl", res["window"][0],
                           res["window"][1] - res["window"][0], "driver",
                           urls=res["urls"]))
        busy = {
            "scheduler (driver, schedule_wave)":
                out["scheduler.schedule_s"]["value"],
            "frontier shards (all actor methods)": secs(shard),
            "fetch+extract block tasks": sum(blocks),
            "feedback routing tasks": secs(route),
            "pages partition loads + robots": secs(loads) + secs(robots),
            "ray per-task overhead": secs(overhead),
        }
        return out, self.events + spans, busy


# --------------------------------------------------------------------------
# kernel replay
# --------------------------------------------------------------------------
def _replay_extract(fetched, rules: dict, settings, acc: dict) -> list:
    """The per-row work of ``ExtractBatch.__call__``, stage by stage:
    ``emit`` (column reads, rule lookup, output rows), ``decode``
    (decode_body + validate_content), ``parse`` (parse_html), ``select``
    (extract_link, wash_link, arrange_link, get_drill_relation,
    extract_data).  Returns the (text, final_state) of every row."""
    import pyarrow as pa

    from neocrawler_ray.functions.dom import parse_html
    from neocrawler_ray.functions.extract import (arrange_link, decode_body,
                                                  extract_data, extract_link,
                                                  get_drill_relation,
                                                  validate_content)
    from neocrawler_ray.functions.urls import (parse_urllib_key, url_tld,
                                               wash_link)

    clock = time.perf_counter
    t = clock()
    n = fetched.num_rows
    cols = {c: fetched.column(c).to_pylist() for c in (
        "seq", "wave", "url", "urllib", "version", "drill_relation",
        "status", "robots_blocked", "retry", "nav_round", "nav_last")}
    html_col = fetched.column("html")
    out = {k: [] for k in ("seq", "url", "domain", "text", "final_state",
                           "extracted_json", "feedback_json", "n_links")}
    results = []
    acc["emit"] += clock() - t
    for i in range(n):
        t0 = clock()
        url, origin = cols["url"][i], cols["drill_relation"][i]
        html, status = html_col[i].as_py(), cols["status"][i]
        da = parse_urllib_key(cols["urllib"][i])
        rule = ((rules.get(da[0]) or {}).get(da[1]) if da else None) or {}
        domain = url_tld(url) or ""
        is_binary = rule.get("format", "html") == "binary"
        retries = int(cols["retry"][i] or 0)
        text, extracted_json, links = "", "", {}
        t1 = clock()
        acc["emit"] += t1 - t0
        if cols["robots_blocked"][i]:
            valid, final_state = False, "crawled_failure"
        else:
            if status == 200 and html is not None and not is_binary:
                content = decode_body(html, rule)
            else:
                content = html if html is not None else b""
            valid = validate_content(len(content), status, is_binary,
                                     content, rule.get("validation_keywords"))
            final_state = ("crawled_finish" if valid else
                           "crawl_retry" if retries < settings.download_retry
                           else "crawled_failure")
        t2 = clock()
        acc["decode"] += t2 - t1
        if valid and not is_binary:
            extract_rule = rule.get("extract_rule") or {}
            drill_rules = rule.get("drill_rules")
            dom = (parse_html(content)
                   if drill_rules or extract_rule.get("rule") else None)
            t3 = clock()
            acc["parse"] += t3 - t2
            data = {}
            if drill_rules:
                links = arrange_link(
                    wash_link(url, extract_link(dom, drill_rules)), rules)
                if settings.keep_link_relation:
                    get_drill_relation(dom, url, content, origin,
                                       rule.get("drill_relation"))
            if extract_rule.get("rule"):
                data, _lacks = extract_data(url, content, extract_rule, None,
                                            dom)
            t4 = clock()
            acc["select"] += t4 - t3
            if dom is not None:
                acc["nodes"] += sum(1 for _ in dom.iter_descendants())
                acc["pages_parsed"] += 1
                # release the tree now, as extract_page's return does: a
                # tree kept alive into the next parse is promoted by the
                # cyclic GC and makes every later collection dearer
                dom = None
            t2 = clock()
            text = data.get("text_main") or ""
            extracted_json = json.dumps(data, ensure_ascii=False,
                                         default=str)
        base_g = int(cols["nav_round"][i]) * 1_000_000
        feedback = [[base_g + g, li, ulib, dst]
                    for g, (ulib, ls) in enumerate(links.items())
                    for li, dst in enumerate(ls)]
        out["seq"].append(cols["seq"][i])
        out["url"].append(url)
        out["domain"].append(domain)
        out["text"].append(text)
        out["final_state"].append(final_state)
        out["extracted_json"].append(extracted_json)
        out["feedback_json"].append(json.dumps(feedback) if feedback else "")
        out["n_links"].append(sum(len(v) for v in links.values()))
        results.append((text, final_state))
        acc["emit"] += clock() - t2
    t = clock()
    pa.Table.from_pydict(out)
    acc["emit"] += clock() - t
    return results


def kernel_replay(corpus: str, settings, out_dir: str, part_path: str):
    """Replays every wave of the finished run in-process, in blocks of
    ``extract_batch_size`` rows as the engine cuts them.  Each block goes
    through the staged replay and through one timed ``ExtractBatch`` call,
    in alternating order so that drifts in machine speed hit both alike.
    The cyclic GC is off inside both and its collection of each side's
    garbage is timed after it (DOM trees are parent/child cycles, so
    collecting them is part of the kernel's cost: ``kernel.gc_ms_per_row``).
    Returns (metrics, spans, mismatch); mismatch is None when the replayed
    rows equal ExtractBatch's on text and final_state."""
    import gc

    import pyarrow.parquet as pq

    from neocrawler_ray.stages.extract_stage import ExtractBatch
    from neocrawler_ray.stages.fetch import (FetchSim, browser_rules_map,
                                             build_robots_map,
                                             cookie_rules_map,
                                             proxy_rules_map)

    with open(os.path.join(corpus, "rules.json")) as f:
        rules = json.load(f)
    with open(os.path.join(corpus, "meta.json")) as f:
        pages_shards = json.load(f)["pages_shards"]
    fetch = FetchSim(corpus, build_robots_map(corpus), pages_shards,
                     cache_partitions=pages_shards,
                     browser_map=browser_rules_map(rules),
                     proxy_map=proxy_rules_map(rules),
                     cookie_map=cookie_rules_map(rules))
    extract = ExtractBatch(rules, settings, [], push_to_frontier=False)
    scheduled = [pq.read_table(p) for p in schedule_files(out_dir)]
    # untimed warm-up: every pages partition into FetchSim's cache (the
    # engine loads them once per run, timed as fetch.partition_load_s),
    # selector and regex caches filled
    fetched_all = [fetch(s) for s in scheduled]
    extract(fetched_all[0].slice(0, 50))
    del fetched_all

    clock = time.perf_counter
    acc = dict.fromkeys(("fetch", "emit", "decode", "parse", "select", "gc",
                         "extract_batch", "write", "nodes", "pages_parsed"),
                        0)
    rows = 0
    spans: list[dict] = []
    mismatch = None

    def replay(block):
        w, before = time.time(), {s: acc[s] for s in acc}
        got = _replay_extract(block, rules, settings, acc)
        t = clock()
        gc.collect()
        acc["gc"] += clock() - t
        spans.append(_span("replay", w, time.time() - w, "kernel",
                           **{s: acc[s] - before[s] for s in (
                               "emit", "decode", "parse", "select", "gc")}))
        return got

    def engine(block):
        w, t = time.time(), clock()
        table = extract(block)
        gc.collect()
        acc["extract_batch"] += clock() - t
        spans.append(_span("ExtractBatch", w, time.time() - w, "kernel"))
        return table

    # objects alive now (caches, the oracle) are left out of the timed
    # collections, which then cost what the kernel's own garbage costs
    gc.collect()
    gc.freeze()
    try:
        for k, sched in enumerate(scheduled):
            w, t = time.time(), clock()
            fetched = fetch(sched)
            acc["fetch"] += clock() - t
            spans.append(_span("fetch", w, time.time() - w, "kernel", wave=k))
            rows += fetched.num_rows
            step = settings.extract_batch_size
            for j, lo in enumerate(range(0, fetched.num_rows, step)):
                block = fetched.slice(lo, step)
                gc.disable()
                try:
                    if j % 2:
                        table = engine(block)
                        replayed = replay(block)
                    else:
                        replayed = replay(block)
                        table = engine(block)
                finally:
                    gc.enable()
                t = clock()
                pq.write_table(table, part_path)
                acc["write"] += clock() - t
                expect = list(zip(table.column("text").to_pylist(),
                                  table.column("final_state").to_pylist()))
                if mismatch is None and replayed != expect:
                    i = next((i for i, (a, b) in enumerate(
                        zip(replayed, expect)) if a != b), 0)
                    mismatch = (f"kernel replay wave {k} row {lo + i}: "
                                f"{replayed[i:i + 1]} != {expect[i:i + 1]}")
    finally:
        gc.unfreeze()
    os.remove(part_path)

    stages = sum(acc[s] for s in ("emit", "decode", "parse", "select", "gc"))

    def per_row(s):
        return {"value": acc[s] * MS / rows, "unit": "ms"}

    metrics = {
        "fetch.ms_per_row": per_row("fetch"),
        "extract.ms_per_row": per_row("extract_batch"),
        "kernel.decode_ms_per_row": per_row("decode"),
        "kernel.parse_ms_per_row": per_row("parse"),
        "kernel.select_ms_per_row": per_row("select"),
        "kernel.emit_ms_per_row": per_row("emit"),
        "kernel.gc_ms_per_row": per_row("gc"),
        "kernel.write_ms_per_row": per_row("write"),
        "kernel.nodes_per_page": {
            "value": acc["nodes"] / max(1, acc["pages_parsed"]),
            "unit": "count"},
        # stage sum over the timed ExtractBatch calls; 1.0 = no stage missing
        "kernel.coverage": {"value": stages / acc["extract_batch"],
                            "unit": "ratio"},
    }
    return metrics, spans, mismatch


def write_trace(work_dir: str, spans: list[dict], busy: dict,
                crawl_s: float) -> None:
    """Spans as one Chrome trace file, plus the per-layer busy table
    (also printed)."""
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "trace.json"), "w") as f:
        json.dump({"traceEvents": spans}, f)
    with open(os.path.join(work_dir, "layers.json"), "w") as f:
        json.dump({"crawl_s": crawl_s, "busy_s": busy}, f, indent=1)
    print(f"[perfbench] layer busy time in a {crawl_s:.2f} s traced crawl "
          "(summed over workers)")
    for name, s in busy.items():
        print(f"[perfbench]   {name:<38} {s:8.2f} s  "
              f"{100 * s / crawl_s:6.1f}% of wall")
