"""Crawl job — the wave loop tying scheduler, fetch-sim, extract and the
frontier actor pool together (the new-engine lifecycle of SURVEY.md §3).

Each wave is one fan-out over the scheduled table::

    scheduled batch (from frontier pops, deterministic order)
      → blocks grouped by pages-shard (fetch locality), table put once
      → raw task per block: fused fetch-sim + extract → its own parquet
        part under wave=k/ (worker-global caches persist per run; see
        _wave_block_write for why this beats a per-wave Ray Data
        micro-pipeline — the ~0.39 s/wave executor+sink fixed cost)
      → route feedback columns → one buffer RPC per frontier shard
      → plugin sink (if any): the driver hands each written part to
        ``sink_batch`` in part order
      → commit_wave (deterministic order) → checkpoint (async IO);
        the commit barrier is submit-only and overlaps the NEXT wave's
        schedule via per-shard actor ordering (harvested after the
        schedule RPCs are queued)

The bulk analytics/corpus pipelines remain Ray Data end to end; only
this iterative ~170-sub-second-task wave loop uses raw tasks, with or
without a plugin (its ``download_batch``/``extract_batch`` hooks run
inside the block tasks).

Link discovery rides the output table as a ``feedback_json`` column and
is routed to the frontier shards once per wave, then applied in
deterministic seq order by ``commit_wave`` — making the parallel run
order-equivalent to the reference's sequential scheduler+spider (parity
target: schedule order + URL-seen set, SURVEY.md §2.9).  Design notes
measured via ``ds.stats()``/phase timers: per-wave actor pools,
per-block frontier RPC barriers, and per-rule scheduler RPCs each
dominated wall time at high CPU counts and were restructured away
(task-mode singletons, feedback column, queue-length schedule skip).

Checkpoint/resume (north_rule): after every wave each shard snapshots
(cuckoo bytes + queues + url state + metrics) to
``ckpt/shard={i}/wave_{k}.pkl``; the driver writes an atomic manifest with
the rule ``first_schedule`` clocks.  ``resume=True`` restores the latest
complete wave and continues — waves already written are skipped (their
Parquet output is the resumable unit).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlSettings, RuleSet
from ..functions.urls import url_host
from ..sources.pages_gen import _host_shard
from ..stages.extract_stage import (FEEDBACK_COLUMNS, extract_batch_task,
                                    route_refs_remote)
from ..stages.fetch import (browser_rules_map, build_robots_map,
                            cookie_rules_map, fetch_sim_batch,
                            load_partition_refs, proxy_rules_map)
from ..state.frontier import FrontierShard
from .scheduler import run_schedule_wave


def _wave_block_write(tbl, lo, hi, part_path, kw):
    """One scheduled-row range → fetch-sim → extract → its own parquet
    part, written in-task (raw Ray task; registered lazily as a remote
    below); the html bytes never leave the process.  This replaces a
    per-wave Ray Data micro-pipeline: a fresh streaming executor +
    parquet sink costs a measured ~0.39 s of fixed spin-up per execution
    vs ~0.04 s for the equivalent raw-task fan-out (32 cpus, 170
    blocks), and at ~1 s of useful work per wave that fixed cost was
    ~3.1 s of pure overhead across the 9 sf0.1 bench waves.  Ray Data
    stays the engine for every bulk scan in pipelines/* — an iterative
    frontier loop dispatching ~170 sub-second tasks per wave is the
    documented "Dataset API can't express it efficiently" exception.  A
    task retry deterministically rewrites its own part.  ``tbl`` arrives
    as a top-level ObjectRef arg (auto-deref, zero-copy from plasma);
    ``kw`` is the run-invariant ``{"fetch": ..., "extract": ...}``
    kwargs put ONCE per run (nested robots/rules refs stay refs — the
    kernels ``ray.get`` them into their worker-global caches)."""
    fetched = fetch_sim_batch(tbl.slice(lo, hi - lo), **kw["fetch"])
    out = extract_batch_task(fetched, **kw["extract"])
    pq.write_table(out, part_path)
    # the narrow feedback projection is the task's RESULT: the crawl
    # loop hands chunks of these refs to routing tasks as blocks finish,
    # so feedback routing overlaps the wave's straggler tail and never
    # re-reads the parquet parts (driver sees refs only, no rows)
    return out.select(FEEDBACK_COLUMNS)


_wave_block_write_remote = None


def _wave_task():
    """Lazy ``@ray.remote`` registration so importing this module never
    touches Ray (the driver contract: only session owners init Ray)."""
    global _wave_block_write_remote
    if _wave_block_write_remote is None:
        import ray

        _wave_block_write_remote = ray.remote(_wave_block_write)
    return _wave_block_write_remote


def hosts_vectorized(u_ser):
    """Lower-cased hostnames for a url Series — C-regex fast path with a
    row-wise ``url_host`` (urlsplit) fallback for anything the regex
    can't take (brackets — IPv6 literals or ``ValueError`` — non-ASCII,
    scheme-less, empty), so the mapping is urlsplit-identical
    (property-tested over arbitrary text).  Tabs and line breaks are
    stripped first, as urlsplit does.  ~5 µs/url as a python urlsplit
    loop, this was a measurable slice of the per-wave serial floor; the
    resulting shard id only drives fetch locality (each fetch task
    re-derives every row's own pages shard), never results."""
    clean = u_ser.str.replace(r"[\t\r\n]", "", regex=True)
    hosts = clean.str.extract(
        r"^[a-zA-Z][a-zA-Z0-9+.\-]*://(?:[^/?#]*@)?([^/?#:@]*)",
        expand=False)
    slow = (hosts.isna() | (hosts == "")
            | clean.str.contains(r"[\[\]]|[^\x00-\x7f]", regex=True))
    if slow.any():
        hosts[slow] = u_ser[slow].map(lambda x: url_host(x) or "")
    return hosts.str.lower().fillna("")


SCHED_SCHEMA = pa.schema(
    [
        ("seq", pa.int64()),
        ("wave", pa.int32()),
        ("url", pa.string()),
        ("urllib", pa.string()),
        ("version", pa.int64()),
        ("referer", pa.string()),
        ("drill_relation", pa.string()),
        ("retry", pa.int32()),
    ]
)


def _scheduled_to_table(scheduled) -> pa.Table:
    if isinstance(scheduled, dict):  # columnar fast path (scheduler emit)
        n = len(scheduled["url"])
        return pa.table(
            {
                "seq": pa.array(range(n), pa.int64()),
                "wave": pa.array([scheduled["wave"]] * n, pa.int32()),
                "url": pa.array(scheduled["url"], pa.string()),
                "urllib": pa.array(scheduled["urllib"], pa.string()),
                "version": pa.array(
                    (int(v) for v in scheduled["version"]), pa.int64()),
                "referer": pa.array(
                    (r or "" for r in scheduled["referer"]), pa.string()),
                "drill_relation": pa.array(
                    (r or "*" for r in scheduled["drill_relation"]),
                    pa.string()),
                "retry": pa.array(
                    (int(r or 0) for r in scheduled["retry"]), pa.int32()),
            },
            schema=SCHED_SCHEMA,
        )
    return pa.Table.from_pylist(
        [
            {
                "seq": s["seq"],
                "wave": s["wave"],
                "url": s["url"],
                "urllib": s["urllib"],
                "version": int(s["version"]),
                "referer": s.get("referer") or "",
                "drill_relation": s.get("drill_relation") or "*",
                "retry": int(s.get("retry") or 0),
            }
            for s in scheduled
        ],
        schema=SCHED_SCHEMA,
    )


class CrawlJob:
    def __init__(self, corpus_dir: str, settings: CrawlSettings,
                 out_dir: str, resume: bool = False, plugin=None):
        import ray

        self.corpus_dir = corpus_dir
        self.settings = settings
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

        with open(os.path.join(corpus_dir, "rules.json")) as f:
            self.rules = json.load(f)
        with open(os.path.join(corpus_dir, "meta.json")) as f:
            self.corpus_meta = json.load(f)
        self.ruleset = RuleSet(self.rules)
        self.entries = self.ruleset.priority_list(settings.max_weight)
        self.total_rates = sum(e["rate"] for e in self.entries)

        S = settings.num_frontier_shards
        RemoteShard = ray.remote(FrontierShard)
        # max_restarts=0 — FAIL FAST: a restarted shard would re-run
        # __init__ with empty url_info/queues and the run would continue
        # "successfully" on silently-corrupted state (missing URLs, and
        # worse, the next commit would checkpoint the EMPTY snapshot past
        # the good one).  Crash-recovery is the checkpoint/resume path's
        # job (resume=True restores the last durable wave), mirroring
        # route_feedback's max_retries=0 exactly-once stance.
        self.shards = [
            RemoteShard.options(max_restarts=0).remote(i, self.rules, settings)
            for i in range(S)
        ]
        # robots scan as a task, not ray.put(build_robots_map(...)): the
        # url-filtered pages scan measured ~1 s driver-serial per run —
        # as a task it overlaps shard-actor startup and the first
        # schedule wave (fetch kernels deref the result ref exactly as
        # they deref a put ref)
        self.robots_ref = ray.remote(build_robots_map).remote(corpus_dir)
        self.rules_ref = ray.put(self.rules)
        # S6 browser dispatch table (tiny: jshandle rules only) + T8
        # simulated-proxy rule set
        self.browser_map = browser_rules_map(self.rules)
        self.proxy_map = proxy_rules_map(self.rules)
        self.cookie_map = cookie_rules_map(self.rules)
        # uuid, not pid+id(): id() reuse after GC could hand a new job the
        # previous job's worker-global fetch/extract singletons
        self.run_token = uuid.uuid4().hex
        self.partition_refs = load_partition_refs(
            corpus_dir, self.corpus_meta.get("pages_shards", 16))

        # spider_extend surface (SURVEY.md §2.10): assembly runs once on
        # the driver (spider/index.js:43); batch hooks ride into the actors
        self.plugin = plugin
        if plugin is not None:
            plugin.assembly({"corpus_dir": corpus_dir, "out_dir": out_dir})

        self.start_wave = 0
        # per-wave first_schedule snapshots for the lagged manifest: the
        # manifest for wave k must carry the clocks AS OF the end of wave
        # k — writing the live entries after wave k+1's scheduler advanced
        # them made a resumed run skip reSchedules its replay performed
        self._fs_snapshots: dict[int, dict[str, int]] = {}
        if resume:
            self.start_wave = self._restore_checkpoint()
        # T7 running ±failure counter (extractor.js:416-423 wave analog)
        self._cum_failure = 0
        # newest wave whose checkpoint write has STARTED (manifest lags
        # one checkpoint behind; None until the first snapshot)
        self._last_ckpt_started: int | None = None
        # T5 hot-reload signature of rules.json
        self._rules_path = os.path.join(corpus_dir, "rules.json")
        self._rules_sig = self._rules_signature()[0]
        self.rules_version = 0
        # per-run host→pages-shard memo (few distinct hosts, md5-derived)
        self._host_shard_cache: dict[str, int] = {}
        self._rebuild_wave_kw()

    # ------------------------------------------------------------------
    def _submit(self, shard, method, *args):
        """Queue one shard actor call; ObjectRef tokens let the wave
        schedule submit its whole plan (drains, seed pushes, the
        leftover-chained pop runs) and join ONCE — the quota chain's
        leftover travels shard-to-shard as task-argument dataflow."""
        return getattr(shard, method).remote(*args)

    def _resolve(self, tokens):
        import ray

        return ray.get(list(tokens))

    def _submit2(self, shard, method, *args):
        """Two-return submit for the leftover-chained pop runs: the next
        run's task depends only on the few-byte ``left`` ref, so the
        chain never ships a run's accepted rows shard-to-shard."""
        refs = getattr(shard, method).options(num_returns=2).remote(*args)
        return refs[0], refs[1]

    def _cast(self, requests):
        """Submit-only batch (results unused, e.g. ``begin_wave``):
        actor tasks from one caller run in submission order, so any
        later call on the same shard happens-after these — no join
        needed, and the previous wave's in-flight commit keeps running
        under the schedule instead of being a driver barrier."""
        for sh, m, *a in requests:
            getattr(sh, m).remote(*a)

    # --- T5 rules hot-reload (wave-boundary re-expression of the
    #     reference's 120 s poll, scheduler/index.js:63-120) -------------
    def _rules_signature(self) -> tuple[tuple, bytes | None]:
        """(signature, blob) from ONE read — the md5'd bytes are the
        bytes that get parsed, so a concurrent writer can't slip a
        different (possibly partial) file between hash and parse."""
        import hashlib

        try:
            with open(self._rules_path, "rb") as f:
                blob = f.read()
            return ((os.stat(self._rules_path).st_mtime_ns,
                     hashlib.md5(blob).hexdigest()), blob)
        except OSError:
            return ((0, ""), None)

    def _rebuild_wave_kw(self) -> None:
        """One ``ray.put`` of the run-invariant block-task kwargs (rebuilt
        on rules hot-reload, which bumps ``rules_version``).  Nested
        ObjectRefs/actor handles survive the put — the kernels deref
        them into worker-global caches.  The plugin rides along, so its
        ``download_batch``/``extract_batch`` hooks run in the block
        tasks on a per-worker copy."""
        import ray

        common = dict(run_token=self.run_token, plugin=self.plugin,
                      rules_version=self.rules_version)
        self._wave_kw_ref = ray.put({
            "fetch": dict(
                common,
                corpus_dir=self.corpus_dir,
                robots_map=self.robots_ref,
                pages_shards=self.corpus_meta.get("pages_shards", 16),
                partition_refs=self.partition_refs,
                browser_map=self.browser_map,
                proxy_map=self.proxy_map,
                cookie_map=self.cookie_map,
            ),
            "extract": dict(
                common,
                rules_ref=self.rules_ref,
                settings=self.settings,
                frontier_shards=self.shards,
            ),
        })

    def _maybe_reload_rules(self) -> bool:
        import ray

        if not self.settings.rules_reload:
            return False
        sig, blob = self._rules_signature()
        if sig == self._rules_sig or blob is None:
            return False
        try:
            new_rules = json.loads(blob)
        except ValueError:
            # mid-write snapshot (non-atomic editor): keep the current
            # rules AND the old signature, so the completed write is
            # picked up at the next wave boundary
            return False
        self._rules_sig = sig
        self.rules = new_rules
        self.ruleset = RuleSet(self.rules)
        old_fs = {e["key"]: e["first_schedule"] for e in self.entries}
        self.entries = self.ruleset.priority_list(self.settings.max_weight)
        for e in self.entries:
            # existing rules keep their reSchedule clocks; NEW rules get
            # 0 → their seeds enter the very next wave (driller:*:updated
            # semantics, scheduler/index.js:109-117)
            e["first_schedule"] = old_fs.get(e["key"], 0)
        self.total_rates = sum(e["rate"] for e in self.entries)
        self.rules_ref = ray.put(self.rules)
        self.browser_map = browser_rules_map(self.rules)
        self.proxy_map = proxy_rules_map(self.rules)
        self.cookie_map = cookie_rules_map(self.rules)
        self.rules_version += 1
        ray.get([sh.update_rules.remote(self.rules) for sh in self.shards])
        self._rebuild_wave_kw()
        return True

    # --- checkpoint -----------------------------------------------------
    @property
    def ckpt_dir(self) -> str:
        return self.settings.checkpoint_dir or os.path.join(self.out_dir, "ckpt")

    def _write_manifest(self, wave: int) -> None:
        """Manifest written after every shard checkpoint file landed, so
        a crash mid-wave resumes from the previous complete wave.  The
        ``first_schedule`` clocks come from the snapshot captured at the
        END of ``wave`` (not the live entries, which the next wave's
        scheduler has already advanced)."""
        fs = self._fs_snapshots.get(
            wave, {e["key"]: e["first_schedule"] for e in self.entries})
        from neocrawler_ray.state.cuckoo import STATE_FORMAT_VERSION

        manifest = {
            "last_complete_wave": wave,
            "first_schedule": fs,
            "num_shards": len(self.shards),
            # persisted-state schema version (cuckoo fingerprint scheme
            # etc.) — resume refuses on mismatch instead of silently
            # mixing fingerprint derivations
            "state_format": STATE_FORMAT_VERSION,
        }
        tmp = os.path.join(self.ckpt_dir, ".manifest.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.ckpt_dir, "manifest.json"))

    def _restore_checkpoint(self) -> int:
        import ray

        path = os.path.join(self.ckpt_dir, "manifest.json")
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            manifest = json.load(f)
        wave = manifest["last_complete_wave"]
        from neocrawler_ray.state.cuckoo import STATE_FORMAT_VERSION

        fmt = manifest.get("state_format", 1)  # pre-versioned ⇒ v1 (`| 1`
        # odd-only fingerprints) — incompatible with the v2 remap
        if fmt != STATE_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint state_format={fmt} but this build writes "
                f"v{STATE_FORMAT_VERSION}: the cuckoo fingerprint scheme "
                "changed, and resuming would mix derivations (false "
                "positives + lookup misses) — re-run from scratch")
        want = manifest.get("num_shards")
        if want is not None and want != len(self.shards):
            raise ValueError(
                f"checkpoint was written with num_frontier_shards={want} "
                f"but this run has {len(self.shards)}: resuming would "
                "drop the extra shards' state and mis-route md5(tld) "
                "ownership — resume with the original shard count")
        futures = []
        for i, shard in enumerate(self.shards):
            p = os.path.join(self.ckpt_dir, f"shard={i}", f"wave_{wave}.pkl")
            with open(p, "rb") as f:
                futures.append(shard.restore.remote(f.read()))
        ray.get(futures)
        for e in self.entries:
            e["first_schedule"] = manifest["first_schedule"].get(e["key"], 0)
        return wave + 1

    # ------------------------------------------------------------------
    def run(self, max_waves: int | None = None, on_wave_end=None) -> dict:
        """Run the wave loop until the frontier drains (or max_waves).

        Returns summary metrics.  Wave outputs land in
        ``out/extracted/wave={k}/`` and ``out/schedule/wave={k}.parquet``.
        ``on_wave_end(wave)`` (optional) fires after each wave's commit —
        the test seam for mid-run events (e.g. a rules.json edit).
        """
        import ray

        import time as _time

        s = self.settings
        max_waves = max_waves if max_waves is not None else s.max_waves
        pages_shards = self.corpus_meta.get("pages_shards", 16)
        totals: dict[str, int] = {}
        wave = self.start_wave
        prof = {} if os.environ.get("NC_PROFILE") else None

        def _tick(name, t0):
            if prof is not None:
                prof[name] = prof.get(name, 0.0) + (_time.perf_counter() - t0)
            return _time.perf_counter()

        # in-flight commit of the previous wave: {"wave", "futures",
        # "spill", "do_ckpt"} — harvested after the NEXT wave's schedule
        # RPCs are queued (they happen-after each shard's commit via
        # actor ordering), so the commit barrier overlaps the schedule
        pending: dict | None = None

        def _harvest() -> None:
            nonlocal pending
            if pending is None:
                return
            results = ray.get(pending["futures"])
            for c in results:
                for k, v in c.items():
                    totals[k] = totals.get(k, 0) + v
            if pending["spill"]:
                totals["state_spilled"] = (
                    totals.get("state_spilled", 0)
                    + sum(ray.get(pending["spill"])))
            if pending["do_ckpt"]:
                # the PREVIOUS checkpoint's files are durable now (each
                # shard joined its writer before starting this one) —
                # the manifest lags one checkpoint
                if self._last_ckpt_started is not None:
                    self._write_manifest(self._last_ckpt_started)
                    for w in list(self._fs_snapshots):
                        if w <= self._last_ckpt_started:
                            self._fs_snapshots.pop(w, None)
                self._last_ckpt_started = pending["wave"]
            pending = None

        while wave < max_waves:
            t = _time.perf_counter()
            self._maybe_reload_rules()
            # speculative (parallel-pop) scheduling is exact iff
            # politeness can never bind: total pops per wave ≤
            # Σ ceil(avg·rate) ≤ quota + #rules (the carry only
            # redistributes), so a per-host budget at/above that bound
            # — or 0, politeness off — can never defer a pop.  Any
            # binding budget keeps the leftover-chained plan.
            budget = s.politeness_per_host_per_wave
            spec_ok = (budget <= 0
                       or budget >= (s.schedule_quantity_limitation
                                     + len(self.entries)))
            scheduled = run_schedule_wave(
                wave, self.entries, self.total_rates, self.shards, s,
                backlog_len=0, submit=self._submit, resolve=self._resolve,
                submit2=self._submit2, cast=self._cast,
                speculative=spec_ok, columnar=True,
            )
            t = _tick("schedule", t)
            _harvest()
            t = _tick("harvest", t)
            if not scheduled["url"]:
                break
            version = s.wave_version(wave)
            # 'crawling' pickup marks are folded into the pop/seed RPCs
            # (frontier.push_seeds / schedule_pop) — no extra barrier here

            # schedule-order log (parity artifact + resumable output unit)
            sched_tbl = _scheduled_to_table(scheduled)
            sdir = os.path.join(self.out_dir, "schedule")
            os.makedirs(sdir, exist_ok=True)
            pq.write_table(sched_tbl, os.path.join(sdir, f"wave_{wave}.parquet"))
            t = _tick("mark+log", t)

            # ---- the wave pipeline --------------------------------------
            # Blocks are built per PAGES-SHARD (url-host hash), so each
            # fetch task reads exactly one co-partitioned pages file and
            # worker-local partition caches stay hot — arbitrary chunking
            # makes every worker page in every partition (measured: that
            # inverts scaling at high CPU counts).  Large shard groups
            # split into batch-sized sub-blocks to keep full parallelism.
            n = sched_tbl.num_rows
            import numpy as np
            import pandas as pd

            codes, uniq = pd.factorize(
                hosts_vectorized(sched_tbl.column("url").to_pandas()))
            shard_for_host = np.empty(len(uniq), dtype=np.int64)
            for hi, h in enumerate(uniq):
                v = self._host_shard_cache.get(h)
                if v is None:
                    v = self._host_shard_cache[h] = _host_shard(
                        h, pages_shards)
                shard_for_host[hi] = v
            shard_of = shard_for_host[codes]
            # stable sort by shard (ties keep seq order) — C-speed vs the
            # previous python sorted(key=tuple)
            order = np.argsort(shard_of, kind="stable")
            # shard-sorted rows are cut into ~batch-sized blocks; a cut
            # prefers a shard boundary once the block is half full, so a
            # task reads 1-2 pages partitions and blocks stay big enough
            # to amortize the frontier-push barrier per block
            sorted_tbl = sched_tbl.take(order)
            shard_sorted = shard_of[order]
            bounds: list[tuple[int, int]] = []
            i = 0
            while i < n:
                j = i
                while j < n and j - i < s.extract_batch_size:
                    if (j > i and shard_sorted[j] != shard_sorted[j - 1]
                            and j - i >= s.extract_batch_size // 2):
                        break
                    j += 1
                bounds.append((i, j))
                i = j
            t = _tick("blocks", t)
            # one broadcast of the wave table; each task slices its row
            # range zero-copy.  ONE fused task (fetch-sim + extract) per
            # block with worker-global singletons: worker processes (and
            # their pages-partition / compiled-rules caches) persist
            # across waves, and fusing halves per-block task overhead —
            # the html bytes never cross the object store between the
            # stages
            table_ref = ray.put(sorted_tbl)
            wave_path = os.path.join(self.out_dir, "extracted", f"wave={wave}")
            # a crash-resume (or rerun into the same out_dir) re-executes
            # this wave; stale part files would duplicate rows and
            # double-apply frontier feedback — clear it before writing
            shutil.rmtree(wave_path, ignore_errors=True)
            os.makedirs(wave_path, exist_ok=True)
            parts = [os.path.join(wave_path, f"part-{k:05d}.parquet")
                     for k in range(len(bounds))]
            task = _wave_task()
            block_futs = [
                task.remote(table_ref, lo, hi, part, self._wave_kw_ref)
                for (lo, hi), part in zip(bounds, parts)
            ]
            # feedback routing OVERLAPS the wave tail: each block task
            # returns its narrow feedback table; chunks of finished refs
            # go to routing tasks while stragglers still run.  The wave
            # barrier is the routing futures — their completion implies
            # every block wrote its part AND every feedback row was
            # delivered (the happens-before edge commit_wave needs).
            # fetch_local=False: the routing tasks pull the feedback
            # tables where they run; the driver never fetches them.
            route = route_refs_remote()
            route_futs = []
            pending_blocks = block_futs
            while pending_blocks:
                done, pending_blocks = ray.wait(
                    pending_blocks,
                    num_returns=min(16, len(pending_blocks)),
                    fetch_local=False)
                route_futs.append(route.remote(done, self.shards))
            t = _tick("pipeline", t)
            fb_counts = {"rows": 0, "fail": 0, "finish": 0}
            for c in ray.get(route_futs):
                for k in fb_counts:
                    fb_counts[k] += c[k]
            t = _tick("feedback", t)
            if self.plugin is not None:
                # pipeline.js:573-575 sink hook, driver-side per wave, in
                # part order (deterministic across runs)
                for part in parts:
                    self.plugin.sink_batch(pq.read_table(part))
                self.plugin.alert("crawl_finish_alert", {"wave": wave, "n": n})
                t = _tick("sink", t)

            # ---- deterministic frontier commit + checkpoint -------------
            # each shard writes its own checkpoint file (atomic) — the
            # per-partition snapshot bytes never ship through the driver.
            # SUBMIT-ONLY here: the futures are harvested after the next
            # wave's schedule RPCs are queued (which happen-after each
            # shard's commit by actor ordering) — the commit barrier
            # overlaps the next schedule instead of serializing the wave
            # loop.  Correctness is unchanged: every pop/drain/seed RPC
            # the next schedule issues runs after its shard's commit.
            do_ckpt = (wave + 1) % s.checkpoint_every == 0
            pending = {
                "wave": wave,
                "do_ckpt": do_ckpt,
                "futures": [
                    shard.commit_wave_and_checkpoint.remote(
                        version, self.ckpt_dir, wave, do_ckpt)
                    for shard in self.shards
                ],
                "spill": (
                    [sh.spill_cold_state.remote(
                        version, s.state_spill_keep_ms,
                        os.path.join(self.out_dir, "state_spill"))
                     for sh in self.shards]
                    if s.state_spill_keep_ms else []),
            }
            totals["scheduled"] = totals.get("scheduled", 0) + n
            # clocks as of the end of THIS wave (consumed by the lagged
            # manifest when this wave's checkpoint becomes durable)
            self._fs_snapshots[wave] = {
                e["key"]: e["first_schedule"] for e in self.entries}
            t = _tick("commit", t)

            # --- T7 circuit breaker (extractor.js:416-423 wave analog):
            # running counter +1 per failed attempt, -1 per success,
            # floored at 0; crossing factor×quota aborts the run with a
            # durable checkpoint (the reference process.exit(1)s; a
            # restart — here resume=True — starts the counter afresh)
            if s.to_much_fail_exit:
                self._cum_failure = max(
                    0, self._cum_failure + fb_counts["fail"] - fb_counts["finish"])
                threshold = (s.circuit_breaker_factor
                             * s.schedule_quantity_limitation)
                if self._cum_failure > threshold:
                    totals["aborted_wave"] = wave
                    totals["cumulative_failure"] = self._cum_failure
                    if self.plugin is not None:
                        self.plugin.alert(
                            "too_much_fail_abort",
                            {"wave": wave, "cum_failure": self._cum_failure})
                    wave += 1
                    break
            if on_wave_end is not None:
                # doc contract: fires after this wave's commit is applied
                _harvest()
                on_wave_end(wave)
            wave += 1

        _harvest()
        totals["waves"] = wave
        if self._last_ckpt_started is not None:
            ray.get([s_.finish_checkpoints.remote() for s_ in self.shards])
            self._write_manifest(self._last_ckpt_started)
        if prof is not None:
            from . import scheduler as _sched

            prof.update(_sched.PHASES)
            _sched.PHASES.clear()
            print("NC_PROFILE", {k: round(v, 2) for k, v in prof.items()},
                  flush=True)
            shard_perf: dict[str, float] = {}
            for p in ray.get([sh.perf_stats.remote() for sh in self.shards]):
                for k, v in p.items():
                    shard_perf[k] = shard_perf.get(k, 0.0) + v
            print("NC_PROFILE_SHARDS(sum)",
                  {k: round(v, 2) for k, v in shard_perf.items()},
                  flush=True)
        self._finalize(totals)
        return totals

    # ------------------------------------------------------------------
    def _finalize(self, totals: dict) -> None:
        import ray

        # URL-seen set (parity artifact): each shard writes its own
        # partition — at the 10^10-URL design point the driver never
        # holds (or sorts) the full set; readers treat ``url_seen/`` as a
        # parquet dataset (within-shard rows are md5-sorted)
        seen_dir = os.path.join(self.out_dir, "url_seen")
        shutil.rmtree(seen_dir, ignore_errors=True)
        os.makedirs(seen_dir, exist_ok=True)
        ray.get([s.write_seen.remote(seen_dir) for s in self.shards])
        stats = ray.get([s.stats.remote() for s in self.shards])
        with open(os.path.join(self.out_dir, "metrics.json"), "w") as f:
            json.dump({"totals": totals, "shards": stats}, f, indent=1, default=str)
