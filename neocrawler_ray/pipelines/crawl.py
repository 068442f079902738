"""Crawl job — the wave loop tying scheduler, fetch-sim, extract and the
frontier actor pool together (the new-engine lifecycle of SURVEY.md §3).

The pool: ``H = cluster CPUs`` :class:`CrawlHost` actors are the only
processes that do crawl work.  They hold the ``num_frontier_shards``
(S) logical shards — the partition count that fixes url ownership,
checkpoint files and per-shard metrics — shard ``sid`` on host
``sid % H``, and they also run the pages-partition loads — the crawl's
only read of the pages; each host's kernel parses the robots rules from
the loaded partitions — and every block.  A crawl starts no task worker:
on a host with fewer cores than Ray CPUs each worker process starts
serially (≈1.5-3 s CPU and 70-185 MB each), so every process beyond the
hosts used to add its start-up to the first waves.  Pops, commits and
reports go to the hosts that hold shards.

Each wave is one straight line — schedule → blocks → commit →
manifest — and the driver joins each step before the next::

    schedule: frontier pops in deterministic order, planned from the
      queued keys the previous commit reported, so only shards with
      work are called; the scheduler returns the wave as one Arrow
      table, whose columns but ``host`` are the wave's schedule log
      → rows stable-sorted by the pages-shard (fetch locality) of the
        url hosts the pops returned, cut into blocks at shard
        boundaries (:func:`_block_bounds`), table put once
      → block k on host k % H (CrawlHost.run_block): fused fetch-sim +
        extract on the host's kernel → its own parquet part under
        wave=k/, then the feedback rows, keyed, into this host's shards
        and one unawaited buffer call per other host with rows
      → plugin sink (if any): the driver hands each written part to
        ``sink_batch`` in part order
      → commit barrier: commit_wave (deterministic order), one call per
        shard host, run by Ray once its peers' buffer calls (its
        arguments) landed; the host checkpoints each logical shard
        inside the same call and reports the rules with queued urls or
        retries
      → manifest naming this wave

The bulk analytics/corpus pipelines remain Ray Data end to end; this
iterative loop of ~170 sub-second blocks per wave uses raw actor calls
(see :meth:`CrawlHost.run_block`), with or without a plugin (its
``download_batch``/``extract_batch`` hooks run inside the blocks).

Link discovery rides the output table as a ``feedback_json`` column;
each block sends its rows, grouped per logical shard, to the hosts that
own them, keyed ``(wave, block_lo)`` so a re-run block overwrites its
first delivery, and ``commit_wave`` applies them in deterministic seq
order — making the parallel run order-equivalent to the reference's
sequential scheduler+spider (parity target: schedule order + URL-seen
set, SURVEY.md §2.9).  Design notes measured via ``ds.stats()``/phase
timers: per-wave actor pools, per-block frontier RPC barriers, and
per-rule scheduler RPCs each dominated wall time at high CPU counts and
were restructured away (the per-host kernel, unawaited keyed
deliveries, queue-length schedule skip).

Checkpoint/resume (north_rule): after every wave each logical shard
snapshots (url state + queues + retry queues + metrics) to
``ckpt/shard={i}/wave_{k}.pkl`` before its host's commit call returns;
once every host's wave-k commit returned, the driver writes an atomic
manifest naming wave k, with the rule ``first_schedule`` clocks as of
the end of wave k.  ``resume=True`` has each host read its own shards'
files of the latest complete wave — under any host count, since the
files are per logical shard — and continues; waves already written are
skipped (their Parquet output is the resumable unit).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlSettings, RuleSet
from ..sources.pages_gen import _host_shard
from ..stages.extract_stage import ExtractBatch, route_feedback
from ..stages.fetch import (FetchSim, _hash_sorted_pages, _read_pages_table,
                            browser_rules_map, cookie_rules_map,
                            proxy_rules_map, robots_from_pages)
from ..state.frontier import (STATE_FORMAT_VERSION, FrontierHost,
                              check_state_format, host_of)
from .scheduler import run_schedule_wave


class CrawlHost(FrontierHost):
    """A :class:`FrontierHost` that also runs the crawl's work: the
    pages-partition loads and every block's fused fetch-sim + extract.
    The engine's only Ray actor class, so a crawl starts one worker
    process per host and no task worker — on a host with fewer cores
    than Ray CPUs each worker start-up is serial, and the blocks reuse
    the processes the frontier already paid for.

    Per-job inputs arrive once: ``plugin`` at construction, the peers
    and the partition refs in :meth:`join`.  The ``(FetchSim,
    ExtractBatch)`` kernel is built on the first block and dropped by
    :meth:`update_rules`, so the pages-partition cache lives for the
    whole wave loop."""

    def __init__(self, index: int, sids: list[int], rules: dict,
                 settings: CrawlSettings, corpus_dir: str,
                 pages_shards: int, plugin=None):
        super().__init__(sids, rules, settings)
        self.index = index
        self.rules, self.settings = rules, settings
        self.corpus_dir, self.pages_shards = corpus_dir, pages_shards
        self.plugin = plugin
        self.peers: list = []
        self.pages: dict = {}
        self.kernel: tuple[FetchSim, ExtractBatch] | None = None

    def load_pages(self, path: str) -> pa.Table:
        """One pages partition, hash-sorted, as this call's result: one
        shared object-store copy that every host's fetch maps
        zero-copy."""
        return _hash_sorted_pages(_read_pages_table(path))

    def join(self, peers: list[str], pages: dict) -> None:
        """Every host's actor name (``peers[h]`` is host ``h``) and
        ``pages``, ``{pages shard: load ref}`` — nested in a dict, so the
        call does not wait for them.  A handle looked up by name is
        weak: hosts holding each other's handles would keep the pool
        alive after the job dropped its own."""
        import ray

        self.peers = [ray.get_actor(name) for name in peers]
        self.pages = pages

    def update_rules(self, rules: dict) -> None:
        super().update_rules(rules)
        # the browser, proxy and cookie maps derive from the rules
        self.rules, self.kernel = rules, None

    def _kernel(self) -> tuple[FetchSim, ExtractBatch]:
        if self.kernel is None:
            import ray

            r = self.rules
            # partitions in the order pads.dataset lists their files
            # (lexicographic ``shard=`` paths), the order behind
            # build_robots_map's and the oracle's last-wins result; rows
            # within a partition come in url_hash order
            robots = robots_from_pages(
                ray.get([self.pages[p] for p in sorted(self.pages, key=str)]))
            self.kernel = (
                FetchSim(self.corpus_dir, robots,
                         self.pages_shards, plugin=self.plugin,
                         partition_refs=self.pages,
                         browser_map=browser_rules_map(r),
                         proxy_map=proxy_rules_map(r),
                         cookie_map=cookie_rules_map(r)),
                ExtractBatch(r, self.settings, [], plugin=self.plugin))
        return self.kernel

    def run_block(self, tbl, wave: int, lo: int, hi: int, part_path: str):
        """One scheduled-row range → fetch-sim → extract → its own
        parquet part; the html bytes never leave the process.  A raw
        block call replaces a per-wave Ray Data micro-pipeline: a fresh
        streaming executor + parquet sink costs a measured ~0.39 s of
        fixed spin-up per execution vs ~0.04 s for the equivalent raw
        fan-out (32 cpus, 170 blocks).  ``tbl`` is the wave table (a
        top-level ObjectRef argument, mapped zero-copy).

        The block delivers its own feedback, grouped by logical shard
        and keyed ``(wave, lo)`` so a re-run overwrites: this host's
        shards buffer their rows in-process, every other host with rows
        gets one unawaited ``buffer_results`` call (awaiting it could
        deadlock two hosts running blocks).  Returns the T7 breaker
        tallies and ``{host index: ack}``."""
        fetch, extract = self._kernel()
        out = extract(fetch(tbl.slice(lo, hi - lo)))
        pq.write_table(out, part_path)
        by_host: dict[int, dict[int, list]] = {}
        for sid, rows in route_feedback(
                out, self.settings.num_frontier_shards).items():
            by_host.setdefault(host_of(sid, len(self.peers)), {})[sid] = rows
        self.buffer_results(wave, lo, by_host.pop(self.index, {}))
        acks = {h: self.peers[h].buffer_results.remote(wave, lo, rows)
                for h, rows in by_host.items()}
        # breaker tallies count ATTEMPTS (one per url per wave), so only
        # the final navigation-round row of each url contributes
        st = out.filter(out.column("nav_last")).column(
            "final_state").to_pylist()
        return {"fail": st.count("crawled_failure") + st.count("crawl_retry"),
                "finish": st.count("crawled_finish")}, acks


def _block_bounds(shard_sorted: np.ndarray,
                  batch: int) -> list[tuple[int, int]]:
    """``[(lo, hi)]`` blocks tiling the rows of a wave sorted by pages
    shard: a block ends after ``batch`` rows, or at the first shard
    change once it holds ``batch // 2`` (at least 1), so a block reads
    1-2 pages partitions and stays big enough to amortize its call."""
    n = len(shard_sorted)
    # the shard-change indices, then n
    ends = np.append(np.flatnonzero(shard_sorted[1:] != shard_sorted[:-1])
                     + 1, n)
    bounds: list[tuple[int, int]] = []
    i = 0
    while i < n:
        k = np.searchsorted(ends, min(i + max(batch // 2, 1), n))
        j = min(i + batch, int(ends[k]))
        bounds.append((i, j))
        i = j
    return bounds


def _num_hosts() -> int:
    """H = cluster CPUs, read once per job (the test seam): every host
    runs blocks, so fewer hosts would idle CPUs, and a host beyond the
    CPU count adds no parallelism, only its start-up and memory."""
    import ray

    ray.get_runtime_context()  # starts Ray when the caller has not
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _shard_handle(host, sid: int) -> SimpleNamespace:
    """Logical shard ``sid``'s handle on its host actor, for callers that
    address shards one by one: ``handle.stats.remote()`` returns that
    shard's stats ref."""
    return SimpleNamespace(
        stats=SimpleNamespace(remote=lambda: host.stats.remote(sid)))


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
        self.entries = RuleSet(self.rules).priority_list(settings.max_weight)
        self.total_rates = sum(e["rate"] for e in self.entries)

        S = settings.num_frontier_shards
        H = _num_hosts()
        pages_shards = self.corpus_meta.get("pages_shards", 16)
        # spider_extend surface (SURVEY.md §2.10): assembly runs once on
        # the driver (spider/index.js:43); batch hooks run in the blocks
        self.plugin = plugin
        if plugin is not None:
            plugin.assembly({"corpus_dir": corpus_dir, "out_dir": out_dir})
        RemoteHost = ray.remote(CrawlHost)
        # max_restarts=0 — FAIL FAST: a restarted host would re-run
        # __init__ with empty shards and the run would continue
        # "successfully" on silently-corrupted state (missing URLs, and
        # worse, the next commit would checkpoint EMPTY snapshots past
        # the good ones); a failed block fails the run the same way.
        # Crash-recovery is the checkpoint/resume path's job
        # (resume=True restores the last durable wave).
        names = [f"crawl-host-{uuid.uuid4().hex}" for _ in range(H)]
        self.hosts = [
            RemoteHost.options(name=names[h], max_restarts=0).remote(
                h, [sid for sid in range(S) if host_of(sid, H) == h],
                self.rules, settings, corpus_dir, pages_shards, plugin)
            for h in range(H)
        ]
        # pops, commits and reports go to the hosts that hold shards
        self.shard_hosts = self.hosts[:S]
        self.shards = [_shard_handle(self.hosts[host_of(sid, H)], sid)
                       for sid in range(S)]
        # the pages loads are each host's first calls: a block's
        # blocking ray.get of a peer's load never waits behind that
        # peer's own blocks (one caller's calls run in order)
        pages = {}
        for p in range(pages_shards):
            path = os.path.join(corpus_dir, "pages", f"shard={p}",
                                "part.parquet")
            if os.path.exists(path):
                pages[p] = self.hosts[p % H].load_pages.remote(path)
        for h in self.hosts:
            h.join.remote(names, pages)

        # each logical shard's queued_keys() as its last commit or
        # restore reported it: a fresh frontier has no queued url or retry
        self._queued = [(frozenset(), frozenset())] * S
        # a resume's restore calls ({sid: queued_keys} refs), resolved
        # when run() starts — construction stays submit-only
        self._restoring: list = []
        self.start_wave = 0
        if resume:
            self.start_wave = self._restore_checkpoint()
        # T7 running ±failure counter (extractor.js:416-423 wave analog)
        self._cum_failure = 0
        # T5 hot-reload signature of rules.json
        self._rules_path = os.path.join(corpus_dir, "rules.json")
        self._rules_sig = self._rules_signature()[0]

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

    def _maybe_reload_rules(self) -> bool:
        import ray

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
        old_fs = {e["key"]: e["first_schedule"] for e in self.entries}
        self.entries = RuleSet(self.rules).priority_list(
            self.settings.max_weight)
        for e in self.entries:
            # existing rules keep their reSchedule clocks; NEW rules get
            # 0 → their seeds enter the very next wave (driller:*:updated
            # semantics, scheduler/index.js:109-117)
            e["first_schedule"] = old_fs.get(e["key"], 0)
        self.total_rates = sum(e["rate"] for e in self.entries)
        ray.get([h.update_rules.remote(self.rules) for h in self.hosts])
        return True

    # --- checkpoint -----------------------------------------------------
    @property
    def ckpt_dir(self) -> str:
        return self.settings.checkpoint_dir or os.path.join(self.out_dir, "ckpt")

    def _write_manifest(self, wave: int, first_schedule: dict) -> None:
        """Manifest written after every shard checkpoint file landed, so
        a crash mid-wave resumes from the previous complete wave.
        ``first_schedule`` holds the rule clocks as of the END of
        ``wave``."""
        manifest = {
            "last_complete_wave": wave,
            "first_schedule": first_schedule,
            "num_shards": len(self.shards),
            # shard snapshot layout version — resume refuses on
            # mismatch instead of unpickling a different layout
            "state_format": STATE_FORMAT_VERSION,
        }
        tmp = os.path.join(self.ckpt_dir, ".manifest.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.ckpt_dir, "manifest.json"))

    def _restore_checkpoint(self) -> int:
        path = os.path.join(self.ckpt_dir, "manifest.json")
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            manifest = json.load(f)
        wave = manifest["last_complete_wave"]
        check_state_format(manifest)
        want = manifest.get("num_shards")
        if want is not None and want != len(self.shards):
            raise ValueError(
                f"checkpoint was written with num_frontier_shards={want} "
                f"but this run has {len(self.shards)}: resuming would "
                "drop the extra shards' state and mis-route md5(tld) "
                "ownership — resume with the original shard count")
        # each host opens its own shards' files, as its commits wrote them
        self._restoring = [h.restore.remote(self.ckpt_dir, wave)
                           for h in self.shard_hosts]
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

        s = self.settings
        max_waves = max_waves if max_waves is not None else s.max_waves
        pages_shards = self.corpus_meta.get("pages_shards", 16)
        totals: dict[str, int] = {}
        wave = self.start_wave

        for restored in ray.get(self._restoring):
            for sid, q in restored.items():
                self._queued[sid] = q
        self._restoring = []

        while wave < max_waves:
            self._maybe_reload_rules()
            scheduled = run_schedule_wave(
                wave, self.entries, self.total_rates, self.hosts, s,
                self._queued)
            if not len(scheduled):
                break
            version = s.wave_version(wave)
            # 'crawling' pickup marks are folded into the pop/seed RPCs
            # (frontier.push_seeds / schedule_pop) — no extra barrier here

            # schedule-order log (parity artifact + resumable output unit)
            sched_tbl = scheduled.drop_columns(["host"])
            sdir = os.path.join(self.out_dir, "schedule")
            os.makedirs(sdir, exist_ok=True)
            pq.write_table(sched_tbl, os.path.join(sdir, f"wave_{wave}.parquet"))

            # ---- the wave pipeline --------------------------------------
            # Blocks are built per PAGES-SHARD (url-host hash), so each
            # block reads exactly one co-partitioned pages file and
            # host-local partition caches stay hot — arbitrary chunking
            # makes every host page in every partition (measured: that
            # inverts scaling at high CPU counts).  One _host_shard call
            # per distinct host, a stable sort by shard (ties keep seq
            # order), then the cut.
            n = sched_tbl.num_rows
            url_hosts = scheduled["host"].combine_chunks().dictionary_encode()
            shard_of = np.array(
                [_host_shard(h, pages_shards)
                 for h in url_hosts.dictionary.to_pylist()],
                dtype=np.int64)[url_hosts.indices.to_numpy()]
            order = np.argsort(shard_of, kind="stable")
            bounds = _block_bounds(shard_of[order], s.extract_batch_size)
            # one broadcast of the wave table; each block slices its row
            # range zero-copy.  ONE fused call (fetch-sim + extract) per
            # block, block k on host k % H: the host kernels (and their
            # pages-partition / compiled-rules caches) persist across
            # waves, and the html bytes never cross the object store
            # between the stages
            table_ref = ray.put(sched_tbl.take(order))
            wave_path = os.path.join(self.out_dir, "extracted", f"wave={wave}")
            # a crash-resume (or rerun into the same out_dir) re-executes
            # this wave; stale part files would duplicate rows and
            # double-apply frontier feedback — clear it before writing
            shutil.rmtree(wave_path, ignore_errors=True)
            os.makedirs(wave_path, exist_ok=True)
            parts = [os.path.join(wave_path, f"part-{k:05d}.parquet")
                     for k in range(len(bounds))]
            H = len(self.hosts)
            block_futs = [
                self.hosts[k % H].run_block.remote(table_ref, wave, lo, hi,
                                                   part)
                for k, ((lo, hi), part) in enumerate(zip(bounds, parts))
            ]
            # the driver receives tallies and ack refs, never feedback
            # rows; each host's acks from its peers become its commit's
            # arguments, and its own blocks' rows are buffered already
            done = ray.get(block_futs)
            acks = [[a[h] for _c, a in done if h in a]
                    for h in range(len(self.shard_hosts))]
            if self.plugin is not None:
                # pipeline.js:573-575 sink hook, driver-side per wave, in
                # part order (deterministic across runs)
                for part in parts:
                    self.plugin.sink_batch(pq.read_table(part))
                self.plugin.alert("crawl_finish_alert", {"wave": wave, "n": n})

            # ---- deterministic frontier commit + checkpoint -------------
            # each host writes its shards' checkpoint files (atomic
            # rename) inside its commit call — the per-partition snapshot
            # bytes never ship through the driver — and reports each
            # shard's queued keys, from which the next wave's schedule
            # is planned
            totals["scheduled"] = totals.get("scheduled", 0) + n
            do_ckpt = (wave + 1) % s.checkpoint_every == 0
            commits = [host.commit_wave_and_checkpoint.remote(
                version, self.ckpt_dir, wave, do_ckpt, *acks[h])
                for h, host in enumerate(self.shard_hosts)]
            for by_sid in ray.get(commits):
                for sid, (c, q) in by_sid.items():
                    self._queued[sid] = q
                    for k, v in c.items():
                        totals[k] = totals.get(k, 0) + v
            if do_ckpt:
                # every host renamed its shards' files into place before
                # its commit returned, so the manifest can name this
                # wave.  Its clocks are as of the end of THIS wave: a
                # later schedule's clocks would make a resumed run skip
                # reSchedules its replay must perform
                self._write_manifest(wave, {e["key"]: e["first_schedule"]
                                            for e in self.entries})

            # --- T7 circuit breaker (extractor.js:416-423 wave analog):
            # running counter +1 per failed attempt, -1 per success,
            # floored at 0; crossing factor×quota aborts the run with a
            # durable checkpoint (the reference process.exit(1)s; a
            # restart — here resume=True — starts the counter afresh)
            if s.to_much_fail_exit:
                self._cum_failure = max(0, self._cum_failure + sum(
                    c["fail"] - c["finish"] for c, _a in done))
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
                on_wave_end(wave)
            wave += 1

        totals["waves"] = wave
        self._finalize(totals)
        return totals

    # ------------------------------------------------------------------
    def _finalize(self, totals: dict) -> None:
        import ray

        # URL-seen set (parity artifact): each host writes one partition
        # per logical shard — at the 10^10-URL design point the driver
        # never holds (or sorts) the full set; readers treat
        # ``url_seen/`` as a parquet dataset (within-shard rows are
        # md5-sorted)
        seen_dir = os.path.join(self.out_dir, "url_seen")
        shutil.rmtree(seen_dir, ignore_errors=True)
        os.makedirs(seen_dir, exist_ok=True)
        ray.get([h.write_seen.remote(seen_dir) for h in self.shard_hosts])
        by_sid = {sid: st for got in ray.get(
            [h.stats.remote() for h in self.shard_hosts])
            for sid, st in got.items()}
        stats = [by_sid[sid] for sid in sorted(by_sid)]
        with open(os.path.join(self.out_dir, "metrics.json"), "w") as f:
            json.dump({"totals": totals, "shards": stats}, f, indent=1, default=str)
