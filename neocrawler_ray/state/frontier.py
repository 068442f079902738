"""Frontier shard — the stateful heart of the crawl engine.

One :class:`FrontierShard` owns every URL whose top-level-domain hashes to
it (``md5(tld) % num_shards``) — chosen so the URL-seen check, the
per-(domain,rule) queues, and per-host politeness accounting are all
shard-local (SURVEY.md §4 "work partitioning").  Because a driller rule is
keyed by its domain, each rule's urllib queue lives entirely on one shard.

The shard re-expresses, with exact per-call-site constants, the
reference's Redis-backed state machine:

- per-URL state record keyed by ``md5(url)``, one fixed shape
  ``{url, trace, referer, last, status, version, drill_relation}``
  (reference: spider/spider.js:380-460, scheduler/index.js:417-480); the
  reference's ``create`` stamp and ``records`` ring of the last 3 states
  are not kept — no policy decision reads them (SURVEY.md §1.1);
- scheduler-side admission ``checkURL`` — 60-min crawling/schedule lock,
  ``hit``/``crawled_failure`` bypass (scheduler/index.js:336-410);
- link-save admission — 10-min crawling/schedule lock, 2-day ``hit``
  lock, immediate re-admit of ``crawled_failure``, status→``hit``
  *without* touching ``last`` (spider/pipeline.js:119-193);
- FIFO/LIFO pops per rule's ``schedule_rule`` (scheduler/index.js:219-247).

Plain Python classes: :class:`FrontierHost` holds several logical shards
in one process; the crawl pipeline's ``CrawlHost`` actor extends it,
and the oracle drives it locally; both are unit-testable directly.  All timestamps are logical
epoch-millis supplied by the caller (the wave clock) — never wall clock
— so runs are deterministic and resumable.
"""

from __future__ import annotations

import pickle
from collections import deque

from ..config import CrawlSettings
from ..functions.urls import (detect_link, rule_for_urllib, transform_link,
                              url_host, url_md5, url_tld)


# Snapshot layout version, written into the checkpoint manifest; resume
# refuses any other version.  Bump whenever the dict ``snapshot()``
# pickles changes keys or value shapes.  v3 dropped the ``"seen"``
# filter table that v1/v2 snapshots carried; v4 dropped the per-URL
# ``records`` ring and ``create`` stamp.
STATE_FORMAT_VERSION = 4

# what ``drain_retries`` reads for a retried url without a record (one
# whose url no rule matches)
_NO_RECORD = {"version": 0, "referer": "", "drill_relation": "*"}


def check_state_format(manifest: dict) -> None:
    """Refuse a checkpoint whose manifest names another snapshot layout
    (a manifest without the field predates versioning: v1) — raised
    before any snapshot is unpickled or rewritten."""
    fmt = manifest.get("state_format", 1)
    if fmt != STATE_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint state_format={fmt} but this build writes "
            f"v{STATE_FORMAT_VERSION}: the frontier shard state layout "
            "changed, so its snapshots cannot be restored — re-run from "
            "scratch")


class FrontierShard:
    def __init__(self, shard_id: int, rules: dict, settings: CrawlSettings):
        self.shard_id = shard_id
        self.rules = rules
        self.settings = settings
        self.url_info: dict[str, dict] = {}
        self.queues: dict[str, deque[str]] = {}
        # T6 retry loop (spider/spider.js:350-372 retryCrawl): failed
        # attempts below download_retry re-enter the NEXT wave directly —
        # (url, retry_count) per rule, bypassing scheduler quota and
        # checkURL exactly as the reference's re-emit into the spider's
        # own download queue does
        self.retry_queues: dict[str, deque[tuple[str, int]]] = {}
        # wave link/result rows per ``(wave, block_lo)``: applied in (seq)
        # order at commit_wave — makes parallel extract order-equivalent
        # to the reference's sequential pipeline.save (SURVEY.md §7.2)
        self._buffer: dict[tuple[int, int], list[tuple]] = {}
        # per-host politeness counters of the wave clock ``_host_now``:
        # the first pop of a new wave (a new ``now``) resets them
        self._host_counts: dict[str, int] = {}
        self._host_now: int | None = None
        self.metrics: dict[str, int] = {}

    def update_rules(self, rules: dict) -> None:
        """T5 hot-reload: swap the rule snapshot (wave-boundary only —
        the shard is quiescent between commit and the next schedule)."""
        self.rules = rules

    # ------------------------------------------------------------------
    # T6 retry drain — retryCrawl re-emits into the spider's own queue
    # (spider/spider.js:350-362); the wave analog is "first in next wave"
    # ------------------------------------------------------------------
    def drain_retries(self, urllib_key: str, now: int) -> list[tuple]:
        """Pop ALL pending retries (FIFO) of one rule.  Returns its
        ``(url, version, referer, drill_relation, retry, host)`` rows,
        ``host`` being ``url_host(url) or ""``; marks each picked url
        ``crawling`` like any scheduled pickup."""
        q = self.retry_queues.get(urllib_key)
        out: list[tuple] = []
        while q:
            url, retry = q.popleft()
            kk = url_md5(url)
            info = self.url_info.get(kk, _NO_RECORD)
            out.append((url, info["version"], info["referer"],
                        info["drill_relation"], retry, url_host(url) or ""))
            self.update_link_state(url, "crawling", False, now, kk=kk)
        return out

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _bump(self, event: str, n: int = 1) -> None:
        self.metrics[event] = self.metrics.get(event, 0) + n

    # ------------------------------------------------------------------
    # updateLinkState — scheduler/index.js:417-480 & spider/spider.js:380-460
    # ------------------------------------------------------------------
    def update_link_state(self, link: str, state: str, version, now: int,
                          kk: str | None = None) -> bool:
        if kk is None:
            kk = url_md5(link)
        info = self.url_info.get(kk)
        if info is not None:
            info["last"] = now
            info["status"] = state
            if version:
                info["version"] = version
            return True
        urllib_key, _rule = detect_link(link, self.rules)
        if urllib_key is None:
            return False
        self.url_info[kk] = {
            "url": link,
            "trace": "urllib:" + urllib_key,
            "referer": "",
            "last": now,
            "status": state,
            "version": version or 0,
            "drill_relation": "*",
        }
        return True

    # ------------------------------------------------------------------
    # seed push — scheduler reSchedule path (scheduler/index.js:163-198):
    # state-stamp then straight onto the scheduled queue (bypasses checkURL)
    # ------------------------------------------------------------------
    def push_seed(self, link: str, version: int, now: int) -> bool:
        """Stamp one seed straight to ``crawling``: the reference's
        ``schedule`` stamp is overwritten by the spider-side pickup mark
        (spider/index.js:55-59) within the same wave, every scheduled url
        is picked up that wave, and ``schedule``/``crawling`` take the
        same lock branch in checkURL — so one write replaces two."""
        ok = self.update_link_state(link, "crawling", version, now)
        if ok:
            self._bump("seed_scheduled")
        return ok

    # ------------------------------------------------------------------
    # checkURL — scheduler/index.js:336-410
    # ------------------------------------------------------------------
    def _check_url(self, url: str, interval: int, now: int, _depth: int = 0):
        """Admission decision only: ``(url, record)`` of the url to
        schedule (``url`` may be its transformed form), or None.  The
        caller writes the pickup state."""
        if _depth > 4:
            return None
        info = self.url_info.get(url_md5(url))
        if info is None:
            return None  # 'not exists in urlinfo' → dropped
        rule = rule_for_urllib(self.rules, info["trace"])
        t_url = transform_link(url, rule)
        if t_url != url:
            return self._check_url(t_url, interval, now, _depth + 1)
        if rule is None:
            # stale trace repair (scheduler/index.js:355-370)
            urllib_key, _r = detect_link(url, self.rules)
            if urllib_key is None:
                return None
            info["trace"] = "urllib:" + urllib_key
            return self._check_url(url, interval, now, _depth + 1)
        status = info["status"]
        if status not in ("crawled_failure", "hit"):
            real_interval = interval * 1000
            if status in ("crawling", "schedule"):
                real_interval = self.settings.scheduler_lock_ms
            if now - info["last"] < real_interval:
                return None
        return url, info

    # ------------------------------------------------------------------
    # doScheduleExt pop loop — scheduler/index.js:205-260, plus the wave
    # re-expression of politeness (per-host budget per wave; SURVEY §2.3 T4)
    # ------------------------------------------------------------------
    def schedule_pop(self, urllib_key: str, ct: int, lifo: bool, interval: int,
                     now: int):
        """Pop up to ``ct`` admissible urls from one rule's queue.

        Returns ``(accepted, left)`` where ``accepted`` is five parallel
        column lists ``(urls, versions, referers, drill_relations,
        hosts)`` — a host is the ``url_host(url) or ""`` the politeness
        budget counts, which also picks the url's pages shard for block
        locality — and ``left`` the unmet quota carried to the next rule
        (leftover-carry parity).  The column-list shape keeps the driver's
        emit loop a plain ``list.extend`` (no per-row tuple transpose) and
        pickles as 5 primitive lists instead of O(rows) tuple objects.
        Urls failing checkURL are dropped from the queue exactly as the
        reference pops-without-requeue does.  When the head url's host has
        exhausted its politeness budget this wave, draining stops and the
        queue keeps its remaining urls (deterministic wave politeness).
        """
        q = self.queues.get(urllib_key)
        a_url: list = []
        a_ver: list = []
        a_ref: list = []
        a_rel: list = []
        a_host: list = []
        count = 0
        budget = self.settings.politeness_per_host_per_wave
        if now != self._host_now:
            self._host_counts, self._host_now = {}, now
        host_budget = self._host_counts
        while q and count < ct:
            head = q[-1] if lifo else q[0]
            if budget > 0:
                host = url_host(head) or ""
                if host_budget.get(host, 0) >= budget:
                    self._bump("politeness_deferred")
                    break
            url = q.pop() if lifo else q.popleft()
            admitted = self._check_url(url, interval, now)
            if admitted is not None:
                ok, info = admitted
                a_url.append(ok)
                a_ver.append(info["version"])
                a_ref.append(info["referer"])
                a_rel.append(info["drill_relation"])
                # the reference's ``schedule`` stamp and spider pickup
                # mark, as one write (see push_seed)
                info["last"] = now
                info["status"] = "crawling"
                count += 1
                h = url_host(ok) or ""
                a_host.append(h)
                host_budget[h] = host_budget.get(h, 0) + 1
            else:
                self._bump("check_rejected")
        left = ct - count if count < ct else 0
        return (a_url, a_ver, a_ref, a_rel, a_host), left

    def queue_len(self, urllib_key: str) -> int:
        q = self.queues.get(urllib_key)
        return len(q) if q else 0

    def total_queued(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def queued_keys(self) -> tuple[frozenset, frozenset]:
        """``(keys with queued urls, keys with queued retries)``: the
        rules a scheduler round must pop or drain on this shard.  A pop
        or drain of any other key finds an empty queue and changes no
        state."""
        return (frozenset(k for k, q in self.queues.items() if q),
                frozenset(k for k, q in self.retry_queues.items() if q))

    # ------------------------------------------------------------------
    # wave result buffering + deterministic commit
    # ------------------------------------------------------------------
    def buffer_results(self, wave: int, block_lo: int,
                       rows: list[tuple]) -> int:
        """Buffer one block's per-page wave results for this shard, keyed
        ``(wave, block_lo)``: a re-delivered block (a block run again)
        replaces its earlier rows instead of adding a second copy.

        Row: ``(seq, kind, payload)`` where kind is:
        - ``'link'``: payload = (gidx, lidx, urllib_key, dst_url, page_url,
          drill_relation, version)
        - ``'state'``: payload = (page_url, final_state)
        - ``'retry'``: payload = (page_url, urllib_key, next_retry) — a
          sub-limit failed attempt; re-enqueued for the next wave instead
          of a state write (retryCrawl semantics — a page emits either a
          state row or a retry row, never both)
        Applied in (seq, kind-order links-then-state/retry, gidx, lidx)
        order at commit_wave.
        """
        self._buffer[(wave, block_lo)] = rows
        return len(rows)

    def stale_keys(self, wave: int) -> list[tuple[int, int]]:
        """Buffer keys of any other wave than ``wave``: rows a late
        delivery (a block of a wave never committed) left behind."""
        return sorted(k for k in self._buffer if k[0] != wave)

    def commit_wave(self, now: int) -> dict:
        """Apply buffered link saves + state transitions in deterministic
        order; clears the buffer.  Returns per-event counts."""
        kind_rank = {"link": 0, "state": 1, "retry": 1}
        rows = [r for k in sorted(self._buffer) for r in self._buffer[k]]
        rows.sort(
            key=lambda r: (r[0], kind_rank[r[1]], r[2][:2] if r[1] == "link" else ())
        )
        counts = {"links_saved": 0, "links_rejected": 0, "states": 0,
                  "retries_queued": 0}
        for _seq, kind, payload in rows:
            if kind == "link":
                (_g, _l, urllib_key, dst, page_url, drill_relation, version) = payload
                if self._save_link(urllib_key, dst, page_url, drill_relation,
                                   version, now):
                    counts["links_saved"] += 1
                else:
                    counts["links_rejected"] += 1
            elif kind == "retry":
                page_url, urllib_key, next_retry = payload
                self.retry_queues.setdefault(urllib_key, deque()).append(
                    (page_url, next_retry))
                counts["retries_queued"] += 1
            else:
                page_url, final_state = payload
                self.update_link_state(page_url, final_state, False, now)
                counts["states"] += 1
        self._buffer.clear()
        for k, v in counts.items():
            self._bump(k, v)
        return counts

    # ------------------------------------------------------------------
    # save_links single-link admission — spider/pipeline.js:119-193
    # ------------------------------------------------------------------
    def _save_link(self, urllib_key: str, link: str, page_url: str,
                   drill_relation: str, version: int, now: int) -> bool:
        rule = rule_for_urllib(self.rules, urllib_key)
        if rule is None:
            return False
        final_link = transform_link(link, rule)
        kk = url_md5(final_link)
        info = self.url_info.get(kk)
        if info is not None:
            validate = True
            status = info["status"]
            if status != "crawled_failure":
                real_interval = int(rule.get("schedule_interval", 3600)) * 1000
                if status in ("crawling", "schedule"):
                    real_interval = self.settings.linksave_lock_ms
                if status == "hit":
                    real_interval = self.settings.linksave_hit_lock_ms
                if now - info["last"] < real_interval:
                    validate = False
            if validate:
                info["status"] = "hit"  # note: 'last' NOT updated (parity)
            if version > info["version"]:
                info["version"] = version
        else:
            self.url_info[kk] = {
                "url": link,  # original link (pre-transform), as in reference
                "trace": urllib_key,
                "referer": page_url,
                "last": now,
                "status": "hit",
                "version": version,
                "drill_relation": ((drill_relation or "*")
                                   if self.settings.keep_link_relation
                                   else "*"),
            }
            validate = True
        if validate:
            self.queues.setdefault(urllib_key, deque()).append(final_link)
        return validate

    # ------------------------------------------------------------------
    # introspection / reports
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "urls_seen": len(self.url_info),
            "queued": self.total_queued(),
            "queue_keys": {k: len(v) for k, v in self.queues.items() if v},
            **self.metrics,
        }

    def seen_table(self) -> list[tuple[str, str]]:
        """(url_md5, url) rows — the exact URL-seen set for parity tests."""
        return [(kk, info["url"]) for kk, info in self.url_info.items()]

    def write_seen(self, seen_dir: str) -> int:
        """Write this shard's URL-seen partition (md5-sorted) directly —
        the 10^10-URL finalize never ships seen sets through the driver."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq_

        rows = sorted(self.seen_table())
        tbl = pa.Table.from_pydict(
            {"url_md5": [r[0] for r in rows], "url": [r[1] for r in rows]},
            schema=pa.schema([("url_md5", pa.string()), ("url", pa.string())]),
        )
        os.makedirs(seen_dir, exist_ok=True)
        pq_.write_table(
            tbl, os.path.join(seen_dir, f"shard={self.shard_id}.parquet"))
        return tbl.num_rows

    # ------------------------------------------------------------------
    # checkpoint — north_rule: per-partition snapshot, exact resume
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        return pickle.dumps(
            {
                "shard_id": self.shard_id,
                "url_info": self.url_info,
                "queues": {k: list(v) for k, v in self.queues.items()},
                "retry_queues": {k: list(v)
                                 for k, v in self.retry_queues.items()},
                "metrics": self.metrics,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> tuple[frozenset, frozenset]:
        """Load a ``snapshot()``; returns ``queued_keys()`` of the
        restored state, as a commit does."""
        d = pickle.loads(blob)
        self.shard_id = d["shard_id"]
        self.url_info = d["url_info"]
        self.queues = {k: deque(v) for k, v in d["queues"].items()}
        self.retry_queues = {
            k: deque(tuple(x) for x in v)
            for k, v in d["retry_queues"].items()}
        self.metrics = d["metrics"]
        self._buffer = {}
        return self.queued_keys()


def shard_for_domain(domain: str, num_shards: int) -> int:
    """The logical shard that owns ``domain``'s urls and rule queues:
    ``md5(domain) % num_shards``."""
    return int(url_md5(domain)[:8], 16) % num_shards


def shard_for_url(url: str, num_shards: int) -> int:
    """The logical shard that owns ``url``: its top-level domain's."""
    return shard_for_domain(url_tld(url) or "", num_shards)


def host_of(sid: int, num_hosts: int) -> int:
    """Index of the :class:`FrontierHost` that holds logical shard
    ``sid`` when ``num_hosts`` hosts serve the shards."""
    return sid % num_hosts


class FrontierHost:
    """The logical shards ``sids`` in one process: the frontier half of
    the crawl pipeline's ``CrawlHost`` actor.  ``num_frontier_shards`` stays the
    logical partition count (url ownership, checkpoint files, url-seen
    files, per-shard metrics); a host only saves the per-process cost
    of an actor per shard, and turns what would be one call per shard
    in a step into one call per host.  Every method takes or returns
    per-sid payloads; cross-shard state is disjoint, so applying them
    shard by shard in argument order is what separate shard actors
    would do with the same calls."""

    def __init__(self, sids: list[int], rules: dict,
                 settings: CrawlSettings):
        self.shards = {sid: FrontierShard(sid, rules, settings)
                       for sid in sids}

    def update_rules(self, rules: dict) -> None:
        for sh in self.shards.values():
            sh.update_rules(rules)

    # --- one scheduler round: each a list of per-sid items in serve order
    def drain_retries(self, keys: list[tuple[int, str]],
                      now: int) -> list[list[tuple]]:
        """T6 retry drain of ``(sid, urllib_key)`` items: one row list
        per item (see :meth:`FrontierShard.drain_retries`)."""
        return [self.shards[sid].drain_retries(k, now) for sid, k in keys]

    def push_seeds(self, links: list[tuple[int, str]], version: int,
                   now: int) -> list[bool]:
        """Seed push of ``(sid, link)`` items, one accept flag each."""
        return [self.shards[sid].push_seed(link, version, now)
                for sid, link in links]

    def schedule_pop_run_chained(self, reqs: list[tuple], prev, now: int):
        """A run of consecutive ``schedule_pop``s on this host's shards in
        one call, chaining the leftover-carry exactly as the driver loop
        would (reqs: ``(sid, urllib_key, ct_base, lifo, interval)``).
        The incoming leftover ``prev`` is the PREVIOUS run's ``left`` —
        a plain int locally, a Ray-resolved ObjectRef when the driver
        submits the whole pop chain without joining between runs (the
        leftover scalar travels host-to-host as task-argument
        dataflow)."""
        left = int(prev)
        out = []
        for sid, urllib_key, ct_base, lifo, interval in reqs:
            accepted, left = self.shards[sid].schedule_pop(
                urllib_key, ct_base + left, lifo, interval, now)
            out.append(accepted)
        return out, left

    # --- one wave's feedback and its barrier ---------------------------
    def buffer_results(self, wave: int, block_lo: int,
                       rows: dict[int, list[tuple]]) -> int:
        """One block's feedback rows for this host's shards, ``{sid:
        rows}``, each buffered under ``(wave, block_lo)`` (see
        :meth:`FrontierShard.buffer_results`)."""
        return sum(self.shards[sid].buffer_results(wave, block_lo, r)
                   for sid, r in rows.items())

    def commit_wave_and_checkpoint(self, now: int, ckpt_dir: str,
                                   wave: int, do_ckpt: bool = True,
                                   *_acks) -> dict[int, tuple]:
        """Wave barrier with the north_rule's per-partition checkpoint
        written BY THE HOST — snapshot bytes never ship through the
        driver.  Each shard's snapshot (state is quiescent at the
        barrier) goes to ``shard={sid}/`` as a temp file that is renamed
        into place before this call returns, so a returned commit means
        the files are on disk: the driver writes the manifest for wave k
        once it has every host's result, and a manifest never names an
        unwritten file.  Single-node paths here; on a cluster the same
        call targets shared storage.  Returns ``{sid: (counts,
        queued_keys())}`` — the next scheduler round plans from the
        second.  ``_acks``: this wave's ``buffer_results`` refs, passed
        so Ray runs the commit after every delivery.  Rows buffered
        under another wave (a late delivery from a block of a
        wave never committed) raise before any shard applies anything."""
        import os

        stale = {sid: ks for sid, sh in self.shards.items()
                 if (ks := sh.stale_keys(wave))}
        if stale:
            raise RuntimeError(f"wave {wave} commit found rows buffered "
                               f"for other waves: {stale}")
        out = {}
        for sid, sh in self.shards.items():
            counts = sh.commit_wave(now)
            # do_ckpt=False is the checkpoint-cadence skip (deployment
            # knob): state still commits; resume replays the
            # uncheckpointed waves deterministically from the last
            # snapshot
            if do_ckpt:
                d = os.path.join(ckpt_dir, f"shard={sid}")
                os.makedirs(d, exist_ok=True)
                tmp = os.path.join(d, f".wave_{wave}.pkl.tmp")
                with open(tmp, "wb") as f:
                    f.write(sh.snapshot())
                os.replace(tmp, os.path.join(d, f"wave_{wave}.pkl"))
            out[sid] = counts, sh.queued_keys()
        return out

    def restore(self, ckpt_dir: str, wave: int) -> dict[int, tuple]:
        """Load every hosted shard's ``shard={sid}/wave_{wave}.pkl``
        (written by a commit, under any host count); returns ``{sid:
        queued_keys()}`` as a commit does."""
        import os

        out = {}
        for sid, sh in self.shards.items():
            p = os.path.join(ckpt_dir, f"shard={sid}", f"wave_{wave}.pkl")
            with open(p, "rb") as f:
                out[sid] = sh.restore(f.read())
        return out

    # --- end-of-run reports -------------------------------------------
    def write_seen(self, seen_dir: str) -> int:
        return sum(sh.write_seen(seen_dir) for sh in self.shards.values())

    def stats(self, sid: int | None = None):
        """Shard ``sid``'s stats, or ``{sid: stats}`` of every hosted
        shard."""
        if sid is not None:
            return self.shards[sid].stats()
        return {s: sh.stats() for s, sh in self.shards.items()}
