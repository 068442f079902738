"""Extract stage — vectorized rule-engine transform + frontier feedback.

:func:`extract_batch_task` (a worker-global :class:`ExtractBatch`
singleton per run) runs inside each crawl wave's block task, right after
the fetch-sim, and per Arrow batch of fetched pages:

1. decodes ``html`` per the rule's ``encoding`` (downloader.js:272-285
   charset handling, minus live headers);
2. validates (extractor.js:392-425); invalid pages exhaust the app-level
   retry budget immediately (the fetch-sim is deterministic, so the
   reference's immediate-re-emit retry loop — spider/spider.js:350-372 —
   collapses to ``retries = download_retry`` and ``crawled_failure``);
3. extracts links + drill_relation + extract_rule data
   (extractor.js:180-294) via the pure functions in
   :mod:`neocrawler_ray.functions.extract`;
4. emits discovered links as a ``feedback_json`` column riding the
   output table — routing tasks (:func:`_route_refs_task`) send them to
   their owning frontier shards (``md5(tld) % S``) as seq-tagged buffer
   rows while the wave's remaining blocks finish.  Pushing from inside
   the hot task was measured to invert scaling: every block paid a
   blocking fan-out RPC to all shards, and at 32 CPUs × 16 shards the
   barrier dominated (SURVEY.md §2.1 S10 feedback loop, re-expressed off
   the hot path);
5. returns the extracted rows (no html bytes unless the rule keeps them —
   wide binary stays out of the frontier path, SURVEY.md §7.5).

Rules are broadcast once (``ray.put`` ref resolved per worker, never
shuffled — J1 broadcast-join semantics).
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..functions.extract import decode_body, extract_page, validate_content
from ..functions.urls import url_tld
from ..pipelines.scheduler import shard_for_domain

OUT_SCHEMA = pa.schema(
    [
        ("seq", pa.int64()),
        ("wave", pa.int32()),
        ("version", pa.int64()),
        ("url", pa.string()),
        ("urllib", pa.string()),
        ("domain", pa.string()),
        ("status", pa.int32()),
        ("valid", pa.bool_()),
        ("final_state", pa.string()),
        ("retries", pa.int32()),
        ("text", pa.string()),
        ("extracted_json", pa.string()),
        ("lacks", pa.list_(pa.string())),
        ("drill_relation", pa.string()),
        ("n_links", pa.int32()),
        ("feedback_json", pa.string()),
        ("content_bin", pa.binary()),
        # S6 per-round results (phantomjs-bridge.js:157-236): round
        # number of this result row, and whether it is the url's final
        # round (only the final row carries the url's state/retry
        # transition — the frontier sees one outcome per attempt)
        ("nav_round", pa.int32()),
        ("nav_last", pa.bool_()),
    ]
)


_WORKER_EXTRACTORS: dict = {}


def extract_batch_task(batch: pa.Table, *, run_token: str, rules_ref,
                       settings, frontier_shards: list, rules_version: int = 0,
                       plugin=None) -> pa.Table:
    """Task-mode extract: worker-global singleton per run (see
    ``fetch.fetch_sim_batch`` for why tasks + a module cache beat a
    per-wave actor pool here).  ``rules_ref`` is the broadcast rules
    dict ``ObjectRef``; resolved once per worker process, and
    re-resolved when ``rules_version`` bumps (T5 wave-boundary reload —
    the driver re-broadcasts and passes a new version)."""
    import ray

    key = (run_token, rules_version)
    inst = _WORKER_EXTRACTORS.get(key)
    if inst is None:
        rules = ray.get(rules_ref) if isinstance(rules_ref, ray.ObjectRef) else rules_ref
        inst = ExtractBatch(rules, settings, frontier_shards, plugin=plugin)
        _WORKER_EXTRACTORS.clear()  # one run (and rules version) at a time
        _WORKER_EXTRACTORS[key] = inst
    return inst(batch)


class ExtractBatch:
    def __init__(self, rules: dict, settings, frontier_shards: list,
                 push_to_frontier: bool = True, plugin=None):
        self.plugin = plugin
        self.rules = rules
        self.settings = settings
        self.shards = frontier_shards
        self.num_shards = len(frontier_shards)
        self.push = push_to_frontier and self.num_shards > 0

    def _rule(self, urllib_key: str) -> dict | None:
        from ..functions.urls import parse_urllib_key

        da = parse_urllib_key(urllib_key)
        if da is None:
            return None
        return (self.rules.get(da[0]) or {}).get(da[1])

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in OUT_SCHEMA.names}

        cols = {
            c: batch.column(c).to_pylist()
            for c in ("seq", "wave", "url", "urllib", "version",
                      "drill_relation", "status", "robots_blocked")
        }
        cols["retry"] = (
            batch.column("retry").to_pylist()
            if "retry" in batch.schema.names else [0] * batch.num_rows)
        cols["nav_round"] = (
            batch.column("nav_round").to_pylist()
            if "nav_round" in batch.schema.names else [0] * batch.num_rows)
        cols["nav_last"] = (
            batch.column("nav_last").to_pylist()
            if "nav_last" in batch.schema.names else [True] * batch.num_rows)
        # html stays an Arrow array: per-row as_py() pulls one
        # page's bytes at a time instead of copying the whole batch's
        # payloads out of the object store up front
        html_col = batch.column("html")
        for i in range(batch.num_rows):
            seq = cols["seq"][i]
            url = cols["url"][i]
            urllib_key = cols["urllib"][i]
            version = cols["version"][i]
            origin_relation = cols["drill_relation"][i]
            html = html_col[i].as_py()
            status = cols["status"][i]
            blocked = cols["robots_blocked"][i]
            rule = self._rule(urllib_key) or {}
            domain = url_tld(url) or ""
            fmt = rule.get("format", "html")
            is_binary = fmt == "binary"

            valid = False
            retries = int(cols["retry"][i] or 0)
            text = ""
            extracted_json = ""
            lacks: list[str] = []
            relation = origin_relation or "*"
            n_links = 0
            content_bin = None
            links_for_shards: dict[str, list[str]] = {}

            if blocked:
                final_state = "crawled_failure"
            else:
                if status == 200 and html is not None and not is_binary:
                    content = decode_body(html, rule)
                    content_len = len(content)
                else:
                    content = html if html is not None else b""
                    content_len = len(content)
                valid = validate_content(
                    content_len, status, is_binary, content,
                    rule.get("validation_keywords"),
                )
                if not valid:
                    # T6 retryCrawl (spider/spider.js:350-372): below the
                    # limit the attempt re-enters the next wave with
                    # retry+1; at the limit the url turns crawled_failure
                    if retries < self.settings.download_retry:
                        final_state = "crawl_retry"
                    else:
                        final_state = "crawled_failure"
                else:
                    final_state = "crawled_finish"
                    if is_binary:
                        content_bin = html
                    else:
                        links_for_shards, relation, data, lacks = extract_page(
                            url, content, rule, origin_relation,
                            self.settings.keep_link_relation, self.rules,
                        )
                        text = data.get("text_main") or ""
                        extracted_json = json.dumps(
                            data, ensure_ascii=False, default=str
                        )
                        n_links = sum(len(v) for v in links_for_shards.values())
                        if rule.get("save_page"):
                            content_bin = html

            # --- frontier feedback column ------------------------------
            # gidx offset: per-round rows share a seq, so the commit
            # sort key (seq, gidx, lidx) orders round-r links after all
            # round-(r-1) links — the bridge's per-round result order
            base_g = int(cols["nav_round"][i]) * 1_000_000
            feedback = [
                [base_g + gidx, lidx, ulib, dst]
                for gidx, (ulib, links) in enumerate(links_for_shards.items())
                for lidx, dst in enumerate(links)
            ]

            out["seq"].append(seq)
            out["wave"].append(cols["wave"][i])
            out["version"].append(int(version))
            out["feedback_json"].append(
                json.dumps(feedback) if feedback else ""
            )
            out["url"].append(url)
            out["urllib"].append(urllib_key)
            out["domain"].append(domain)
            out["status"].append(status)
            out["valid"].append(valid)
            out["final_state"].append(final_state)
            out["retries"].append(retries)
            out["text"].append(text)
            out["extracted_json"].append(extracted_json)
            out["lacks"].append(lacks)
            out["drill_relation"].append(relation)
            out["n_links"].append(n_links)
            out["content_bin"].append(content_bin)
            out["nav_round"].append(int(cols["nav_round"][i]))
            out["nav_last"].append(bool(cols["nav_last"][i]))

        result = pa.Table.from_pydict(out, schema=OUT_SCHEMA)
        if self.plugin is not None:
            # spider/index.js:69-74 extract hook (per-actor plugin instance)
            result = self.plugin.extract_batch(result)
        return result


FEEDBACK_COLUMNS = ["seq", "url", "urllib", "domain", "final_state",
                    "drill_relation", "version", "retries", "feedback_json",
                    "nav_last"]


def _route_refs_task(tbl_refs: list, shards: list) -> dict:
    """One CHUNK of finished wave blocks' narrow feedback tables (plasma
    refs from the raw block tasks) → routed + delivered to the frontier
    shards.  The crawl loop hands refs over as blocks complete, so
    routing overlaps the wave's straggler tail and the driver never
    deserializes the feedback rows.  One ``buffer_results`` RPC per
    touched shard, JOINED — task completion therefore implies delivery,
    the driver's happens-before edge to ``commit_wave``.  Returns the
    row count plus the T7 circuit-breaker tallies."""
    import pyarrow.compute as pc
    import ray

    tbl = pa.concat_tables(ray.get(tbl_refs))
    buffers = route_feedback(tbl, len(shards))
    if buffers:
        ray.get([shards[sid].buffer_results.remote(rows)
                 for sid, rows in buffers.items()])
    # breaker tallies count ATTEMPTS (one per url per wave), so only the
    # final navigation-round row of each url contributes
    st = tbl.filter(tbl.column("nav_last")).column("final_state")
    n_fail = int(pc.sum(pc.cast(pc.is_in(
        st, pa.array(["crawled_failure", "crawl_retry"])), pa.int64())).as_py() or 0)
    n_ok = int(pc.sum(pc.cast(pc.equal(
        st, "crawled_finish"), pa.int64())).as_py() or 0)
    return {"rows": tbl.num_rows, "fail": n_fail, "finish": n_ok}


_ROUTE_REFS_TASK = None


def route_refs_remote():
    """Lazy ``@ray.remote`` handle for :func:`_route_refs_task`.
    ``max_retries=0``: the task pushes buffer rows to frontier shards (a
    side effect) — Ray's default silent re-execution after a worker
    death would re-deliver rows and double-apply feedback; a failure
    instead surfaces to the driver, and resuming re-runs the wave from
    the checkpoint (exactly-once at the wave level)."""
    global _ROUTE_REFS_TASK
    import ray

    if _ROUTE_REFS_TASK is None:
        _ROUTE_REFS_TASK = ray.remote(
            num_cpus=0.5, max_retries=0)(_route_refs_task)
    return _ROUTE_REFS_TASK


def route_feedback(table: pa.Table, num_shards: int) -> dict[int, list[tuple]]:
    """Wave output table → per-shard seq-tagged buffer rows (links +
    final-state transitions), ready for one ``buffer_results`` RPC per
    shard.  Driver-callable; in a crawl it runs inside the
    :func:`_route_refs_task` Ray tasks (one per chunk of finished
    blocks)."""
    shard_buffers: dict[int, list[tuple]] = {}
    cols = {c: table.column(c).to_pylist() for c in FEEDBACK_COLUMNS}
    # host/domain shard ids are md5-derived — memoize (few distinct hosts
    # per wave, tens of thousands of rows)
    dom_cache: dict[str, int] = {}

    def _dsid(domain: str) -> int:
        v = dom_cache.get(domain)
        if v is None:
            v = dom_cache[domain] = shard_for_domain(domain, num_shards)
        return v

    tld_cache: dict[str, int] = {}

    def _lsid(dst: str) -> int:
        t = url_tld(dst) or ""
        v = tld_cache.get(t)
        if v is None:
            v = tld_cache[t] = shard_for_domain(t, num_shards)
        return v

    for i in range(table.num_rows):
        seq = cols["seq"][i]
        url = cols["url"][i]
        fb = cols["feedback_json"][i]
        if fb:
            relation = cols["drill_relation"][i]
            version = cols["version"][i]
            for gidx, lidx, ulib, dst in json.loads(fb):
                shard_buffers.setdefault(_lsid(dst), []).append(
                    (seq, "link", (gidx, lidx, ulib, dst, url, relation, version))
                )
        if not cols["nav_last"][i]:
            # non-final navigation-round result: content + links only;
            # the url's state/retry transition rides the final round row
            continue
        state = cols["final_state"][i]
        if state == "crawl_retry":
            # T6: re-admit on the RULE's shard (its retry queue lives
            # with its urllib queue, keyed by the rule domain)
            ulib = cols["urllib"][i]
            from ..functions.urls import parse_urllib_key
            da = parse_urllib_key(ulib)
            rule_domain = da[0] if da else ""
            shard_buffers.setdefault(_dsid(rule_domain), []).append(
                (seq, "retry", (url, ulib, int(cols["retries"][i]) + 1))
            )
        else:
            shard_buffers.setdefault(_dsid(cols["domain"][i]), []).append(
                (seq, "state", (url, state))
            )
    return shard_buffers
