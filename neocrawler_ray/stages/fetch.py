"""Fetch-sim stage — :class:`FetchSim`, a callable with per-process state.

Replaces the reference's live HTTP downloader (reference:
spider/downloader.js:128-267) with deterministic lookups into the
host-partitioned pages corpus (SURVEY.md §2.4 J4): url → (html bytes,
status).  A crawl's blocks share one instance per frontier host process
(the host kernel in ``pipelines/crawl.py``, rebuilt when the rules
change), so its partition cache survives the whole wave loop;
``pipelines/debug.py`` calls it directly, without Ray.

Scale design: the corpus is laid out as ``pages/shard={md5(host)%P}``.
In a crawl run each partition is loaded ONCE cluster-wide into the Ray
object store (``CrawlHost.load_pages`` calls spread over the hosts at
job start, fetchable columns only, sorted by a ``url_hash`` uint64
column at load) and every host's fetch maps it zero-copy via
``ray.get`` — hosts share the node's single copy instead of each
parsing parquet into private heap dicts (the private-cache design measurably inverted CPU scaling: 32 workers ×
cold partition loads dominated the wave).  Lookups binary-search the
shared hash-sorted column — per worker there is NO index construction
at all (round 2 built a ``{url: row}`` Python dict per worker per
partition: O(partition) heap + rebuild CPU, the fetch stage's
scale-killer at 100-TB partitions); the html bytes stay in shared
memory.  At 100 TB the same layout holds — the object store spills cold
partitions to disk and the scheduled blocks are grouped by pages-shard
so a block touches 1-2 partitions.  Without Ray (debug mode) the stage
falls back to direct parquet reads through the same hash-sort.

Robots gating (north_rule capability; the reference has none): the
``robots.txt`` rows are parsed by :func:`robots_from_pages` — in a crawl
from the pages partitions the host kernel already loaded, without Ray
from :func:`build_robots_map`'s url-filtered scan — and urls under a
disallowed prefix (:func:`robots_blocked`) are marked ``robots_blocked``
without a fetch.

Politeness budgets are enforced upstream at schedule time (per-host
per-wave quota in the frontier shard — the deterministic wave-model
re-expression of ``spider_request_delay`` + per-host serialization,
SURVEY.md §2.3 T4); the fetch stage records a simulated cost metric only.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.urls import url_host
from ..sources.pages_gen import _host_shard

# ---------------------------------------------------------------------------
# Browser-downloader path (S6) — reference spider/downloader.js:312-437
# spawns phantomjs per jshandle url; lib/phantomjs/phantomjs-bridge.js:115-236
# renders the DOM, then clicks the element matching ``navigate_rule[i]`` up
# to ``stoppage - 1`` times, emitting a crawled result (content + links)
# after every round.  The fetch-sim analog: the corpus carries the final
# browser-rendered DOM in ``html_rendered``; content a click round would
# reveal sits in ``<div class="jsnav" data-step="N">`` blocks, and the
# engine keeps exactly the blocks whose step is within the rule's click
# budget — so navigate_rule/stoppage drive link discovery observably,
# without a JS engine.
# ---------------------------------------------------------------------------

# CONTRACT: a jsnav/jsinject block must not contain a nested ``</div>`` —
# the non-greedy ``.*?</div>`` stops at the FIRST close tag, so nesting
# would truncate the match (stripping only the block's prefix and leaving
# over-budget content + dangling markup visible).  The corpus generator
# upholds this by emitting exactly one flat ``<a>`` per block
# (sources/pages_gen.py); keep that invariant there, or switch both
# sides to a sentinel close marker (e.g. ``<!--/jsnav-->``).
_JSNAV_RE = re.compile(rb'<div class="jsnav" data-step="(\d+)">.*?</div>',
                       re.S)
# injected-script content (reference README.md:181-195 jshandle `script`
# hook: custom JS injected into the page before navigation): the corpus
# marks script-revealed content with the md5-prefix of the EXPECTED
# script, and the engine keeps the block only when the rule's script
# hashes to the same key — so a missing/changed script is observable
_JSINJECT_RE = re.compile(
    rb'<div class="jsinject" data-key="([0-9a-f]{8})">.*?</div>', re.S)

# cookie gate (M15 made observable — reference downloader.js:117-123
# sends the rule's cookies with the request): a corpus page whose body
# starts with ``<!--require-cookie:k=v-->`` is served only to rules whose
# cookie header carries that exact pair; otherwise the "server" answers
# with a login stub (status 200, <500 bytes → fails validateContent)
COOKIE_MARKER = b"<!--require-cookie:"
LOGIN_STUB = b'<html><body><div id="login">login required</div></body></html>'


def rule_script_key(rule: dict) -> str | None:
    """md5-prefix key of a jshandle rule's injected ``script`` — the
    corpus-model handle for 'this exact script ran in the page'."""
    script = rule.get("script") or ""
    if not script:
        return None
    return hashlib.md5(script.encode()).hexdigest()[:8]


def rule_cookie_header(rule: dict) -> str:
    """The rule's cookies as the ``k=v;k=v`` request header string
    (downloader.js:117-123 via functions.urls.trans_cookie_kv_pair)."""
    from ..functions.urls import trans_cookie_kv_pair

    return trans_cookie_kv_pair(rule.get("cookie") or None)


def apply_cookie_gate(body: bytes | None, cookie_header: str) -> bytes | None:
    """Serve ``body`` only if its require-cookie marker (when present)
    is satisfied by the request's cookie header; else the login stub."""
    if body is None or not body.startswith(COOKIE_MARKER):
        return body
    end = body.find(b"-->")
    if end < 0:
        return body
    required = body[len(COOKIE_MARKER):end].decode("utf-8", "replace")
    sent = set((cookie_header or "").split(";"))
    return body if required in sent else LOGIN_STUB


def cookie_rules_map(rules: dict) -> dict[str, str]:
    """{urllib key: cookie header} for rules that declare cookies —
    tiny, derived from the rules like the browser/proxy maps."""
    out: dict[str, str] = {}
    for domain, drillers in (rules or {}).items():
        for alias, r in (drillers or {}).items():
            if isinstance(r, dict) and r.get("cookie"):
                out[f"urllib:driller:{domain}:{alias}"] = rule_cookie_header(r)
    return out


def navigate_steps(rule: dict) -> int:
    """Click rounds a jshandle rule performs: phantomjs-bridge.js:172 runs
    a navigation round while ``drill_count < stoppage-1`` and
    ``navigate_rule`` is non-empty (stoppage defaults to -1 → none,
    webconfig/controllers/rule.js:29-30)."""
    nav = rule.get("navigate_rule") or []
    if isinstance(nav, str):
        nav = [nav]
    if not any(nav):
        return 0
    return max(0, int(rule.get("stoppage", -1)) - 1)


def browser_rules_map(rules: dict) -> dict[str, tuple[int, str | None]]:
    """{urllib key: (allowed navigate steps, script key)} for every
    ``jshandle`` rule — the downloader's dispatch table
    (downloader.js:113: ``if urlinfo['jshandle'] browseIt``), tiny and
    built from the rules each fetch worker resolves."""
    out: dict[str, tuple[int, str | None]] = {}
    for domain, drillers in (rules or {}).items():
        for alias, r in (drillers or {}).items():
            if isinstance(r, dict) and r.get("jshandle"):
                # scheduled rows carry 'urllib:driller:domain:alias'
                # (state/frontier.py trace format)
                out[f"urllib:driller:{domain}:{alias}"] = (
                    navigate_steps(r), rule_script_key(r))
    return out


# ---------------------------------------------------------------------------
# Proxy-router model (T8/J5) — reference proxyrouter/index.js:62-141 keeps
# a per-domain cache of voted proxies; a proxy that fails a domain is voted
# out (`__voteProxy(domain, ip, false)`) and the next attempt draws a fresh
# one from the pool.  There is no live network here, so the OBSERVABLE
# effect is what's modeled: a rule with ``use_proxy``
# (downloader.js:319-322) draws a virtual proxy from a small pool keyed by
# (url, attempt); the pool's one bad slot yields a transport failure
# (status 503) that the T6 retry loop re-draws past on the next wave with
# retry+1 — the vote-out-and-redraw cycle, fully deterministic so the
# sequential oracle reproduces it.
# ---------------------------------------------------------------------------

PROXY_POOL = 8  # virtual pool size; slot 0 is the "bad" proxy


def proxy_rules_map(rules: dict) -> frozenset[str]:
    """urllib keys of rules routed through the simulated proxy pool."""
    return frozenset(
        f"urllib:driller:{domain}:{alias}"
        for domain, drillers in (rules or {}).items()
        for alias, r in (drillers or {}).items()
        if isinstance(r, dict) and r.get("use_proxy")
    )


def proxy_fetch_failed(url: str, retry: int) -> bool:
    """True when attempt ``retry`` of ``url`` draws the bad proxy slot."""
    h = hashlib.md5(f"{url}#proxy#{retry}".encode()).digest()
    return h[0] % PROXY_POOL == 0


def apply_browser(raw: bytes | None, rendered: bytes | None,
                  allowed_steps: int,
                  script_key: str | None = None) -> bytes | None:
    """Serve the browser-rendered DOM for a jshandle fetch, keeping only
    the click-revealed ``jsnav`` blocks within the rule's navigation
    budget and the ``jsinject`` blocks whose data-key matches the rule's
    injected-script hash (README.md:181-195 `script` hook — injected JS
    runs at page load, so its blocks are step-independent).  ``rendered
    is None`` (non-browser corpus rows, binaries) falls back to the raw
    body — mirroring phantomjs handing back ``page.content`` only when
    the render succeeded.

    A cookie-gated fetch (``raw`` is the login stub) never reaches the
    rendered DOM: the server answered with the login page, so that is
    what the browser renders — without this check a rule combining
    ``cookie`` and ``jshandle`` would serve the logged-in DOM to a
    fetch that failed the cookie gate."""
    if rendered is None or raw == LOGIN_STUB:
        return raw

    def _keep(m: "re.Match[bytes]") -> bytes:
        return (m.group(0)
                if allowed_steps > 0 and int(m.group(1)) <= allowed_steps
                else b"")

    out = _JSNAV_RE.sub(_keep, rendered)
    sk = (script_key or "").encode()

    def _keep_inject(m: "re.Match[bytes]") -> bytes:
        return m.group(0) if m.group(1) == sk else b""

    return _JSINJECT_RE.sub(_keep_inject, out)


def parse_robots(robots_bytes: bytes) -> list[str]:
    """Disallow prefixes for ``User-agent: *`` (minimal public-spec parse)."""
    disallow: list[str] = []
    applies = False
    for raw in robots_bytes.decode("utf-8", "replace").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            applies = val == "*"
        elif key == "disallow" and applies and val:
            disallow.append(val)
    return disallow


def robots_blocked(robots: dict[str, list[str]], url: str,
                   host: str) -> bool:
    """Whether ``url``, whose ``url_host`` is ``host``, falls under one
    of ``robots[host]``'s disallow prefixes.  The prefixes match what
    follows the url's netloc (its first ``/``, ``?`` or ``#`` after
    ``//``), so case, port and userinfo variants of a netloc, which
    ``url_host`` keys to one host, get one answer."""
    prefixes = robots.get(host)
    if not prefixes:
        return False
    rest = url.partition("//")[2]
    cut = min((i for i in map(rest.find, "/?#") if i >= 0),
              default=len(rest))
    return rest[cut:].startswith(tuple(prefixes))


def robots_from_pages(tables: list[pa.Table]) -> dict[str, list[str]]:
    """``{url_host: [disallow prefix]}`` from the ``robots.txt`` rows of
    pages tables (``url`` and ``html`` columns), visited in the given
    table and row order: when two rows share a url_host (netlocs that
    differ in case or port), the last one wins.  Only a url ending in
    ``/robots.txt`` counts — a page like ``/archive/robots.txt.html``
    never overwrites a host's real robots (oracle.py uses endswith too)."""
    import pyarrow.compute as pc

    out: dict[str, list[str]] = {}
    for tbl in tables:
        rows = tbl.filter(pc.ends_with(tbl.column("url"), "/robots.txt"))
        for url, html in zip(rows.column("url").to_pylist(),
                             rows.column("html").to_pylist()):
            host = url_host(url)
            if host:
                out[host] = parse_robots(html)
    return out


def build_robots_map(corpus_dir: str) -> dict[str, list[str]]:
    """:func:`robots_from_pages` over a scan of the rows whose url
    contains ``/robots.txt``, partitions in the dataset's file order."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    ds = pads.dataset(os.path.join(corpus_dir, "pages"))
    return robots_from_pages([ds.to_table(
        columns=["url", "html"],
        filter=pc.match_substring(pc.field("url"), "/robots.txt"))])


PAGES_COLUMNS = ["url", "html", "html_rendered"]


def _read_pages_table(path: str) -> pa.Table:
    """Read a pages partition's fetchable columns; corpora written before
    the browser path gained ``html_rendered`` get an all-null column so
    every partition has one shape."""
    names = set(pq.read_schema(path).names)
    tbl = pq.read_table(path, columns=[c for c in PAGES_COLUMNS if c in names])
    if "html_rendered" not in tbl.schema.names:
        tbl = tbl.append_column(
            "html_rendered", pa.nulls(tbl.num_rows, pa.binary()))
    return tbl


def _hash_sorted_pages(tbl: pa.Table) -> pa.Table:
    """(url, html) table → combined-chunk table sorted by a ``url_hash``
    uint64 column (md5 prefix).  Sorting by hash at LOAD time is what
    lets every fetch worker do point lookups by binary search on the
    shared zero-copy hash column — no per-worker ``{url: row}`` Python
    dict (the round-2 scale-killer: O(partition) heap + rebuild CPU per
    worker × partition)."""
    import numpy as np

    urls = tbl.column("url").to_pylist()
    h = np.fromiter(
        (int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big")
         for u in urls),
        dtype=np.uint64, count=len(urls))
    tbl = tbl.append_column("url_hash", pa.array(h, pa.uint64()))
    return tbl.sort_by("url_hash").combine_chunks()


class FetchSim:
    """url → (html, status) point lookups with robots gating."""

    def __init__(self, corpus_dir: str, robots_map: dict[str, list[str]],
                 pages_shards: int, cache_partitions: int = 16, plugin=None,
                 partition_refs=None,
                 browser_map: "dict[str, tuple[int, str | None]] | None" = None,
                 proxy_map: frozenset[str] | None = None,
                 cookie_map: dict[str, str] | None = None):
        self.corpus_dir = corpus_dir
        self.pages_shards = pages_shards
        self.robots = robots_map
        self.cache_partitions = cache_partitions
        self.partition_refs = partition_refs or {}
        # urllib key → (allowed navigate steps, script key) for jshandle
        # rules (S6 browser dispatch, downloader.js:113); empty → plain
        self.browser_map = browser_map or {}
        # urllib keys routed through the simulated proxy pool (T8/J5)
        self.proxy_map = proxy_map or frozenset()
        # urllib key → cookie header (M15 gate, downloader.js:117-123)
        self.cookie_map = cookie_map or {}
        # shard → (url StringArray, html BinaryArray, html_rendered
        # BinaryArray, url_hash ndarray) —
        # ALL views into the shared object-store copy (the uint64 hash
        # column is zero-copy via to_numpy); lookups binary-search the
        # hash-sorted column, so no per-worker index of any kind
        self._cache: OrderedDict[int, tuple] = OrderedDict()
        self.plugin = plugin

    # -- partition cache ------------------------------------------------
    def _partition(self, shard: int) -> tuple:
        part = self._cache.get(shard)
        if part is not None:
            self._cache.move_to_end(shard)
            return part
        ref = self.partition_refs.get(shard)
        if ref is not None:
            import ray

            tbl = ray.get(ref)  # zero-copy map of the shared copy
        else:
            path = os.path.join(self.corpus_dir, "pages",
                                f"shard={shard}", "part.parquet")
            tbl = _hash_sorted_pages(
                _read_pages_table(path)
                if os.path.exists(path)
                else pa.table({"url": pa.array([], pa.string()),
                               "html": pa.array([], pa.binary()),
                               "html_rendered": pa.array([], pa.binary())}))
        hashes = tbl.column("url_hash").combine_chunks().to_numpy()
        part = (tbl.column("url"), tbl.column("html"),
                tbl.column("html_rendered"), hashes)
        self._cache[shard] = part
        while len(self._cache) > self.cache_partitions:
            self._cache.popitem(last=False)
        return part

    @staticmethod
    def _lookup_row(urls_col, hashes, url: str) -> int | None:
        """Row index of ``url`` via binary search on the hash-sorted
        shared column; equal-hash runs (md5-64 collisions) are resolved
        by comparing the actual url strings."""
        import numpy as np

        qh = int.from_bytes(hashlib.md5(url.encode()).digest()[:8], "big")
        i = int(np.searchsorted(hashes, np.uint64(qh)))
        n = len(hashes)
        while i < n and hashes[i] == qh:
            if urls_col[i].as_py() == url:
                return i
            i += 1
        return None

    # -- per batch ------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized point-lookup fetch: one md5-digest sweep for the
        batch, then per pages-shard ONE ``np.searchsorted`` + ONE Arrow
        ``take`` for candidate-url confirmation and ONE ``take`` for the
        bodies — no per-row md5/searchsorted/as_py in the hot path (the
        round-3 review's per-row loop).  Per-row Python survives only
        where it's intrinsic: robots prefix checks, the rare proxy/
        jshandle rows, and md5-64 collision run-walks (~never)."""
        import numpy as np

        if self.plugin is not None:
            # downloader.js:294-306: plugin download replaces the built-in
            # downloader; None falls through (cb(null, null) semantics)
            res = self.plugin.download_batch(batch)
            if res is not None:
                return res
        urls: list[str] = batch.column("url").to_pylist()
        n = len(urls)
        htmls: list[bytes | None] = [None] * n
        statuses = np.full(n, 404, dtype=np.int32)
        blocked_flags = np.zeros(n, dtype=bool)
        # S6 per-round emission (phantomjs-bridge.js:157-236: a full
        # crawled result after EVERY navigation round): a jshandle rule
        # with stoppage s yields rows for rounds 0..s-1 — extras holds
        # the non-final rounds, nav_round_arr the final round number
        nav_round_arr = np.zeros(n, dtype=np.int32)
        extras: list[tuple[int, int, bytes | None]] = []
        # jshandle/proxy dispatch needs the scheduled row's rule key;
        # plain batches (no such rules, or no urllib column) skip it
        has_ulib = "urllib" in batch.schema.names
        ulibs = (
            batch.column("urllib").to_pylist()
            if (self.browser_map or self.proxy_map or self.cookie_map)
            and has_ulib else None)
        retries = (
            batch.column("retry").to_pylist()
            if self.proxy_map and "retry" in batch.schema.names
            else None)

        hosts = [url_host(u) or "" for u in urls]
        shard_of_host: dict[str, int] = {}  # hosts repeat within a batch
        pending: list[int] = []
        shard_ids = np.empty(n, dtype=np.int64)
        for i, url in enumerate(urls):
            host = hosts[i]
            if robots_blocked(self.robots, url, host):
                statuses[i] = 999
                blocked_flags[i] = True
                continue
            if (ulibs is not None and ulibs[i] in self.proxy_map
                    and proxy_fetch_failed(
                        url, int(retries[i] or 0) if retries else 0)):
                # bad proxy slot → transport failure; the retry loop
                # re-draws next wave (proxyrouter vote-out semantics)
                statuses[i] = 503
                continue
            s = shard_of_host.get(host)
            if s is None:
                s = shard_of_host[host] = _host_shard(
                    host, self.pages_shards)
            shard_ids[i] = s
            pending.append(i)

        if pending:
            pend = np.asarray(pending, dtype=np.int64)
            qh = np.fromiter(
                (int.from_bytes(
                    hashlib.md5(urls[i].encode()).digest()[:8], "big")
                 for i in pend),
                dtype=np.uint64, count=len(pend))
            pend_shards = shard_ids[pend]
            for s in np.unique(pend_shards):
                grp = pend_shards == s
                bidx = pend[grp]          # batch row indices in this shard
                q = qh[grp]
                urls_col, htmls_col, rendered_col, hashes = (
                    self._partition(int(s)))
                npart = len(hashes)
                pos = np.searchsorted(hashes, q)
                ok = pos < npart
                ok[ok] = hashes[pos[ok]] == q[ok]
                if not ok.any():
                    continue
                cand_pos = pos[ok]
                cand_bidx = bidx[ok]
                cand_urls = urls_col.take(
                    pa.array(cand_pos, pa.int64())).to_pylist()
                # confirm string equality; md5-64 collisions fall back to
                # the per-row equal-hash run walk (effectively never)
                rows = np.empty(len(cand_pos), dtype=np.int64)
                keep = np.ones(len(cand_pos), dtype=bool)
                for j, (bi, r, cu) in enumerate(
                        zip(cand_bidx, cand_pos, cand_urls)):
                    if cu == urls[bi]:
                        rows[j] = r
                    else:
                        r2 = self._lookup_row(urls_col, hashes, urls[bi])
                        if r2 is None:
                            keep[j] = False
                        else:
                            rows[j] = r2
                rows, cand_bidx = rows[keep], cand_bidx[keep]
                if not len(rows):
                    continue
                bodies = htmls_col.take(
                    pa.array(rows, pa.int64())).to_pylist()
                statuses[cand_bidx] = 200
                if ulibs is None:
                    for bi, body in zip(cand_bidx, bodies):
                        htmls[bi] = apply_cookie_gate(body, "")
                else:
                    for j, (bi, body) in enumerate(zip(cand_bidx, bodies)):
                        body = apply_cookie_gate(
                            body, self.cookie_map.get(ulibs[bi], ""))
                        bm = self.browser_map.get(ulibs[bi])
                        if bm is not None:  # jshandle → browser path
                            steps, skey = bm
                            rend = rendered_col[int(rows[j])].as_py()
                            if (steps > 0 and rend is not None
                                    and body != LOGIN_STUB):
                                # a gated fetch renders the login page:
                                # no click rounds, no per-round rows
                                # one result per navigation round, the
                                # round-r DOM gated at step ≤ r
                                for r in range(steps):
                                    extras.append(
                                        (bi, r, apply_browser(
                                            body, rend, r, skey)))
                                nav_round_arr[bi] = steps
                            body = apply_browser(body, rend, steps, skey)
                        htmls[bi] = body
        # row expansion: keep input order, rounds ascending, final last
        from collections import defaultdict

        by_b: dict[int, list[tuple[int, bytes | None]]] = defaultdict(list)
        for bi, r, body in sorted(extras, key=lambda x: (x[0], x[1])):
            by_b[bi].append((r, body))
        out_idx: list[int] = []
        out_html: list[bytes | None] = []
        out_round: list[int] = []
        out_last: list[bool] = []
        for i in range(n):
            for r, body in by_b.get(i, ()):
                out_idx.append(i)
                out_html.append(body)
                out_round.append(r)
                out_last.append(False)
            out_idx.append(i)
            out_html.append(htmls[i])
            out_round.append(int(nav_round_arr[i]))
            out_last.append(True)
        idx = np.asarray(out_idx, dtype=np.int64)
        return (
            batch.take(pa.array(idx, pa.int64()))
            .append_column("html", pa.array(out_html, pa.binary()))
            .append_column("status", pa.array(statuses[idx], pa.int32()))
            .append_column(
                "robots_blocked", pa.array(blocked_flags[idx], pa.bool_()))
            .append_column("nav_round", pa.array(out_round, pa.int32()))
            .append_column("nav_last", pa.array(out_last, pa.bool_()))
        )
