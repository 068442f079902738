"""Property-based tests (hypothesis) for the pure kernels: URL
functions, dedup sketches, union-find — the invariants the distributed
pipelines rely on regardless of input shape."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from neocrawler_ray.functions import dedup as dd
from neocrawler_ray.functions import text_stats as ts
from neocrawler_ray.functions.urls import (
    expand_seed,
    transform_link,
    url_host,
    url_md5,
    url_tld,
)
from test_frontier import _ROW, RULES  # shard rows of random kinds

words = st.text(alphabet="abcdefghij ", min_size=0, max_size=200)
hostnames = st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){1,3}", fullmatch=True)


@given(hostnames, st.text(alphabet="abc/0123456789._-", max_size=30))
@settings(max_examples=100, deadline=None)
def test_url_functions_total(host, path):
    url = f"http://{host}/{path}"
    assert url_host(url) == host
    tld = url_tld(url)
    assert tld and host.endswith(tld)
    assert len(url_md5(url)) == 32


@given(words)
@settings(max_examples=100, deadline=None)
def test_minhash_identity_and_range(text):
    sig = dd.minhash_signature(text)
    assert len(sig) == dd.MINHASH_PERMS
    assert dd.estimate_jaccard(sig, sig) == 1.0
    h = dd.simhash64(text)
    assert 0 <= h < 1 << 64


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_connected_components_invariants(pairs):
    comp = dd.connected_components(pairs)
    for a, b in pairs:
        assert comp[a] == comp[b]          # endpoints co-clustered
    for node, rep in comp.items():
        assert rep <= node                  # representative is min id
        assert comp[rep] == rep             # representatives are roots


@given(words)
@settings(max_examples=60, deadline=None)
def test_text_stats_consistency(text):
    import pandas as pd

    frame = ts.text_stats_frame(pd.Series([text]))
    row = frame.iloc[0]
    assert row["n_chars"] == len(text)
    assert row["n_tokens"] == len(text.split())
    assert row["n_stopwords"] <= row["n_tokens"]
    fp = ts.simplefp(pd.Series([text])).iloc[0]
    assert len(fp) == 32


@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_expand_seed_range(lo, hi, step):
    seed = f"http://h.example/p#?id=#{lo}#{hi}#{step}"
    out = expand_seed(seed)
    if lo > hi:
        assert out == [] or len(out) <= 1
    else:
        assert len(out) == len(range(lo, hi + 1, step))


@given(hostnames)
@settings(max_examples=50, deadline=None)
def test_transform_link_idempotent(host):
    rule = {"id_parameter": ["id"]}
    url = f"http://{host}/x.html?b=2&id=9&a=1"
    once = transform_link(url, rule)
    assert transform_link(once, rule) == once  # canonicalization idempotent
    assert "id=9" in once and "a=1" not in once


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_doc_chunk_math_covers_tokens_exactly(n_tokens):
    """Chunk windows tile [0, n): the last chunk ends exactly at
    n_tokens, non-last chunks are full windows, strides overlap by
    window-stride."""
    from neocrawler_ray.pipelines.corpus_ops import (CHUNK_STRIDE,
                                                     CHUNK_WINDOW)
    import math

    n_chunks = (1 if n_tokens <= CHUNK_WINDOW
                else 1 + math.ceil((n_tokens - CHUNK_WINDOW) / CHUNK_STRIDE))
    sizes = [min(CHUNK_WINDOW, n_tokens - i * CHUNK_STRIDE)
             for i in range(n_chunks)]
    assert all(s > 0 for s in sizes[1:])
    if n_tokens > 0:
        # last chunk ends exactly at n_tokens
        assert (n_chunks - 1) * CHUNK_STRIDE + sizes[-1] == n_tokens \
            or n_tokens <= CHUNK_WINDOW
    assert all(s == CHUNK_WINDOW for s in sizes[:-1])


@given(st.integers(-3, 6), st.integers(-8, 8), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_nth_child_an_b_matches_bruteforce(a, b, idx):
    from neocrawler_ray.functions.dom import _nth_matches

    brute = any(a * n + b == idx for n in range(0, 200))
    if a == 0:
        brute = (b == idx)
    assert _nth_matches(a, b, idx) == brute


# random markup over the tokenizer's edge cases: bare '<', entities next
# to '<', raw-text elements, unclosed, uppercase and orphan end tags,
# uppercase names, void and self-closing tags, repeated classes
_html_attrs = st.lists(st.sampled_from([
    ' class="a"', ' class="b a"', " class='a a c'", ' id="x"', " ID=y",
    ' href="/u?a=1&amp;b=2"', " data-k", ' data-v="1"', " HREF=z"]),
    max_size=3).map("".join)
_html_leaf = st.one_of(
    st.sampled_from(["x", "a b", " < ", "<", "&amp;", "&lt;", "&lt<",
                     "&amp<b", "&#60;", "1 &", "<!-- c -->", "&copy;", "ü",
                     "</p>", "</li>", "<!DOCTYPE html>"]),
    st.text(alphabet="ab <>&;#/", max_size=6),
    st.builds(lambda t, a, slash: f"<{t}{a}{slash}>",
              st.sampled_from(["br", "img", "input", "div", "span"]),
              _html_attrs, st.sampled_from(["", "/", " /"])),
    st.builds(lambda t, body, closed: f"<{t}>{body}" + (f"</{t}>" * closed),
              st.sampled_from(["script", "style", "title", "textarea"]),
              st.sampled_from(["a < b", "</div>", "<b>x</b>", "&amp;", ""]),
              st.sampled_from([True, True, True, False])),
)
_html_doc = st.lists(st.recursive(_html_leaf, lambda kids: st.builds(
    lambda t, a, body, end: f"<{t}{a}>{''.join(body)}" + {
        "close": f"</{t}>", "upper": f"</{t.upper()}>", "open": ""}[end],
    st.sampled_from(["div", "p", "span", "a", "li", "ul", "DIV", "Span"]),
    _html_attrs, st.lists(kids, max_size=4),
    st.sampled_from(["close", "close", "close", "upper", "open"])),
    max_leaves=30), max_size=4).map("".join)

_compound = st.builds(
    lambda tag, quals, nth: tag + "".join(quals) + nth,
    st.sampled_from(["", "div", "span", "li", "p", "a", "*", "DIV"]),
    st.lists(st.sampled_from([".a", ".b", ".c", "#x", "#y", "[data-k]",
                              "[data-v=1]", "[href]"]), max_size=1),
    st.sampled_from(["", "", "", "", ":first-child", ":last-child",
                     ":nth-child(odd)", ":nth-child(2n+1)", ":nth-child(2)",
                     ":nth-child(-n+2)"]),
).filter(bool)
_group = st.builds(
    lambda first, rest, set_pseudo: first + "".join(
        f"{comb}{c}" for comb, c in rest) + set_pseudo,
    _compound,
    st.lists(st.tuples(st.sampled_from([" ", " > ", "+", " ~ "]), _compound),
             max_size=2),
    st.sampled_from(["", "", "", "", "", ":first", ":last", ":eq(1)",
                     ":eq(-1)"]),
)
_selector = st.lists(_group, min_size=1, max_size=3).map(", ".join)


@given(_html_doc, _selector, _selector)
@settings(max_examples=400, deadline=None)
@example("<p class='a a'>x</p>", ".a", "*")    # class listed twice
@example("<p>x</p><div><p>y</p></div>", "* > p", "*")  # #root is no parent
@example("<div><p><b>x</b></p></div>", "div b", "div b")  # element 1
@example("<ul><li>a</li><li class=b>b</li><li>c</li></ul>",
         "li.b + li", "li ~ li.b")  # sibling combinators
def test_flat_dom_css_find_matches_reference_tree(html, sel, sub_sel):
    """The flat DOM and the reference Node tree hold the same elements
    for the same markup and give the same css_find hits (positions,
    name, attrs, text, inner html), from the document and from every
    element as extract_data's ``subset`` rules search a hit."""
    from dom_reference import css_find as tree_find
    from dom_reference import parse_tree

    from neocrawler_ray.functions.dom import css_find, parse_html

    flat, ref = parse_html(html), parse_tree(html)
    assert (flat.text(), flat.html()) == (ref.text(), ref.html())
    order = {id(n): k + 1 for k, n in enumerate(ref.iter_descendants())}

    def same(got, want):
        assert [e.i for e in got] == [order[id(n)] for n in want]
        for e, n in zip(got, want):
            assert (e.name, e.attrs, e.text(), e.html()) == (
                n.name, n.attrs, n.text(), n.html())
            assert [e.attr(k) for k in ("class", "id", "href")] == [
                n.attr(k) for k in ("class", "id", "href")]

    same(list(flat.iter_descendants()), list(ref.iter_descendants()))
    same(css_find(flat, sel), tree_find(ref, sel))
    for e, n in zip(flat.iter_descendants(), ref.iter_descendants()):
        same(e.find(sub_sel), tree_find(n, sub_sel))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_union_find_reps_are_component_minima(pairs):
    from neocrawler_ray.functions.dedup import connected_components

    comp = connected_components(pairs)
    for x, rep in comp.items():
        assert rep <= x
        assert comp[rep] == rep  # representative is a fixpoint


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=64))
def test_popcount64_matches_bin_count(vals):
    import numpy as np

    from neocrawler_ray.functions import dedup as dd

    arr = np.array(vals, dtype=np.uint64)
    got = dd.popcount64(arr)
    assert got.tolist() == [bin(v).count("1") for v in vals]


# --- pruned vs unpruned scheduling equivalence --------------------------
#
# (The property keeps the name it had when the plan it checked against
# the chained one was the deleted speculative plan.)
# ``run_schedule_wave`` given the queued keys the shards' commits report
# must schedule exactly what it schedules given ``None`` (every rule
# popped and drained), and leave every shard in the same state — also
# when the logical shards share fewer hosts than one per shard, whose
# calls merge what separate hosts would receive.
# Randomize everything the carry algebra depends on: rule count, 1-2
# rules per domain (rules sharing a host share its politeness budget),
# weights/priorities (serve order and quotas), per-rule queue depths
# (forcing every carry shape: empty rules, quota-limited rules, deep
# absorbers), wave quota, FIFO/LIFO, the shard count (multi-shard
# exercises per-shard interleaving), the host count and the politeness
# budget — off, binding, or at the quota + #rules bound where it can no
# longer bind.

_ALIASES = (("list", "item"), ("page", "page"))


@st.composite
def _sched_config(draw):
    n_domains = draw(st.integers(1, 5))
    rules: dict = {}
    depths = {}
    for i in range(n_domains):
        dom = f"site{i}.example"
        rules[dom] = {}
        for alias, stem in _ALIASES[:draw(st.integers(1, 2))]:
            rules[dom][alias] = {
                "domain": dom, "alias": alias,
                "url_pattern": rf"^http://www\.site{i}\.example/{stem}_\d+",
                "type": "node", "id_parameter": ["id"],
                "schedule_interval": 3600,
                "schedule_rule": draw(st.sampled_from(["FIFO", "LIFO"])),
                "priority": draw(st.integers(1, 3)),
                "weight": draw(st.integers(0, 20)),
                "seed": [], "active": True,
            }
            depths[(dom, alias, stem)] = draw(st.integers(0, 12))
    quota = draw(st.integers(1, 30))
    shards = draw(st.integers(1, 3))
    n_rules = len(depths)
    budget = draw(st.sampled_from([0, 1, 2, 3, 5, quota + n_rules]))
    return rules, depths, quota, shards, budget


@st.composite
def _two_wave_config(draw):
    """``_sched_config`` plus a host count, and per rule: seeds and the
    wave their refresh is due (never, 0 or 1), queued retries, and the
    links and retries a commit between the two waves adds."""
    rules, depths, quota, shards, budget = draw(_sched_config())
    hosts = draw(st.integers(1, shards))
    extra = {r: (draw(st.integers(0, 3)),                    # seeds
                 draw(st.sampled_from([None, 0, 1])),        # due wave
                 draw(st.integers(0, 2)),                    # retries
                 draw(st.integers(0, 6)),                    # new links
                 draw(st.integers(0, 2)))                    # new retries
             for r in depths}
    return rules, depths, quota, shards, hosts, budget, extra


@given(_two_wave_config())
@settings(max_examples=300, deadline=None)
def test_speculative_schedule_equivalence_property(cfg):
    import copy

    from neocrawler_ray.config import CrawlSettings, RuleSet
    from neocrawler_ray.pipelines.scheduler import run_schedule_wave
    from neocrawler_ray.state.frontier import (FrontierHost, host_of,
                                               shard_for_url)

    rules, depths, quota, n_shards, n_hosts, budget, extra = cfg
    rules = copy.deepcopy(rules)
    for (dom, alias, stem), (n_seeds, *_rest) in extra.items():
        rules[dom][alias]["seed"] = [f"http://www.{dom}/{stem}_{j}?id={j}"
                                     for j in range(n_seeds)]
    settings_ = CrawlSettings(
        schedule_quantity_limitation=quota,
        num_frontier_shards=n_shards,
        politeness_per_host_per_wave=budget,
    )
    # rule schedule_interval is 3600 s; a wave advances the clock 60 s
    due_at = {None: 10**18, 0: 0,
              1: settings_.wave_version(1) - 3600 * 1000}

    def rows_for(wave_links: int, wave_retries: int, lo: int) -> list:
        """(url, kind, payload) rows: links then retries of every rule."""
        rows = []
        for (dom, alias, stem), ex in extra.items():
            key = f"urllib:driller:{dom}:{alias}"
            n_links = (depths[(dom, alias, stem)] if wave_links is None
                       else ex[wave_links])
            for j in range(lo, lo + n_links):
                u = f"http://www.{dom}/{stem}_{j}?id={j}"
                rows.append((u, "link", (0, 0, key, u, "http://ref", "*", 1)))
            for j in range(lo + 50, lo + 50 + ex[wave_retries]):
                u = f"http://www.{dom}/{stem}_{j}?id={j}"
                rows.append((u, "retry", (u, key, 1)))
        return rows

    def run(pruned: bool, n_hosts: int) -> list:
        hosts = [FrontierHost([i for i in range(n_shards)
                               if host_of(i, n_hosts) == h],
                              rules, settings_)
                 for h in range(n_hosts)]
        shards = [hosts[host_of(i, n_hosts)].shards[i]
                  for i in range(n_shards)]

        def commit(now: int, rows: list) -> list:
            for seq, (u, kind, payload) in enumerate(rows):
                sid = shard_for_url(u, n_shards)
                hosts[host_of(sid, n_hosts)].buffer_results(
                    0, seq, {sid: [(seq, kind, payload)]})
            report = [None] * n_shards
            for host in hosts:
                for sid, (_c, q) in host.commit_wave_and_checkpoint(
                        now, "", 0, False).items():
                    report[sid] = q
            return report

        rs = RuleSet(rules)
        entries = rs.priority_list()
        for e in entries:
            stem = dict(_ALIASES)[e["alias"]]
            e["first_schedule"] = due_at[
                extra[(e["domain"], e["alias"], stem)][1]]
        report = commit(0, rows_for(None, 2, 0))
        trace = []
        for wave in (0, 1):
            cols = run_schedule_wave(wave, entries, rs.total_rates, hosts,
                                     settings_, report if pruned else None
                                     ).to_pydict()
            assert cols["host"] == [url_host(u) or "" for u in cols["url"]]
            assert cols["seq"] == list(range(len(cols["url"])))
            assert cols["wave"] == [wave] * len(cols["url"])
            trace.append(copy.deepcopy((cols, [
                (sh.url_info, {k: list(v) for k, v in sh.queues.items()},
                 {k: list(v) for k, v in sh.retry_queues.items()},
                 sh.metrics) for sh in shards])))
            if wave:
                break
            # the wave's outcome: every 3rd url failed below the retry
            # limit, the rest finished or failed for good; plus new links
            # and retries
            done = [(u, "retry", (u, k, 2)) if i % 3 == 0 else
                    (u, "state", (u, ("crawled_finish",
                                      "crawled_failure")[i % 3 - 1]))
                    for i, (u, k) in enumerate(zip(cols["url"],
                                                   cols["urllib"]))]
            report = commit(settings_.wave_version(0),
                            done + rows_for(3, 4, 100))
        return trace

    one_per_host = run(False, n_shards)
    assert run(True, n_shards) == one_per_host
    assert run(True, n_hosts) == one_per_host


_ROBOTS_BODY = st.lists(st.sampled_from([
    "User-agent: *", "User-agent: otherbot", "Disallow: /private/",
    "Disallow: /a", "disallow: /b/c  # note", "Disallow:", "# x", ""]),
    max_size=6).map(lambda lines: "\n".join(lines).encode())


@st.composite
def _robots_corpus(draw):
    """``(partition count, [(netloc, path, body)])``: a few hosts, each
    with or without a ``robots.txt``, some with a robots-shaped decoy
    page ``/archive/robots.txt.html``, and some with a second
    ``robots.txt`` under a netloc that differs only by case or port —
    one url_host — and lands in another partition."""
    from neocrawler_ray.sources.pages_gen import _host_shard

    n_parts = draw(st.integers(2, 12))
    hosts = draw(st.lists(st.from_regex(r"[a-z]{1,6}\.example",
                                        fullmatch=True),
                          min_size=1, max_size=5, unique=True))
    rows = []
    for host in hosts:
        rows.append((host, "/index.html", b"<html>page</html>"))
        if draw(st.booleans()):
            rows.append((host, "/robots.txt", draw(_ROBOTS_BODY)))
        if draw(st.booleans()):
            rows.append((host, "/archive/robots.txt.html",
                         draw(_ROBOTS_BODY)))
        kind = draw(st.sampled_from([None, "case", "port"]))
        start = draw(st.integers(1, 5000))
        variants = ((f"{host}:{p}" for p in range(start, start + 5000))
                    if kind == "port" else
                    ("".join(c.upper() if m >> i & 1 else c
                             for i, c in enumerate(host))
                     for m in range(1, 1 << len(host))))
        other = next((v for v in variants if kind and _host_shard(
            v, n_parts) != _host_shard(host, n_parts)), None)
        if other is not None:
            rows.append((other, "/robots.txt", draw(_ROBOTS_BODY)))
    return n_parts, draw(st.permutations(rows))


@given(_robots_corpus())
@settings(max_examples=100, deadline=None)
def test_robots_from_loaded_partitions_equal_scan(corpus):
    """The crawl kernel's robots rules — ``robots_from_pages`` over each
    loaded (hash-sorted) partition, shard ids visited as sorted strings —
    equal ``build_robots_map``'s scan and a last-wins reference over the
    rows in file order: decoys never count, and a url_host with two
    ``robots.txt`` rows in two partitions takes the later partition's."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from neocrawler_ray.sources.pages_gen import _host_shard
    from neocrawler_ray.stages.fetch import (_hash_sorted_pages,
                                             _read_pages_table,
                                             build_robots_map, parse_robots,
                                             robots_from_pages)

    n_parts, rows = corpus
    by_part: dict[int, list] = {}
    for netloc, path, body in rows:
        by_part.setdefault(_host_shard(netloc, n_parts), []).append(
            (f"http://{netloc}{path}", body))
    order = sorted(by_part, key=str)
    with tempfile.TemporaryDirectory() as d:
        paths = [f"{d}/pages/shard={k}/part.parquet" for k in order]
        for k, path in zip(order, paths):
            os.makedirs(os.path.dirname(path))
            pq.write_table(pa.table({
                "url": [u for u, _ in by_part[k]],
                "html": pa.array([b for _, b in by_part[k]], pa.binary())}),
                path)
        assert pads.dataset(f"{d}/pages").files == paths
        got = robots_from_pages(
            [_hash_sorted_pages(_read_pages_table(p)) for p in paths])
        assert got == build_robots_map(d)
    want = {url_host(u): parse_robots(b) for k in order
            for u, b in by_part[k] if u.endswith("/robots.txt")}
    assert got == want


@st.composite
def _netloc_variant(draw):
    """``(host, path, scheme, netloc)``: a url_host, a path part (empty,
    or starting with ``/``, ``?`` or ``#``), and a netloc that
    ``url_host`` keys to the host — any letter case, with or without a
    port and userinfo."""
    host = draw(st.from_regex(r"[a-z]{1,6}\.example", fullmatch=True))
    path = draw(st.just("") | st.builds(
        str.__add__, st.sampled_from(
            ["/", "/a", "/ab", "/private", "/private/", "/private/x",
             "/b/c", "/b/cd", "?a=1", "#/private/"]),
        st.text(alphabet="/abc?#=", max_size=4)))
    netloc = "".join(c.upper() if draw(st.booleans()) else c
                     for c in host)
    if draw(st.booleans()):
        netloc += f":{draw(st.integers(1, 65535))}"
    userinfo = draw(st.sampled_from(["", "user@", "user:pw@"]))
    return host, path, draw(st.sampled_from(["http", "https"])), \
        userinfo + netloc


@given(_netloc_variant(), _ROBOTS_BODY)
@settings(max_examples=200, deadline=None)
def test_robots_blocked_ignores_netloc_spelling(variant, body):
    """A url whose netloc differs from its url_host by case, port or
    userinfo gets the robots answer of the lower-case, port-less url —
    in ``robots_blocked`` and in FetchSim's ``robots_blocked`` column —
    and where the netloc is the url_host the answer is the original
    prefix match on what follows the host."""
    import pyarrow as pa

    from neocrawler_ray.stages.fetch import (FetchSim, parse_robots,
                                             robots_blocked)

    host, path, scheme, netloc = variant
    robots = {host: parse_robots(body)}
    plain = f"{scheme}://{host}{path}"
    url = f"{scheme}://{netloc}{path}"
    assert url_host(url) == url_host(plain) == host
    want = any(plain.split(host, 1)[-1].startswith(p)
               for p in robots[host])
    assert robots_blocked(robots, plain, host) == want
    assert robots_blocked(robots, url, host) == want
    # no pages directory: an unblocked url is a 404, never a read error
    got = FetchSim("/nonexistent", robots, 4)(pa.table({"url": [plain, url]}))
    assert got.column("robots_blocked").to_pylist() == [want, want]


def _block_bounds_reference(shard_sorted, batch: int) -> list:
    """The wave loop's former per-row cut: extend a block row by row up
    to ``batch`` rows, stopping at a shard change once it holds
    ``batch // 2``."""
    n = len(shard_sorted)
    bounds = []
    i = 0
    while i < n:
        j = i
        while j < n and j - i < batch:
            if (j > i and shard_sorted[j] != shard_sorted[j - 1]
                    and j - i >= batch // 2):
                break
            j += 1
        bounds.append((i, j))
        i = j
    return bounds


@st.composite
def _sorted_shards(draw):
    k = draw(st.integers(1, 8))
    return sorted(draw(st.lists(st.integers(0, k - 1), max_size=300)))


@given(_sorted_shards(), st.integers(1, 300))
@settings(max_examples=300, deadline=None)
def test_block_bounds_match_per_row_cut(shards, batch):
    """``_block_bounds`` cuts a shard-sorted wave exactly where the
    per-row loop did; the blocks tile ``[0, n)`` in order and none holds
    more than ``batch`` rows."""
    import numpy as np

    from neocrawler_ray.pipelines.crawl import _block_bounds

    got = _block_bounds(np.array(shards, dtype=np.int64), batch)
    assert got == _block_bounds_reference(shards, batch)
    edges = [0] + [hi for _, hi in got]
    assert [lo for lo, _ in got] == edges[:-1] and edges[-1] == len(shards)
    assert all(0 < hi - lo <= batch for lo, hi in got)


@given(st.lists(_ROW, max_size=16), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_keyed_redelivery_equals_one_delivery(rows, wave, data):
    """A wave's rows split into blocks, each block delivered 1-3 times in
    shuffled order, commit exactly as one in-order delivery of every
    block: ``buffer_results`` keys rows by ``(wave, block_lo)``, so a
    retried block overwrites its first delivery.  Rows buffered under
    another wave's key make the commit raise before applying anything."""
    import pytest

    from neocrawler_ray.config import CrawlSettings
    from neocrawler_ray.state.frontier import FrontierHost

    tagged = [(seq, kind, payload) for seq, (kind, payload)
              in enumerate(rows)]
    cuts = data.draw(st.sets(st.integers(1, max(len(tagged) - 1, 1))))
    bounds = sorted({0, len(tagged)} | {c for c in cuts if c < len(tagged)})
    blocks = [(lo, tagged[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    deliveries = data.draw(st.permutations(
        [b for b in blocks for _ in range(data.draw(st.integers(1, 3)))]))
    now = 61 * 60_000

    def commit(delivered):
        host = FrontierHost([0], RULES, CrawlSettings())
        shard = host.shards[0]
        for lo, blk in delivered:
            host.buffer_results(wave, lo, {0: blk})
        counts, queued = host.commit_wave_and_checkpoint(now, "", wave,
                                                         False)[0]
        return (counts, queued, shard.url_info,
                {k: list(v) for k, v in shard.queues.items()},
                {k: list(v) for k, v in shard.retry_queues.items()},
                shard.metrics)

    assert commit(deliveries) == commit(blocks)

    stale = FrontierHost([0, 1], RULES, CrawlSettings())
    stale.buffer_results(wave, 0, {0: tagged})
    stale.buffer_results(wave + 1, 0, {1: tagged})
    with pytest.raises(RuntimeError, match="buffered"):
        stale.commit_wave_and_checkpoint(now, "", wave, False)
    assert all(sh.url_info == {} and sh.metrics == {}
               for sh in stale.shards.values())


@given(st.lists(st.text(alphabet=st.characters(codec="utf-8",
                                               exclude_categories=("Cs",)),
                        max_size=60),
                min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_simhash_batch_matches_scalar(texts):
    """The flat instance-level batch sketch (unpackbits + reduceat) is
    bit-identical to the per-doc scalar path for arbitrary unicode,
    empty, and whitespace-only inputs, in any batch composition."""
    import numpy as np

    batch = dd.simhash64_batch(texts)
    assert batch.dtype == np.uint64
    for t, h in zip(texts, batch):
        assert int(h) == dd.simhash64(t)


# --- in-partition window kernels vs brute-force references -----------


@given(st.lists(
    st.tuples(st.integers(0, 3),          # user_id
              st.integers(0, 300),        # ts_us (dense -> many peers)
              st.integers(-1000, 1000)),  # value_e4
    min_size=1, max_size=60),
    st.integers(1, 100))                  # window_us
@settings(max_examples=80, deadline=None)
def test_range_frames_kernel_matches_bruteforce(rows, window_us):
    import numpy as np
    import pandas as pd

    from neocrawler_ray.pipelines.analytics import range_frames_kernel

    df = pd.DataFrame(
        {"user_id": np.array([r[0] for r in rows], dtype="int64"),
         "event_id": np.arange(len(rows), dtype="int64"),
         "ts_us": np.array([r[1] for r in rows], dtype="int64"),
         "value_e4": np.array([r[2] for r in rows], dtype="int64")})
    out = (range_frames_kernel(df, window_us)
           .set_index("event_id").sort_index())
    for _, r in df.iterrows():
        # SQL RANGE frame: same user, ts in [ts_i - W, ts_i] inclusive,
        # INCLUDING peers positioned after the row
        m = ((df["user_id"] == r["user_id"])
             & (df["ts_us"] >= r["ts_us"] - window_us)
             & (df["ts_us"] <= r["ts_us"]))
        assert out.loc[r["event_id"], "win_sum_e4"] == \
            df.loc[m, "value_e4"].sum()
        assert out.loc[r["event_id"], "win_n"] == int(m.sum())


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=60),
       st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_ntile_kernel_matches_sql_rule(rows, k):
    import numpy as np
    import pandas as pd

    from neocrawler_ray.pipelines.analytics import ntile_kernel

    df = pd.DataFrame(
        {"user_id": np.array([r[0] for r in rows], dtype="int64"),
         "event_id": np.arange(len(rows), dtype="int64"),
         "ts_us": np.array([r[1] for r in rows], dtype="int64")})
    out = ntile_kernel(df, k).set_index("event_id")
    order = df.sort_values(["user_id", "ts_us", "event_id"],
                           kind="mergesort")
    for _, g in order.groupby("user_id", sort=False):
        n = len(g)
        q, rem = divmod(n, k)
        # SQL NTILE: first rem tiles have q+1 rows, the rest q
        expect = []
        for tile_i in range(1, k + 1):
            expect += [tile_i] * ((q + 1) if tile_i <= rem else q)
        if n < k:  # fewer rows than tiles: one per tile, sizes [1]*n
            expect = list(range(1, n + 1))
        got = [int(out.loc[e, "tile"]) for e in g["event_id"]]
        assert got == expect[:n]


@given(st.lists(words, min_size=1, max_size=6), st.integers(2, 10))
@settings(max_examples=80, deadline=None)
def test_span_hashes_match_string_spans(texts, w):
    """span_hashes counts == brute-force distinct string spans, per doc
    AND pairwise-shared (the two facts doc_dup_spans relies on)."""
    def str_spans(t):
        toks = t.lower().split()
        return {" ".join(toks[i:i + w]) for i in range(len(toks) - w + 1)}

    sets_h = [dd.span_hashes(t, w) for t in texts]
    sets_s = [str_spans(t) for t in texts]
    for h, s in zip(sets_h, sets_s):
        assert len(h) == len(s)          # distinct-span count parity
        assert list(h) == sorted(set(h))  # sorted unique contract
    import numpy as np
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            shared_h = len(np.intersect1d(sets_h[i], sets_h[j],
                                          assume_unique=True))
            assert shared_h == len(sets_s[i] & sets_s[j])


@given(st.integers(-10**30, 10**30), st.integers(1, 10**18))
@settings(max_examples=120, deadline=None)
def test_trunc_div_matches_duckdb_semantics(num, den):
    """_td (the shared toward-zero division every *_e6/_e4 emission
    uses) must agree with DuckDB's HUGEINT `//` for any sign — the
    cross-engine convention all fixed-point oracles rest on."""
    import duckdb

    from neocrawler_ray.pipelines.corpus_ops import _td

    got = _td(num, den)
    want = duckdb.sql(
        f"SELECT CAST({num} AS HUGEINT) // CAST({den} AS HUGEINT)"
    ).fetchone()[0]
    assert got == int(want)
    # and explicitly differs from Python floor for negative numerators
    if num < 0 and num % den:
        assert got == (num // den) + 1


# --- pair-window kernel vs brute O(n²) join --------------------------


@given(st.lists(st.tuples(st.integers(0, 3),          # user
                          st.integers(0, 40),         # ts (small grid)
                          st.sampled_from("abc")),    # event type
                min_size=1, max_size=60),
       st.integers(1, 12))                            # window
@settings(max_examples=60, deadline=None)
def test_pair_window_kernel_matches_brute(rows, window):
    """replicate → co-located partial must equal the brute double loop
    for every (0 < Δt ≤ window) same-user ordered pair — heavy ties,
    bucket-boundary crossings and multi-user interleaving included."""
    import pandas as pd

    from neocrawler_ray.pipelines import analytics as an

    df = pd.DataFrame({
        "user_id": [r[0] for r in rows],
        "ts": pd.to_datetime([r[1] for r in rows], unit="us"),
        "event_type": [r[2] for r in rows]})
    rep = an._pw_replicate(df, window_us=window)
    got = (an._pw_pair_partial(rep, window_us=window)
           .groupby(["type_a", "type_b"], as_index=False)["n"].sum()
           .sort_values(["type_a", "type_b"]).reset_index(drop=True))
    brute = {}
    for u1, t1, e1 in rows:
        for u2, t2, e2 in rows:
            if u1 == u2 and 0 < t2 - t1 <= window:
                brute[(e1, e2)] = brute.get((e1, e2), 0) + 1
    exp = (pd.DataFrame(
        [(a, b, n) for (a, b), n in sorted(brute.items())],
        columns=["type_a", "type_b", "n"])
        if brute else
        pd.DataFrame({"type_a": pd.Series([], dtype=object),
                      "type_b": pd.Series([], dtype=object),
                      "n": pd.Series([], dtype="int64")}))
    pd.testing.assert_frame_equal(
        got.astype({"n": "int64"}), exp.astype({"n": "int64"}))
