"""Property-based tests (hypothesis) for the pure kernels: URL
functions, cuckoo filter, dedup sketches, union-find — the invariants
the distributed pipelines rely on regardless of input shape."""

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
from neocrawler_ray.state.cuckoo import CuckooFilter

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


# arbitrary text, plus scheme-prefixed text so most examples reach the
# regex's host capture (brackets, userinfo, ports, control characters)
_urlish = st.one_of(
    st.text(),
    st.builds(lambda scheme, rest: f"{scheme}://{rest}",
              st.sampled_from(["http", "https", "HTTP", "a+b.c-d"]),
              st.one_of(st.text(),
                        st.text(alphabet="ab.:@[]/?#%0\t\r\n é",
                                max_size=20))),
)


@given(st.lists(_urlish, min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
@example(["http://\r"])   # urlsplit strips tab/CR/LF
@example(["http://0["])    # urlsplit raises ValueError → ""
def test_hosts_vectorized_matches_url_host(urls):
    """The crawl loop's C-regex host fast path agrees with ``url_host``
    (urlsplit) on any text, not only url-shaped input."""
    import pandas as pd

    from neocrawler_ray.pipelines.crawl import hosts_vectorized

    got = hosts_vectorized(pd.Series(urls, dtype=object)).tolist()
    assert got == [(url_host(u) or "").lower() for u in urls]


@given(st.lists(st.text(alphabet="abcdef:/._", min_size=1, max_size=40),
                min_size=1, max_size=50, unique=True))
@settings(max_examples=50, deadline=None)
def test_cuckoo_no_false_negatives(items):
    f = CuckooFilter(capacity=1 << 10)
    for it in items:
        f.add(it)
    for it in items:
        assert it in f  # cuckoo filters may false-positive, never false-negative
    # snapshot round-trip preserves membership exactly
    g = CuckooFilter.from_bytes(f.to_bytes())
    for it in items:
        assert it in g


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


# --- speculative vs chained scheduling equivalence ---------------------
#
# The speculative pop plan (pipelines/scheduler.py) must be
# byte-identical to the leftover-chained plan whenever politeness is
# idle.  Randomize everything the carry algebra depends on: rule count,
# weights/priorities (serve order and quotas), per-rule queue depths
# (forcing every carry shape: empty rules, quota-limited rules, deep
# absorbers), wave quota, FIFO/LIFO, and the shard count (multi-shard
# exercises per-shard actor-order interleaving in the sync default).

@st.composite
def _sched_config(draw):
    n_rules = draw(st.integers(2, 5))
    rules: dict = {}
    depths = []
    for i in range(n_rules):
        dom = f"site{i}.example"
        rules[dom] = {
            "list": {
                "domain": dom, "alias": "list",
                "url_pattern": rf"^http://www\.site{i}\.example/item_\d+",
                "type": "node", "id_parameter": ["id"],
                "schedule_interval": 3600,
                "schedule_rule": draw(st.sampled_from(["FIFO", "LIFO"])),
                "priority": draw(st.integers(1, 3)),
                "weight": draw(st.integers(0, 20)),
                "seed": [], "active": True,
            }
        }
        depths.append(draw(st.integers(0, 12)))
    quota = draw(st.integers(1, 30))
    shards = draw(st.integers(1, 3))
    return rules, depths, quota, shards


@given(_sched_config())
@settings(max_examples=40, deadline=None)
def test_speculative_schedule_equivalence_property(cfg):
    from neocrawler_ray.config import CrawlSettings, RuleSet
    from neocrawler_ray.pipelines.scheduler import run_schedule_wave
    from neocrawler_ray.state.frontier import FrontierShard

    rules, depths, quota, n_shards = cfg

    def run(speculative: bool):
        settings = CrawlSettings(
            schedule_quantity_limitation=quota,
            num_frontier_shards=n_shards,
            politeness_per_host_per_wave=0,
        )
        shards = [FrontierShard(i, rules, settings) for i in range(n_shards)]
        from neocrawler_ray.pipelines.scheduler import shard_for_domain
        for di, (dom, depth) in enumerate(zip(sorted(rules), depths)):
            sid = shard_for_domain(dom, n_shards)
            key = f"urllib:driller:{dom}:list"
            for j in range(depth):
                shards[sid]._save_link(
                    key, f"http://www.{dom}/item_{j}?id={j}",
                    "http://ref", "*", 1, now=0)
        rs = RuleSet(rules)
        entries = rs.priority_list()
        for e in entries:
            e["first_schedule"] = 10**18  # no reseeds: isolate the pops
        return run_schedule_wave(0, entries, rs.total_rates, shards,
                                 settings, speculative=speculative)

    assert run(True) == run(False)


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
