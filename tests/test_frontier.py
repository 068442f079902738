"""Unit tests: frontier policies (per-call-site lock constants,
FIXTURES.md §5), weighted quota + leftover carry, FIFO/LIFO, politeness,
and a snapshot/restore property over random operation sequences."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neocrawler_ray.config import CrawlSettings, RuleSet
from neocrawler_ray.functions.urls import url_md5
from neocrawler_ray.pipelines.scheduler import SCHED_SCHEMA, run_schedule_wave
from neocrawler_ray.state.frontier import FrontierHost, FrontierShard, host_of

DOMAIN = "site0.example"
RULES = {
    DOMAIN: {
        "list": {
            "domain": DOMAIN, "alias": "list",
            "url_pattern": r"^http://www\.site0\.example/list_\d+",
            "type": "branch", "id_parameter": [], "schedule_interval": 3600,
            "schedule_rule": "FIFO", "priority": 1, "weight": 10,
            "seed": ["http://www.site0.example/list_#.html#1#3#1"],
            "active": True,
        },
        "detail": {
            "domain": DOMAIN, "alias": "detail",
            "url_pattern": r"^http://www\.site0\.example/item_\d+",
            "type": "node", "id_parameter": ["id"], "schedule_interval": 3600,
            "schedule_rule": "FIFO", "priority": 2, "weight": 0, "seed": [],
            "active": True,
        },
    }
}


def mk_shard(**kw):
    settings = CrawlSettings(**kw)
    return FrontierShard(0, RULES, settings), settings


# --------------------------- link-save policy -----------------------------
URLLIB = f"urllib:driller:{DOMAIN}:detail"
LINK = "http://www.site0.example/item_1?id=1"


def _save(shard, now, version=1, link=LINK):
    return shard._save_link(URLLIB, link, "http://ref", "*", version, now)


def test_save_link_new_and_hit_lock():
    shard, s = mk_shard()
    assert _save(shard, now=1000)
    assert shard.queue_len(URLLIB) == 1
    info = shard.url_info[url_md5(LINK)]
    assert info["status"] == "hit" and info["last"] == 1000
    # re-save within 2-day hit lock → rejected (pipeline.js:141-143)
    assert not _save(shard, now=1000 + s.linksave_hit_lock_ms - 1)
    assert shard.queue_len(URLLIB) == 1
    # after the lock expires → admitted again
    assert _save(shard, now=1000 + s.linksave_hit_lock_ms)
    assert shard.queue_len(URLLIB) == 2


def test_save_link_crawling_10min_lock_and_failure_readmit():
    shard, s = mk_shard()
    _save(shard, now=0)
    info = shard.url_info[url_md5(LINK)]
    info["status"] = "crawling"
    info["last"] = 0
    # within 10-min link-save lock (pipeline.js:138-140) → rejected
    assert not _save(shard, now=s.linksave_lock_ms - 1)
    # after → admitted
    assert _save(shard, now=s.linksave_lock_ms)
    # crawled_failure → re-admitted immediately (pipeline.js:135 guard)
    info["status"] = "crawled_failure"
    info["last"] = 10**12
    assert _save(shard, now=10**12 + 1)


def test_save_link_tolerates_hot_reload_reroute():
    """A T5 rules hot-reload can legitimately reroute an existing url to
    a different rule (url_pattern change) while its stored trace still
    points at the old rule; _save_link must queue it under the NEW key,
    not crash the actor (round-4 review)."""
    shard, s = mk_shard()
    _save(shard, now=0)
    info = shard.url_info[url_md5(LINK)]
    assert info["trace"] == URLLIB
    # url finished a failed crawl → re-admittable immediately
    info["status"] = "crawled_failure"
    info["last"] = 10**12
    other = f"urllib:driller:{DOMAIN}:list"
    assert shard._save_link(other, LINK, "http://ref/", "*", 2, 10**12 + 1)
    assert shard.queue_len(other) == 1


def test_save_link_id_parameter_canonicalization():
    shard, _ = mk_shard()
    assert _save(shard, 0, link="http://www.site0.example/item_2?id=2&utm=x")
    assert shard.queues[URLLIB][-1] == "http://www.site0.example/item_2?id=2"
    # canonical dup → same record, hit-locked
    assert not _save(shard, 1, link="http://www.site0.example/item_2?id=2&utm=y")


def test_save_link_version_semantics():
    shard, _ = mk_shard()
    _save(shard, 0, version=5)
    info = shard.url_info[url_md5(LINK)]
    assert info["version"] == 5
    _save(shard, 1, version=3)  # older version → kept
    assert info["version"] == 5
    _save(shard, 2, version=9)  # newer → bumped even when hit-locked
    assert info["version"] == 9


# --------------------------- checkURL / schedule_pop ----------------------
def test_schedule_pop_60min_lock_and_hit_bypass():
    shard, s = mk_shard()
    _save(shard, now=0)
    # status 'hit' bypasses the interval check (scheduler/index.js:379)
    acc, left = shard.schedule_pop(URLLIB, 5, False, 3600, now=1)
    assert acc[0] == [LINK] and left == 4
    info = shard.url_info[url_md5(LINK)]
    # pop folds the spider pickup mark (spider/index.js:55-59) in — the url
    # leaves the pop already 'crawling'; both states hit the same 60-min
    # scheduler lock branch (scheduler/index.js:381-383)
    assert info["status"] == "crawling"
    # re-queue while locked: 60-min scheduler lock
    shard.queues.setdefault(URLLIB, __import__("collections").deque()).append(LINK)
    acc, _ = shard.schedule_pop(URLLIB, 5, False, 3600, now=1 + s.scheduler_lock_ms - 1)
    assert acc[0] == []  # dropped, not re-queued (pop-without-requeue parity)
    assert shard.queue_len(URLLIB) == 0


def test_schedule_pop_crawled_finish_interval():
    shard, _ = mk_shard()
    _save(shard, now=0)
    info = shard.url_info[url_md5(LINK)]
    info["status"] = "crawled_finish"
    info["last"] = 0
    from collections import deque
    shard.queues[URLLIB] = deque([LINK])
    # within rule schedule_interval → dropped
    acc, _ = shard.schedule_pop(URLLIB, 5, False, 3600, now=3600 * 1000 - 1)
    assert acc[0] == []
    shard.queues[URLLIB] = deque([LINK])
    acc, _ = shard.schedule_pop(URLLIB, 5, False, 3600, now=3600 * 1000)
    assert acc[0] == [LINK]


def test_schedule_pop_fifo_lifo_and_politeness():
    shard, _ = mk_shard(politeness_per_host_per_wave=2)
    urls = [f"http://www.site0.example/item_{i}?id={i}" for i in range(5)]
    for i, u in enumerate(urls):
        shard._save_link(URLLIB, u, "http://ref", "*", 1, now=i)
    # FIFO pop, politeness budget 2/host/wave → only 2 accepted, rest kept
    acc, left = shard.schedule_pop(URLLIB, 10, False, 3600, now=100)
    assert acc[0] == urls[:2]
    assert acc[4] == ["www.site0.example"] * 2  # the hosts it counted
    assert left == 8
    assert shard.queue_len(URLLIB) == 3
    # same wave clock: the host's budget stays spent
    acc, _ = shard.schedule_pop(URLLIB, 10, False, 3600, now=100)
    assert acc[0] == [] and shard.queue_len(URLLIB) == 3
    # next wave (a new clock ``now``): budget resets; LIFO pops from
    # the tail
    acc, _ = shard.schedule_pop(URLLIB, 2, True, 3600, now=200)
    assert acc[0] == [urls[4], urls[3]]
    # the budget resets on a new clock, so a clock that never advances
    # is refused
    with pytest.raises(ValueError, match="schedule_interval"):
        CrawlSettings(schedule_interval=0)


# --------------------------- wave quota loop ------------------------------
def test_run_schedule_wave_quota_and_seeds():
    settings = CrawlSettings(
        schedule_quantity_limitation=10, num_frontier_shards=1,
        politeness_per_host_per_wave=0,
    )
    host = FrontierHost([0], RULES, settings)
    shard = host.shards[0]
    ruleset = RuleSet(RULES)
    entries = ruleset.priority_list()
    # rates: list=(100+10)/1=110, detail=(100+0)/2=50 → list served first
    assert [e["alias"] for e in entries] == ["list", "detail"]
    total = ruleset.total_rates
    # preload detail queue
    for i in range(8):
        shard._save_link(URLLIB, f"http://www.site0.example/item_{i}?id={i}",
                         "http://ref", "*", 1, now=0)
    sched = run_schedule_wave(0, entries, total, [host], settings)
    # wave 0: list rule reseeds (3 range-expanded seeds, bypass quota),
    # list queue empty → ct_list=ceil(10/160*110)=7 unmet → left=7;
    # detail ct = ceil(10/160*50)+7 = 11 → pops all 8 queued
    urls = sched.column("url").to_pylist()
    assert urls[:3] == [f"http://www.site0.example/list_{i}.html" for i in (1, 2, 3)]
    assert len(urls) == 3 + 8
    assert sched.schema == SCHED_SCHEMA
    assert sched.column("seq").to_pylist() == list(range(11))
    assert sched.column("wave").to_pylist() == [0] * 11
    # determinism: fresh run gives identical schedule
    host2 = FrontierHost([0], RULES, CrawlSettings(
        schedule_quantity_limitation=10, num_frontier_shards=1,
        politeness_per_host_per_wave=0))
    for i in range(8):
        host2.shards[0]._save_link(
            URLLIB, f"http://www.site0.example/item_{i}?id={i}",
            "http://ref", "*", 1, now=0)
    entries2 = RuleSet(RULES).priority_list()
    sched2 = run_schedule_wave(0, entries2, total, [host2], settings)
    assert sched.equals(sched2)


# The two examples below keep the names they had when the fast plan was
# the speculative (parallel-pop) one; the fast plan is now the pruned
# one (pops only rules whose shard reports queued urls), held to the
# same contract: it equals the leftover-chained plan that pops every
# rule (``queued=None``).

def _quota_wave(pruned: bool):
    settings = CrawlSettings(
        schedule_quantity_limitation=10, num_frontier_shards=1,
        politeness_per_host_per_wave=0,
    )
    host = FrontierHost([0], RULES, settings)
    shard = host.shards[0]
    for i in range(8):
        shard._save_link(URLLIB, f"http://www.site0.example/item_{i}?id={i}",
                         "http://ref", "*", 1, now=0)
    queued = [shard.queued_keys()] if pruned else None
    ruleset = RuleSet(RULES)
    return run_schedule_wave(0, ruleset.priority_list(), ruleset.total_rates,
                             [host], settings, queued)


def test_speculative_schedule_equals_chained():
    """The pruned plan equals the chained plan on the carry case: the
    list rule's empty queue is skipped, and its ct_base of 7 must reach
    the detail rule (quota-limited at ct_base=4) — without that carry
    it would schedule 4 of its 8 queued urls instead of all 8."""
    pruned = _quota_wave(True)
    assert pruned.equals(_quota_wave(False))
    assert pruned.column("url").to_pylist()[3:] == [
        f"http://www.site0.example/item_{i}?id={i}" for i in range(8)]


def test_speculative_schedule_no_carry_case():
    """Zero-carry waves: deep queues, quota-limited everywhere, and only
    the detail rule queued — the pruned plan skips the list rule and
    still schedules what the chained plan does."""
    settings = CrawlSettings(
        schedule_quantity_limitation=4, num_frontier_shards=1,
        politeness_per_host_per_wave=0,
    )

    def run(pruned):
        host = FrontierHost([0], RULES, settings)
        shard = host.shards[0]
        for i in range(50):
            shard._save_link(
                URLLIB, f"http://www.site0.example/item_{i}?id={i}",
                "http://ref", "*", 1, now=0)
        rs = RuleSet(RULES)
        # advance first_schedule so no reseed floods the tiny quota
        entries = rs.priority_list()
        for e in entries:
            e["first_schedule"] = 10**18
        queued = [shard.queued_keys()] if pruned else None
        return run_schedule_wave(0, entries, rs.total_rates, [host],
                                 settings, queued)

    a, b = run(True), run(False)
    assert a.equals(b) and len(a) > 0


class _CountingHost:
    """A local host that records the name of every method called on it."""

    def __init__(self, host):
        self._host = host
        self.calls: list[str] = []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append(name)
            return getattr(self._host, name)(*args)
        return call


def test_schedule_calls_only_shards_with_work():
    """6 rules over 3 shards, no queued retry: a non-seed wave issues no
    drain and no call to a host without work, and one pop call per run
    of consecutive submitted rules on one host — and schedules what the
    unpruned plan does.  With work on one rule, that is one pop call
    whether the 3 shards sit on 3 hosts or on 1; with work on a rule of
    every shard, 1 host still takes a single pop call."""
    from neocrawler_ray.state.frontier import shard_for_domain

    site: dict[int, int] = {}  # shard → index of one siteN.example on it
    i = 0
    while len(site) < 3:
        site.setdefault(shard_for_domain(f"site{i}.example", 3), i)
        i += 1
    rules = {
        f"site{i}.example": {alias: {
            "domain": f"site{i}.example", "alias": alias,
            "url_pattern": rf"^http://www\.site{i}\.example/{alias}_\d+",
            "type": "node", "id_parameter": ["id"], "schedule_interval": 3600,
            "schedule_rule": "FIFO", "priority": 1, "weight": 10,
            "seed": [], "active": True,
        } for alias in ("list", "item")}
        for i in site.values()
    }
    # 3 urls of quota per rule: every queued url fits, whatever the
    # serve order
    settings = CrawlSettings(schedule_quantity_limitation=18,
                             num_frontier_shards=3)

    def work(sid):
        dom = f"site{site[sid]}.example"
        return sid, f"urllib:driller:{dom}:item", [
            f"http://www.{dom}/item_{j}?id={j}" for j in range(3)]

    def hosts_and_report(n_hosts, sids):
        hosts = [FrontierHost([s for s in range(3) if host_of(s, n_hosts)
                               == h], rules, settings)
                 for h in range(n_hosts)]
        for sid, key, urls in map(work, sids):
            hosts[host_of(sid, n_hosts)].buffer_results(0, sid, {sid: [
                (j, "link", (0, 0, key, u, "http://ref", "*", 1))
                for j, u in enumerate(urls)]})
        report = [None] * 3
        for h in hosts:
            for sid, (_c, q) in h.commit_wave_and_checkpoint(
                    0, "", 0, False).items():
                report[sid] = q
        return hosts, report

    def entries():
        rs = RuleSet(rules)
        es = rs.priority_list()
        for e in es:
            e["first_schedule"] = 10**18  # no seed refresh is due
        return es, rs.total_rates

    for n_hosts, sids, calls in [
            (3, [1], [[], ["schedule_pop_run_chained"], []]),
            (1, [1], [["schedule_pop_run_chained"]]),
            (1, [0, 1, 2], [["schedule_pop_run_chained"]])]:
        hosts, report = hosts_and_report(n_hosts, sids)
        assert report == [(frozenset([work(s)[1]]) if s in sids
                           else frozenset(), frozenset()) for s in range(3)]
        counted = [_CountingHost(h) for h in hosts]
        sched = run_schedule_wave(1, *entries(), counted, settings, report)
        assert [c.calls for c in counted] == calls
        assert sorted(sched.column("url").to_pylist()) == sorted(
            u for s in sids for u in work(s)[2])
        plain, _ = hosts_and_report(n_hosts, sids)
        assert run_schedule_wave(1, *entries(), plain, settings).equals(sched)


# --------------------------- snapshot/restore -----------------------------
KEYS = [URLLIB, f"urllib:driller:{DOMAIN}:list"]
# logical clock steps that straddle every lock constant: 10-min linksave,
# 60-min scheduler / rule interval, 2-day hit lock
_DT = st.sampled_from([0, 60_000, 11 * 60_000, 61 * 60_000,
                       3 * 24 * 3600 * 1000])
# url suffixes: arbitrary text (control characters included) and
# query-shaped text that exercises id_parameter canonicalization
_SUFFIX = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789id=?&#/\t\r\n\x00 é", max_size=12))
_URL = st.builds(lambda kind, suf: f"http://www.site0.example/{kind}_{suf}",
                 st.sampled_from(["item", "list", "other"]), _SUFFIX)
_KEY = st.sampled_from(KEYS)
# (kind, payload) in the buffer_results row layout
_ROW = st.one_of(
    st.tuples(st.just("link"),
              st.tuples(st.just(0), st.just(0), _KEY, _URL, _URL,
                        st.just("*"), st.integers(0, 3))),
    st.tuples(st.just("state"),
              st.tuples(_URL, st.sampled_from(["crawled_finish",
                                               "crawled_failure"]))),
    st.tuples(st.just("retry"), st.tuples(_URL, _KEY, st.integers(1, 3))),
)
_OP = st.one_of(
    st.tuples(st.just("save"), _DT, _KEY, _URL, st.integers(0, 3)),
    st.tuples(st.just("pop"), _DT, _KEY, st.integers(0, 6), st.booleans()),
    st.tuples(st.just("commit"), _DT, st.lists(_ROW, max_size=8)),
)


def _apply(shard, ops) -> int:
    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "save":
            _, _, key, url, version = op
            shard._save_link(key, url, "http://ref", "*", version, now)
        elif op[0] == "pop":
            _, _, key, ct, lifo = op
            shard.schedule_pop(key, ct, lifo, 3600, now)
        else:
            shard.buffer_results(0, 0, [(seq, kind, payload) for seq,
                                        (kind, payload) in enumerate(op[2])])
            shard.commit_wave(now)
    return now


def _state(shard):
    return (shard.url_info,
            {k: list(v) for k, v in shard.queues.items()},
            {k: list(v) for k, v in shard.retry_queues.items()},
            shard.metrics, shard.seen_table())


@given(st.lists(_OP, max_size=25), st.integers(0, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_snapshot_restore_roundtrip(ops, ct, lifo):
    """``restore(snapshot())`` reproduces every piece of shard state the
    engine reads, and the clone then schedules exactly as the original.
    The snapshot's key set and its per-URL record shape are pinned:
    changing either must bump ``STATE_FORMAT_VERSION``."""
    settings_ = CrawlSettings(politeness_per_host_per_wave=3)
    shard = FrontierShard(0, RULES, settings_)
    now = _apply(shard, ops) + 61 * 60_000
    blob = shard.snapshot()
    assert set(pickle.loads(blob)) == {
        "shard_id", "url_info", "queues", "retry_queues", "metrics"}
    clone = FrontierShard(0, RULES, settings_)
    clone.restore(blob)
    assert _state(clone) == _state(shard)

    def next_wave(sh):
        return ([sh.drain_retries(k, now) for k in KEYS],
                [sh.schedule_pop(k, ct, lifo, 3600, now) for k in KEYS])

    assert next_wave(clone) == next_wave(shard)
    assert _state(clone) == _state(shard)
    assert all(set(info) == {"url", "trace", "referer", "last", "status",
                             "version", "drill_relation"}
               for info in shard.url_info.values())
