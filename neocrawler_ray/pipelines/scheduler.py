"""Scheduling wave — the reference's SuperScheduler round, driver-side.

Re-expresses scheduler/index.js:124-260 (``doSchedule`` →
``reSchedule``/``doScheduleExt``) as one deterministic, sequential quota
loop per wave.  The loop itself is O(#rules) and cheap; all heavy work
(queue pops, admission checks) happens inside the frontier shards, and
a shard is called only for the rules its last commit reported queued
urls or retries for — a pop on an empty queue would change nothing.
Calls go to the hosts that hold the shards, one per host per step.
Keeping the quota computation sequential on the driver preserves the
reference's single-scheduler total order of scheduling decisions
(README.md:130, SURVEY.md §2.9) — the parity target.

Quota parity (scheduler/index.js:88, 124-157, 205-260):
- ``rate = (max_weight + weight) / priority`` per rule;
- ``avg = schedule_quantity_limitation / total_rates`` — the reference
  first subtracts the spider's queue backlog, which is always 0 here:
  every wave crawls all it scheduled before the next round;
- rules served sorted by rate desc; per rule ``ct = ceil(avg*rate) +
  leftover``; unmet quota carries to the next rule;
- a rule re-seeds when ``now - first_schedule >= interval*1000``; seed
  urls are state-stamped and enter the wave directly (bypassing checkURL),
  exactly like ``reSchedule``'s direct rpush.
"""

from __future__ import annotations

import math

import pyarrow as pa

from ..config import CrawlSettings
from ..functions.urls import expand_seed, url_host
from ..state.frontier import host_of, shard_for_domain, shard_for_url

__all__ = ["SCHED_SCHEMA", "run_schedule_wave"]

# one row per scheduled url, in serve order; ``host`` is the url's
# ``url_host(url) or ""``, read by the block cut and never logged
SCHED_SCHEMA = pa.schema([
    ("seq", pa.int64()), ("wave", pa.int32()), ("url", pa.string()),
    ("urllib", pa.string()), ("version", pa.int64()),
    ("referer", pa.string()), ("drill_relation", pa.string()),
    ("retry", pa.int32()), ("host", pa.string())])


def _dispatch(hosts: list):
    """``(submit, submit_pair, resolve)`` for the host type.  Ray actor
    handles (their methods have ``.remote``) get ``.remote`` /
    ``.options(num_returns=2).remote`` / ``ray.get``; a local
    :class:`FrontierHost` gets direct calls, so a token is the result
    itself.  ``submit_pair`` hands back ``(rows, left)`` separately: the
    next chained run's task depends only on the few-byte ``left`` ref,
    never on the previous run's accepted rows."""
    if hasattr(hosts[0].schedule_pop_run_chained, "remote"):
        import ray

        def submit(host, method, *args):
            return getattr(host, method).remote(*args)

        def submit_pair(host, method, *args):
            return tuple(getattr(host, method)
                         .options(num_returns=2).remote(*args))

        return submit, submit_pair, ray.get

    def submit(host, method, *args):
        return getattr(host, method)(*args)

    return submit, submit, list


def run_schedule_wave(
    wave: int,
    priority_entries: list[dict],
    total_rates: float,
    hosts: list,
    settings: CrawlSettings,
    queued: list[tuple] | None = None,
) -> pa.Table:
    """One scheduler round over ``settings.num_frontier_shards`` logical
    shards held by ``hosts`` — local :class:`FrontierHost` objects or
    Ray actor handles; shard ``sid`` lives on ``hosts[host_of(sid,
    len(hosts))]``.

    ``queued[sid]`` is logical shard sid's ``queued_keys()`` as its last
    commit (or restore) reported it: ``(keys with queued urls, keys
    with queued retries)``.  The round pops only rules whose own shard
    reports queued urls and drains only rules that report queued
    retries.  Exact by one argument: a pop or drain on an empty queue
    changes no shard state, and nothing in a round refills a queue
    (seeds enter the wave directly), so the only effect of a skipped
    pop is passing ``ct_base + carry`` on as its leftover — the driver
    adds a skipped rule's ``ct_base`` to the next submitted rule's.
    ``queued=None`` means every rule may have work: the unpruned plan,
    which the sequential oracle runs.

    The round is submitted as ONE asynchronous plan and joined once:

    - every host call is queued up front (actor ``.remote`` calls, or
      immediate calls on local hosts) and the results are realized
      together at the end;
    - per step, a host gets one call for all its shards: one retry
      drain, one seed push per reseeded rule, and one
      ``schedule_pop_run_chained`` per run of consecutive submitted
      rules whose shards it holds;
    - the leftover-carry between consecutive pop runs never touches the
      driver: each run is submitted with the PREVIOUS run's left ref as
      an argument (Ray resolves it on the receiving host), so the quota
      chain is host-to-host dataflow with no per-run driver round trip.

    Ordering semantics are EXACTLY the sequential driver loop's: per
    host, calls execute in submission order (Ray actor guarantee /
    immediate execution on a local host), and within a call items apply
    in argument order, so every shard sees the reference's serve order;
    cross-shard state is disjoint (every url lives on one shard), so the
    only cross-shard dependency is the leftover scalar — carried by the
    ref chain.  Each shard resets its per-host politeness counters on
    the first pop of a new wave clock.

    Returns the wave's crawl batch AND the schedule-order parity log as
    one :data:`SCHED_SCHEMA` table, a row per url in serve order
    (``seq`` counts from 0).  ``host`` is each url's ``url_host(url) or
    ""``, as the shard's pop or drain computed it (the driver computes a
    seed's): the crawl cuts its blocks by it and drops it before the
    log and the blocks.
    """
    submit, submit_pair, resolve = _dispatch(hosts)
    num_shards = settings.num_frontier_shards
    num_hosts = len(hosts)
    version = settings.wave_version(wave)
    now = version
    quota = settings.schedule_quantity_limitation
    avg_rate = quota / total_rates if total_rates else 0.0

    def has_work(sid: int, key: str, kind: int) -> bool:
        return queued is None or key in queued[sid][kind]

    tokens: list = []

    def _submit(host, m, *a) -> int:
        tokens.append(submit(hosts[host], m, *a))
        return len(tokens) - 1

    steps: list[tuple] = []

    # --- T6 retry drain (spider/spider.js:350-362) --------------------
    # retryCrawl re-emits a failed urlinfo straight into the spider's
    # own download queue — it crawls before the next scheduler round's
    # output and consumes no quota.  Wave analog: drain every rule's
    # retry queue first, in serve order, FIFO within a rule.  One
    # batched call per host with queued retries, submitted before any
    # pops (per-host execution order = submission order).
    by_host_keys: dict[int, list[tuple[int, str]]] = {}
    for e in priority_entries:
        sid = shard_for_domain(e["domain"], num_shards)
        k = "urllib:" + e["key"]
        if has_work(sid, k, 1):
            by_host_keys.setdefault(host_of(sid, num_hosts), []).append(
                (sid, k))
    drain_tok: dict[str, tuple[int, int]] = {}
    for h in sorted(by_host_keys):
        ti = _submit(h, "drain_retries", by_host_keys[h], now)
        for pos, (_sid, k) in enumerate(by_host_keys[h]):
            drain_tok[k] = (ti, pos)

    # --- quota pops: runs of consecutive same-host rules --------------
    prev = 0            # previous run's token (result value or ObjectRef)
    carry = 0           # ct_base of the rules skipped since the last pop
    run_host: int | None = None
    run_reqs: list[tuple] = []
    run_keys: list[str] = []

    def submit_run() -> None:
        nonlocal prev, run_host, run_reqs, run_keys
        if not run_reqs:
            return
        out_tok, left_tok = submit_pair(
            hosts[run_host], "schedule_pop_run_chained",
            list(run_reqs), prev, now)
        tokens.append(out_tok)
        steps.append(("pops", len(tokens) - 1, list(run_keys)))
        prev = left_tok
        run_host, run_reqs, run_keys = None, [], []

    for entry in priority_entries:
        urllib_key = "urllib:" + entry["key"]
        # --- reSchedule (seed refresh) --------------------------------
        if now - entry["first_schedule"] >= entry["interval"] * 1000:
            submit_run()  # earlier rules' pops precede this on the host
            links = [link for seed in entry["seed"]
                     for link in expand_seed(seed)]
            # one batched call per host; the schedule log is rebuilt in
            # original seed order from the returned accept flags, and
            # within-shard push order is preserved — both invariants the
            # sequential oracle checks
            sids = [shard_for_url(link, num_shards) for link in links]
            by_host: dict[int, list[int]] = {}
            for idx, sid in enumerate(sids):
                by_host.setdefault(host_of(sid, num_hosts), []).append(idx)
            seed_parts = []
            for h, idxs in sorted(by_host.items()):
                ti = _submit(h, "push_seeds",
                             [(sids[i], links[i]) for i in idxs],
                             version, now)
                seed_parts.append((ti, idxs))
            steps.append(("seeds", urllib_key, links, seed_parts))
            entry["first_schedule"] = version
        # --- doScheduleExt (quota pop) --------------------------------
        ct_base = math.ceil(avg_rate * entry["rate"])
        sid = shard_for_domain(entry["domain"], num_shards)
        if not has_work(sid, urllib_key, 0):
            carry += ct_base
            continue
        h = host_of(sid, num_hosts)
        if run_reqs and h != run_host:
            submit_run()
        run_host = h
        run_reqs.append((sid, urllib_key, ct_base + carry,
                         entry["rule"] == "LIFO", entry["interval"]))
        run_keys.append(urllib_key)
        carry = 0
    submit_run()
    results = resolve(tokens)

    # --- emit the schedule log in serve order --------------------------
    # column-list accumulation (7 list appends/row beats a dict alloc —
    # the emit loop measured 0.3 s/wave driver-serial at 62k attempts)
    c_url: list = []
    c_ulib: list = []
    c_ver: list = []
    c_ref: list = []
    c_rel: list = []
    c_retry: list = []
    c_host: list = []

    def _emit(url, urllib_key, ver, referer, relation, retry, host):
        c_url.append(url)
        c_ulib.append(urllib_key)
        c_ver.append(ver)
        c_ref.append(referer)
        c_rel.append(relation)
        c_retry.append(retry)
        c_host.append(host)

    # retry drains first, in serve order
    for e in priority_entries:
        k = "urllib:" + e["key"]
        if k in drain_tok:
            ti, pos = drain_tok[k]
            for url, ver, referer, relation, rcount, host in results[ti][pos]:
                _emit(url, k, ver, referer, relation, rcount, host)
    for step in steps:
        if step[0] == "seeds":
            _, urllib_key, links, seed_parts = step
            accepted_flags = [False] * len(links)
            for ti, idxs in seed_parts:
                for i, ok in zip(idxs, results[ti]):
                    accepted_flags[i] = ok
            for link, ok in zip(links, accepted_flags):
                if ok:
                    _emit(link, urllib_key, version, "", "*", 0,
                          url_host(link) or "")
        else:
            # bulk path for pop results — already column lists from the
            # shard (5 parallel lists), so the emit is pure list.extend
            # with no per-row transpose; the emit loop is driver-serial
            _, ti, keys = step
            for urllib_key, (u, v, rf, rl, hs) in zip(keys, results[ti]):
                c_url.extend(u)
                c_ulib.extend([urllib_key] * len(u))
                c_ver.extend(v)
                c_ref.extend(rf)
                c_rel.extend(rl)
                c_retry.extend([0] * len(u))
                c_host.extend(hs)
    n = len(c_url)
    return pa.Table.from_pydict(
        {"seq": list(range(n)), "wave": [wave] * n, "url": c_url,
         "urllib": c_ulib, "version": c_ver, "referer": c_ref,
         "drill_relation": c_rel, "retry": c_retry, "host": c_host},
        schema=SCHED_SCHEMA)
