"""Scheduling wave — the reference's SuperScheduler round, driver-side.

Re-expresses scheduler/index.js:124-260 (``doSchedule`` →
``reSchedule``/``doScheduleExt``) as one deterministic, sequential quota
loop per wave.  The loop itself is O(#rules) and cheap; all heavy work
(queue pops, admission checks) happens inside the frontier shards.
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

from ..config import CrawlSettings
from ..functions.urls import expand_seed, url_md5, url_tld

__all__ = ["shard_for_domain", "shard_for_url", "run_schedule_wave"]


def shard_for_domain(domain: str, num_shards: int) -> int:
    return int(url_md5(domain)[:8], 16) % num_shards


def shard_for_url(url: str, num_shards: int) -> int:
    tld = url_tld(url) or ""
    return shard_for_domain(tld, num_shards)


def _dispatch(shards: list):
    """``(submit, submit_pair, resolve)`` for the shard type.  Ray actor
    handles (their methods have ``.remote``) get ``.remote`` /
    ``.options(num_returns=2).remote`` / ``ray.get``; a local
    :class:`FrontierShard` gets direct calls, so a token is the result
    itself.  ``submit_pair`` hands back ``(rows, left)`` separately: the
    next chained run's task depends only on the few-byte ``left`` ref,
    never on the previous run's accepted rows."""
    if hasattr(shards[0].begin_wave, "remote"):
        import ray

        def submit(shard, method, *args):
            return getattr(shard, method).remote(*args)

        def submit_pair(shard, method, *args):
            return tuple(getattr(shard, method)
                         .options(num_returns=2).remote(*args))

        return submit, submit_pair, ray.get

    def submit(shard, method, *args):
        return getattr(shard, method)(*args)

    return submit, submit, list


def run_schedule_wave(
    wave: int,
    priority_entries: list[dict],
    total_rates: float,
    shards: list,
    settings: CrawlSettings,
    speculative: bool = False,
) -> dict:
    """One scheduler round.  ``shards[i]`` may be a local
    :class:`FrontierShard` or a Ray actor handle.

    The round is submitted as ONE asynchronous plan and joined once:

    - every shard call is queued up front (actor ``.remote`` calls, or
      immediate calls on local shards) and the results are realized
      together at the end;
    - the leftover-carry between consecutive pop runs never touches the
      driver: each run is submitted as ``schedule_pop_run_chained`` with
      the PREVIOUS run's left ref as an argument (Ray resolves it on the
      receiving shard), so the quota chain is shard-to-shard dataflow
      with no per-run driver round trip;
    - ``begin_wave`` is submitted and its result dropped: actor tasks
      from one caller run in submission order, so every later call on
      the same shard happens-after it, and the previous wave's in-flight
      commit keeps running under the schedule.

    Ordering semantics are EXACTLY the sequential driver loop's: per
    shard, tasks execute in submission order (Ray actor guarantee /
    immediate execution on a local shard), which is the reference's
    serve order; cross-shard state is disjoint (every url lives on one
    shard), so the only cross-shard dependency is the leftover scalar —
    carried by the ref chain.  Local shards execute synchronously, so the
    sequential oracle path is the plain loop.

    Returns the wave's crawl batch AND the schedule-order parity log as
    one dict of parallel column lists ``{url, urllib, version, referer,
    drill_relation, retry}`` plus the scalar ``wave``; a row's ``seq`` is
    its list index.

    ``speculative=True`` ALLOWS the plan to replace the leftover-chained
    pops — whose critical path is one actor hop per run, ~#rules hops per
    wave — with ONE parallel round of per-rule ``schedule_pop(ct_base)``
    calls plus rare driver-issued "repair" pops.  The plan takes that
    route only where it is byte-identical to the chained plan, and
    otherwise falls back to the chained plan itself.  Why exact when
    politeness can never bind (``politeness_per_host_per_wave == 0``, or
    ≥ quota + #rules — total pops per wave are ≤ Σ ceil(avg·rate) ≤
    quota + #rules, the carry only redistributes, so such a per-host
    budget never defers a pop):

    - per-rule state (queue, url states) is disjoint, and with
      politeness provably idle there is NO cross-rule shard state, so
      pops commute across rules and only the leftover-carry couples
      them;
    - speculation under-quotes (``left_in=0`` → ct ≤ true quota), so it
      never over-pops — no rollback exists or is needed;
    - ``pop(ct)`` then ``pop(delta)`` ≡ ``pop(ct+delta)`` (the pop loop
      is a pure continuation over queue + url state), so a rule that
      consumed its whole speculative quota is topped up by one repair
      pop for the true carry; a rule that stopped early exhausted its
      queue, and extra quota could not have popped more — its true
      leftover just joins the carry arithmetic on the driver.

    A binding budget breaks the first point: rules sharing a host share
    its per-wave count, so a repair pop that runs after a later rule's
    speculative pop sees a different remaining budget than the chained
    plan's in-order pop.

    Repairs are issued only for quota-limited rules reached with a
    positive carry; with wave quota sized above the frontier's actual
    yield (the recommended large-cluster setting) they are rare.

    The exactness argument additionally assumes **each url is queued
    under exactly one rule's queue** (repair pops run AFTER later
    rules' speculative pops, so a url_info row shared across two rules
    would see ``_check_url`` outcomes in a different order than the
    chained plan).  This holds by construction: link routing is
    first-match per URL (``_save_link`` routes a url_md5 to the first
    matching urllib key, and the url's ``url_info`` row keeps that
    trace), and ``FrontierShard._save_link`` counts any save under a
    different rule than the row's trace as ``trace_reroutes`` in
    ``stats()`` (a T5 rules hot-reload is the legitimate source).

    One coupling survives even one-queue-per-url: ``push_seeds``
    touches url_info rows directly, so on a wave where some rule's
    reSchedule is due, a seed of rule B that detect_link routes to rule
    A's queue would see A's REPAIR pop (which runs after the first
    resolve, i.e. after B's seed push executed on the shard) observe
    the freshly stamped state — a different ``_check_url`` order than
    the chained plan, where A's carry pop precedes B's push.  Seed
    waves are rare (first wave + every ``interval``), so the plan also
    falls back on any wave with a due seed refresh — speculation only
    ever runs on pop-only waves, where the argument above is complete.
    """
    submit, submit_pair, resolve = _dispatch(shards)
    num_shards = len(shards)
    version = settings.wave_version(wave)
    now = version
    quota = settings.schedule_quantity_limitation
    avg_rate = quota / total_rates if total_rates else 0.0

    for shard in shards:
        submit(shard, "begin_wave")

    tokens: list = []

    def _submit(sh, m, *a) -> int:
        tokens.append(submit(sh, m, *a))
        return len(tokens) - 1

    steps: list[tuple] = []
    spec_lefts: list = []  # per-spec-pop few-byte left refs/values

    # the speculation gate (the docstring's exactness argument): a
    # binding politeness budget couples rules that share a host, and on
    # a seed-refresh wave repair pops would run after a later rule's
    # push_seeds stamped shared url_info state — both keep the chained
    # plan
    budget = settings.politeness_per_host_per_wave
    if speculative and (
            0 < budget < quota + len(priority_entries)
            or any(now - e["first_schedule"] >= e["interval"] * 1000
                   for e in priority_entries)):
        speculative = False

    # --- T6 retry drain (spider/spider.js:350-362) --------------------
    # retryCrawl re-emits a failed urlinfo straight into the spider's
    # own download queue — it crawls before the next scheduler round's
    # output and consumes no quota.  Wave analog: drain every rule's
    # retry queue first, in serve order, FIFO within a rule.  One
    # batched task per shard, submitted before any pops (per-shard
    # execution order = submission order).
    drain_entries = list(priority_entries)
    drain_tok: dict[str, tuple[int, int]] = {}
    if speculative:
        # --- COMBINED per-shard plan: one schedule_wave_spec RPC per
        # shard carries its drains AND every one of its rule pops (zero
        # assumed carry), replacing ~(#shards drains + #rules pops)
        # actor tasks per wave — the per-task submit/return overhead
        # across ~53 tasks was a measured slice of the schedule join.
        # Per-shard execution order is identical to the per-call plan
        # (drains first, pops in serve order); cross-shard order was
        # already concurrent.  num_returns=2 splits the payload from the
        # few-byte per-rule lefts so repairs submit BEFORE the driver
        # pulls the accepted rows.
        shard_drains: dict[int, list[str]] = {}
        shard_pops: dict[int, list[tuple]] = {}
        pop_pos: dict[str, tuple[int, int]] = {}
        for e in priority_entries:
            k = "urllib:" + e["key"]
            sid = shard_for_domain(e["domain"], num_shards)
            shard_drains.setdefault(sid, []).append(k)
            reqs = shard_pops.setdefault(sid, [])
            pop_pos[k] = (sid, len(reqs))
            reqs.append((k, math.ceil(avg_rate * e["rate"]),
                         e["rule"] == "LIFO", e["interval"]))
        shard_tok: dict[int, int] = {}
        shard_ltok: dict[int, int] = {}
        for sid in sorted(shard_pops):
            payload_tok, lefts_tok = submit_pair(
                shards[sid], "schedule_wave_spec",
                shard_drains[sid], shard_pops[sid], now)
            tokens.append(payload_tok)
            shard_tok[sid] = len(tokens) - 1
            spec_lefts.append(lefts_tok)
            shard_ltok[sid] = len(spec_lefts) - 1
        for sid, keys in shard_drains.items():
            for pos, k in enumerate(keys):
                drain_tok[k] = (shard_tok[sid], pos)
        if drain_entries:
            steps.append(("drain",))
        for e in priority_entries:
            k = "urllib:" + e["key"]
            sid, pos = pop_pos[k]
            steps.append(("spec", shard_tok[sid], k, sid,
                          e["rule"] == "LIFO", e["interval"],
                          (shard_ltok[sid], pos)))
    elif drain_entries:
        by_shard_keys: dict[int, list[str]] = {}
        for e in drain_entries:
            sid = shard_for_domain(e["domain"], num_shards)
            by_shard_keys.setdefault(sid, []).append("urllib:" + e["key"])
        for sid in sorted(by_shard_keys):
            ti = _submit(shards[sid], "drain_retries_many",
                         by_shard_keys[sid], now)
            for pos, k in enumerate(by_shard_keys[sid]):
                drain_tok[k] = (ti, pos)
        steps.append(("drain",))

    # --- quota pops: runs of consecutive same-shard rules -------------
    prev = 0            # previous run's token (result value or ObjectRef)
    run_sid: int | None = None
    run_reqs: list[tuple] = []
    run_keys: list[str] = []

    def submit_run() -> None:
        nonlocal prev, run_sid, run_reqs, run_keys
        if not run_reqs:
            return
        out_tok, left_tok = submit_pair(
            shards[run_sid], "schedule_pop_run_chained",
            list(run_reqs), prev, 0, now)
        tokens.append(out_tok)
        steps.append(("pops", len(tokens) - 1, list(run_keys)))
        prev = left_tok
        run_sid, run_reqs, run_keys = None, [], []

    for entry in (() if speculative else priority_entries):
        urllib_key = "urllib:" + entry["key"]
        # --- reSchedule (seed refresh) --------------------------------
        if now - entry["first_schedule"] >= entry["interval"] * 1000:
            submit_run()  # earlier rules' pops precede this on the shard
            links = [link for seed in entry["seed"]
                     for link in expand_seed(seed)]
            # one batched task per shard; the schedule log is rebuilt in
            # original seed order from the returned accept flags, and
            # within-shard push order is preserved — both invariants the
            # sequential oracle checks
            by_shard: dict[int, list[int]] = {}
            for idx, link in enumerate(links):
                by_shard.setdefault(
                    shard_for_url(link, num_shards), []).append(idx)
            seed_parts = []
            for sid, idxs in sorted(by_shard.items()):
                ti = _submit(shards[sid], "push_seeds",
                             [links[i] for i in idxs], version, now)
                seed_parts.append((ti, idxs))
            steps.append(("seeds", urllib_key, links, seed_parts))
            entry["first_schedule"] = version
        # --- doScheduleExt (quota pop) --------------------------------
        ct_base = math.ceil(avg_rate * entry["rate"])
        sid = shard_for_domain(entry["domain"], num_shards)
        lifo = entry["rule"] == "LIFO"
        if run_reqs and sid != run_sid:
            submit_run()
        run_sid = sid
        run_reqs.append((urllib_key, ct_base, lifo, entry["interval"]))
        run_keys.append(urllib_key)
    submit_run()

    # the few-byte left refs resolve as soon as every pop has RUN (both
    # num_returns=2 objects materialize together) — without paying for
    # the accepted-row payload pull, which happens after the repairs
    # are already submitted
    spec_left_vals = resolve(spec_lefts) if spec_lefts else []

    # --- speculative repair plan --------------------------------------
    # Reconstruct the true leftover-carry in serve order.  Rules that
    # stopped early (queue exhausted) contribute their unmet quota as a
    # driver-known int; rules that consumed their whole speculative
    # quota are entitled to the carry and get a "repair" continuation
    # pop.  Repairs chain shard-to-shard through the previous repair's
    # few-byte left ref (``schedule_pop_run_chained`` with ct_base=0,
    # known carry as ``delta``) — no driver round trip per repair, one
    # resolve for all of them.  A repair whose true carry turns out 0
    # degenerates to pop(0): a no-op, so maybe-zero submissions are
    # safe.  (A pre-submitted hop-per-rule chain was tried and measured
    # SLOWER: chain depth grows from the ~2-3 actual repairs to #rules
    # per wave, and at ~10 ms per cross-actor dataflow hop the longer
    # chain costs more than the post-resolve round trip it hides.)
    # Ordering is unchanged by the early submission: lefts-ready ⇒ every
    # speculative pop (and, by per-shard submission order, every drain)
    # has completed, so repairs still run after ALL spec pops.
    # Round-5 pruning: the combined plan also returns each rule's
    # POST-POP queue length.  A repair continuation against an empty
    # queue is a provable no-op — ``schedule_pop`` on an empty deque
    # mutates nothing and returns ([], full quota as left) — so the
    # driver forwards the carry without the RPC hop.  Measured at the
    # bench: 44 of 56 repair hops per run were exactly these
    # pass-throughs (the frontier drains most waves, so the unmet carry
    # snowballed through every later empty rule).  Only rules with rows
    # still queued get a real chained repair.
    repair_for_step: dict[int, int] = {}
    repair_out: list = []
    if speculative:
        carry_known = 0
        pending_left = None  # previous repair's left (token or value)
        for si, step in enumerate(steps):
            if step[0] != "spec":
                continue
            _, ti, urllib_key, sid, lifo, interval, (lj, pos) = step
            lefts_l, qlens_l = spec_left_vals[lj]
            left = lefts_l[pos]
            if left > 0:
                carry_known += left
            elif ((carry_known > 0 or pending_left is not None)
                  and qlens_l[pos] > 0):
                out_tok, left_tok = submit_pair(
                    shards[sid], "schedule_pop_run_chained",
                    [(urllib_key, 0, lifo, interval)],
                    pending_left if pending_left is not None else 0,
                    carry_known, now)
                repair_for_step[si] = len(repair_out)
                repair_out.append(out_tok)
                pending_left = left_tok
                carry_known = 0
    results = resolve(tokens)
    repair_out = resolve(repair_out) if repair_out else []

    # --- emit the schedule log in serve order --------------------------
    # column-list accumulation (6 list appends/row beats a dict alloc —
    # the emit loop measured 0.3 s/wave driver-serial at 62k attempts)
    c_url: list = []
    c_ulib: list = []
    c_ver: list = []
    c_ref: list = []
    c_rel: list = []
    c_retry: list = []

    def _emit(url, urllib_key, ver, referer, relation, retry):
        c_url.append(url)
        c_ulib.append(urllib_key)
        c_ver.append(ver)
        c_ref.append(referer)
        c_rel.append(relation or "*")
        c_retry.append(retry)

    def _emit_many(cols, urllib_key):
        # bulk path for pop results — already column lists from the
        # shard (4 parallel lists), so the emit is pure list.extend with no
        # per-row transpose; the emit loop is driver-serial
        u, v, rf, rl = cols
        c_url.extend(u)
        c_ulib.extend([urllib_key] * len(u))
        c_ver.extend(v)
        c_ref.extend(rf)
        c_rel.extend((r or "*") for r in rl)
        c_retry.extend([0] * len(u))

    for si, step in enumerate(steps):
        if step[0] == "drain":
            for e in drain_entries:
                k = "urllib:" + e["key"]
                ti, pos = drain_tok[k]
                # combined spec plan: results[ti] = (drains, accepted)
                rows = (results[ti][0][pos] if speculative
                        else results[ti][pos])
                for url, ver, referer, relation, rcount in rows:
                    _emit(url, k, ver, referer, relation, rcount)
        elif step[0] == "seeds":
            _, urllib_key, links, seed_parts = step
            accepted_flags = [False] * len(links)
            for ti, idxs in seed_parts:
                for i, ok in zip(idxs, results[ti]):
                    accepted_flags[i] = ok
            for link, ok in zip(links, accepted_flags):
                if ok:
                    _emit(link, urllib_key, version, "", "*", 0)
        elif step[0] == "spec":
            _, ti, urllib_key, sid, lifo, interval, (_lj, pos) = step
            accepted = results[ti][1][pos]
            if si in repair_for_step:
                rep = repair_out[repair_for_step[si]][0]
                accepted = tuple(a + b for a, b in zip(accepted, rep))
            if accepted[0]:
                _emit_many(accepted, urllib_key)
        else:
            _, ti, keys = step
            out = results[ti]
            for urllib_key, accepted in zip(keys, out):
                if accepted[0]:
                    _emit_many(accepted, urllib_key)
    return {"wave": wave, "url": c_url, "urllib": c_ulib, "version": c_ver,
            "referer": c_ref, "drill_relation": c_rel, "retry": c_retry}
