"""Sequential oracle — single-process, single-shard crawl simulator.

The parity reference for the distributed engine: same pure functions
(extraction/URL semantics are independently verified against the
generator's directly-computed text and the reference-mirroring unit
tests), but **no Ray, no sharding, no parallelism** — one local
:class:`FrontierHost` holding a single shard with the whole frontier,
driven through the engine's own scheduler round, pages served from an
in-memory dict, every page processed strictly in schedule order.

What the distributed run must reproduce exactly (SURVEY.md §2.9):
- the ordered schedule log (single-scheduler total order);
- the final URL-seen set (url_md5 set);
- per-url extracted text / final state.

Any divergence indicates an orchestration bug (shard routing, buffer
commit ordering, actor races) — precisely what this oracle exists to
catch.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pyarrow.dataset as pads

from ..config import CrawlSettings, RuleSet
from ..stages.fetch import (apply_browser, apply_cookie_gate,
                            navigate_steps, parse_robots,
                            proxy_fetch_failed, robots_blocked,
                            rule_cookie_header, rule_script_key)
from ..state.frontier import FrontierHost
from ..functions.extract import decode_body, extract_page, validate_content
from ..functions.urls import rule_for_urllib, url_host, url_tld
from .scheduler import run_schedule_wave


def run_oracle(corpus_dir: str, settings: CrawlSettings,
               max_waves: int | None = None, plugin=None) -> dict:
    with open(os.path.join(corpus_dir, "rules.json")) as f:
        rules = json.load(f)
    ruleset = RuleSet(rules)
    entries = ruleset.priority_list(settings.max_weight)
    total_rates = sum(e["rate"] for e in entries)

    pages_ds = pads.dataset(os.path.join(corpus_dir, "pages"))
    cols = ["url", "html"] + (
        ["html_rendered"] if "html_rendered" in pages_ds.schema.names else [])
    pages_tbl = pages_ds.to_table(columns=cols)
    rendered_col = (
        pages_tbl.column("html_rendered").to_pylist()
        if "html_rendered" in cols else [None] * pages_tbl.num_rows)
    # url → (raw body, browser-rendered body or None)
    pages = {
        u: (h, r)
        for u, h, r in zip(pages_tbl.column("url").to_pylist(),
                           pages_tbl.column("html").to_pylist(), rendered_col)
    }
    robots = {
        url_host(u): parse_robots(h)
        for u, (h, _r) in pages.items()
        if u.endswith("/robots.txt")
    }

    # force single shard regardless of the settings used by the engine run
    settings = dataclasses.replace(settings, num_frontier_shards=1)
    frontier = FrontierHost([0], rules, settings)

    schedule_log: list[dict] = []
    extracted: list[dict] = []
    max_waves = max_waves if max_waves is not None else settings.max_waves

    wave = 0
    while wave < max_waves:
        sched = run_schedule_wave(wave, entries, total_rates, [frontier],
                                  settings)
        if not len(sched):
            break
        version = settings.wave_version(wave)
        # 'crawling' marks are folded into the pop/seed path in the shard
        scheduled = sched.drop_columns(["host"]).to_pylist()
        schedule_log.extend(scheduled)

        for row in scheduled:
            url = row["url"]
            rule = rule_for_urllib(rules, row["urllib"]) or {}
            host = url_host(url) or ""
            html = None
            status = 0
            blocked = False
            handled = False
            if plugin is not None:
                # downloader.js:294-306 download-replace hook, driven one
                # row at a time (the oracle is strictly sequential).  A
                # replaced download bypasses robots gating, exactly like
                # FetchSim.__call__ (plugin short-circuits first).
                import pyarrow as pa

                one = pa.Table.from_pylist([{
                    "seq": row["seq"], "wave": row["wave"], "url": url,
                    "urllib": row["urllib"], "version": int(row["version"]),
                    "referer": row.get("referer") or "",
                    "drill_relation": row.get("drill_relation") or "*",
                    "retry": int(row.get("retry") or 0),
                }])
                res = plugin.download_batch(one)
                if res is not None:
                    html = res.column("html")[0].as_py()
                    status = int(res.column("status")[0].as_py())
                    blocked = bool(res.column("robots_blocked")[0].as_py()) \
                        if "robots_blocked" in res.schema.names else False
                    handled = True
            # per-round bodies (S6, phantomjs-bridge.js:157-236: a full
            # crawled result after EVERY navigation round) — default one
            # final round; jshandle rules with navigation budget expand
            rounds: list[tuple[int, "bytes | None"]] = []
            if not handled:
                blocked = robots_blocked(robots, url, host)
                if (not blocked and rule.get("use_proxy")
                        and proxy_fetch_failed(
                            url, int(row.get("retry") or 0))):
                    # T8 simulated bad-proxy draw — same dispatch order
                    # as FetchSim.__call__ (robots → proxy → lookup)
                    html, status = None, 503
                else:
                    raw, rendered = pages.get(url, (None, None))
                    if not blocked and raw is not None:
                        # M15 cookie gate — same dispatch as FetchSim
                        # (cookie check precedes browser rendering)
                        raw = apply_cookie_gate(
                            raw, rule_cookie_header(rule)
                            if rule.get("cookie") else "")
                    if (not blocked and raw is not None
                            and rule.get("jshandle")):
                        # S6 browser path — same dispatch as FetchSim
                        steps = navigate_steps(rule)
                        skey = rule_script_key(rule)
                        from ..stages.fetch import LOGIN_STUB
                        if (steps > 0 and rendered is not None
                                and raw != LOGIN_STUB):
                            rounds = [
                                (r, apply_browser(raw, rendered, r, skey))
                                for r in range(steps)]
                        raw = apply_browser(raw, rendered, steps, skey)
                    html = None if blocked else raw
                    status = (999 if blocked
                              else (200 if html is not None else 404))
            fmt = rule.get("format", "html")
            is_binary = fmt == "binary"
            rounds.append((rounds[-1][0] + 1 if rounds else 0, html))

            act_retry = int(row.get("retry") or 0)
            buf = []
            for nav_round, body in rounds:
                nav_last = nav_round == rounds[-1][0]
                final_state = "crawled_failure"
                text = ""
                valid = False
                links = {}
                relation = row["drill_relation"] or "*"
                if not blocked:
                    if status == 200 and body is not None and not is_binary:
                        content = decode_body(body, rule)
                    else:
                        content = body if body is not None else b""
                    valid = validate_content(
                        len(content), status, is_binary, content,
                        rule.get("validation_keywords"),
                    )
                    if valid:
                        final_state = "crawled_finish"
                        if not is_binary:
                            links, relation, data, _lacks = extract_page(
                                url, content, rule, row["drill_relation"],
                                settings.keep_link_relation, rules,
                            )
                            text = data.get("text_main") or ""
                    elif act_retry < settings.download_retry:
                        # T6 retryCrawl, mirrored (spider/spider.js:350-372)
                        final_state = "crawl_retry"

                # frontier feedback, buffered exactly like the engine
                # (per-round gidx offset = extract_stage's base_g)
                gidx = nav_round * 1_000_000
                for ulib, ls in links.items():
                    for lidx, dst in enumerate(ls):
                        buf.append(
                            (row["seq"], "link",
                             (gidx, lidx, ulib, dst, url, relation,
                              row["version"]))
                        )
                    gidx += 1
                if nav_last:
                    # one state/retry transition per attempt — the
                    # final round row carries it (extract_stage parity)
                    if final_state == "crawl_retry":
                        buf.append((row["seq"], "retry",
                                    (url, row["urllib"], act_retry + 1)))
                    else:
                        buf.append((row["seq"], "state", (url, final_state)))
                extracted.append(
                    {
                        "seq": row["seq"], "wave": wave, "url": url,
                        "status": status, "valid": valid,
                        "final_state": final_state, "text": text,
                        "retries": act_retry, "nav_round": nav_round,
                        "nav_last": nav_last,
                    }
                )
            frontier.buffer_results(wave, row["seq"], {0: buf})
        frontier.commit_wave_and_checkpoint(version, "", wave, False)
        wave += 1

    return {
        "schedule_log": schedule_log,
        "url_seen": dict(frontier.shards[0].seen_table()),
        "extracted": extracted,
        "waves": wave,
        "stats": frontier.stats(0),
    }
