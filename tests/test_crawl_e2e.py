"""End-to-end parity: distributed multi-shard Ray crawl ≡ sequential
oracle (schedule order, URL-seen set, byte-identical text), plus
resume-from-checkpoint equivalence (FIXTURES.md §4, SURVEY.md §5)."""

import glob

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from neocrawler_ray.config import CrawlSettings
from neocrawler_ray.sources.pages_gen import generate_corpus
from neocrawler_ray.state.frontier import STATE_FORMAT_VERSION


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    # 5 domains → every special domain is live: 0 mega+robots+binary,
    # 1 gzip+LIFO, 2 jshandle/browser, 3 simulated-proxy, 4 zh/meta-charset
    generate_corpus(out, n_pages=500, n_domains=5, seed=42)
    return out


def _settings(**kw):
    base = dict(num_frontier_shards=4, max_waves=60)
    base.update(kw)
    return CrawlSettings(**base)


def _schedule_rows(out_dir):
    files = sorted(
        glob.glob(f"{out_dir}/schedule/wave_*.parquet"),
        key=lambda p: int(p.split("_")[-1].split(".")[0]),
    )
    tbl = pa.concat_tables([pq.read_table(f) for f in files])
    return [
        (r["wave"], r["seq"], r["url"], r["urllib"]) for r in tbl.to_pylist()
    ]


@pytest.fixture(scope="module")
def oracle_result(corpus):
    from neocrawler_ray.pipelines.oracle import run_oracle

    return run_oracle(corpus, _settings())


@pytest.fixture(scope="module")
def engine_out(corpus, tmp_path_factory, ray_session):
    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path_factory.mktemp("engine_out"))
    job = CrawlJob(corpus, _settings(), out)
    totals = job.run()
    return out, totals


def test_schedule_order_parity(engine_out, oracle_result):
    out, totals = engine_out
    eng = _schedule_rows(out)
    ora = [
        (r["wave"], r["seq"], r["url"], r["urllib"])
        for r in oracle_result["schedule_log"]
    ]
    assert eng == ora
    assert totals["waves"] == oracle_result["waves"]


def test_url_seen_parity(engine_out, oracle_result):
    out, _ = engine_out
    seen = pq.read_table(f"{out}/url_seen").column("url_md5").to_pylist()
    assert set(seen) == set(oracle_result["url_seen"].keys())
    assert len(seen) == len(set(seen))


def test_text_and_state_parity(engine_out, oracle_result):
    out, _ = engine_out
    ext = pads.dataset(f"{out}/extracted").to_table(
        columns=["url", "retries", "nav_round", "text", "final_state",
                 "status"]
    ).to_pylist()
    # one output row per ATTEMPT (T6 retry loop) per NAVIGATION ROUND
    # (S6 per-round results): key rows by (url, attempt#, round) —
    # unique on both sides
    by_key = {(e["url"], e["retries"], e["nav_round"]): e
              for e in oracle_result["extracted"]}
    assert len(ext) == len(by_key)
    for r in ext:
        o = by_key[(r["url"], r["retries"], r["nav_round"])]
        assert r["text"] == o["text"], r["url"]          # byte-identical
        assert r["final_state"] == o["final_state"]
        assert r["status"] == o["status"]
    # coverage: every non-robots corpus page was crawled successfully or
    # deliberately failed (short/dead/robots fixtures)
    assert sum(1 for r in ext if r["final_state"] == "crawled_finish") > 300


def test_per_round_results_for_jshandle(engine_out, oracle_result):
    """S6 per-click-round emission (phantomjs-bridge.js:157-236): a
    stoppage-3 jshandle rule emits one crawled result per navigation
    round — 3 rows per list url on the browser domain, with the jsnav
    links appearing cumulatively round by round."""
    out, _ = engine_out
    ext = pads.dataset(f"{out}/extracted").to_table(
        columns=["url", "retries", "nav_round", "final_state", "n_links"]
    ).to_pylist()
    list_rows = [r for r in ext if "site2.example/cat_" in r["url"]
                 and "/list_" in r["url"]]
    assert list_rows, "browser-domain list pages missing from the run"
    by_url: dict[str, list[dict]] = {}
    for r in list_rows:
        by_url.setdefault(r["url"], []).append(r)
    gated_seen = 0
    for url, rows in by_url.items():
        p = int(url.split("list_")[1].split(".")[0])
        rounds = sorted(r["nav_round"] for r in rows)
        if p % 5 == 2:
            # corpus v6: this list demands a premium cookie the rule
            # lacks → the cookie gate precedes browser rendering, so NO
            # click rounds happen (every row is the retried login-stub
            # failure at nav_round 0)
            gated_seen += 1
            assert set(rounds) == {0}, (url, rounds)
            states = {r["final_state"] for r in rows}
            assert states <= {"crawl_retry", "crawled_failure"}, url
            assert "crawled_failure" in states, url  # retries exhausted
            continue
        assert rounds == [0, 1, 2], (url, rounds)  # stoppage=3 → 3 rows
        links = [r["n_links"] for r in
                 sorted(rows, key=lambda x: x["nav_round"])]
        # each click round reveals one more jsnav item link
        assert links[0] + 1 == links[1] == links[2] - 1, (url, links)
    assert gated_seen, "corpus v6 must contain a cookie-gated list page"
    # the oracle produced the identical per-round row multiset
    ora = [e for e in oracle_result["extracted"]
           if "site2.example/cat_" in e["url"] and "/list_" in e["url"]]
    assert sorted((e["url"], e["nav_round"]) for e in ora) == sorted(
        (r["url"], r["nav_round"]) for r in list_rows)


def test_script_and_cookie_gates_observable(corpus, tmp_path_factory,
                                            oracle_result):
    """README.md:181-195 `script` hook + downloader.js:117-123 cookies,
    both observable: the jshandle list rule's injected script reveals
    item_9xxxxx detail pages (absent when the script is stripped), and
    the proxied domain's every-7th≡3 item demands a cookie the rule
    lacks → deterministic login-stub failures.  Engine parity rides the
    main e2e tests (engine ≡ oracle on this corpus); here the ORACLE
    semantics themselves are pinned, incl. the negative paths."""
    import json
    import re
    import shutil

    from neocrawler_ray.pipelines.oracle import run_oracle

    inj = [e for e in oracle_result["extracted"]
           if re.search(r"item_9\d{5}\.html", e["url"])]
    assert inj, "script-injected detail pages were not crawled"
    assert all(e["final_state"] == "crawled_finish" for e in inj
               if e["retries"] == 0 and e["status"] == 200)

    d3_items = [e for e in oracle_result["extracted"]
                if "site3.example/cat_" in e["url"] and "item_" in e["url"]
                and e["status"] == 200]
    assert d3_items
    gated = [e for e in d3_items
             if int(re.search(r"id=(\d+)", e["url"]).group(1)) % 7 == 3]
    ungated = [e for e in d3_items
               if int(re.search(r"id=(\d+)", e["url"]).group(1)) % 7 != 3
               and int(re.search(r"id=(\d+)", e["url"]).group(1)) % 97 != 13]
    assert gated and ungated
    # missing-cookie pages serve the login stub → never valid
    assert all(not e["valid"] and e["text"] == "" for e in gated)
    assert any(e["final_state"] == "crawled_finish" for e in ungated)

    # negative control: stripping the script removes the injected pages
    alt = str(tmp_path_factory.mktemp("noscript_corpus"))
    shutil.rmtree(alt)
    shutil.copytree(corpus, alt)
    rules = json.load(open(f"{alt}/rules.json"))
    rules["site2.example"]["list"]["script"] = ""
    with open(f"{alt}/rules.json", "w") as f:
        json.dump(rules, f)
    res = run_oracle(alt, _settings())
    assert not any(re.search(r"item_9\d{5}\.html", e["url"])
                   for e in res["extracted"])
    # jsnav navigation still works without the script
    assert any("utm=js" not in e["url"]
               and "site2.example/cat_" in e["url"]
               and e["nav_round"] > 0 for e in res["extracted"])


def test_resume_from_checkpoint(corpus, tmp_path_factory, ray_session,
                                engine_out, oracle_result):
    """Kill after wave 2, resume with fresh actors → identical final
    schedule log + URL-seen set as the uninterrupted run."""
    from neocrawler_ray.pipelines.crawl import CrawlJob

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("resume_out"))
    job1 = CrawlJob(corpus, _settings(), out)
    job1.run(max_waves=3)  # "killed" after wave 2 checkpoint
    job2 = CrawlJob(corpus, _settings(), out, resume=True)
    assert job2.start_wave == 3
    job2.run()

    assert _schedule_rows(out) == _schedule_rows(out_full)
    seen_r = set(pq.read_table(f"{out}/url_seen").column("url_md5").to_pylist())
    seen_f = set(
        pq.read_table(f"{out_full}/url_seen").column("url_md5").to_pylist()
    )
    assert seen_r == seen_f


@pytest.fixture(scope="module")
def fmt_ckpt(corpus, tmp_path_factory, ray_session):
    """A two-wave run's output dir and its checkpoint manifest."""
    import json
    import os

    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path_factory.mktemp("fmt_out"))
    CrawlJob(corpus, _settings(), out).run(max_waves=2)
    with open(os.path.join(out, "ckpt", "manifest.json")) as f:
        return out, json.load(f)


@pytest.mark.parametrize(
    "fmt", [*range(1, STATE_FORMAT_VERSION), None],
    ids=lambda v: "absent" if v is None else f"v{v}")
def test_resume_refuses_mismatched_state_format(corpus, fmt_ckpt, fmt):
    """A checkpoint written under any older shard snapshot layout (v3
    records still carried the ``records`` ring and ``create`` stamp; v2
    still pickled the cuckoo filter table; a manifest without the field
    predates versioning) is refused, not unpickled into this build's
    shards — and the offline replay tools refuse it too, instead of
    rewriting it into a checkpoint resume cannot read."""
    import json
    import os

    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.pipelines.replay import replay_failures

    out, manifest = fmt_ckpt
    assert manifest["state_format"] == STATE_FORMAT_VERSION
    manifest = dict(manifest)
    if fmt is None:
        del manifest["state_format"]
    else:
        manifest["state_format"] = fmt
    with open(os.path.join(out, "ckpt", "manifest.json"), "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="state_format"):
        CrawlJob(corpus, _settings(), out, resume=True)
    with pytest.raises(ValueError, match="state_format"):
        replay_failures(os.path.join(out, "ckpt"))


def test_manifest_names_each_wave_without_lag(corpus, tmp_path_factory,
                                              ray_session):
    """A returned commit means every shard renamed its checkpoint file
    into place, so right after each wave the manifest names that wave
    and every shard's file for it exists."""
    import json
    import os

    from neocrawler_ray.pipelines.crawl import CrawlJob

    settings = _settings()
    out = str(tmp_path_factory.mktemp("nolag_out"))
    ckpt = os.path.join(out, "ckpt")
    checked = []

    def check(wave):
        with open(os.path.join(ckpt, "manifest.json")) as f:
            assert json.load(f)["last_complete_wave"] == wave
        for i in range(settings.num_frontier_shards):
            assert os.path.exists(
                os.path.join(ckpt, f"shard={i}", f"wave_{wave}.pkl"))
        checked.append(wave)

    CrawlJob(corpus, settings, out).run(max_waves=3, on_wave_end=check)
    assert checked == [0, 1, 2]


# ------------------------- T6: transient retry ----------------------------
def _ReplacementDownloader(corpus_dir, **kw):
    # library plugin (workers must be able to import the class)
    from neocrawler_ray.pipelines.plugins import ReplayDownloaderPlugin

    return ReplayDownloaderPlugin(corpus_dir, **kw)


def test_transient_failure_retries_then_succeeds(corpus, tmp_path_factory,
                                                 ray_session, oracle_result):
    """spider/spider.js:350-372: a url failing transiently succeeds on a
    later attempt with retry count riding along; the sequential oracle
    reproduces the exact schedule order including the retry waves."""
    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.pipelines.oracle import run_oracle

    # a url scheduled in wave 0 of the plain run
    fail_url = oracle_result["schedule_log"][0]["url"]
    plugin = _ReplacementDownloader(corpus, fail_url=fail_url, fail_times=2)
    out = str(tmp_path_factory.mktemp("retry_out"))
    job = CrawlJob(corpus, _settings(), out, plugin=plugin)
    job.run()

    ext = pads.dataset(f"{out}/extracted").to_table(
        columns=["url", "retries", "status", "final_state"]).to_pylist()
    attempts = sorted(
        ((r["retries"], r["status"], r["final_state"])
         for r in ext if r["url"] == fail_url))
    assert attempts == [
        (0, 503, "crawl_retry"),
        (1, 503, "crawl_retry"),
        (2, 200, "crawled_finish"),   # succeeded on retry 2
    ]

    ora = run_oracle(corpus, _settings(),
                     plugin=_ReplacementDownloader(corpus, fail_url=fail_url,
                                                   fail_times=2))
    eng_log = _schedule_rows(out)
    ora_log = [(r["wave"], r["seq"], r["url"], r["urllib"])
               for r in ora["schedule_log"]]
    assert eng_log == ora_log


def test_exhausted_retries_turn_crawled_failure(corpus, tmp_path_factory,
                                                ray_session, oracle_result):
    """A url that keeps failing is re-tried download_retry times, then
    marked crawled_failure with the exhausted counter."""
    from neocrawler_ray.pipelines.crawl import CrawlJob

    fail_url = oracle_result["schedule_log"][0]["url"]
    plugin = _ReplacementDownloader(corpus, fail_url=fail_url, fail_times=99)
    out = str(tmp_path_factory.mktemp("retry_dead_out"))
    job = CrawlJob(corpus, _settings(download_retry=3), out, plugin=plugin)
    job.run()
    ext = pads.dataset(f"{out}/extracted").to_table(
        columns=["url", "retries", "final_state"]).to_pylist()
    attempts = sorted((r["retries"], r["final_state"])
                      for r in ext if r["url"] == fail_url)
    assert attempts == [(0, "crawl_retry"), (1, "crawl_retry"),
                        (2, "crawl_retry"), (3, "crawled_failure")]


# ------------------------- T7: circuit breaker ----------------------------
def test_circuit_breaker_aborts_and_resumes(corpus, tmp_path_factory,
                                            ray_session):
    """extractor.js:416-423: a poisoned corpus (every download fails)
    trips the ±failure counter past factor×quota and the run aborts with
    a durable checkpoint; a resume continues from the aborted wave."""
    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path_factory.mktemp("breaker_out"))
    settings = _settings(to_much_fail_exit=True, circuit_breaker_factor=0.5,
                         schedule_quantity_limitation=4)
    plugin = _ReplacementDownloader(corpus, fail_all=True)
    job = CrawlJob(corpus, settings, out, plugin=plugin)
    totals = job.run()
    assert totals["aborted_wave"] == 0
    assert totals["cumulative_failure"] > 0.5 * 4
    assert ("too_much_fail_abort", totals["waves"] - 1) == (
        plugin.alerts[-1][0], plugin.alerts[-1][1]["wave"])

    # resume continues from the aborted wave with fresh counters and
    # (healthy downloads now) finishes the crawl
    job2 = CrawlJob(corpus, _settings(schedule_quantity_limitation=4), out,
                    resume=True,
                    plugin=_ReplacementDownloader(corpus))
    assert job2.start_wave == totals["aborted_wave"] + 1
    totals2 = job2.run(max_waves=job2.start_wave + 3)
    assert "aborted_wave" not in totals2


# ------------------------- T5: rules hot-reload ---------------------------
def test_rules_reload_mid_run(corpus, tmp_path_factory, ray_session):
    """scheduler/index.js:63-120: a rule added to rules.json mid-run is
    picked up at the next wave boundary and its seed enters that wave's
    schedule log under the new urllib key."""
    import json
    import os

    from neocrawler_ray.pipelines.crawl import CrawlJob

    # private corpus copy (the module fixture is shared)
    import shutil

    my_corpus = str(tmp_path_factory.mktemp("reload_corpus"))
    shutil.rmtree(my_corpus)
    shutil.copytree(corpus, my_corpus)

    with open(os.path.join(my_corpus, "rules.json")) as f:
        rules = json.load(f)
    d0 = sorted(rules.keys())[0]
    seed_url = f"http://www.{d0}/cat_0/list_1.html"

    def inject(wave: int) -> None:
        if wave != 0:
            return
        esc = d0.replace(".", r"\.")
        new_rule = dict(rules[d0]["list"])
        new_rule.update(
            alias="injected",
            url_pattern=rf"^http://www\.{esc}/cat_0/list_1\.html$",
            seed=[seed_url], drill_rules=[],
        )
        rules[d0]["injected"] = new_rule
        with open(os.path.join(my_corpus, "rules.json"), "w") as f:
            json.dump(rules, f)

    out = str(tmp_path_factory.mktemp("reload_out"))
    job = CrawlJob(my_corpus, _settings(), out)
    job.run(max_waves=3, on_wave_end=inject)

    rows = _schedule_rows(out)
    injected = [r for r in rows if r[3] == f"urllib:driller:{d0}:injected"]
    assert injected, "injected rule's seed never scheduled"
    assert injected[0][0] == 1  # first wave after the reload
    assert injected[0][2] == seed_url


def test_rules_reload_survives_partial_write(corpus, tmp_path_factory,
                                             ray_session):
    """A truncated/mid-write rules.json at a wave boundary must not
    crash the crawl or poison the signature: the old rules stay live
    and the completed write is picked up at the NEXT boundary."""
    import json
    import os
    import shutil

    from neocrawler_ray.pipelines.crawl import CrawlJob

    my_corpus = str(tmp_path_factory.mktemp("reload2_corpus"))
    shutil.rmtree(my_corpus)
    shutil.copytree(corpus, my_corpus)

    with open(os.path.join(my_corpus, "rules.json")) as f:
        rules = json.load(f)
    d0 = sorted(rules.keys())[0]
    seed_url = f"http://www.{d0}/cat_0/list_1.html"
    path = os.path.join(my_corpus, "rules.json")

    def inject(wave: int) -> None:
        if wave == 0:
            # simulate catching a non-atomic editor mid-write
            with open(path, "w") as f:
                f.write('{"truncated": ')
        elif wave == 1:
            esc = d0.replace(".", r"\.")
            new_rule = dict(rules[d0]["list"])
            new_rule.update(
                alias="injected2",
                url_pattern=rf"^http://www\.{esc}/cat_0/list_1\.html$",
                seed=[seed_url], drill_rules=[],
            )
            rules[d0]["injected2"] = new_rule
            with open(path, "w") as f:
                json.dump(rules, f)

    out = str(tmp_path_factory.mktemp("reload2_out"))
    job = CrawlJob(my_corpus, _settings(), out)
    job.run(max_waves=4, on_wave_end=inject)  # must not raise

    rows = _schedule_rows(out)
    injected = [r for r in rows if r[3] == f"urllib:driller:{d0}:injected2"]
    assert injected, "valid rewrite after the corrupt one never loaded"
    assert injected[0][0] == 2  # wave after the VALID write


def test_nonbinding_budget_e2e_parity(corpus, tmp_path_factory,
                                      ray_session):
    """Distributed engine ≡ sequential oracle (which pops every rule)
    with a politeness budget that never defers a pop: schedule order,
    wave count and URL-seen set.  The default-budget fixtures above
    cover the binding case."""
    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.pipelines.oracle import run_oracle

    open_settings = _settings(politeness_per_host_per_wave=10**6)
    out = str(tmp_path_factory.mktemp("open_budget_out"))
    job = CrawlJob(corpus, open_settings, out)
    totals = job.run()

    ora = run_oracle(corpus, open_settings)
    eng_rows = _schedule_rows(out)
    ora_rows = [(r["wave"], r["seq"], r["url"], r["urllib"])
                for r in ora["schedule_log"]]
    assert eng_rows == ora_rows
    assert totals["waves"] == ora["waves"]
    seen = pq.read_table(f"{out}/url_seen").column("url_md5").to_pylist()
    assert set(seen) == set(ora["url_seen"].keys())


def test_block_wait_leaves_feedback_remote(corpus, tmp_path_factory,
                                           ray_session, monkeypatch):
    """Feedback rows never reach the driver: block tasks deliver them to
    the frontier shards themselves, so no value the driver's ``ray.get``
    receives (block tallies and ack refs, commit counts, ...) holds an
    Arrow table."""
    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob

    got = []
    real_get = ray.get

    def spy(*args, **kw):
        got.append(real_get(*args, **kw))
        return got[-1]

    def tables(v):
        if isinstance(v, pa.Table):
            return 1
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, (list, tuple)):
            return sum(tables(x) for x in v)
        return 0

    monkeypatch.setattr(ray, "get", spy)
    out = str(tmp_path_factory.mktemp("wait_out"))
    CrawlJob(corpus, _settings(), out).run(max_waves=2)
    assert got and tables(got) == 0


def test_retried_block_does_not_double_apply(corpus, tmp_path_factory,
                                             ray_session):
    """A block run twice after it delivered its feedback: the real
    ``CrawlHost.run_block`` called twice on one block on a live host
    commits the same counts and shard stats as one call, because the
    shards key each delivery by ``(wave, block_lo)`` — the local rows
    and the peer deliveries alike."""
    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.pipelines.scheduler import run_schedule_wave

    s = _settings(num_frontier_shards=2)

    def run(attempts):
        out = str(tmp_path_factory.mktemp("retry_out"))
        job = CrawlJob(corpus, s, out)
        sched = run_schedule_wave(0, job.entries, job.total_rates,
                                  job.hosts, s, job._queued)
        tbl = ray.put(sched.drop_columns(["host"]))
        n = len(sched)
        for _ in range(attempts):
            # an earlier call's deliveries landed; the driver only sees
            # the acks of the call that returned
            _tally, acks = ray.get(job.hosts[0].run_block.remote(
                tbl, 0, 0, n, f"{out}/part-00000.parquet"))
            ray.get(list(acks.values()))
        commits = ray.get([
            host.commit_wave_and_checkpoint.remote(
                s.wave_version(0), job.ckpt_dir, 0, False,
                *([acks[h]] if h in acks else []))
            for h, host in enumerate(job.shard_hosts)])
        return ([by_sid[sid][0] for by_sid in commits
                 for sid in sorted(by_sid)],
                ray.get([sh.stats.remote() for sh in job.shards]))

    once = run(1)
    assert sum(c["links_saved"] for c in once[0]) > 0
    assert run(2) == once


def test_host_kernel(tmp_path):
    """A host builds its ``(FetchSim, ExtractBatch)`` kernel once and
    reuses it across blocks; ``update_rules`` rebuilds it with the new
    rules' browser, proxy and cookie maps and keeps the plugin (a local
    ``CrawlHost``, no Ray)."""
    from neocrawler_ray.pipelines.crawl import CrawlHost
    from neocrawler_ray.pipelines.plugins import ContentDedupSink

    plugin = ContentDedupSink()
    r1 = {"a.example": {"list": {"jshandle": True}}}
    r2 = {"b.example": {"list": {"use_proxy": True,
                                 "cookie": [{"name": "k", "value": "v"}]}}}
    host = CrawlHost(0, [0], r1, _settings(), str(tmp_path), 1, plugin)
    first = host._kernel()
    assert host._kernel() is first
    fetch, extract = first
    assert fetch.plugin is plugin and extract.plugin is plugin
    assert extract.rules == r1
    assert fetch.browser_map == {"urllib:driller:a.example:list": (0, None)}
    assert fetch.proxy_map == frozenset() and fetch.cookie_map == {}

    host.update_rules(r2)
    second = host._kernel()
    assert second is not first and host._kernel() is second
    fetch, extract = second
    assert fetch.plugin is plugin and extract.plugin is plugin
    assert extract.rules == r2 and fetch.browser_map == {}
    assert fetch.proxy_map == {"urllib:driller:b.example:list"}
    assert fetch.cookie_map == {"urllib:driller:b.example:list": "k=v"}


def test_failed_block_fails_fast(corpus, tmp_path_factory, ray_session,
                                 engine_out):
    """A block that raises in wave 2 (a plugin ``extract_batch`` failing
    once, while a marker file exists) makes ``run()`` raise — the marker
    goes with the failure, so a retried block would have succeeded —
    with the manifest still naming wave 1 and no wave-2 snapshot; a
    resume then reproduces the uninterrupted run's extracted/,
    schedule/ and url_seen/."""
    import json
    import os

    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.pipelines.plugins import PipelinePlugin

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("block_crash_out"))
    marker = os.path.join(out, "fail_wave_2")
    open(marker, "w").close()

    class FailWave2(PipelinePlugin):  # local class: pickled by value
        def extract_batch(self, batch):
            if os.path.exists(marker) and 2 in batch.column("wave").to_pylist():
                try:
                    os.remove(marker)
                except FileNotFoundError:  # another block failed first
                    pass
                raise RuntimeError("block failed in wave 2")
            return batch

    with pytest.raises(ray.exceptions.RayTaskError) as err:
        CrawlJob(corpus, _settings(), out, plugin=FailWave2()).run()
    assert "block failed in wave 2" in str(err.value)
    ckpt = os.path.join(out, "ckpt")
    with open(os.path.join(ckpt, "manifest.json")) as f:
        assert json.load(f)["last_complete_wave"] == 1
    assert not any(os.path.exists(os.path.join(ckpt, f"shard={i}",
                                               "wave_2.pkl"))
                   for i in range(_settings().num_frontier_shards))

    assert not os.path.exists(marker)
    job = CrawlJob(corpus, _settings(), out, resume=True,
                   plugin=FailWave2())
    assert job.start_wave == 2
    job.run()
    assert _signature(out) == _signature(out_full)


def test_checkpoint_write_crash_fails_fast(corpus, tmp_path_factory,
                                           ray_session, engine_out):
    """A shard's in-commit checkpoint failing between its temp write and
    the rename (``shard=1/wave_2.pkl`` is a directory, so the host's
    ``os.replace`` raises) makes ``run()`` raise with the manifest still
    naming wave 1; once the obstacle is gone, a resume reproduces the
    uninterrupted run's extracted/, schedule/ and url_seen/."""
    import json
    import os

    import ray

    from neocrawler_ray.pipelines.crawl import CrawlJob

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("ckpt_crash_out"))
    blocker = os.path.join(out, "ckpt", "shard=1", "wave_2.pkl")
    os.makedirs(blocker)
    with pytest.raises(ray.exceptions.RayTaskError) as err:
        CrawlJob(corpus, _settings(), out).run()
    assert isinstance(err.value.cause, IsADirectoryError)
    with open(os.path.join(out, "ckpt", "manifest.json")) as f:
        assert json.load(f)["last_complete_wave"] == 1

    os.rmdir(blocker)
    job = CrawlJob(corpus, _settings(), out, resume=True)
    assert job.start_wave == 2
    job.run()
    assert _signature(out) == _signature(out_full)


# ------------------- several logical shards per host ---------------------
def _signature(out):
    from __ray_entry__ import _crawl_artifact_sig

    return [_crawl_artifact_sig(out, sub)
            for sub in ("extracted", "schedule", "url_seen")]


def test_two_shards_per_host_parity(corpus, tmp_path_factory, ray_session,
                                    oracle_result, monkeypatch):
    """S=4 logical shards on H=2 hosts: the same schedule order and
    URL-seen set as the sequential oracle, and still one checkpoint
    file, one url-seen file and one metrics row per logical shard."""
    import json
    import os

    from neocrawler_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "_num_hosts", lambda: 2)
    out = str(tmp_path_factory.mktemp("two_per_host_out"))
    job = crawl.CrawlJob(corpus, _settings(), out)
    assert len(job.hosts) == 2 and len(job.shards) == 4
    totals = job.run()
    assert _schedule_rows(out) == [
        (r["wave"], r["seq"], r["url"], r["urllib"])
        for r in oracle_result["schedule_log"]]
    assert totals["waves"] == oracle_result["waves"]
    seen = pq.read_table(f"{out}/url_seen").column("url_md5").to_pylist()
    assert set(seen) == set(oracle_result["url_seen"].keys())
    assert sorted(os.listdir(f"{out}/url_seen")) == [
        f"shard={i}.parquet" for i in range(4)]
    assert sorted(d for d in os.listdir(f"{out}/ckpt")
                  if d.startswith("shard=")) == [f"shard={i}"
                                                 for i in range(4)]
    with open(f"{out}/metrics.json") as f:
        assert [m["shard"] for m in json.load(f)["shards"]] == [0, 1, 2, 3]


def test_resume_under_another_host_count(corpus, tmp_path_factory,
                                         ray_session, engine_out,
                                         monkeypatch):
    """Checkpoint files are per logical shard, so a run checkpointed on
    2 hosts resumes on 4 (each host opens its own shards' files) and
    matches the uninterrupted run's extracted/, schedule/ and url_seen/
    signatures."""
    from neocrawler_ray.pipelines import crawl

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("rehost_out"))
    monkeypatch.setattr(crawl, "_num_hosts", lambda: 2)
    crawl.CrawlJob(corpus, _settings(), out).run(max_waves=3)
    monkeypatch.setattr(crawl, "_num_hosts", lambda: 4)
    job = crawl.CrawlJob(corpus, _settings(), out, resume=True)
    assert job.start_wave == 3 and len(job.hosts) == 4
    job.run()
    assert _signature(out) == _signature(out_full)


def test_resume_replays_uncheckpointed_wave(corpus, tmp_path_factory,
                                            ray_session, engine_out):
    """checkpoint_every=2 snapshots only waves 1, 3, ...: a run stopped
    after wave 2 leaves the manifest on wave 1 and no wave-2 snapshot,
    and its resume replays wave 2 into the uninterrupted run's
    extracted/, schedule/ and url_seen/ signatures."""
    import json
    import os

    from neocrawler_ray.pipelines.crawl import CrawlJob

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("cadence_out"))
    settings = _settings(checkpoint_every=2)
    CrawlJob(corpus, settings, out).run(max_waves=3)
    ckpt = os.path.join(out, "ckpt")
    with open(os.path.join(ckpt, "manifest.json")) as f:
        assert json.load(f)["last_complete_wave"] == 1
    for i in range(settings.num_frontier_shards):
        shard_dir = os.path.join(ckpt, f"shard={i}")
        assert os.path.exists(os.path.join(shard_dir, "wave_1.pkl"))
        assert not os.path.exists(os.path.join(shard_dir, "wave_2.pkl"))
    job = CrawlJob(corpus, settings, out, resume=True)
    assert job.start_wave == 2
    job.run()
    assert _signature(out) == _signature(out_full)


def test_dead_host_fails_fast(corpus, tmp_path_factory, ray_session,
                              engine_out, monkeypatch):
    """A host actor killed after its wave-1 feedback deliveries landed
    and before the commit makes ``run()`` raise, and the host stays dead
    instead of restarting empty (``max_restarts=0``); the manifest still
    names wave 0, from which a resume — on 2 hosts instead of 4, so
    each host restores two shards — reproduces the uninterrupted
    run."""
    import json
    import os
    import time

    import ray

    from neocrawler_ray.pipelines import crawl

    out_full, _ = engine_out
    out = str(tmp_path_factory.mktemp("dead_host_out"))
    monkeypatch.setattr(crawl, "_num_hosts", lambda: 4)
    job = crawl.CrawlJob(corpus, _settings(), out)
    real_get = ray.get
    block_waits = []

    def get(refs, *args, **kw):
        got = real_get(refs, *args, **kw)
        # the block barrier: every value is (breaker tallies, host acks)
        if (isinstance(got, list) and got
                and all(isinstance(v, tuple) and len(v) == 2
                        and isinstance(v[0], dict) and "finish" in v[0]
                        for v in got)):
            block_waits.append(len(got))
            if len(block_waits) == 2:  # wave 1, not committed yet
                real_get([a[1] for _c, a in got if 1 in a])  # delivered
                ray.kill(job.hosts[1], no_restart=False)
                # the kill is asynchronous: return (and let the commit be
                # submitted) only once the host answers no call
                for _ in range(200):
                    try:
                        real_get(job.hosts[1].stats.remote())
                    except ray.exceptions.RayActorError:
                        break
                    time.sleep(0.05)
        return got

    monkeypatch.setattr(ray, "get", get)
    with pytest.raises(ray.exceptions.RayActorError):
        job.run()
    monkeypatch.setattr(ray, "get", real_get)
    assert len(block_waits) == 2
    with pytest.raises(ray.exceptions.RayActorError):  # dead, not empty
        ray.get(job.hosts[1].stats.remote())
    with open(os.path.join(out, "ckpt", "manifest.json")) as f:
        assert json.load(f)["last_complete_wave"] == 0

    monkeypatch.setattr(crawl, "_num_hosts", lambda: 2)
    resumed = crawl.CrawlJob(corpus, _settings(), out, resume=True)
    assert resumed.start_wave == 1 and len(resumed.hosts) == 2
    resumed.run()
    assert _signature(out) == _signature(out_full)


def test_corpus_from_crawl_bridge(engine_out, tmp_path):
    """Frontier → training shards: the bridge over the crawl's
    extracted pages must (a) keep exactly the valid, ≥3-token,
    content-deduped rows, (b) pack monotone non-decreasing shard ids
    in doc_id order, (c) be deterministic across a re-run from the
    written corpus (resume semantics)."""
    import os

    import pandas as pd
    import ray

    from neocrawler_ray.pipelines.export import corpus_from_crawl

    out, _ = engine_out
    wd = str(tmp_path / "bridge")
    m = corpus_from_crawl(os.path.join(out, "extracted"), wd)
    assert len(m) > 0
    assert list(m.columns) == ["doc_id", "url", "source", "lang_pred",
                               "n_tokens", "shard_id"]
    # (a) survivors are unique docs with ≥ 3 tokens
    assert m["doc_id"].is_unique
    assert (m["n_tokens"] >= 3).all()
    ext = ray.data.read_parquet(
        os.path.join(out, "extracted"),
        columns=["url", "valid"]).to_pandas()
    assert len(m) <= int((ext["valid"] == 1).sum())
    # (b) shard ids: packing in doc_id order is a running floor-div
    assert (m.sort_values("doc_id")["shard_id"].diff().dropna()
            >= 0).all()
    # (c) second run over the same workdir reproduces the manifest
    m2 = corpus_from_crawl(os.path.join(out, "extracted"), wd)
    pd.testing.assert_frame_equal(m, m2)


def test_cookie_gated_list_blocks_browser_discovery(engine_out,
                                                    oracle_result):
    """Corpus v6 cookie×browser interaction: a jshandle list behind the
    wrong cookie serves the login stub — so the items reachable ONLY
    through that list's jsnav blocks never enter the URL-seen set, and
    the engine and oracle agree on exactly which ones."""
    out, _ = engine_out
    seen = pads.dataset(f"{out}/url_seen").to_table(
        columns=["url"]).to_pylist()
    seen_urls = {r["url"] for r in seen}
    gated = [u for u in seen_urls
             if "site2.example/cat_" in u and "/list_" in u
             and int(u.split("list_")[1].split(".")[0]) % 5 == 2]
    assert gated, "gated lists themselves are still scheduled"
    # item pages are linked ONLY from their own list page (the jshandle
    # detail rule drills nothing), so every item of a stubbed list must
    # be missing from the seen set: k // 8 + 1 gives the owning list
    # (items_per_list = 8 in the generator), and an injected item
    # 900000 + c*1000 + p belongs to list p
    def owner_p(u: str) -> int:
        k = int(u.split("id=")[1].split("&")[0])
        return (k % 1000) if k >= 900000 else (k // 8 + 1)

    items = [u for u in seen_urls
             if "site2.example/cat_" in u and "item_" in u]
    assert items, "browser-domain items missing entirely"
    offenders = [u for u in items if owner_p(u) % 5 == 2]
    assert not offenders, offenders[:5]
    assert any(owner_p(u) % 5 != 2 for u in items)
    # oracle agrees on exactly this subset (whole-set parity is
    # test_url_seen_parity; this pins the gated slice explicitly)
    ora_items = [u for u in set(oracle_result["url_seen"].values())
                 if "site2.example/cat_" in u and "item_" in u]
    assert sorted(ora_items) == sorted(items)
