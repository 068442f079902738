"""Single-URL debug mode (S11) and checkpoint replay tools (S13)."""

from __future__ import annotations

import json
import os

import pytest

from neocrawler_ray.config import CrawlSettings
from neocrawler_ray.pipelines.debug import test_single_url as debug_single_url
from neocrawler_ray.pipelines.replay import (
    dedup_queues,
    failure_report,
    replay_failures,
    replay_stuck,
)
from neocrawler_ray.sources.pages_gen import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("dbg_corpus"))
    generate_corpus(out, n_pages=200, n_domains=3, seed=42)
    return out


def _settings():
    return CrawlSettings(num_frontier_shards=2, max_waves=40)


def test_debug_single_url_writes_artifacts(corpus, tmp_path):
    # no Ray session needed — stages run as plain callables
    rec = debug_single_url(corpus, "http://www.site0.example/", str(tmp_path))
    assert rec["status"] == 200
    assert rec["final_state"] == "crawled_finish"
    assert os.path.exists(tmp_path / "debug-page.html")
    with open(tmp_path / "debug-result.json") as f:
        dumped = json.load(f)
    assert dumped["url"] == "http://www.site0.example/"
    assert "extracted_data" in dumped or dumped["text"] is not None

    missing = debug_single_url(corpus, "http://nowhere.example/x", str(tmp_path))
    assert missing.get("error") or missing.get("status") == 404


def test_debug_single_url_proxy_retries(tmp_path_factory, tmp_path):
    """A use_proxy url whose FIRST proxy draw fails must still come back
    with the page: the debug tool inlines the retryCrawl loop, re-drawing
    past transient 503s exactly like the crawl's T6 path."""
    import glob

    import pyarrow.dataset as pads

    from neocrawler_ray.stages.fetch import proxy_fetch_failed

    out = str(tmp_path_factory.mktemp("dbg_proxy_corpus"))
    generate_corpus(out, n_pages=300, n_domains=5, seed=42)
    urls = (pads.dataset(glob.glob(out + "/pages*")[0])
            .to_table(columns=["url"]).column("url").to_pylist())
    bad_first = [u for u in urls
                 if "site3" in u and proxy_fetch_failed(u, 0)]
    assert bad_first  # deterministic corpus plants ~1/8 of them
    rec = debug_single_url(out, bad_first[0], str(tmp_path))
    assert rec["status"] == 200
    assert rec["attempts"] > 1
    assert (tmp_path / "debug-page.html").exists()


def test_replay_failures_reschedules(corpus, tmp_path, ray_session):
    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path / "out")
    job = CrawlJob(corpus, _settings(), out)
    job.run()
    ckpt = os.path.join(out, "ckpt")

    rep = failure_report(ckpt).to_pylist()
    failed = [r for r in rep if r["status"] == "crawled_failure"]
    assert failed  # corpus plants dead links + short pages

    n = replay_failures(ckpt)
    assert n == len(failed) > 0
    assert replay_failures(ckpt) == 0  # idempotent: already queued

    # resumed run re-attempts every replayed url (deterministic corpus →
    # they fail again, but they must be *scheduled* again)
    job2 = CrawlJob(corpus, _settings(), out, resume=True)
    job2.run()
    import glob

    import pyarrow.parquet as pq

    waves = sorted(glob.glob(f"{out}/schedule/wave_*.parquet"),
                   key=lambda p: int(p.split("_")[-1].split(".")[0]))
    resumed = [w for w in waves
               if int(w.split("_")[-1].split(".")[0]) >= job2.start_wave]
    scheduled = set()
    for w in resumed:
        scheduled |= set(pq.read_table(w).column("url").to_pylist())
    for r in failed:
        assert r["url"] in scheduled


def test_dedup_queues(corpus, tmp_path, ray_session):
    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path / "out2")
    job = CrawlJob(corpus, _settings(), out)
    job.run(max_waves=2)
    ckpt = os.path.join(out, "ckpt")

    # corrupt a queue with dups, fdq must remove them
    import glob
    import pickle

    with open(os.path.join(ckpt, "manifest.json")) as f:
        wave = json.load(f)["last_complete_wave"]
    paths = sorted(glob.glob(os.path.join(ckpt, "shard=*", f"wave_{wave}.pkl")))
    with open(paths[0], "rb") as f:
        snap = pickle.loads(f.read())
    key = next(iter(snap["queues"]), None)
    if key is None:
        snap["queues"]["urllib:fake:k"] = ["http://a/", "http://a/", "http://b/"]
    else:
        snap["queues"][key] = list(snap["queues"][key]) * 2 + ["http://dup/"] * 2
    with open(paths[0], "wb") as f:
        f.write(pickle.dumps(snap))

    removed = dedup_queues(ckpt)
    assert removed > 0
    assert dedup_queues(ckpt) == 0


def test_replay_stuck_requeues_only_old_locks(corpus, tmp_path,
                                             ray_session):
    """``psq``: a url locked in ``crawling`` for longer than
    ``older_than_ms`` returns to its queue as ``hit``; a fresh
    ``schedule`` lock stays put.  A second call finds nothing, and a
    resumed run schedules the requeued url."""
    import glob
    import pickle

    import pyarrow.parquet as pq

    from neocrawler_ray.pipelines.crawl import CrawlJob

    out = str(tmp_path / "out3")
    CrawlJob(corpus, _settings(), out).run(max_waves=2)
    ckpt = os.path.join(out, "ckpt")
    with open(os.path.join(ckpt, "manifest.json")) as f:
        wave = json.load(f)["last_complete_wave"]
    path = max(glob.glob(os.path.join(ckpt, "shard=*", f"wave_{wave}.pkl")),
               key=os.path.getsize)
    with open(path, "rb") as f:
        snap = pickle.loads(f.read())
    clock = max(int(i.get("last") or 0) for i in snap["url_info"].values())
    old, fresh = [i for i in snap["url_info"].values()
                  if i["status"] == "crawled_finish" and i.get("trace")][:2]
    hour = 3600 * 1000
    old.update(status="crawling", last=clock - 2 * hour)
    fresh.update(status="schedule", last=clock)
    with open(path, "wb") as f:
        f.write(pickle.dumps(snap))

    assert replay_stuck(ckpt, hour) == 1
    with open(path, "rb") as f:
        snap = pickle.loads(f.read())
    infos = {i["url"]: i for i in snap["url_info"].values()}
    assert infos[old["url"]]["status"] == "hit"
    assert old["url"] in snap["queues"][old["trace"]]
    assert infos[fresh["url"]]["status"] == "schedule"
    assert fresh["url"] not in snap["queues"].get(fresh["trace"], [])
    assert replay_stuck(ckpt, hour) == 0

    job = CrawlJob(corpus, _settings(), out, resume=True)
    job.run()
    scheduled = set()
    for p in glob.glob(f"{out}/schedule/wave_*.parquet"):
        if int(p.split("_")[-1].split(".")[0]) >= job.start_wave:
            scheduled |= set(pq.read_table(p).column("url").to_pylist())
    assert old["url"] in scheduled


def _read_png_gray(path):
    """Tiny stdlib PNG reader for the debug screenshots: returns
    (width, height, scanline bytes) and validates chunk CRCs."""
    import binascii
    import struct
    import zlib

    with open(path, "rb") as f:
        data = f.read()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, idat, w, h = 8, b"", 0, 0
    while pos < len(data):
        (ln,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        (crc,) = struct.unpack(">I", data[pos + 8 + ln:pos + 12 + ln])
        assert crc == (binascii.crc32(tag + payload) & 0xFFFFFFFF)
        if tag == b"IHDR":
            w, h, bits, color = struct.unpack(">IIBB", payload[:10])
            assert (bits, color) == (8, 0)  # 8-bit grayscale
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + ln
    raw = zlib.decompress(idat)
    assert len(raw) == h * (w + 1)  # filter byte + w pixels per line
    return w, h, raw


def test_raster_wireframe_deterministic_and_distinct(tmp_path):
    from neocrawler_ray.functions.raster import render_page_png

    a = b"<html><body><h1>Title</h1><p>some text here</p></body></html>"
    b = (b"<html><body><ul><li>one</li><li>two</li><li>three</li></ul>"
         b"<div>a much longer paragraph of wireframe text</div></body></html>")
    for name, html in (("a1", a), ("a2", a), ("b1", b)):
        render_page_png(str(tmp_path / f"{name}.png"), html)
    bytes_a1 = (tmp_path / "a1.png").read_bytes()
    assert bytes_a1 == (tmp_path / "a2.png").read_bytes()  # deterministic
    assert bytes_a1 != (tmp_path / "b1.png").read_bytes()  # layout-sensitive
    w, h, _ = _read_png_gray(str(tmp_path / "a1.png"))
    assert w > 0 and h > 0


def test_raster_wireframe_golden_on_generated_corpus(tmp_path):
    """Every page of a small generated corpus renders the same scanlines
    as the tree-walking renderer this golden digest was recorded from."""
    import hashlib

    import pyarrow.dataset as pads

    from neocrawler_ray.functions.extract import decode_body
    from neocrawler_ray.functions.raster import render_wireframe

    out = str(tmp_path / "c")
    generate_corpus(out, n_pages=120, n_domains=3, seed=9)
    tbl = pads.dataset(out + "/pages").to_table(columns=["url", "html"])
    digest, n = hashlib.sha256(), 0
    for _url, html in sorted(zip(tbl.column("url").to_pylist(),
                                 tbl.column("html").to_pylist())):
        if html:
            rows = render_wireframe(decode_body(html, {}))
            digest.update(b"%d|" % len(rows))
            for row in rows:
                digest.update(bytes(row))
            n += 1
    assert n == 88
    assert digest.hexdigest() == (
        "1cba3c16b68d72d9fd2ae1266dec937cc56ba3b0563b969065e6639c23bbaaf0")


def test_debug_browser_screenshots_per_round(tmp_path_factory, tmp_path):
    """S11 test mode parity for browser rules: one screenshot + rendered
    html PER DRILL ROUND (page_test_action,
    lib/phantomjs/phantomjs-bridge.js:204-211)."""
    import glob

    import pyarrow.dataset as pads

    from neocrawler_ray.functions.extract import detect_link
    from neocrawler_ray.stages.fetch import browser_rules_map

    corpus = str(tmp_path_factory.mktemp("js_dbg_corpus"))
    generate_corpus(corpus, n_pages=400, n_domains=4, seed=42)
    with open(os.path.join(corpus, "rules.json")) as f:
        rules = json.load(f)
    bmap = browser_rules_map(rules)
    key, (steps, _script) = max(bmap.items(), key=lambda kv: kv[1][0])
    assert steps > 0  # the corpus has a navigating jshandle rule
    urls = (pads.dataset(os.path.join(corpus, "pages"))
            .to_table(columns=["url"]).column("url").to_pylist())
    bare = key.split("urllib:", 1)[1]
    target = next(u for u in sorted(urls)
                  if detect_link(u, rules)[0] == bare)

    rec = debug_single_url(corpus, target, str(tmp_path))
    assert rec["final_state"] == "crawled_finish"
    pngs = sorted(glob.glob(str(tmp_path / "debug-page*.png")))
    pages = sorted(glob.glob(str(tmp_path / "debug-browser-page*.html")))
    # one pair per navigation round, round numbers contiguous from 0
    assert len(pngs) == len(pages) == steps + 1
    rasters = [_read_png_gray(p) for p in pngs]
    # click rounds must render visibly different wireframes
    assert len({r[2] for r in rasters}) > 1


def test_raster_survives_arbitrary_text():
    """The wireframe renderer must accept anything a crawl can feed it
    (truncated tags, control bytes, deep nesting) and stay
    deterministic."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from neocrawler_ray.functions.raster import render_wireframe

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=400))
    def check(blob):
        html = b"<div>" * 20 + blob + b"</p><li>" + blob[:50]
        a = render_wireframe(html)
        b = render_wireframe(html)
        assert a == b
        assert all(len(r) == len(a[0]) for r in a)

    check()
