"""spider_extend plugin surface (SURVEY.md §2.10): hooks fire, the
download hook can replace fetch-sim, the sink example dedups content."""

from __future__ import annotations

import pyarrow as pa
import pytest

from neocrawler_ray.config import CrawlSettings
from neocrawler_ray.pipelines.plugins import (
    ContentDedupSink,
    PipelinePlugin,
    TagExtractPlugin,
)
from neocrawler_ray.sources.pages_gen import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("plugin_corpus"))
    generate_corpus(out, n_pages=120, n_domains=2, seed=42)
    return out


def _settings():
    return CrawlSettings(num_frontier_shards=2, max_waves=30)


def test_sink_and_alert_hooks_fire(corpus, tmp_path, ray_session):
    from neocrawler_ray.pipelines.crawl import CrawlJob

    plugin = ContentDedupSink()
    job = CrawlJob(corpus, _settings(), str(tmp_path / "out"), plugin=plugin)
    totals = job.run()
    assert plugin.assembled
    assert totals["waves"] > 1
    # one alert per wave, sink saw every successful page
    assert [e for e, _ in plugin.alerts].count("crawl_finish_alert") == totals["waves"]
    n_finish = sum(1 for _, p in plugin.alerts if p.get("n"))
    assert n_finish > 0
    assert len(plugin.store) > 0
    # dedup semantics: counts sum to number of sunk pages, first-url kept
    assert all(rec["count"] >= 1 and rec["url"] for rec in plugin.store.values())


def test_extract_batch_hook_adds_column(corpus, tmp_path, ray_session):
    import pyarrow.dataset as pads

    from neocrawler_ray.pipelines.crawl import CrawlJob

    job = CrawlJob(corpus, _settings(), str(tmp_path / "out2"),
                   plugin=TagExtractPlugin())
    job.run(max_waves=2)
    tbl = pads.dataset(str(tmp_path / "out2" / "extracted")).to_table()
    assert "plugin_word_count" in tbl.column_names
    rows = tbl.to_pylist()
    done = [r for r in rows if r["final_state"] == "crawled_finish" and r["text"]]
    assert done
    for r in done[:20]:
        assert r["plugin_word_count"] == len(r["text"].split())


def test_download_hook_replaces_fetch(corpus, tmp_path, ray_session):
    from neocrawler_ray.pipelines.crawl import CrawlJob

    class Stub404(PipelinePlugin):
        """Replace the downloader entirely: everything 404s."""

        def download_batch(self, batch: pa.Table):
            n = batch.num_rows
            return (
                batch.append_column("html", pa.array([None] * n, pa.binary()))
                .append_column("status", pa.array([404] * n, pa.int32()))
                .append_column("robots_blocked", pa.array([False] * n, pa.bool_()))
            )

    job = CrawlJob(corpus, _settings(), str(tmp_path / "out3"), plugin=Stub404())
    totals = job.run()
    # nothing downloads → no links discovered → the seeds burn their T6
    # retry budget (one extra wave per retry), then the crawl dies
    assert totals["waves"] <= 2 + job.settings.download_retry
    import pyarrow.dataset as pads

    tbl = pads.dataset(str(tmp_path / "out3" / "extracted")).to_table()
    assert set(tbl.column("status").to_pylist()) == {404}
    assert set(tbl.column("final_state").to_pylist()) == {
        "crawl_retry", "crawled_failure"}
    # every url's terminal row exhausted the full retry budget
    terminal = tbl.filter(
        pa.compute.equal(tbl.column("final_state"), "crawled_failure"))
    assert set(terminal.column("retries").to_pylist()) == {
        job.settings.download_retry}


def _crawl_artifacts(out):
    """(extracted rows, schedule log) of a finished crawl, both sorted
    into a run-independent order."""
    import glob
    import os

    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    ext = pads.dataset(os.path.join(out, "extracted")).to_table()
    df = (ext.to_pandas()
          .sort_values(["wave", "seq", "nav_round"])
          .reset_index(drop=True))
    sched = pd.concat(
        [pq.read_table(p).to_pandas() for p in
         sorted(glob.glob(os.path.join(out, "schedule", "*.parquet")))],
        ignore_index=True).sort_values(["wave", "seq"]).reset_index(drop=True)
    return df, sched


def test_plugin_run_matches_plain_run(corpus, tmp_path, ray_session):
    """A plugin run takes the same raw-task wave path as a plain run:
    a pass-through plugin leaves every artifact unchanged (extracted
    rows in every column, schedule logs, totals), a sink sees each
    extracted row exactly once, and sink order — the fixed part order
    — makes a sink's state identical across runs."""
    import pandas as pd

    from neocrawler_ray.pipelines.crawl import CrawlJob

    outs, totals = {}, {}
    for tag, plugin in (("plain", None), ("pass", PipelinePlugin())):
        out = str(tmp_path / tag)
        totals[tag] = CrawlJob(corpus, _settings(), out, plugin=plugin).run()
        outs[tag] = _crawl_artifacts(out)
    for key in ("scheduled", "waves", "links_saved", "states"):
        assert totals["plain"].get(key) == totals["pass"].get(key), key
    (a_ext, a_sched), (b_ext, b_sched) = outs["plain"], outs["pass"]
    assert a_ext.shape == b_ext.shape
    pd.testing.assert_frame_equal(a_ext, b_ext)
    pd.testing.assert_frame_equal(a_sched, b_sched)

    class CountingSink(PipelinePlugin):
        """Records every row it is handed (defined in-test so the
        block tasks' workers unpickle it by value)."""

        def __init__(self):
            self.rows = []

        def sink_batch(self, batch: pa.Table) -> None:
            self.rows.extend(
                zip(*(batch.column(c).to_pylist()
                      for c in ("wave", "seq", "nav_round"))))

    counting = CountingSink()
    CrawlJob(corpus, _settings(), str(tmp_path / "count"),
             plugin=counting).run()
    assert sorted(counting.rows) == list(
        a_ext[["wave", "seq", "nav_round"]].itertuples(index=False, name=None))

    stores = []
    for tag in ("dedup_a", "dedup_b"):
        sink = ContentDedupSink()
        CrawlJob(corpus, _settings(), str(tmp_path / tag), plugin=sink).run()
        stores.append(list(sink.store.items()))
    assert stores[0] and stores[0] == stores[1]
