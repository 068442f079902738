"""User-extension surface — the reference's ``spider_extend`` hooks
(SURVEY.md §2.10) re-expressed for Arrow batches.

The reference duck-types a per-instance plugin class and calls its hooks
if present (reference spider/index.js:20,43,58,69-74,83,151;
downloader.js:294-306; pipeline.js:574).  The new engine keeps the same
duck-typed contract over batches:

| reference hook                 | here                                   |
|--------------------------------|----------------------------------------|
| ``assembly(cb)``               | ``assembly(run_config)`` once, driver  |
| ``download(urlinfo, cb)``      | ``download_batch(table)`` → table/None |
| ``extract(extracted_info,cb)`` | ``extract_batch(table)`` → table       |
| ``pipeline(extracted_info,cb)``| ``sink_batch(table)`` per wave, driver |
| ``*_alert`` metric taps        | ``alert(event, payload)``              |

``download_batch`` / ``extract_batch`` run INSIDE the crawl's blocks
(each frontier host process gets its own copy of the plugin object
once per run, so hook state is per-host, mirroring the reference's
per-spider plugin instance); ``assembly``
runs on the driver once per run, and ``sink_batch`` on the driver once
per written wave part, in part order, followed by one
``crawl_finish_alert``.  Returning ``None`` from ``download_batch``
means "fall through to the built-in fetch-sim" (``cb(null, null)``
semantics, reference downloader.js:300-303).
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa


class PipelinePlugin:
    """Base plugin: every hook optional, defaults are pass-throughs."""

    def assembly(self, run_config: dict) -> None:  # spider/index.js:43
        return None

    def download_batch(self, batch: pa.Table):  # downloader.js:294-306
        return None  # None → built-in fetch-sim handles the batch

    def extract_batch(self, batch: pa.Table) -> pa.Table:  # spider/index.js:69-74
        return batch

    def sink_batch(self, batch: pa.Table) -> None:  # pipeline.js:573-575
        return None

    def alert(self, event: str, payload: dict) -> None:  # spider_extend.js:97-175
        return None


class ContentDedupSink(PipelinePlugin):
    """Re-creation of the reference's mongo pipeline example
    (reference README.md:560-646, instance/wiki/spider_extend.js:109-160):
    content-fingerprint dedup upsert — keep one record per ``simplefp``
    of extracted text, counting how many urls collapsed onto it."""

    _strip = re.compile(r"[^0-9a-zA-Z一-鿿]+")

    def __init__(self):
        self.store: dict[str, dict] = {}
        self.alerts: list[tuple[str, dict]] = []
        self.assembled = False

    def assembly(self, run_config: dict) -> None:
        self.assembled = True

    def simplefp(self, text: str) -> str:
        return hashlib.md5(self._strip.sub("", text).encode()).hexdigest()

    def sink_batch(self, batch: pa.Table) -> None:
        for row in batch.select(["url", "text", "final_state"]).to_pylist():
            if row["final_state"] != "crawled_finish" or not row["text"]:
                continue
            fp = self.simplefp(row["text"])
            rec = self.store.get(fp)
            if rec is None:
                self.store[fp] = {"url": row["url"], "count": 1}
            else:
                rec["count"] += 1  # dup content: upsert count, keep first url

    def alert(self, event: str, payload: dict) -> None:
        self.alerts.append((event, payload))


class ReplayDownloaderPlugin(PipelinePlugin):
    """Full download-replace plugin (downloader.js:294-306 surface)
    serving the corpus from an in-memory url→html dict — the injectable
    downloader used to exercise the T6 retry loop and T7 circuit
    breaker, since the built-in fetch-sim is deterministic and cannot
    fail transiently.

    ``fail_url`` returns 503 for its first ``fail_times`` attempts
    (the ``retry`` column carries the attempt number), then succeeds;
    ``fail_all=True`` poisons every download."""

    def __init__(self, corpus_dir: str, fail_url: str = "",
                 fail_times: int = 2, fail_all: bool = False):
        import pyarrow.dataset as pads

        tbl = pads.dataset(f"{corpus_dir}/pages").to_table(
            columns=["url", "html"])
        self.pages = dict(zip(tbl.column("url").to_pylist(),
                              tbl.column("html").to_pylist()))
        self.fail_url = fail_url
        self.fail_times = fail_times
        self.fail_all = fail_all
        self.alerts: list[tuple[str, dict]] = []

    def download_batch(self, batch: pa.Table) -> pa.Table:
        htmls, statuses = [], []
        retries = batch.column("retry").to_pylist()
        for u, r in zip(batch.column("url").to_pylist(), retries):
            if self.fail_all or (u == self.fail_url and r < self.fail_times):
                htmls.append(None)
                statuses.append(503)
            else:
                h = self.pages.get(u)
                htmls.append(h)
                statuses.append(200 if h is not None else 404)
        return (batch.append_column("html", pa.array(htmls, pa.binary()))
                .append_column("status", pa.array(statuses, pa.int32()))
                .append_column("robots_blocked",
                               pa.array([False] * batch.num_rows, pa.bool_())))

    def alert(self, event: str, payload: dict) -> None:
        self.alerts.append((event, payload))


class TagExtractPlugin(PipelinePlugin):
    """Example ``extract_batch`` hook: derives an extra column from the
    extracted text (the wiki example's post-processing shape,
    reference instance/wiki/spider_extend.js:92-101)."""

    def extract_batch(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        word_count = pc.count_substring_regex(
            pc.coalesce(batch.column("text"), pa.scalar("")), r"\S+"
        )
        return batch.append_column(
            "plugin_word_count", pc.cast(word_count, pa.int32())
        )
