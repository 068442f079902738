"""Replay / queue-maintenance tools — the reference's
``tools/queue-helper.js`` re-expressed over per-shard checkpoints.

The reference mutates live Redis state: ``pfq`` moves ``fail:urllib:*``
zset members back into their urllib queues (queue-helper.js:33-97),
``psq`` does the same for stuck urls (99-162), and ``fdq`` dedups a
queue in place keeping first occurrence (164-236).  Here the durable
state is the per-shard Parquet/pickle checkpoint, so the tools are
offline transforms: load each shard snapshot, rewrite it, save — then a
``resume=True`` run continues with the repaired frontier.  This keeps
the tools usable on a dead run (the reference's main use case) and
per-partition parallel at 10^10-URL scale.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import re

from ..state.frontier import check_state_format


def _latest_snapshots(ckpt_dir: str) -> list[tuple[str, dict]]:
    with open(os.path.join(ckpt_dir, "manifest.json")) as f:
        manifest = json.load(f)
    # a snapshot of another layout is refused here, as resume refuses
    # it — never "repaired" into a checkpoint resume cannot read
    check_state_format(manifest)
    wave = manifest["last_complete_wave"]
    out = []
    for path in sorted(glob.glob(os.path.join(ckpt_dir, "shard=*"))):
        p = os.path.join(path, f"wave_{wave}.pkl")
        with open(p, "rb") as f:
            out.append((p, pickle.loads(f.read())))
    return out


def _save(path: str, snap: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
    os.replace(tmp, path)


def _requeue(ckpt_dir: str, pick) -> int:
    """Re-admit every url_info row that ``pick(snap)`` — a predicate
    built per shard snapshot — accepts: status resets to ``hit``
    (immediately schedulable, scheduler/index.js:379) and the url
    rejoins its trace's queue unless already present.  Returns the
    number of urls re-queued."""
    n = 0
    for path, snap in _latest_snapshots(ckpt_dir):
        want = pick(snap)
        queues = {k: list(v) for k, v in snap["queues"].items()}
        membership = {k: set(q) for k, q in queues.items()}
        for info in snap["url_info"].values():
            if not want(info):
                continue
            url, trace = info["url"], info["trace"]
            info["status"] = "hit"
            if url not in membership.setdefault(trace, set()):
                queues.setdefault(trace, []).append(url)
                membership[trace].add(url)
                n += 1
        snap["queues"] = queues
        _save(path, snap)
    return n


def replay_failures(ckpt_dir: str, pattern: str = ".*") -> int:
    """``pfq``: re-admit ``crawled_failure`` urls whose urllib key
    matches ``pattern``.  Returns the number of urls replayed."""
    rx = re.compile(pattern)

    def want(info):
        return (info["status"] == "crawled_failure"
                and rx.search(info["trace"]))

    return _requeue(ckpt_dir, lambda snap: want)


def replay_stuck(ckpt_dir: str, older_than_ms: int,
                 now: int | None = None) -> int:
    """``psq``: urls locked in ``crawling``/``schedule`` longer than
    ``older_than_ms`` (a dead worker's in-flight window) return to their
    queues as ``hit``.  ``now`` defaults to the shard snapshot's max
    ``last`` stamp."""
    def pick(snap):
        clock = now
        if clock is None:
            clock = max(
                (i["last"] for i in snap["url_info"].values()),
                default=0,
            )
        return lambda info: (
            info["status"] in ("crawling", "schedule")
            and clock - info["last"] >= older_than_ms)

    return _requeue(ckpt_dir, pick)


def dedup_queues(ckpt_dir: str) -> int:
    """``fdq``: order-preserving first-occurrence dedup of every queue
    (queue-helper.js:164-236).  Returns the number of removed dups."""
    removed = 0
    for path, snap in _latest_snapshots(ckpt_dir):
        new_queues = {}
        for k, q in snap["queues"].items():
            seen: set[str] = set()
            out = []
            for u in q:
                if u in seen:
                    removed += 1
                    continue
                seen.add(u)
                out.append(u)
            new_queues[k] = out
        snap["queues"] = new_queues
        _save(path, snap)
    return removed


def failure_report(ckpt_dir: str):
    """The fail/stuck zset read-side (README.md:764-781): one row per
    failed/locked url with its state and last timestamp."""
    import pyarrow as pa

    rows = []
    for _path, snap in _latest_snapshots(ckpt_dir):
        for kk, info in snap["url_info"].items():
            st = info["status"]
            if st in ("crawled_failure", "crawling", "schedule"):
                rows.append(
                    {"url_md5": kk, "url": info["url"],
                     "urllib": info["trace"], "status": st,
                     "last": info["last"]}
                )
    rows.sort(key=lambda r: (r["status"], r["url_md5"]))
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([("url_md5", pa.string()), ("url", pa.string()),
                          ("urllib", pa.string()), ("status", pa.string()),
                          ("last", pa.int64())]),
    )
