"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library code) calls ``ray.init()`` / ``ray.shutdown()``.

``entry()`` runs the flagship crawl pipeline (frontier → fetch-sim →
extract) on the sf0.001-scale synthetic pages corpus.  ``queries()``
exposes every implemented operator family (SURVEY.md §2 + the
training-data layer); SQL-expressible ones have a matching entry in
``oracle_sql()`` with identical column names.
"""

from __future__ import annotations

import glob
import json
import os
from collections.abc import Callable
from typing import Any

# bump when crawl output semantics/schema change so a stale /tmp cache
# from an older code version is never served to the driver's gate
_RUN_SCHEMA_VERSION = 9  # v9: corpus v6 — jshandle lists behind a
#     session cookie (every 5th≡2 list demands a premium cookie the rule
#     lacks → login stub, no browser rounds); cookie gate precedes
#     browser rendering in engine AND oracle
#     (v8: S6 per-navigation-round result rows)
_RUN_CACHE_ROOT = f"/tmp/neocrawler_ray_runs/v{_RUN_SCHEMA_VERSION}"


def _crawl_out_dir(sf_dir: str) -> str:
    """Run the crawl once per sf_dir (cached across queries): the three
    crawl queries below are views over one run's Parquet artifacts."""
    from neocrawler_ray.config import CrawlSettings
    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.sources.pages_gen import corpus_for_sf

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_RUN_CACHE_ROOT, tag)
    marker = os.path.join(out, "metrics.json")
    if not os.path.exists(marker):
        corpus = corpus_for_sf(sf_dir)
        # throughput config (deterministic; the reference-default quota of
        # 200 urls/wave is exercised by the pytest parity suite instead —
        # here it would only multiply wave overhead ~26×)
        settings = CrawlSettings(
            schedule_quantity_limitation=20000,
            politeness_per_host_per_wave=2000,
            num_frontier_shards=8,
        )
        job = CrawlJob(corpus, settings, out)
        job.run()
    return out


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: wave-looped crawl
    (frontier actor pool → fetch-sim → rule-engine extract), returning
    the extracted-pages Dataset."""
    import ray

    out = _crawl_out_dir("/root/testdata/sf0.001")
    return ray.data.read_parquet(
        os.path.join(out, "extracted"),
        columns=["url", "urllib", "domain", "status", "valid", "final_state",
                 "text", "drill_relation", "n_links"],
    )


# --- crawl-family queries (deterministic; pages corpus is synthetic so
#     these get the driver's rows-only check; full parity is pytest's job)


def _q_crawl_extract(sf_dir: str):
    import ray

    out = _crawl_out_dir(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(out, "extracted"),
        columns=["url", "nav_round", "status", "valid", "final_state",
                 "text", "drill_relation", "n_links"],
    )
    return ds.sort(["url", "nav_round"])


def _q_crawl_schedule(sf_dir: str):
    import pandas as pd
    import pyarrow.parquet as pq

    out = _crawl_out_dir(sf_dir)
    files = sorted(
        glob.glob(os.path.join(out, "schedule", "wave_*.parquet")),
        key=lambda p: int(p.split("_")[-1].split(".")[0]),
    )
    frames = [pq.read_table(f).to_pandas() for f in files]
    return pd.concat(frames, ignore_index=True)[
        ["wave", "seq", "url", "urllib", "drill_relation"]
    ]


def _q_crawl_url_seen(sf_dir: str):
    import pyarrow.parquet as pq

    out = _crawl_out_dir(sf_dir)
    # url_seen/ is a per-shard parquet dataset (shards write their own
    # partitions; the driver never holds the full set) — read + sort here
    tbl = pq.read_table(os.path.join(out, "url_seen"))
    return tbl.sort_by("url_md5")


def _q_crawl_report(sf_dir: str):
    """A1-style counters over the crawl output: events per domain ×
    final_state (reference instance/example/spider_extend.js:97-169)."""
    import pandas as pd
    import ray

    out = _crawl_out_dir(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(out, "extracted"), columns=["domain", "final_state"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["domain", "final_state"], as_index=False).size()
        return g.rename(columns={"size": "p_n"}).astype({"p_n": "int64"})

    from neocrawler_ray.pipelines.analytics import _finish_small

    out = _finish_small(ds.map_batches(partial, batch_format="pandas"),
                        ["domain", "final_state"], {"p_n": "n"})
    return out.sort_values(["domain", "final_state"]).reset_index(drop=True)


def _q_crawl_failures(sf_dir: str):
    """Fail/stuck report read from the run's per-shard checkpoints
    (reference zsets fail:urllib:* / stuck:urllib:*, README.md:764-781)."""
    from neocrawler_ray.pipelines.replay import failure_report

    out = _crawl_out_dir(sf_dir)
    return failure_report(os.path.join(out, "ckpt"))


def _q_doc_stats_resumable(sf_dir: str):
    """text_stats via the resumable partitioned-export path: chunked
    part files under /tmp (a rerun skips finished chunks), read back as
    a Dataset — same rows as doc_text_stats, so it shares its oracle."""
    from neocrawler_ray.pipelines import export as ex

    tag = os.path.basename(os.path.normpath(sf_dir))
    # versioned by ex.EXPORT_VERSION so a kernel/naming change never
    # serves stale part files from a previous code state
    out = f"/tmp/neocrawler_ray_export/v{ex.EXPORT_VERSION}/{tag}/text_stats"
    ex.resumable_export(sf_dir, out, "text_stats")
    return ex.read_export(out)


def _q_corpus_from_crawl(sf_dir: str):
    from neocrawler_ray.pipelines.export import corpus_from_crawl

    out = _crawl_out_dir(sf_dir)
    return corpus_from_crawl(
        os.path.join(out, "extracted"),
        workdir=os.path.join(out, "bridge_corpus"))


def _crawl_artifact_sig(d: str, sub: str) -> tuple[int, str]:
    """(rows, md5) of a crawl output dir's ``sub`` artifact
    (``extracted``/``schedule``/``url_seen``), independent of part
    files, partitioning and row order."""
    import hashlib

    import pyarrow.dataset as pads

    # partitioning=None: extracted/ is hive-laid-out by wave= but the
    # files already carry the wave column inline — don't re-infer it
    t = pads.dataset(os.path.join(d, sub), format="parquet",
                     partitioning=None).to_table().to_pandas()
    # repr-cast before the all-columns sort: binary/list cells sort
    # deterministically as their repr (astype(str) would choke on
    # non-utf8 content_bin), making tie order run-invariant
    t = t[sorted(t.columns)]
    t = t.apply(lambda col: col.map(repr)
                if col.dtype == object else col.astype(str))
    t = t.sort_values(list(t.columns)).reset_index(drop=True)
    return len(t), hashlib.md5(
        t.to_csv(index=False).encode()).hexdigest()


def _q_crawl_resume_equivalence(sf_dir: str):
    """north_rule "resumes exactly" as a driver-visible artifact: run the
    same crawl (a) uninterrupted (the cached run the other crawl queries
    share) and (b) killed by a wave budget at wave 2, then restarted with
    ``resume=True`` from the durable per-shard checkpoint.  The two runs'
    ``extracted`` / ``schedule`` / ``url_seen`` artifacts must be
    value-identical; equality is computed internally (sorted-table md5)
    and ASSERTED — a divergence raises instead of returning a
    green-looking row.  Rows-only for the driver like the rest of the
    crawl family (the synthetic pages corpus is not a registered view).
    Reference analog: scheduler/spider restart against durable
    redis/ssdb state (scheduler/index.js:124-157)."""
    import shutil as _shutil

    import pandas as pd

    from neocrawler_ray.config import CrawlSettings
    from neocrawler_ray.pipelines.crawl import CrawlJob
    from neocrawler_ray.sources.pages_gen import corpus_for_sf

    base = _crawl_out_dir(sf_dir)  # uninterrupted run (cached)
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_RUN_CACHE_ROOT, tag + "_resumed")
    marker = os.path.join(out, "resume_equiv_done.json")
    if not os.path.exists(marker):
        _shutil.rmtree(out, ignore_errors=True)
        corpus = corpus_for_sf(sf_dir)
        settings = CrawlSettings(
            schedule_quantity_limitation=20000,
            politeness_per_host_per_wave=2000,
            num_frontier_shards=8,
        )
        # "kill" after wave 2's checkpoint is durable, then resume: the
        # restarted job restores frontier queues + url state +
        # first_schedule clocks and crawls only the remainder
        CrawlJob(corpus, settings, out).run(max_waves=2)
        CrawlJob(corpus, settings, out, resume=True).run()
        with open(marker, "w") as f:
            json.dump({"interrupted_at_wave": 2}, f)

    rows = []
    for sub in ("extracted", "schedule", "url_seen"):
        n0, h0 = _crawl_artifact_sig(base, sub)
        n1, h1 = _crawl_artifact_sig(out, sub)
        assert (n0, h0) == (n1, h1), (
            f"resumed run diverges from uninterrupted run in {sub}/: "
            f"{(n0, h0)} != {(n1, h1)}")
        rows.append({"artifact": sub, "n_rows": n0, "content_md5": h0,
                     "resumed_equal": True})
    return pd.DataFrame(rows)


def queries() -> dict[str, Callable[[str], Any]]:
    from neocrawler_ray.pipelines import analytics as an
    from neocrawler_ray.pipelines import corpus_ops as co
    from neocrawler_ray.pipelines import doc_extract as de
    from neocrawler_ray.stages import multimodal as mm

    # NOTE (driver contract): the correctness gate checks at most the
    # FIRST 50 entries of this dict, and the repo carries 136
    # oracle_sql()-backed queries — more than one round's gate can hold.
    # Order is therefore a ROTATION policy derived from the committed
    # CORRECTNESS_r01-r04 artifacts (the only driver rows that exist).
    # Round-5 window: cross-referencing all four artifacts, exactly 46
    # oracle-backed entries had NEVER received a driver row (they sat
    # past earlier caps while each round front-loaded its new
    # operators); they fill positions 1-46 below, followed by the new
    # crawl_resume_equivalence artifact (47) and the three stalest
    # round-2-green re-checks (48-50).  New query registrations are
    # FROZEN behind this window until it lands.  Entries past the cap
    # were green in a previous round's driver artifact (round noted per
    # block) AND stay green in tools/check_correctness.py at sf0.01
    # (committed as CORRECTNESS_LOCAL_r05.json).  NOT every
    # oracle-backed operator has a driver row yet — that is exactly the
    # debt this window burns down; rounds 1-4 covered 103 of 151.  The
    # tail keeps the rows-only crawl family (their real parity is the
    # pytest e2e suite vs the sequential oracle) and the structurally
    # no-oracle sketch/LSH ops (planted-dup / recall / tolerance
    # pytest coverage).
    return {
        # ---- never driver-checked (rounds 1-4), oracle-backed: TPC-H
        # completions + join/rollup family.  q3 was flagged by the
        # round-3 AND round-4 verdicts — first in line.
        "q3_top_revenue": an.q3_top_revenue,
        "q5_local_supplier_volume": an.q5_local_supplier_volume,
        "q10_returned_customers": an.q10_returned_customers,
        "q14_promo_revenue": an.q14_promo_revenue,
        "q17_small_quantity_revenue": an.q17_small_quantity_revenue,
        "q18_large_orders": an.q18_large_orders,
        "q19_disjunctive_revenue": an.q19_disjunctive_revenue,
        "customer_order_counts": an.customer_order_counts,
        "nation_balance_outer": an.nation_balance_outer,
        "revenue_rollup": an.revenue_rollup,
        # ---- never driver-checked: events window/stream family ----
        "events_retention": an.events_retention,
        "events_window_range": an.events_window_range,
        "events_transition_matrix": an.events_transition_matrix,
        "events_user_ntile": an.events_user_ntile,
        "events_cumulative_sum": an.events_cumulative_sum,
        "user_top_event": an.user_top_event,
        # last-touch attribution (per-user ordered forward-fill scan)
        "events_attribution": an.events_attribution,
        # frequent 3-step path mining (sequential patterns)
        "events_top_paths": an.events_top_paths,
        # exact-quantile histogram reuse (sibling of driver-green
        # events_value_quantiles)
        "events_outliers": an.events_outliers,
        # UNPIVOT/melt + dense-calendar resample with exact interpolation
        "events_unpivot_daily": an.events_unpivot_daily,
        "events_daily_gapfill": an.events_daily_gapfill,
        # PERCENTILE_CONT (×100-scaled exact interpolation) + grouped
        # moment summary with exact variance numerator
        "events_value_quantiles_cont": an.events_value_quantiles_cont,
        "events_value_moments": an.events_value_moments,
        # Gini-impurity behavioral diversity (log-free entropy class)
        "events_user_gini": an.events_user_gini,
        # salted whale-entity windows (hot-key splitting; shift sizing
        # rule in the docstrings)
        "events_time_since_last_salted":
            lambda sf: an.events_time_since_last(sf, salt_shift=33),
        "events_rolling_sum_salted":
            lambda sf: an.events_rolling_sum(sf, salt_shift=33),
        "events_sessions_salted":
            lambda sf: an.events_sessions(sf, salt_shift=38),
        # k-anonymity privacy audit; Apriori 2-itemset rules with exact
        # integer lift; bloom-filter semi-join variant; Newman degree
        # assortativity as exact sign·r² integers
        "customer_k_anonymity": an.customer_k_anonymity,
        "orders_basket_rules": an.orders_basket_rules,
        "order_priority_semijoin_bloom": an.order_priority_semijoin_bloom,
        "graph_assortativity": an.graph_assortativity,
        # ---- never driver-checked: doc/corpus/embedding family ----
        "doc_lm_score": co.doc_lm_score,
        # actor-pool model-inference stage (weights load once per actor)
        # + PII redaction map + the composed gate→dedup→PII→model chain
        "doc_quality_model": co.doc_quality_model,
        "doc_pii_scrub": co.doc_pii_scrub,
        "corpus_prepare": co.corpus_prepare,
        "doc_bigram_counts": co.doc_bigram_counts,
        "doc_term_heavy_hitters": co.doc_term_heavy_hitters,
        "doc_decontaminate": co.doc_decontaminate,
        # Flesch-style integer readability score (pure map)
        "doc_readability": co.doc_readability,
        # Borda rank fusion via broadcast histograms (no global sort)
        "doc_rank_fusion": co.doc_rank_fusion,
        # A-ES weighted sampling (deterministic md5 keys)
        "doc_sample_weighted": co.doc_sample_weighted,
        # ordered STRING_AGG class (distinct partials, concat last)
        "corpus_source_langs": co.corpus_source_langs,
        # MERGE/upsert (CDC apply by key; one tagged doc_id exchange)
        "documents_upsert": co.documents_upsert,
        # exact integer covariance matrix (one Gram matmul per batch,
        # block-count-sized exchange; the PCA/whitening reduce)
        "embedding_covariance": co.embedding_covariance,
        "embedding_kmeans": co.embedding_kmeans,
        # image perceptual-hash near-dup pairs (real 8×8 DCT pHash over
        # the deterministic decoded luma grid since round 5; banded
        # Hamming + pigeonhole-complete verify)
        "image_phash_dupes": mm.image_phash_dupes,
        # ---- new in round 5 (rows-only): checkpoint/resume equivalence
        # — the north_rule "resumes exactly" claim as a driver artifact;
        # equality vs the uninterrupted run asserted internally
        "crawl_resume_equivalence": _q_crawl_resume_equivalence,
        # ---- stalest re-checks (green in round 2, cut by later caps;
        # green in the committed local sf0.01 gate) ----
        "q6_revenue": an.q6_revenue,
        "revenue_by_nation": an.revenue_by_nation,
        "top_customers": an.top_customers,
        # ================= driver cap (50) ends here =================
        # ---- round-2-green (oldest remaining driver rows) ----
        "doc_fingerprint": co.doc_fingerprint,
        "doc_extract": de.doc_extract,
        "doc_text_stats": co.doc_text_stats,
        "dedup_exact": co.dedup_exact,
        "dedup_ngram_pairs": co.dedup_ngram_pairs,
        "corpus_mix": co.corpus_mix,
        "events_sessions": an.events_sessions,
        "events_value_quantiles": an.events_value_quantiles,
        "multimodal_meta": mm.multimodal_decode_meta,
        "q1_lineitem": an.q1_lineitem,
        # ---- round-3-green ----
        "doc_lang_id": co.doc_lang_id,
        "corpus_clean": co.corpus_clean,
        "doc_stats_resumable": _q_doc_stats_resumable,
        "doc_chunks": co.doc_chunks,
        "doc_term_df": co.doc_term_df,
        "doc_tfidf_top": co.doc_tfidf_top,
        "doc_split": co.doc_split,
        "doc_sample_stratified": co.doc_sample_stratified,
        "corpus_source_report": co.corpus_source_report,
        "embedding_pairs_brute": lambda sf: co.embedding_pairs_brute(sf, 0.4),
        "ann_brute_topk": lambda sf: co.ann_brute_topk(sf, 5, 10),
        "video_frame_sample": mm.video_frame_sample,
        "audio_segments": mm.audio_segments,
        "image_resize_meta": mm.image_resize_meta,
        "events_daily_counts": an.events_daily_counts,
        "events_pivot_daily": an.events_pivot_daily,
        "events_value_by_type": an.events_value_by_type,
        "events_props_stats": an.events_props_stats,
        "events_asof_join": an.events_asof_join,
        "events_value_bands": an.events_value_bands,
        "top_orders_per_priority": an.top_orders_per_priority,
        "order_priority_semijoin": an.order_priority_semijoin,
        "order_priority_antijoin": an.order_priority_antijoin,
        "events_time_since_last": an.events_time_since_last,
        "events_funnel": an.events_funnel,
        "events_rolling_sum": an.events_rolling_sum,
        "events_distinct_users": an.events_distinct_users,
        # ---- round-4-green ----
        "orders_global_sort": an.orders_global_sort,
        "events_pair_window": an.events_pair_window,
        "orders_zorder": an.orders_zorder,
        "events_value_outliers": an.events_value_outliers,
        "events_ab_chisq": an.events_ab_chisq,
        "events_daily_counts_incremental":
            an.events_daily_counts_incremental,
        "events_time_weighted_avg": an.events_time_weighted_avg,
        "events_user_median": an.events_user_median,
        "events_window_distinct": an.events_window_distinct,
        "q2_min_price_supplier": an.q2_min_price_supplier,
        "q7_volume_shipping": an.q7_volume_shipping,
        "q8_market_share": an.q8_market_share,
        "q9_product_profit": an.q9_product_profit,
        "q11_important_parts": an.q11_important_parts,
        "q12_shipping_priority": an.q12_shipping_priority,
        "q15_top_supplier": an.q15_top_supplier,
        "q16_supplier_diversity": an.q16_supplier_diversity,
        "q20_dominant_suppliers": an.q20_dominant_suppliers,
        "q21_sole_late_supplier": an.q21_sole_late_supplier,
        "q22_idle_rich_customers": an.q22_idle_rich_customers,
        "doc_word_repetition": co.doc_word_repetition,
        "order_count_distribution": an.order_count_distribution,
        "events_user_rank": an.events_user_rank,
        "events_tumbling_counts": an.events_tumbling_counts,
        "events_hopping_counts": an.events_hopping_counts,
        "doc_pack_shards": co.doc_pack_shards,
        "doc_dup_spans": co.doc_dup_spans,
        "corpus_line_dedup": co.corpus_line_dedup,
        "events_user_rank_bucketed": an.events_user_rank_bucketed,
        "revenue_cube": an.revenue_cube,
        "events_percent_rank": an.events_percent_rank,
        "events_user_days_intersect": an.events_user_days_intersect,
        "events_user_days_except": an.events_user_days_except,
        "graph_pagerank": an.graph_pagerank,
        "graph_triangles": an.graph_triangles,
        "dedup_edit_pairs": co.dedup_edit_pairs,
        "dedup_semantic": co.dedup_semantic,
        "doc_global_rank": co.doc_global_rank,
        "events_session_overlap": an.events_session_overlap,
        "events_late_arrivals": an.events_late_arrivals,
        "graph_bfs_hops": an.graph_bfs_hops,
        "dedup_ngram_keep": co.dedup_ngram_keep,
        "events_value_trend": an.events_value_trend,
        "orders_skyline": an.orders_skyline,
        "documents_profile": co.table_profile,
        # PPJoin prefix-filtered exact similarity join at t=0.8 —
        # crossover vs the unfiltered join measured in BASELINE.md §bench
        "dedup_ngram_pairs_prefix": co.dedup_ngram_pairs_prefix,
        "events_daily_cusum": an.events_daily_cusum,
        "doc_lang_confusion": co.doc_lang_confusion,
        "doc_bigram_pmi": co.doc_bigram_pmi,
        "events_value_winsorized": an.events_value_winsorized,
        # ---- rows-only: crawl engine (SURVEY.md §2.1-2.4, §3) — the
        # synthetic pages corpus is not a registered view, so the driver
        # does a rows-only check; full parity vs the sequential oracle
        # lives in tests/test_crawl_e2e.py ----
        "crawl_extract": _q_crawl_extract,
        "crawl_schedule_order": _q_crawl_schedule,
        "crawl_url_seen": _q_crawl_url_seen,
        "crawl_report": _q_crawl_report,
        "crawl_failure_report": _q_crawl_failures,
        # frontier → training shards in one flow: the crawl's extracted
        # pages through clean → dedup → lang ID → token packing
        # (pipelines/export.py::corpus_from_crawl; crawl-dependent, so
        # rows-only like its input family — composition pytest covers it)
        "corpus_from_crawl": _q_corpus_from_crawl,
        # ---- structurally no-oracle: sketch/LSH families (planted-dup
        # + recall/precision pytest, tests/test_lsh_bench_scale.py) ----
        "dedup_minhash_pairs": lambda sf: co.dedup_minhash_verified(sf),
        "dedup_simhash_pairs": lambda sf: co.dedup_simhash_pairs(sf, 7),
        # threshold matched to the testdata's cosine distribution (near-
        # random vectors, max ~0.51) so the row is non-empty evidence;
        # band/bit knobs tuned for ~0.99 recall at 0.4 (p=0.63/plane)
        "dedup_embedding_lsh": lambda sf: co.dedup_embedding_pairs(
            sf, 0.4, bands=16, bits=3),
        "ann_ivf_topk": lambda sf: co.ann_ivf_topk(sf, 5, 10),
        # pytest-equivalence-covered (union-find ≡ distributed CC;
        # t-digest/HLL tolerance vs their exact siblings)
        "dedup_clusters": lambda sf: co.dedup_clusters(sf),
        "dedup_clusters_dist": lambda sf: co.dedup_clusters_distributed(sf),
        "events_value_quantiles_td": an.events_value_quantiles_tdigest,
        "events_distinct_users_hll": an.events_distinct_users_hll,
        # count-min one-pass heavy hitters (superset-of-exact pytest vs
        # doc_term_heavy_hitters; never-undercount property test)
        "doc_term_hh_cms": lambda sf: co.doc_term_heavy_hitters_cms(sf),
    }


def oracle_sql() -> dict[str, str]:
    from neocrawler_ray.functions import text_stats as ts
    from neocrawler_ray.pipelines import analytics as an
    from neocrawler_ray.pipelines import corpus_ops as co
    from neocrawler_ray.pipelines import doc_extract as de
    from neocrawler_ray.stages import multimodal as mm
    from neocrawler_ray.stages import quality_model as qm

    return {
        "orders_global_sort": an.ORDERS_GLOBAL_SORT_SQL,
        "events_pair_window": an.EVENTS_PAIR_WINDOW_SQL,
        "orders_zorder": an.orders_zorder_sql(),
        "events_value_outliers": an.EVENTS_VALUE_OUTLIERS_SQL,
        "events_ab_chisq": an.EVENTS_AB_CHISQ_SQL,
        "events_daily_counts_incremental": an.EVENTS_DAILY_COUNTS_SQL,

        "events_time_weighted_avg": an.EVENTS_TWA_SQL,
        "events_user_median": an.EVENTS_USER_MEDIAN_SQL,
        "events_window_distinct": an.events_window_distinct_sql(),
        "doc_extract": de.DOC_EXTRACT_SQL,
        "doc_text_stats": ts.text_stats_sql(),
        "doc_lang_id": ts.lang_id_markers_sql(),
        "doc_fingerprint": (
            "SELECT doc_id, "
            + ts.SIMPLEFP_SQL.format(col="text")
            + " AS fp FROM documents"
        ),
        "dedup_exact": (
            "SELECT md5(text) AS text_md5, min(doc_id) AS doc_id "
            "FROM documents GROUP BY md5(text)"
        ),
        "dedup_ngram_pairs": co.dedup_ngram_pairs_sql(),
        "doc_dup_spans": co.doc_dup_spans_sql(),
        "corpus_line_dedup": co.corpus_line_dedup_sql(),
        "doc_decontaminate": co.doc_decontaminate_sql(),
        "doc_chunks": co.doc_chunks_sql(),
        "doc_term_df": co.doc_term_df_sql(),
        "doc_bigram_counts": co.doc_bigram_counts_sql(),
        "doc_term_heavy_hitters": co.doc_term_heavy_hitters_sql(),
        "doc_tfidf_top": co.doc_tfidf_top_sql(),
        "doc_stats_resumable": ts.text_stats_sql(),
        "doc_split": co.doc_split_sql(),
        "doc_sample_stratified": co.doc_sample_stratified_sql(),
        "corpus_mix": co.corpus_mix_sql(),
        "corpus_source_report": co.corpus_source_report_sql(),
        "corpus_clean": (
            "WITH stats AS (" + ts.text_stats_sql() + "), "
            "survivors AS (SELECT d.doc_id, md5(d.text) AS fp, s.n_tokens "
            " FROM documents d JOIN stats s USING (doc_id) "
            " WHERE s.quality_ok), "
            "keep AS (SELECT min(doc_id) AS doc_id FROM survivors "
            " GROUP BY fp) "
            "SELECT k.doc_id, s.n_tokens FROM keep k "
            "JOIN survivors s USING (doc_id)"
        ),
        "embedding_pairs_brute": (
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
            "FROM embeddings a, embeddings b "
            "WHERE a.vec_id < b.vec_id AND list_cosine_similarity("
            "CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) "
            ">= 0.4"
        ),
        "ann_brute_topk": """
WITH q AS (SELECT vec_id qid, CAST(embedding AS DOUBLE[]) qv
           FROM embeddings WHERE vec_id < 5),
s AS (SELECT q.qid, e.vec_id,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) sim2
      FROM embeddings e, q WHERE e.vec_id != q.qid)
SELECT qid, vec_id, CAST(r AS BIGINT) AS rank FROM
  (SELECT qid, vec_id,
          row_number() OVER (PARTITION BY qid ORDER BY sim2 DESC, vec_id) r
   FROM s) WHERE r <= 10
""".strip(),
        "multimodal_meta": mm.MULTIMODAL_META_SQL,
        "video_frame_sample": mm.FRAME_SAMPLE_SQL,
        "audio_segments": mm.AUDIO_SEGMENTS_SQL,
        "image_resize_meta": mm.IMAGE_RESIZE_SQL,
        "events_daily_counts": an.EVENTS_DAILY_COUNTS_SQL,
        "events_props_stats": an.EVENTS_PROPS_SQL,
        "events_sessions": an.EVENTS_SESSIONS_SQL,
        "events_sessions_salted": an.EVENTS_SESSIONS_SQL,
        "events_asof_join": an.EVENTS_ASOF_SQL,
        "events_value_bands": an.events_value_bands_sql(),
        "events_value_quantiles": an.EVENTS_QUANTILES_SQL,
        "top_orders_per_priority": an.top_orders_per_priority_sql(),
        "order_priority_semijoin": an.ORDER_PRIORITY_SEMIJOIN_SQL,
        "order_priority_antijoin": an.ORDER_PRIORITY_ANTIJOIN_SQL,
        "events_time_since_last": an.EVENTS_TIME_SINCE_LAST_SQL,
        "events_time_since_last_salted": an.EVENTS_TIME_SINCE_LAST_SQL,
        "events_rolling_sum_salted": an.events_rolling_sum_sql(),
        "events_distinct_users": an.EVENTS_DISTINCT_USERS_SQL,
        "events_funnel": an.EVENTS_FUNNEL_SQL,
        "events_rolling_sum": an.events_rolling_sum_sql(),
        "events_pivot_daily": an.EVENTS_PIVOT_SQL,
        "events_value_by_type": (
            "SELECT event_type, "
            "CAST(sum(CAST(floor(value*10000) AS BIGINT)) AS BIGINT) "
            "AS value_e4, count(*) AS n FROM events GROUP BY 1"
        ),
        "q1_lineitem": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(sum(CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
            "CAST(sum(CAST(floor(l_extendedprice*10000) AS BIGINT)) AS BIGINT)"
            " AS sum_price_e4, count(*) AS count_order "
            "FROM lineitem GROUP BY 1, 2"
        ),
        "q6_revenue": an.Q6_SQL,
        "q3_top_revenue": an.q3_top_revenue_sql(),
        "q5_local_supplier_volume": an.Q5_SQL,
        "events_retention": an.EVENTS_RETENTION_SQL,
        "q18_large_orders": an.q18_large_orders_sql(),
        "q14_promo_revenue": an.Q14_SQL,
        "doc_lm_score": co.doc_lm_score_sql(),
        "user_top_event": an.USER_TOP_EVENT_SQL,
        "doc_quality_model": qm.quality_model_sql(),
        "doc_pii_scrub": co.doc_pii_scrub_sql(),
        "q10_returned_customers": an.q10_returned_customers_sql(),
        "customer_order_counts": an.CUSTOMER_ORDER_COUNTS_SQL,
        "events_window_range": an.events_window_range_sql(),
        "events_transition_matrix": an.EVENTS_TRANSITION_SQL,
        "q19_disjunctive_revenue": an.q19_disjunctive_revenue_sql(),
        "q17_small_quantity_revenue": an.Q17_SQL,
        "revenue_rollup": an.REVENUE_ROLLUP_SQL,
        "events_user_ntile": an.events_user_ntile_sql(),
        "corpus_prepare": co.corpus_prepare_sql(),
        "nation_balance_outer": an.NATION_BALANCE_OUTER_SQL,
        "events_cumulative_sum": an.EVENTS_CUMULATIVE_SQL,
        "q2_min_price_supplier": an.Q2_SQL,
        "q7_volume_shipping": an.Q7_SQL,
        "q8_market_share": an.Q8_SQL,
        "q9_product_profit": an.Q9_SQL,
        "q11_important_parts": an.Q11_SQL,
        "q12_shipping_priority": an.Q12_SQL,
        "q15_top_supplier": an.Q15_SQL,
        "q16_supplier_diversity": an.Q16_SQL,
        "q20_dominant_suppliers": an.Q20_SQL,
        "q21_sole_late_supplier": an.q21_sole_late_supplier_sql(),
        "q22_idle_rich_customers": an.Q22_SQL,
        "doc_word_repetition": co.doc_word_repetition_sql(),
        "order_count_distribution": an.ORDER_COUNT_DISTRIBUTION_SQL,
        "events_user_rank": an.EVENTS_USER_RANK_SQL,
        "events_tumbling_counts": an.events_tumbling_counts_sql(),
        "events_hopping_counts": an.events_hopping_counts_sql(),
        "doc_pack_shards": co.doc_pack_shards_sql(),
        "order_priority_semijoin_bloom": an.ORDER_PRIORITY_SEMIJOIN_SQL,
        "events_user_rank_bucketed": an.EVENTS_USER_RANK_SQL,
        "revenue_cube": an.REVENUE_CUBE_SQL,
        "events_percent_rank": an.EVENTS_PERCENT_RANK_SQL,
        "events_user_days_intersect": an.EVENTS_USER_DAYS_INTERSECT_SQL,
        "events_user_days_except": an.EVENTS_USER_DAYS_EXCEPT_SQL,
        "graph_pagerank": an.GRAPH_PAGERANK_SQL,
        "graph_triangles": an.GRAPH_TRIANGLES_SQL,
        "dedup_edit_pairs": co.DEDUP_EDIT_PAIRS_SQL,
        "dedup_semantic": co.DEDUP_SEMANTIC_SQL,
        "doc_global_rank": co.DOC_GLOBAL_RANK_SQL,
        "events_session_overlap": an.EVENTS_SESSION_OVERLAP_SQL,
        "events_late_arrivals": an.EVENTS_LATE_ARRIVALS_SQL,
        "graph_bfs_hops": an.GRAPH_BFS_HOPS_SQL,
        "dedup_ngram_keep": co.DEDUP_NGRAM_KEEP_SQL,
        "events_value_trend": an.EVENTS_VALUE_TREND_SQL,
        "orders_skyline": an.ORDERS_SKYLINE_SQL,
        "documents_profile": co.DOCUMENTS_PROFILE_SQL,
        "dedup_ngram_pairs_prefix": co.DEDUP_NGRAM_PAIRS_PREFIX_SQL,
        "events_daily_cusum": an.EVENTS_DAILY_CUSUM_SQL,
        "doc_lang_confusion": co.DOC_LANG_CONFUSION_SQL,
        "doc_bigram_pmi": co.DOC_BIGRAM_PMI_SQL,
        "events_value_winsorized": an.EVENTS_VALUE_WINSORIZED_SQL,
        "customer_k_anonymity": an.CUSTOMER_K_ANONYMITY_SQL,
        "orders_basket_rules": an.ORDERS_BASKET_RULES_SQL,
        "events_attribution": an.EVENTS_ATTRIBUTION_SQL,
        "doc_readability": co.DOC_READABILITY_SQL,
        "embedding_covariance": co.EMBEDDING_COVARIANCE_SQL,
        "doc_rank_fusion": co.DOC_RANK_FUSION_SQL,
        "events_top_paths": an.EVENTS_TOP_PATHS_SQL,
        "corpus_source_langs": co.CORPUS_SOURCE_LANGS_SQL,
        "image_phash_dupes": mm.IMAGE_PHASH_DUPES_SQL,
        "events_user_gini": an.EVENTS_USER_GINI_SQL,
        "events_unpivot_daily": an.EVENTS_UNPIVOT_SQL,
        "events_daily_gapfill": an.EVENTS_DAILY_GAPFILL_SQL,
        "events_value_quantiles_cont": an.EVENTS_QUANTILES_CONT_SQL,
        "events_value_moments": an.EVENTS_VALUE_MOMENTS_SQL,
        "graph_assortativity": an.GRAPH_ASSORTATIVITY_SQL,
        "documents_upsert": co.DOCUMENTS_UPSERT_SQL,
        "events_outliers": an.EVENTS_OUTLIERS_SQL,
        "embedding_kmeans": co.EMBEDDING_KMEANS_SQL,
        "doc_sample_weighted": co.DOC_SAMPLE_WEIGHTED_SQL,
        "revenue_by_nation": (
            "SELECT n_name, "
            "CAST(sum(CAST(floor(o_totalprice*10000) AS BIGINT)) AS BIGINT) "
            "AS revenue_e4, count(*) AS n_orders FROM orders o "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey GROUP BY 1"
        ),
        "top_customers": (
            "SELECT a.c_custkey, c.c_name, a.revenue_e4, a.n_orders FROM "
            "(SELECT o_custkey AS c_custkey, "
            " CAST(sum(CAST(floor(o_totalprice*10000) AS BIGINT)) AS BIGINT) "
            " AS revenue_e4, count(*) AS n_orders FROM orders GROUP BY 1) a "
            "JOIN customer c ON a.c_custkey = c.c_custkey "
            "ORDER BY a.revenue_e4 DESC, a.c_custkey LIMIT 10"
        ),
    }
