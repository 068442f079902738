"""Run configuration for the crawl engine.

Mirrors the reference's ``instance/*/settings.json`` knobs (reference:
README.md:100-120) plus the engine's own distribution knobs (shard
count, block size, checkpoint cadence).  Rules are re-read at wave
boundaries when ``rules.json`` changes on disk (T5-lite re-expression of
the reference's 120 s hot-reload poll, scheduler/index.js:63-120).
Wave ``k``'s logical clock is ``LOGICAL_EPOCH_MS + k ×
schedule_interval`` seconds — never wall clock, so runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LOGICAL_EPOCH_MS = 1_735_689_600_000  # 2025-01-01T00:00:00Z, wave 0's clock


@dataclass
class CrawlSettings:
    # --- reference settings (README.md:100-120) -------------------------
    schedule_quantity_limitation: int = 200      # max urls per scheduler round
    schedule_interval: int = 60                  # logical seconds per wave
    download_retry: int = 3                      # app-level retry limit
    keep_link_relation: bool = True
    # T7 circuit breaker (extractor.js:416-423): when enabled, the run
    # aborts (with a final checkpoint) once the running ±failure counter
    # exceeds ``circuit_breaker_factor × schedule_quantity_limitation``
    # — the wave-model analog of the reference's
    # ``cumulative_failure > spider_concurrency*1.5`` then process.exit
    to_much_fail_exit: bool = False
    circuit_breaker_factor: float = 1.5

    # --- reference policy constants (per call-site — SURVEY.md §7.3) ----
    scheduler_lock_ms: int = 60 * 60 * 1000      # scheduler/index.js:381-383
    linksave_lock_ms: int = 10 * 60 * 1000       # spider/pipeline.js:138-140
    linksave_hit_lock_ms: int = 2 * 24 * 60 * 60 * 1000  # pipeline.js:141-143
    max_weight: int = 100                        # scheduler/index.js:47 rate numerator base

    # --- politeness (wave-model re-expression of spider_request_delay +
    #     per-host serialization, SURVEY.md §2.3 T4) ----------------------
    politeness_per_host_per_wave: int = 50

    # --- engine distribution knobs --------------------------------------
    num_frontier_shards: int = 8
    extract_batch_size: int = 256
    max_waves: int = 50

    # checkpoint cadence: snapshot every Nth wave (1 = every wave, the
    # parity/default setting).  Resume restores the last checkpointed
    # wave and deterministically replays the ≤N-1 waves after it, so
    # recovery work is bounded by the knob; throughput runs can trade
    # snapshot pickling/IO per wave for a slightly longer replay
    checkpoint_every: int = 1

    # --- paths ----------------------------------------------------------
    checkpoint_dir: str | None = None

    def __post_init__(self):
        # frontier shards reset their per-wave politeness budgets when
        # the wave clock changes, so the clock must advance every wave
        if self.schedule_interval <= 0:
            raise ValueError(
                f"schedule_interval={self.schedule_interval}: the logical "
                "wave clock must advance, so it must be > 0")

    def wave_version(self, wave: int) -> int:
        """Deterministic logical timestamp for a wave (replaces the
        reference's wall-clock ``schedule_version``, scheduler/index.js:126)."""
        return LOGICAL_EPOCH_MS + wave * self.schedule_interval * 1000


@dataclass
class RuleSet:
    """Broadcastable driller-rule snapshot: {domain: {alias: rule}}."""

    rules: dict[str, dict[str, dict]] = field(default_factory=dict)

    def priority_list(self, max_weight: int = 100) -> list[dict]:
        """Rule serve-order entries sorted by rate desc (stable), rate =
        (max_weight + weight) / priority.  Parity: scheduler/index.js:88,
        489-491."""
        entries = []
        for domain, aliases in self.rules.items():
            for alias, rule in aliases.items():
                if not rule.get("active", True):
                    continue
                rate = (max_weight + float(rule.get("weight", 0))) / float(
                    rule.get("priority", 1)
                )
                entries.append(
                    {
                        "key": f"driller:{domain}:{alias}",
                        "rate": rate,
                        "rule": rule.get("schedule_rule", "FIFO"),
                        "interval": int(rule.get("schedule_interval", 3600)),
                        "first_schedule": 0,
                        "seed": rule.get("seed", []),
                        "domain": domain,
                        "alias": alias,
                    }
                )
        entries.sort(key=lambda e: -e["rate"])
        return entries

    @property
    def total_rates(self) -> float:
        return sum(e["rate"] for e in self.priority_list())
