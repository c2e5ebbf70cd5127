"""The sharded parallel query engine as a framework plane
(``enable_query_engine``).

Off: queries run monolithically on one LogQL engine.  On: range queries
are planned into time-split × stream-shard subqueries, fanned out across
a pool of simulated querier workers (accounted wall-clock = busiest
worker, not the sum) and merged back exactly; when object storage is
also on, the compactor builds per-stream n-gram bloom blocks and the
store-gateway uses them to skip cold chunks that cannot match a line
filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.queryx_exporter import QueryxExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.planner import QueryPlanner

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if cfg.queryx_shard_count < 1:
        raise ValidationError("queryx_shard_count must be >= 1")
    if cfg.queryx_workers < 1:
        raise ValidationError("queryx_workers must be >= 1")
    if cfg.queryx_slow_query_threshold_ns <= 0:
        raise ValidationError("queryx_slow_query_threshold_ns must be positive")
    if not 0.0 < cfg.queryx_bloom_fp_rate < 1.0:
        raise ValidationError("queryx_bloom_fp_rate must be in (0, 1)")


def _build(fw: MonitoringFramework) -> None:
    cfg = fw.config
    gateway = fw.store_gateway
    # Charges each subquery with the cold object-store latency it actually
    # incurred (delta of this counter).
    cold_latency_fn = (
        None if gateway is None else lambda: gateway.fetch_latency_ns_total
    )
    fw.queryx = ShardedQueryEngine(
        fw.warehouse.loki,
        fw.clock,
        planner=QueryPlanner(
            shard_count=cfg.queryx_shard_count,
            split_ns=cfg.queryx_split_interval_ns,
        ),
        pool=QuerierPool(workers=cfg.queryx_workers),
        tracer=fw.tracer,
        cold_latency_fn=cold_latency_fn,
        slow_query_threshold_ns=cfg.queryx_slow_query_threshold_ns,
    )
    fw.faults.attach_queryx(fw.queryx.pool)
    fw.queryx_exporter = QueryxExporter(
        fw.queryx, gateway=gateway, blooms=fw.blooms
    )


def _rules(fw: MonitoringFramework) -> None:
    fw.vmalert.add_rule(
        RuleSpec(
            name="SlowQueries",
            # The exporter gauge is a since-last-scrape delta, so it
            # self-resolves on the next quiet scrape; no sustain window —
            # one slow refresh is worth knowing.
            expr="queryx_slow_queries_recent > 0",
            for_="0s",
            labels={"severity": "warning", "category": "query"},
            annotations={
                "summary": "{{ $value }} queries exceeded the slow-query "
                "threshold since the last scrape"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    panels = [
        StatPanel(
            "Realized speedup (serial / wall)", prom, "queryx_speedup", unit="x"
        ),
        TimeSeriesPanel(
            "Last query latency: wall vs serial", prom, "queryx_last_query_seconds"
        ),
        TopListPanel(
            "Worker busy time (stragglers stand out)", prom,
            "topk(16, queryx_worker_busy_seconds)", label="worker",
        ),
        TimeSeriesPanel(
            "Subquery retries (querier crashes)", prom,
            "queryx_subquery_retries_total",
        ),
        TimeSeriesPanel(
            "Slow queries since last scrape (alert signal)", prom,
            "queryx_slow_queries_recent",
        ),
    ]
    if fw.blooms is not None:
        panels += [
            StatPanel("Bloom skip ratio", prom, "queryx_bloom_skip_ratio"),
            TimeSeriesPanel(
                "Cold chunks considered / fetched / skipped", prom,
                "queryx_gateway_chunks_total",
            ),
        ]
    return "queryx", Dashboard("Query Engine", uid="query-engine", panels=panels)


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.queryx is not None
    stats = fw.queryx.stats()
    summary = {
        "queryx_queries": float(stats["queries_total"]),
        "queryx_subqueries": float(stats["subqueries_total"]),
        "queryx_slow_queries": float(stats["slow_queries_total"]),
        "queryx_retries": float(stats["pool_retries_total"]),
        "queryx_speedup": float(stats["speedup"]),
    }
    if fw.blooms is not None and fw.store_gateway is not None:
        summary["queryx_bloom_blocks"] = float(fw.blooms.counters()["blocks"])
        summary["queryx_chunks_skipped"] = float(
            fw.store_gateway.chunks_skipped_total
        )
    return summary


PLANE = Plane(
    flag="enable_query_engine",
    token="queryx",
    check=_check,
    build=_build,
    target=("queryx", "queryx-exporter:9106", "queryx_exporter"),
    rules=_rules,
    dashboard=_dashboard,
    health=_health,
)
