"""Online log-template mining as a framework plane
(``enable_pattern_mining``).

A Drain-style miner tees off every accepted log push per (tenant,
stream), maintaining templates with content-derived pattern ids;
period-partitioned pattern blocks persist through the object store beside
the chunks (when object storage is on) and the compactor rebuilds them
cold; ``detected_patterns`` is served through the LogQL engine, logcli and
the frontend cache; and a pattern ruler emits self-resolving PatternBurst
/ NovelErrorPattern alerts whose ``pattern_id`` label lets Alertmanager
collapse an alert storm into one grouped incident.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane, category_route
from repro.exporters.patterns_exporter import PatternsExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.patterns.ingester import PatternIngester
from repro.patterns.miner import DrainConfig
from repro.patterns.ruler import BURST_EXPR, NOVEL_EXPR, PatternRuler
from repro.patterns.store import PatternStore

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if not 0.0 < cfg.patterns_sim_threshold <= 1.0:
        raise ValidationError("patterns_sim_threshold must be in (0, 1]")
    if not 0.0 < cfg.patterns_ewma_alpha <= 1.0:
        raise ValidationError("patterns_ewma_alpha must be in (0, 1]")
    if cfg.patterns_burst_factor <= 1.0:
        raise ValidationError("patterns_burst_factor must be > 1")
    if cfg.patterns_min_burst_rate <= 0.0:
        raise ValidationError("patterns_min_burst_rate must be positive")
    if cfg.patterns_warmup_evals < 1:
        raise ValidationError("patterns_warmup_evals must be >= 1")
    if cfg.patterns_novel_active_ns <= 0:
        raise ValidationError("patterns_novel_active_ns must be positive")
    if cfg.patterns_novel_bootstrap_ns < 0:
        raise ValidationError("patterns_novel_bootstrap_ns must be >= 0")


def _build_stores(fw: MonitoringFramework) -> None:
    cfg = fw.config
    drain_config = DrainConfig(sim_threshold=cfg.patterns_sim_threshold)
    # With object storage on, pattern blocks persist beside the chunks;
    # without, the store is memory-resident.
    fw.pattern_store = PatternStore(
        fw.objstore,
        period_ns=cfg.objstore_index_period_ns,
        config=drain_config,
        tracer=fw.tracer,
    )
    fw.pattern_ingester = PatternIngester(
        fw.clock,
        fw.pattern_store,
        config=drain_config,
        tracer=fw.tracer,
        default_tenant=cfg.default_tenant,
    )
    if fw.compactor is not None:
        fw.compactor.patterns = fw.pattern_store
    if fw.store_gateway is not None:
        fw.store_gateway.patterns = fw.pattern_store


def _build_alerting(fw: MonitoringFramework) -> None:
    cfg = fw.config
    assert fw.pattern_ingester is not None and fw.pattern_store is not None
    fw.pattern_ruler = PatternRuler(
        fw.clock,
        fw.notifier("pattern-ruler"),
        fw.pattern_ingester,
        fw.pattern_store,
        cluster=cfg.cluster_name,
        ewma_alpha=cfg.patterns_ewma_alpha,
        burst_factor=cfg.patterns_burst_factor,
        min_burst_rate=cfg.patterns_min_burst_rate,
        warmup_evals=cfg.patterns_warmup_evals,
        novel_active_ns=cfg.patterns_novel_active_ns,
        novel_bootstrap_ns=cfg.patterns_novel_bootstrap_ns,
        tracer=fw.tracer,
    )
    fw.patterns_exporter = PatternsExporter(
        fw.pattern_ingester, fw.pattern_store, fw.pattern_ruler
    )


def _route(cfg: FrameworkConfig):
    # Storm suppression: pattern alerts group on pattern_id, so a storm of
    # thousands of identical lines — across streams and ingesters —
    # collapses into ONE aggregation group and one notification per
    # group_wait/group_interval window.
    return category_route(cfg, "patterns", "pattern_id")


def _rules(fw: MonitoringFramework) -> None:
    # Pattern rules live on the *pattern* ruler, whose _query reads the
    # miner directly instead of PromQL.  Both fire immediately
    # (for_="0s"): a burst sample only exists while the rate genuinely
    # exceeds the baseline, and a novel error template is by definition a
    # one-time rising edge.
    assert fw.pattern_ruler is not None
    fw.pattern_ruler.add_rule(
        RuleSpec(
            name="PatternBurst",
            expr=BURST_EXPR,
            for_="0s",
            labels={"severity": "warning", "category": "patterns"},
            annotations={
                "summary": "Template '{{ $labels.pattern }}' is bursting at "
                "{{ $value }} lines/s over its baseline — storm grouped by "
                "pattern_id"
            },
        )
    )
    fw.pattern_ruler.add_rule(
        RuleSpec(
            name="NovelErrorPattern",
            expr=NOVEL_EXPR,
            for_="0s",
            labels={"severity": "critical", "category": "patterns"},
            annotations={
                "summary": "Never-before-seen error template "
                "'{{ $labels.pattern }}' appeared"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "patterns", Dashboard("Log Patterns", uid="log-patterns", panels=[
        StatPanel("Distinct templates", prom, "patterns_templates"),
        StatPanel(
            "Compression ratio (lines per template)", prom,
            "patterns_compression_ratio", unit="x",
        ),
        TimeSeriesPanel("Lines mined", prom, "patterns_lines_mined_total"),
        TopListPanel(
            "Busiest templates", prom,
            "topk(10, patterns_template_lines_total)", label="pattern_id",
        ),
        TimeSeriesPanel(
            "Active bursts (alert signal)", prom, "patterns_bursts_active"
        ),
        StatPanel(
            "Novel error templates", prom, "patterns_novel_error_templates_total"
        ),
    ])


def _start(fw: MonitoringFramework) -> None:
    assert fw.pattern_ruler is not None and fw.pattern_store is not None
    cfg = fw.config
    fw.pattern_ruler.run_periodic(cfg.patterns_ruler_interval_ns)
    if fw.objstore is not None:
        # Live pattern blocks ship on the chunk-flush cadence.
        fw.clock.every(cfg.objstore_flush_interval_ns, fw.pattern_store.persist_dirty)


def _health(fw: MonitoringFramework) -> dict[str, float]:
    ingester, store, ruler = fw.pattern_ingester, fw.pattern_store, fw.pattern_ruler
    assert ingester is not None and store is not None and ruler is not None
    return {
        "patterns_distinct_templates": float(store.pattern_count()),
        "patterns_lines_mined": float(ingester.lines_observed),
        "patterns_compression_ratio": ingester.compression_ratio(),
        "patterns_bursts_detected": float(ruler.bursts_detected),
        "patterns_novel_errors": float(ruler.novel_detected),
    }


PLANE = Plane(
    flag="enable_pattern_mining",
    token="patterns",
    check=_check,
    build_stores=_build_stores,
    build_alerting=_build_alerting,
    target=("patterns", "patterns-exporter:9108", "patterns_exporter"),
    route=_route,
    rules=_rules,
    dashboard=_dashboard,
    start=_start,
    health=_health,
)
