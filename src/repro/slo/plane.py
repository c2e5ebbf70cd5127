"""Service-level objectives as a framework plane (``enable_slo``).

Built-in SLOs for ingest availability, query latency (query engine on),
alert delivery (reliable delivery on) and pattern-detection freshness
(pattern mining on) are registered with an SloManager; burn-rate
recording rules persist derived series back into the TSDB, vmalert runs
Google-SRE-workbook multi-window multi-burn-rate rules over them, pages
(severity=critical) open ServiceNow incidents while slow-burn tickets
only annotate, and budget exhaustion escalates as a critical incident
with the burn history attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ValidationError
from repro.core.plane import Plane, category_route
from repro.exporters.slo_exporter import SloExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import HeatmapPanel, StatPanel, TimeSeriesPanel, TopListPanel
from repro.slo.burnrate import burn_metric_name
from repro.slo.manager import SloManager
from repro.slo.model import SLO
from repro.slo.sources import (
    AlertDeliverySource,
    IngestAvailabilitySource,
    PatternFreshnessSource,
    QueryLatencySource,
)

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework

#: Default objectives for the built-in SLOs; override per SLO name via
#: ``FrameworkConfig.slo_objectives``.
DEFAULT_SLO_OBJECTIVES: dict[str, float] = {
    "ingest-availability": 0.999,
    "query-latency": 0.95,
    "alert-delivery": 0.999,
    "pattern-freshness": 0.9,
}


def _check(cfg: FrameworkConfig) -> None:
    if not cfg.slo_burn_windows:
        raise ValidationError("slo_burn_windows needs at least one tier")
    if cfg.slo_pattern_freshness_bound_ns <= 0:
        raise ValidationError("slo_pattern_freshness_bound_ns must be positive")
    for name, objective in cfg.slo_objectives.items():
        if not 0.0 < objective < 1.0:
            raise ValidationError(
                f"slo objective for {name!r} must be in (0, 1) exclusive, "
                f"got {objective}"
            )


def _build_alerting(fw: MonitoringFramework) -> None:
    """Built last on the alerting plane: the SLI sources read the
    journal/queryx/pattern counters, and budget escalation posts straight
    into Alertmanager."""
    cfg = fw.config
    fw.slo_manager = manager = SloManager(
        fw.clock,
        fw.promql,
        fw.warehouse.tsdb,
        fw.notifier("slo-manager"),
        windows=cfg.slo_burn_windows,
        cluster=cfg.cluster_name,
        tracer=fw.tracer,
    )
    objectives = {**DEFAULT_SLO_OBJECTIVES, **cfg.slo_objectives}

    def register(name: str, description: str, source) -> None:
        manager.register(
            SLO(
                name=name,
                description=description,
                objective=objectives[name],
                window=cfg.slo_window,
            ),
            source,
        )

    register(
        "ingest-availability",
        "log entries accepted vs discarded or lost",
        IngestAvailabilitySource(
            fw.warehouse,
            admission=fw.admission,
            distributor=fw.ring.distributor if fw.ring is not None else None,
        ),
    )
    if fw.queryx is not None:
        register(
            "query-latency",
            "queries under the slowness threshold",
            QueryLatencySource(fw.queryx),
        )
    if fw.journal is not None:
        register(
            "alert-delivery",
            "alert notifications delivered vs dead-lettered",
            AlertDeliverySource(fw.journal),
        )
    if fw.pattern_ruler is not None:
        register(
            "pattern-freshness",
            "novel error templates detected within the bound",
            PatternFreshnessSource(
                fw.pattern_ruler, cfg.slo_pattern_freshness_bound_ns
            ),
        )
    for spec in manager.rule_specs():
        fw.vmalert.add_rule(spec)
    fw.slo_exporter = SloExporter(manager)
    fw.faults.attach_slo(manager)


def _route(cfg: FrameworkConfig):
    # Severity-tiered SLO routing.  Pages (severity=critical) already
    # matched the ServiceNow route (continue=True) and opened an incident;
    # this route groups both pages and slow-burn tickets per (alert, SLO)
    # for the Slack channel — tickets never reach ServiceNow at all.
    return category_route(cfg, "slo", "slo")


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    fastest = fw.config.slo_burn_windows[0]
    return "slo", Dashboard("SLO Overview", uid="slo-overview", panels=[
        StatPanel(
            "Lowest budget remaining", prom, "slo_budget_remaining_ratio",
            reducer="min",
        ),
        StatPanel("Budgets exhausted", prom, "slo_budget_exhausted"),
        TimeSeriesPanel("Error budget remaining", prom, "slo_budget_remaining_ratio"),
        HeatmapPanel(
            "Burn rate heatmap (slo/window)", prom, "slo_burn_rate",
            scale_max=fastest.factor,
        ),
        TopListPanel(
            f"Hottest {fastest.short} burn", prom,
            f"topk(8, {burn_metric_name(fastest.short)})", label="slo", unit="x",
        ),
        TimeSeriesPanel("Bad events since last scrape", prom, "slo_bad_events_recent"),
    ])


def _start(fw: MonitoringFramework) -> None:
    assert fw.slo_manager is not None
    fw.slo_manager.run_periodic(fw.config.slo_eval_interval_ns)


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.slo_manager is not None
    summary: dict[str, float] = {}
    exhausted = 0.0
    for row in fw.slo_manager.status():
        name = str(row["slo"]).replace("-", "_")
        summary[f"slo_{name}_budget_remaining"] = float(row["budget_remaining"])
        if row["state"] == "exhausted":
            exhausted += 1.0
    summary["slo_budgets_exhausted"] = exhausted
    summary["slo_recording_samples"] = float(
        fw.slo_manager.recording.samples_recorded
    )
    return summary


PLANE = Plane(
    flag="enable_slo",
    token="slo",
    check=_check,
    build_alerting=_build_alerting,
    target=("slo", "slo-exporter:9109", "slo_exporter"),
    route=_route,
    dashboard=_dashboard,
    start=_start,
    health=_health,
)
