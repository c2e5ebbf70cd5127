"""Multi-tenancy as a framework plane (``enable_multi_tenancy``).

Off: the stack is single-tenant.  On: every log push is attributed to a
tenant, tagged with the ``tenant`` stream label, limit-checked at
admission (typed 429s on overdraw), shuffle-sharded onto the ingest ring
when the ring is enabled, and queried through a fair per-tenant scheduler
in front of the split/cache frontend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.tenancy_exporter import TenancyExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry
from repro.tenancy.scheduler import QueryScheduler

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if not cfg.default_tenant:
        raise ValidationError("default_tenant must be non-empty")
    if cfg.query_max_concurrency < 1:
        raise ValidationError("query_max_concurrency must be >= 1")
    if cfg.tenant_shard_size < 0:
        raise ValidationError("tenant_shard_size must be >= 0")
    if cfg.enable_ingest_ring and 0 < cfg.tenant_shard_size < cfg.ring_replication:
        raise ValidationError(
            "tenant_shard_size must be 0 (disabled) or >= ring_replication"
        )


def _build_stores(fw: MonitoringFramework) -> None:
    cfg = fw.config
    fw.limits = LimitsRegistry(cfg.tenant_default_limits, cfg.tenant_overrides)
    fw.admission = AdmissionController(
        fw.limits, fw.clock, default_tenant=cfg.default_tenant, tracer=fw.tracer
    )


def _build_alerting(fw: MonitoringFramework) -> None:
    # The scheduler sits in front of the query frontend, which exists once
    # the warehouse's engines do.
    fw.scheduler = QueryScheduler(
        fw.frontend,
        fw.clock,
        registry=fw.limits,
        max_concurrency=fw.config.query_max_concurrency,
        tracer=fw.tracer,
    )
    assert fw.admission is not None
    fw.tenancy_exporter = TenancyExporter(fw.admission, fw.scheduler, fw.broker)
    fw.faults.attach_tenancy(fw.warehouse, fw.scheduler)


def _rules(fw: MonitoringFramework) -> None:
    fw.vmalert.add_rule(
        RuleSpec(
            name="TenantRateLimited",
            expr="tenant_ingest_discarded_recent > 0",
            for_=fw.config.rule_for,
            labels={"severity": "warning", "category": "tenancy"},
            annotations={
                "summary": "Tenant {{ $labels.tenant }} is being "
                "rate-limited: {{ $value }} lines discarded since the "
                "last scrape"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "tenants", Dashboard("Tenants", uid="tenants", panels=[
        TopListPanel(
            "Ingest accepted per tenant", prom,
            "topk(16, tenant_ingest_entries_total)", label="tenant",
        ),
        TimeSeriesPanel(
            "Lines discarded since last scrape (alert signal)", prom,
            "tenant_ingest_discarded_recent",
        ),
        TopListPanel(
            "Active streams per tenant", prom,
            "topk(16, tenant_active_streams)", label="tenant",
        ),
        StatPanel(
            "Pushes rejected (429s)", prom, "sum(tenant_pushes_rejected_total)"
        ),
        TimeSeriesPanel(
            "Query queue depth per tenant", prom, "tenant_query_queue_depth"
        ),
        TimeSeriesPanel(
            "Query wait p95 per tenant", prom, "tenant_query_wait_p95_seconds"
        ),
    ])


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.admission is not None and fw.scheduler is not None
    counters = fw.admission.counters.values()
    return {
        "tenants": float(len(fw.admission.tenants())),
        "tenant_entries_discarded": float(
            sum(c.entries_discarded for c in counters)
        ),
        "tenant_pushes_rejected": float(sum(c.pushes_rejected for c in counters)),
        "tenant_queries_completed": float(
            sum(s.completed for s in fw.scheduler.stats.values())
        ),
    }


PLANE = Plane(
    flag="enable_multi_tenancy",
    token="tenancy",
    check=_check,
    build_stores=_build_stores,
    build_alerting=_build_alerting,
    target=("tenancy", "tenancy-exporter:9104", "tenancy_exporter"),
    rules=_rules,
    dashboard=_dashboard,
    health=_health,
)
