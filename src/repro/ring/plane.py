"""The replicated ingest ring as a framework plane (``enable_ingest_ring``).

Off: logs land in a single ``LokiStore``.  On: pushes go through a
distributor to a consistent-hash ring of WAL-backed ingesters at write
quorum, and the ring becomes the warehouse's log backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.ring_exporter import RingExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.ring.cluster import RingLokiCluster

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if cfg.ring_ingesters < 1:
        raise ValidationError("ring needs at least one ingester")
    if not 1 <= cfg.ring_replication <= cfg.ring_ingesters:
        raise ValidationError("ring_replication must be in [1, ring_ingesters]")
    if not 0 <= cfg.ring_zones <= cfg.ring_ingesters:
        raise ValidationError("ring_zones must be in [0, ring_ingesters]")


def _build_stores(fw: MonitoringFramework) -> None:
    cfg = fw.config
    fw.ring = RingLokiCluster(
        ingesters=cfg.ring_ingesters,
        replication_factor=cfg.ring_replication,
        tracer=fw.tracer,
        shard_size=cfg.tenant_shard_size if cfg.enable_multi_tenancy else 0,
        zones=cfg.ring_zones,
    )
    fw.ring_exporter = RingExporter(fw.ring)
    fw.faults.attach_ring(fw.ring)
    fw.log_backend = fw.ring


def _rules(fw: MonitoringFramework) -> None:
    assert fw.ring is not None
    distributor = fw.ring.distributor
    fw.vmalert.add_rule(
        RuleSpec(
            name="IngesterDown",
            expr="loki_ring_ingester_up == 0",
            for_=fw.config.rule_for,
            labels={"severity": "warning", "category": "pipeline"},
            annotations={
                "summary": "Loki ingester {{ $labels.ingester }} is "
                "down; writes continue at quorum "
                f"{distributor.write_quorum}/{distributor.replication_factor}"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "ring", Dashboard("Ingest Ring", uid="ingest-ring", panels=[
        StatPanel("Ingesters up", prom, "sum(loki_ring_ingester_up)"),
        TopListPanel(
            "Entries per ingester", prom,
            "topk(16, loki_ring_ingester_entries_total)", label="ingester",
        ),
        TimeSeriesPanel(
            "Distributor quorum failures", prom,
            "loki_distributor_quorum_failures_total",
        ),
        StatPanel(
            "WAL segments awaiting checkpoint", prom, "sum(loki_ring_wal_segments)"
        ),
        StatPanel(
            "Records recovered by WAL replay", prom,
            "sum(loki_ring_wal_replayed_records_total)",
        ),
    ])


PLANE = Plane(
    flag="enable_ingest_ring",
    token="ring",
    check=_check,
    build_stores=_build_stores,
    target=("loki-ring", "ring-exporter:9102", "ring_exporter"),
    rules=_rules,
    dashboard=_dashboard,
)
