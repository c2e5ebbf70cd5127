"""Tiered object storage as a framework plane (``enable_object_storage``).

Off: chunks stay resident in ingester memory forever.  On: a shipper
periodically seals aged chunks and uploads them to a simulated S3 bucket
behind a period-partitioned index (replica copies deduplicate by content
hash), freeing hot memory; a compactor merges small objects and applies
retention; queries merge recent-from-ingester with cold-from-gateway
transparently.  The tiered store wraps whatever hot tier is configured —
the ring when it is on, a plain ``LokiStore`` otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.objstore_exporter import ObjstoreExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel
from repro.loki.store import LokiStore
from repro.objstore.compactor import CompactionPolicy, Compactor
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore
from repro.objstore.shipper import ChunkShipper
from repro.objstore.tiered import TieredLokiStore
from repro.queryx.bloom import BloomStore

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if cfg.objstore_index_period_ns <= 0:
        raise ValidationError("objstore_index_period_ns must be positive")
    if cfg.objstore_target_object_bytes < 1:
        raise ValidationError("objstore_target_object_bytes must be positive")
    if (
        cfg.objstore_default_retention_ns is not None
        and cfg.objstore_default_retention_ns <= 0
    ):
        raise ValidationError(
            "objstore_default_retention_ns must be positive or None"
        )


def _build_stores(fw: MonitoringFramework) -> None:
    cfg = fw.config
    hot = fw.log_backend if fw.log_backend is not None else LokiStore()
    fw.objstore = ObjectStore(fw.clock)
    fw.shipper_index = ShipperIndex(
        fw.objstore, period_ns=cfg.objstore_index_period_ns
    )
    fw.shipper = ChunkShipper(
        hot, fw.objstore, fw.shipper_index, fw.clock, tracer=fw.tracer
    )
    # Bloom blocks ride the same bucket as the chunks; the compactor
    # builds them, the gateway consults them.
    if cfg.enable_query_engine:
        fw.blooms = BloomStore(fw.objstore, fp_rate=cfg.queryx_bloom_fp_rate)
    fw.compactor = Compactor(
        fw.objstore,
        fw.shipper_index,
        fw.clock,
        policy=CompactionPolicy(
            target_object_bytes=cfg.objstore_target_object_bytes
        ),
        default_retention_ns=cfg.objstore_default_retention_ns,
        tenant_retention_ns=cfg.objstore_tenant_retention_ns,
        tracer=fw.tracer,
        blooms=fw.blooms,
    )
    fw.store_gateway = StoreGateway(
        fw.objstore, fw.shipper_index, fw.clock, tracer=fw.tracer,
        blooms=fw.blooms,
    )
    fw.tiered = TieredLokiStore(
        hot, fw.objstore, fw.shipper_index, fw.shipper, fw.compactor,
        fw.store_gateway,
    )
    fw.faults.attach_objstore(fw.objstore, fw.shipper)
    fw.objstore_exporter = ObjstoreExporter(
        fw.objstore, fw.shipper_index, fw.shipper,
        compactor=fw.compactor, gateway=fw.store_gateway,
    )
    fw.log_backend = fw.tiered


def _rules(fw: MonitoringFramework) -> None:
    fw.vmalert.add_rule(
        RuleSpec(
            name="ObjstoreFlushStalled",
            expr="objstore_flush_failures_consecutive > 0",
            for_=fw.config.rule_for,
            labels={"severity": "warning", "category": "storage"},
            annotations={
                "summary": "{{ $value }} consecutive chunk flushes to object "
                "storage have failed; ingester memory is not draining"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "objstore", Dashboard("Object Storage", uid="object-storage", panels=[
        StatPanel("Cold chunk objects", prom, 'sum(objstore_objects{kind="chunk"})'),
        TimeSeriesPanel("Bucket bytes by kind", prom, "objstore_bytes"),
        TimeSeriesPanel(
            "Consecutive flush failures (alert signal)", prom,
            "objstore_flush_failures_consecutive",
        ),
        StatPanel("Replica dedup ratio", prom, "objstore_dedup_ratio"),
        TimeSeriesPanel(
            "Resident bytes freed by flushes", prom,
            'objstore_flush_bytes_total{kind="freed"}',
        ),
        TimeSeriesPanel(
            "Store-gateway cold-read latency", prom,
            "objstore_gateway_last_query_seconds",
        ),
    ])


def _start(fw: MonitoringFramework) -> None:
    assert fw.shipper is not None and fw.compactor is not None
    cfg = fw.config
    fw.clock.every(cfg.objstore_flush_interval_ns, fw.shipper.flush)
    fw.clock.every(cfg.objstore_compaction_interval_ns, fw.compactor.run)


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.shipper is not None and fw.tiered is not None
    ship = fw.shipper.counters()
    return {
        "objstore_chunks_shipped": float(ship["chunks_shipped"]),
        "objstore_chunks_deduped": float(ship["chunks_deduped"]),
        "objstore_flush_failures": float(ship["flush_failures"]),
        "objstore_cold_chunks": float(fw.tiered.cold_chunk_count()),
        "objstore_cold_bytes": float(fw.tiered.cold_bytes()),
    }


PLANE = Plane(
    flag="enable_object_storage",
    token="objstore",
    check=_check,
    build_stores=_build_stores,
    target=("objstore", "objstore-exporter:9105", "objstore_exporter"),
    rules=_rules,
    dashboard=_dashboard,
    start=_start,
    health=_health,
)
