"""Self-healing of the ingest ring as a framework plane
(``enable_self_healing``, meaningful only with the ring also on).

A heartbeat-driven failure detector moves ring members through ACTIVE →
SUSPECT → DEAD → FORGOTTEN, the distributor routes writes/reads around
unhealthy members, a supervisor restarts crashed-but-recoverable
ingesters with capped exponential backoff, and an anti-entropy repairer
re-replicates a permanently lost member's streams onto the surviving
ring owners before releasing its tokens.  With the ring off the flag is
a no-op, so a CI leg can run ring-less tests with it set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.selfheal_exporter import SelfHealExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.selfheal.detector import FailureDetectorConfig
from repro.selfheal.manager import SelfHealConfig, SelfHealManager
from repro.selfheal.repairer import RingRepairerConfig
from repro.selfheal.supervisor import SupervisorConfig

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    # The FailureDetectorConfig/RingRepairerConfig constructors validate
    # the relationships (suspect_after vs heartbeat gap, dead_after vs
    # suspect_after); here just the signs.
    for name in ("selfheal_suspect_after_ns", "selfheal_dead_after_ns"):
        if getattr(cfg, name) <= 0:
            raise ValidationError(f"{name} must be positive")
    if cfg.selfheal_repair_grace_ns < 0:
        raise ValidationError("selfheal_repair_grace_ns must be >= 0")


def _build_stores(fw: MonitoringFramework) -> None:
    cfg = fw.config
    assert fw.ring is not None
    fw.selfheal = SelfHealManager(
        fw.clock,
        fw.ring,
        SelfHealConfig(
            detector=FailureDetectorConfig(
                heartbeat_interval_ns=cfg.selfheal_heartbeat_interval_ns,
                suspect_after_ns=cfg.selfheal_suspect_after_ns,
                dead_after_ns=cfg.selfheal_dead_after_ns,
                sweep_interval_ns=cfg.selfheal_sweep_interval_ns,
            ),
            repairer=RingRepairerConfig(
                grace_ns=cfg.selfheal_repair_grace_ns,
                sweep_interval_ns=cfg.selfheal_repair_interval_ns,
            ),
            supervisor=SupervisorConfig(
                sweep_interval_ns=cfg.selfheal_supervisor_interval_ns,
            ),
        ),
        tracer=fw.tracer,
    )
    fw.selfheal_exporter = SelfHealExporter(fw.selfheal)
    fw.faults.attach_selfheal(fw.selfheal)


def _rules(fw: MonitoringFramework) -> None:
    fw.vmalert.add_rule(
        RuleSpec(
            name="IngesterSuspect",
            # One-hot lifecycle gauge from the ring exporter; no sustain
            # window — suspicion is itself the sustained condition
            # (heartbeats already stale for suspect_after), and the state
            # may progress to DEAD before a second evaluation.
            expr='ring_member_state{state="suspect"} > 0',
            for_="0s",
            labels={"severity": "warning", "category": "pipeline"},
            annotations={
                "summary": "Ingester {{ $labels.ingester }} heartbeats have "
                "gone stale; writes are routing around it"
            },
        )
    )
    fw.vmalert.add_rule(
        RuleSpec(
            name="UnderReplicatedStreams",
            # A live placement diff: fires while redundancy is genuinely
            # lost, self-resolves the scrape after the repairer (or a
            # restart + WAL replay) closes the gap.
            expr="selfheal_under_replicated_streams > 0",
            for_="0s",
            labels={"severity": "critical", "category": "pipeline"},
            annotations={
                "summary": "{{ $value }} streams are missing replicas; "
                "anti-entropy repair is pending"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "selfheal", Dashboard("Self-Healing", uid="self-healing", panels=[
        TimeSeriesPanel("Members by lifecycle state", prom, "selfheal_members"),
        TopListPanel(
            "Heartbeat age per member", prom,
            "topk(16, ring_member_heartbeat_age_seconds)",
            label="ingester", unit=" s",
        ),
        TimeSeriesPanel(
            "Under-replicated streams (alert signal)", prom,
            "selfheal_under_replicated_streams",
        ),
        StatPanel(
            "Members retired by repair", prom,
            "sum(selfheal_members_repaired_total)",
        ),
        StatPanel(
            "Entries re-replicated", prom, "sum(selfheal_entries_copied_total)"
        ),
        TimeSeriesPanel(
            "Supervisor restarts / WAL replays", prom,
            "selfheal_supervisor_restarts_total",
        ),
        TimeSeriesPanel(
            "Lifecycle transitions by kind", prom, "selfheal_transitions_total"
        ),
    ])


def _start(fw: MonitoringFramework) -> None:
    assert fw.selfheal is not None
    fw.selfheal.start()


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.selfheal is not None
    return {f"selfheal_{k}": v for k, v in fw.selfheal.health_summary().items()}


PLANE = Plane(
    flag="enable_self_healing",
    token="selfheal",
    requires=("enable_ingest_ring",),
    check=_check,
    build_stores=_build_stores,
    target=("selfheal", "selfheal-exporter:9107", "selfheal_exporter"),
    rules=_rules,
    dashboard=_dashboard,
    start=_start,
    health=_health,
)
