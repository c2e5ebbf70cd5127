"""At-least-once alert delivery as a framework plane
(``enable_reliable_delivery``).

Off: receivers are called directly and a failure loses the notification.
On: consumers commit offsets only after processing (poison records
quarantine to per-topic DLQs), and every notification is journaled and
retried with backoff + circuit breaking until delivered, with idempotency
keys preventing duplicate incidents/posts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.core.plane import Plane
from repro.exporters.delivery_exporter import DeliveryExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.journal import NotificationJournal
from repro.resilience.receivers import (
    FlakyReceiver,
    IdempotentReceiver,
    RetryingReceiver,
)

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def _check(cfg: FrameworkConfig) -> None:
    if cfg.delivery_backoff_base_ns <= 0:
        raise ValidationError("delivery backoff base must be positive")
    if cfg.delivery_backoff_cap_ns < cfg.delivery_backoff_base_ns:
        raise ValidationError("delivery backoff cap must be >= base")
    if cfg.breaker_failure_threshold < 1:
        raise ValidationError("breaker threshold must be positive")
    if cfg.max_delivery_failures < 1:
        raise ValidationError("max_delivery_failures must be positive")


def _build_alerting(fw: MonitoringFramework) -> None:
    """Chain per receiver: Retrying(Flaky(Idempotent(real))).  The flaky
    wrapper is the RECEIVER_OUTAGE fault hook; the idempotent wrapper sits
    *inside* it so a redelivered notification (e.g. after an ambiguous
    failure) is dropped by key, never duplicated."""
    cfg = fw.config
    fw.journal = NotificationJournal(fw.clock)
    for idx, receiver in enumerate(fw.receivers):
        flaky = FlakyReceiver(IdempotentReceiver(receiver), fw.clock)
        retrying = RetryingReceiver(
            flaky,
            fw.clock,
            BackoffPolicy(
                base_ns=cfg.delivery_backoff_base_ns,
                cap_ns=cfg.delivery_backoff_cap_ns,
                jitter=cfg.delivery_backoff_jitter,
                seed=cfg.seed + 31 + idx,
            ),
            fw.journal,
            breaker=CircuitBreaker(
                fw.clock,
                failure_threshold=cfg.breaker_failure_threshold,
                reset_timeout_ns=cfg.breaker_reset_timeout_ns,
            ),
            max_attempts=cfg.delivery_max_attempts,
            tracer=fw.tracer,
        )
        fw.flaky_receivers[retrying.name] = flaky
        fw.delivery_receivers[retrying.name] = retrying
    fw.receivers = list(fw.delivery_receivers.values())
    fw.faults.attach_delivery(
        receivers=fw.flaky_receivers,
        consumers={
            "redfish": fw.redfish_consumer,
            "sensor": fw.sensor_consumer,
            "syslog": fw.syslog_consumer,
            "container": fw.container_consumer,
            "console": fw.console_consumer,
        },
        journal=fw.journal,
    )
    fw.delivery_exporter = DeliveryExporter(
        fw.journal, fw.delivery_receivers.values(), fw.broker
    )


def _rules(fw: MonitoringFramework) -> None:
    fw.vmalert.add_rule(
        RuleSpec(
            name="NotificationFailures",
            expr="alert_delivery_pending > 0",
            for_="10m",
            labels={"severity": "warning", "category": "pipeline"},
            annotations={
                "summary": "{{ $value }} notifications pending delivery to "
                "{{ $labels.receiver }}"
            },
        )
    )


def _dashboard(fw, prom) -> tuple[str, Dashboard]:
    return "delivery", Dashboard("Alert Delivery", uid="alert-delivery", panels=[
        StatPanel("Pending notifications", prom, "sum(alert_delivery_pending)"),
        StatPanel(
            "Notifications delivered", prom, "sum(alert_delivery_delivered_total)"
        ),
        TimeSeriesPanel("Delivery retries", prom, "alert_delivery_retries_total"),
        TopListPanel(
            "Breaker state (0 closed / 2 open)", prom,
            "topk(8, alert_delivery_breaker_state)", label="receiver",
        ),
        StatPanel(
            "Dead-lettered notifications", prom,
            "sum(alert_delivery_dead_lettered_total)",
        ),
        TimeSeriesPanel("DLQ depth", prom, "sum(kafka_dlq_records)"),
    ])


def _health(fw: MonitoringFramework) -> dict[str, float]:
    assert fw.journal is not None
    stats = fw.journal.stats()
    return {
        "deliveries_pending": float(stats["pending"]),
        "deliveries_delivered": float(stats["delivered"]),
        "deliveries_dead_lettered": float(stats["failed"]),
        "records_dead_lettered": float(fw.broker.records_dead_lettered),
    }


PLANE = Plane(
    flag="enable_reliable_delivery",
    token="delivery",
    check=_check,
    build_alerting=_build_alerting,
    target=("alert-delivery", "delivery-exporter:9103", "delivery_exporter"),
    rules=_rules,
    dashboard=_dashboard,
    health=_health,
)
