"""Inputs, framework driving and correctness checks for the end-to-end bench.

Every input is generated from the benchmark seed before any timing starts:
the syslog + container feed, the fault schedule and the dashboard query
mix.  The framework only ever sees those generated inputs, fed to it on
the simulated clock.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

from repro.cluster.faults import FaultKind
from repro.cluster.topology import Cluster, ClusterSpec
from repro.common.simclock import PAPER_EPOCH_NS, minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.workloads.scenarios import steady_state_mix

from speed import at_reference, probe

#: The clock advances in fixed slices so callback order is identical in
#: every run; 10 s is the consumer-pump and Redfish-poll cadence, so every
#: slice holds one pump and the scrape/rule slices recur at fixed shares.
STEP_NS = seconds(10)
#: Long enough for each fault to fire, clear and resolve: a resolve is
#: notified one 5m group_interval after its firing, near 7.5 sim-minutes.
SCENARIO_NS = minutes(8)
#: Log lines per simulated second across all 512 nodes (80% syslog).
FEED_LINES_PER_S = 15
#: Faults start 1-9 s in: after the first minute-aligned tick and before
#: the first 10 s poll, so each seed shifts the start (and the measured
#: latency) by a sub-poll phase without changing which ticks see it.
FAULT_START_RANGE_NS = (seconds(1), seconds(9))
FAULT_DURATION_NS = seconds(150)

#: The eight optional planes; pipeline-default runs with all of them off.
PLANE_FLAGS = (
    "enable_ingest_ring",
    "enable_self_healing",
    "enable_reliable_delivery",
    "enable_multi_tenancy",
    "enable_object_storage",
    "enable_query_engine",
    "enable_pattern_mining",
    "enable_slo",
)

#: Fault kind -> the alert rule that must catch it.
FAULT_ALERTS = {
    FaultKind.CABINET_LEAK: "PerlmutterCabinetLeak",
    FaultKind.SWITCH_OFFLINE: "SwitchOffline",
    FaultKind.NODE_DOWN: "NodeDown",
}


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def framework_config(all_planes: bool, seed: int) -> FrameworkConfig:
    # Every plane flag is set explicitly so REPRO_* variables in the
    # environment cannot change what a workload measures.
    flags = {name: all_planes for name in PLANE_FLAGS}
    if all_planes:
        flags.update(ring_ingesters=6, ring_zones=3)
    return FrameworkConfig(seed=seed, **flags)


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    target: str
    start_offset_ns: int
    duration_ns: int

    @property
    def alertname(self) -> str:
        return FAULT_ALERTS[self.kind]


@dataclass
class Inputs:
    seed: int
    #: One bucket of (is_syslog, labels, ts, line) per clock step.
    buckets: list[list[tuple[bool, dict[str, str], int, str]]]
    faults: list[FaultSpec]
    lines: int
    streams: int
    digest: str


def make_inputs(seed: int) -> Inputs:
    cluster = Cluster(ClusterSpec())
    rng = random.Random(seed)
    nodes = sorted(cluster.nodes)
    lines = FEED_LINES_PER_S * SCENARIO_NS // seconds(1)
    feed = steady_state_mix(nodes, lines, PAPER_EPOCH_NS, SCENARIO_NS, seed=seed)
    buckets: list[list] = [[] for _ in range(SCENARIO_NS // STEP_NS)]
    for g in feed:
        buckets[(g.timestamp_ns - PAPER_EPOCH_NS) // STEP_NS].append(
            (g.labels["data_type"] == "syslog", g.labels, g.timestamp_ns, g.line)
        )
    targets = {
        FaultKind.CABINET_LEAK: rng.choice(sorted(cluster.cabinets)),
        FaultKind.SWITCH_OFFLINE: rng.choice(sorted(cluster.switches)),
        FaultKind.NODE_DOWN: rng.choice(nodes),
    }
    faults = [
        FaultSpec(kind, str(target), rng.randrange(*FAULT_START_RANGE_NS),
                  FAULT_DURATION_NS)
        for kind, target in targets.items()
    ]
    streams = {tuple(sorted(g.labels.items())) for g in feed}
    h = hashlib.sha256()
    for g in feed:
        h.update(f"{g.timestamp_ns}|{sorted(g.labels.items())}|{g.line}\n".encode())
    h.update(repr(faults).encode())
    return Inputs(seed, buckets, faults, len(feed), len(streams), h.hexdigest()[:16])


@dataclass
class RoundResult:
    setup_s: float
    step_s: list[float]
    messages: int
    alert_detect_s: float
    incident_open_s: float
    attempted: int
    failed: int
    digest: str


def build(all_planes: bool, seed: int, before_start=None) -> tuple[MonitoringFramework, float]:
    """Construct and start a framework; returns it with the set-up seconds
    at the reference speed (``speed.py``).

    ``before_start`` runs between construction and ``start()`` (untimed),
    which is where the traced run wraps the layers.
    """
    before = probe()
    t0 = time.perf_counter()
    fw = MonitoringFramework(framework_config(all_planes, seed))
    setup = time.perf_counter() - t0
    if before_start is not None:
        before_start(fw)
    t1 = time.perf_counter()
    fw.start()
    setup += time.perf_counter() - t1
    return fw, at_reference(setup, before, probe())


def stepper(fw: MonitoringFramework, inputs: Inputs):
    """Schedule the faults, then feed the inputs on the simulated clock,
    yielding, as each step ends, its wall time and that time at the
    reference speed (``speed.py``).

    A step publishes the lines stamped inside the coming slice, then
    advances the clock over it.  The caller may do untimed work between
    steps, and may interleave the steps of two frameworks.
    """
    for f in inputs.faults:
        fw.faults.schedule(f.kind, f.target, delay_ns=f.start_offset_ns,
                           duration_ns=f.duration_ns)
    syslog, container = fw.publish_syslog, fw.publish_container_log
    advance = fw.clock.advance
    perf = time.perf_counter
    for bucket in inputs.buckets:
        before = probe()
        t = perf()
        for is_syslog, labels, ts, line in bucket:
            (syslog if is_syslog else container)(labels, ts, line)
        advance(STEP_NS)
        dt = perf() - t
        yield dt, at_reference(dt, before, probe())


def drive(fw: MonitoringFramework, inputs: Inputs) -> list[float]:
    """Feed all the inputs; returns the step times at the reference speed."""
    return [ref for _, ref in stepper(fw, inputs)]


def seal(fw: MonitoringFramework) -> None:
    """Seal every open chunk, ship it to the object store and compact,
    so later reads go through the store-gateway, blooms and cold chunks.
    The scenario is too short for the periodic shipper to do this."""
    store = fw.warehouse.loki
    store.flush_all()
    store.flush_to_cold()
    store.compact()


def check_faults(fw: MonitoringFramework, inputs: Inputs) -> tuple[float, float]:
    """Every fault fired to Slack and ServiceNow and resolved after it
    cleared.  Returns the worst detect and incident-open latencies (s)."""
    detect, opened = [], []
    alerts_by_incident = {a.incident_number: a for a in fw.servicenow.alerts()}
    for f in inputs.faults:
        start = PAPER_EPOCH_NS + f.start_offset_ns
        end = start + f.duration_ns
        firing = [
            m.timestamp_ns for m in fw.slack.messages
            if m.timestamp_ns >= start and "[FIRING" in m.text
            and f.alertname in m.text and f.target in m.text
        ]
        resolved = [
            m.timestamp_ns for m in fw.slack.messages
            if m.timestamp_ns >= end and "[RESOLVED" in m.text
            and f.alertname in m.text and f.target in m.text
        ]
        incidents = [
            i for i in fw.servicenow.incidents()
            if f.alertname in i.short_description and i.ci_name.startswith(f.target)
        ]
        if not firing:
            raise CheckFailed(f"{f.kind.value} on {f.target}: no Slack alert")
        if not resolved:
            raise CheckFailed(f"{f.kind.value} on {f.target}: never resolved in Slack")
        if not incidents:
            raise CheckFailed(f"{f.kind.value} on {f.target}: no ServiceNow incident")
        first = min(incidents, key=lambda i: i.opened_at_ns)
        sn_alert = alerts_by_incident.get(first.number)
        if sn_alert is None or sn_alert.is_active:
            raise CheckFailed(
                f"{f.kind.value} on {f.target}: ServiceNow alert still open"
            )
        detect.append((min(firing) - start) / 1e9)
        opened.append((first.opened_at_ns - start) / 1e9)
    return max(detect), max(opened)


def check_accounting(fw: MonitoringFramework, inputs: Inputs) -> int:
    """Every published line is stored, discarded by a tenant limit, or
    still waiting for the next consumer pump.  Returns the discarded count."""
    end = PAPER_EPOCH_NS + SCENARIO_NS
    stored = sum(
        len(entries) for _, entries in fw.logql.query_logs(
            '{data_type=~"syslog|container_log"}', PAPER_EPOCH_NS, end + 1
        )
    )
    discarded = 0
    if fw.admission is not None:
        discarded = sum(c.entries_discarded for c in fw.admission.counters.values())
    pending = fw.syslog_consumer.lag() + fw.container_consumer.lag()
    if stored + discarded + pending != inputs.lines:
        raise CheckFailed(
            f"published {inputs.lines} lines but stored {stored}, "
            f"discarded {discarded}, pending {pending}"
        )
    return discarded


def consumers(fw: MonitoringFramework) -> list:
    """The k3s consumer pods, in pump order."""
    return [
        fw.redfish_consumer, fw.sensor_consumer, fw.syslog_consumer,
        fw.container_consumer, fw.console_consumer, fw.ldms_consumer,
    ]


def digest(values: object) -> str:
    text = json.dumps(values, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def finish_round(fw, inputs, setup, steps) -> RoundResult:
    detect, opened = check_faults(fw, inputs)
    # Failed operations: tenant-discarded lines, consumer record failures
    # and failed notifications (query errors are counted by the query loop).
    failed = (
        check_accounting(fw, inputs)
        + sum(c.records_failed for c in consumers(fw))
        + fw.alertmanager.notifications_failed
    )
    health = fw.health_summary()
    attempted = inputs.lines + fw.alertmanager.notifications_sent
    return RoundResult(
        setup_s=setup,
        step_s=steps,
        messages=fw.warehouse.messages_ingested,
        alert_detect_s=detect,
        incident_open_s=opened,
        attempted=attempted,
        failed=failed,
        digest=digest([health, detect, opened, failed, attempted]),
    )
