"""The integrated monitoring framework — the paper's Figure 1, assembled.

One object wires the full pipeline:

  sensors/Redfish/FM → HMS collector → Kafka → Telemetry API → k3s pods
  → { Loki (logs), VictoriaMetrics (metrics) } inside OMNI
  → { Ruler, vmalert } → Alertmanager → { Slack, ServiceNow }
  → Grafana dashboards over both stores.

The optional planes on top of it (ingest ring, self-healing, reliable
delivery, multi-tenancy, object storage, query engine, pattern mining,
SLOs) each keep their wiring in ``repro/<package>/plane.py`` as one
:class:`~repro.core.plane.Plane`; this module walks :data:`PLANES` at each
hook.  Everything runs on one simulated clock; ``run_for`` advances the
world.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import NANOS_PER_DAY, SimClock, hours, minutes, seconds
from repro.alerting.alertmanager import Alertmanager
from repro.alerting.events import AlertEvent
from repro.alerting.rules import RuleSpec
from repro.bus.broker import Broker
from repro.cluster.facility import FacilityModel
from repro.cluster.faults import FaultInjector
from repro.cluster.gpfs import GpfsFilesystem, GpfsModel
from repro.cluster.sensors import build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.correlation import RootCauseAnalyzer
from repro.core.consumers import (
    LogLineConsumer,
    RedfishEventConsumer,
    SensorMetricConsumer,
)
from repro.core.plane import Plane, route
from repro.exporters.aruba import ArubaExporter
from repro.exporters.blackbox import BlackboxExporter, ProbeTarget
from repro.exporters.kafka_exporter import KafkaExporter
from repro.exporters.node import NodeExporter
from repro.grafana.dashboard import Dashboard
from repro.grafana.datasource import (
    LokiDatasource,
    PrometheusDatasource,
    TempoDatasource,
)
from repro.grafana.panels import (
    LogsPanel,
    StatPanel,
    TimeSeriesPanel,
    TopListPanel,
    TracePanel,
)
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.ruler import Ruler
from repro.objstore.plane import PLANE as OBJSTORE
from repro.omni.anomaly import EwmaDetector, ProactiveMonitor
from repro.omni.eventstore import EventStore, record_from_alert
from repro.omni.warehouse import OmniWarehouse
from repro.patterns.plane import PLANE as PATTERNS
from repro.queryx.engine import DEFAULT_SLOW_QUERY_NS
from repro.queryx.plane import PLANE as QUERYX
from repro.resilience.plane import PLANE as DELIVERY
from repro.ring.plane import PLANE as RING
from repro.selfheal.plane import PLANE as SELFHEAL
from repro.servicenow.cmdb import build_from_cluster
from repro.servicenow.platform import ServiceNowPlatform, ServiceNowReceiver
from repro.servicenow.service_map import ServiceMap
from repro.shasta.fabric_manager import (
    FabricManager,
    FabricManagerMonitor,
    MONITOR_APP_LABEL,
    SwitchEvent,
)
from repro.shasta.console import ConsoleCollector, TOPIC_CONSOLE_LOGS
from repro.shasta.hms import (
    HmsCollector,
    TOPIC_CONTAINER_LOGS,
    TOPIC_REDFISH_EVENTS,
    TOPIC_SENSOR_TELEMETRY,
    TOPIC_SYSLOG,
)
from repro.shasta.ldms import LdmsAggregator, LdmsConsumer
from repro.shasta.redfish import RedfishEventSource
from repro.shasta.telemetry_api import TelemetryAPI
from repro.slackmock.webhook import SlackReceiver, SlackWebhook
from repro.slo.burnrate import DEFAULT_BURN_WINDOWS, BurnWindow
from repro.slo.plane import PLANE as SLO
from repro.tempo.instrument import PipelineTracing, TracingReceiver
from repro.tempo.metrics import TraceMetricsExporter
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer
from repro.tempo.traceql.engine import TraceQLEngine
from repro.tenancy.limits import DEFAULT_TENANT, TenantLimits
from repro.tenancy.plane import PLANE as TENANCY
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.vmagent import ScrapeTarget, VMAgent
from repro.tsdb.vmalert import VMAlert
from repro.common.jsonutil import dumps_compact

if TYPE_CHECKING:
    from repro.exporters.delivery_exporter import DeliveryExporter
    from repro.exporters.objstore_exporter import ObjstoreExporter
    from repro.exporters.patterns_exporter import PatternsExporter
    from repro.exporters.queryx_exporter import QueryxExporter
    from repro.exporters.ring_exporter import RingExporter
    from repro.exporters.selfheal_exporter import SelfHealExporter
    from repro.exporters.slo_exporter import SloExporter
    from repro.exporters.tenancy_exporter import TenancyExporter
    from repro.loki.store import LokiStore
    from repro.objstore.compactor import Compactor
    from repro.objstore.gateway import StoreGateway
    from repro.objstore.index import ShipperIndex
    from repro.objstore.objectstore import ObjectStore
    from repro.objstore.shipper import ChunkShipper
    from repro.objstore.tiered import TieredLokiStore
    from repro.patterns.ingester import PatternIngester
    from repro.patterns.ruler import PatternRuler
    from repro.patterns.store import PatternStore
    from repro.queryx.bloom import BloomStore
    from repro.queryx.engine import ShardedQueryEngine
    from repro.resilience.journal import NotificationJournal
    from repro.resilience.receivers import FlakyReceiver, RetryingReceiver
    from repro.ring.cluster import RingLokiCluster
    from repro.selfheal.manager import SelfHealManager
    from repro.slo.manager import SloManager
    from repro.tenancy.admission import AdmissionController
    from repro.tenancy.limits import LimitsRegistry
    from repro.tenancy.scheduler import QueryScheduler

#: The paper's Figure-8 switch-offline pattern (§IV.B).
SWITCH_PATTERN = "[<severity>] problem:<problem>, xname:<xname>, state:<state>"

#: The paper's Figure-5 leak query, over the live-alerting window.
LEAK_QUERY = (
    'sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" '
    "| json [60m])) by (Severity, cluster, Context, MessageId, Message)"
)
#: Same shape with a short window, used for the alerting rule so alerts
#: resolve promptly once the condition clears (the 60m figure window would
#: hold the alert up for an hour).
LEAK_RULE_QUERY = (
    'sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" '
    "| json [5m])) by (Context, cluster)"
)
SWITCH_RULE_QUERY = (
    'sum(count_over_time({app="fabric_manager_monitor"} '
    '|= "fm_switch_offline" | pattern "' + SWITCH_PATTERN + '" [5m])) '
    "by (severity, problem, xname, state)"
)

#: The optional planes in build order, which is also the order of their
#: dashboards in ``fw.dashboards``.  Adding a plane means writing its
#: ``plane.py`` and listing its ``PLANE`` here.
PLANES: tuple[Plane, ...] = (
    RING, SELFHEAL, DELIVERY, TENANCY, OBJSTORE, QUERYX, PATTERNS, SLO,
)


def _first(*planes: Plane) -> tuple[Plane, ...]:
    """``planes``, then the rest of PLANES in order."""
    return planes + tuple(p for p in PLANES if p not in planes)


# Scrape, rule-evaluation and periodic-start order decide which of two
# same-instant events runs first, and route order decides precedence, so
# these walks keep the order each plane was first wired in.
_TARGET_ORDER = _first(RING, TENANCY, OBJSTORE, QUERYX, SELFHEAL)
_RULE_ORDER = _first(RING, SELFHEAL, TENANCY, OBJSTORE, QUERYX)
_ROUTE_ORDER = _first(SLO)
_START_ORDER = _first(OBJSTORE, PATTERNS)


def planes_from_env() -> frozenset[str]:
    """The plane tokens ``REPRO_PLANES`` turns on by default.

    Comma-separated tokens (``ring,slo``) or ``all``; empty or unset turns
    none on.  This is how CI runs whole suites with planes switched on
    without editing them.
    """
    tokens = {t.strip() for t in os.environ.get("REPRO_PLANES", "").split(",")}
    tokens.discard("")
    known = {p.token for p in PLANES}
    if tokens == {"all"}:
        return frozenset(known)
    if not tokens <= known:
        raise ValidationError(
            f"unknown REPRO_PLANES token(s) {sorted(tokens - known)}; "
            f"expected 'all' or some of {sorted(known)}"
        )
    return frozenset(tokens)


def _env_default(token: str) -> Callable[[], bool]:
    return lambda: token in planes_from_env()


@dataclass
class FrameworkConfig:
    """All the knobs, with production-plausible defaults.

    Every ``*_interval_ns`` field must be positive.  The ``enable_*``
    flags of the optional planes default to off, or on when named in the
    ``REPRO_PLANES`` environment variable; each plane's ``plane.py``
    describes what it adds and checks the rest of its fields.
    """

    cluster_spec: ClusterSpec = field(default_factory=ClusterSpec)
    cluster_name: str = "perlmutter"
    seed: int = 0
    # Collection cadences.
    redfish_poll_interval_ns: int = seconds(10)
    sensor_interval_ns: int = seconds(60)
    fm_poll_interval_ns: int = seconds(30)
    consumer_interval_ns: int = seconds(10)
    scrape_interval_ns: int = seconds(60)
    gpfs_interval_ns: int = seconds(60)
    console_interval_ns: int = seconds(60)
    console_lines_per_tick: int = 5
    ldms_interval_ns: int = seconds(60)
    facility_interval_ns: int = seconds(60)
    # Alerting cadences.
    ruler_interval_ns: int = seconds(30)
    vmalert_interval_ns: int = seconds(30)
    rule_for: str = "1m"  # "lasts more than one minute" (paper §IV.A)
    group_wait: str = "30s"
    group_interval: str = "5m"
    repeat_interval: str = "4h"
    # Node-temperature alert threshold (°C).
    hot_node_threshold_c: float = 90.0
    install_default_rules: bool = True
    # §II/§III.D "machine learning methods for proactive incident
    # response": EWMA anomaly scanning over key metrics.
    enable_proactive_detection: bool = False
    proactive_interval_ns: int = seconds(300)
    # Self-tracing of the pipeline (repro.tempo). 0.0 = off: no tracer is
    # constructed and every instrumented site takes its untraced path.
    tracing_sampling: float = 0.0
    tracing_max_traces: int = 10_000
    tracing_metrics_interval_ns: int = seconds(60)
    # Replicated ingest (repro.ring.plane).
    enable_ingest_ring: bool = field(default_factory=_env_default("ring"))
    ring_ingesters: int = 4
    ring_replication: int = 3
    #: Availability zones the ring ingesters spread over (round-robin).
    #: 0 = unzoned; > 0 also turns on zone-aware replica placement.
    ring_zones: int = 0
    # Self-healing of the ring (repro.selfheal.plane); a no-op without it.
    enable_self_healing: bool = field(default_factory=_env_default("selfheal"))
    selfheal_heartbeat_interval_ns: int = seconds(5)
    selfheal_suspect_after_ns: int = seconds(15)
    selfheal_dead_after_ns: int = seconds(45)
    selfheal_sweep_interval_ns: int = seconds(5)
    selfheal_repair_grace_ns: int = seconds(30)
    selfheal_repair_interval_ns: int = seconds(10)
    selfheal_supervisor_interval_ns: int = seconds(5)
    # At-least-once alert delivery (repro.resilience.plane).
    enable_reliable_delivery: bool = field(default_factory=_env_default("delivery"))
    delivery_backoff_base_ns: int = seconds(30)
    delivery_backoff_cap_ns: int = minutes(10)
    delivery_backoff_jitter: float = 0.2
    #: None = retry forever (a lost alert is the unacceptable outcome);
    #: finite budgets dead-letter the notification in the journal.
    delivery_max_attempts: int | None = None
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_ns: int = minutes(2)
    #: Consumer-side processing failures before a record is poison and
    #: quarantines to the topic's dead-letter queue.
    max_delivery_failures: int = 3
    # Multi-tenancy (repro.tenancy.plane).
    enable_multi_tenancy: bool = field(default_factory=_env_default("tenancy"))
    default_tenant: str = DEFAULT_TENANT
    #: None = the generous built-in defaults every tenant inherits.
    tenant_default_limits: TenantLimits | None = None
    tenant_overrides: dict[str, TenantLimits] = field(default_factory=dict)
    #: Ingesters per tenant shard when the ingest ring is also enabled;
    #: 0 disables shuffle sharding (every tenant uses the whole ring).
    tenant_shard_size: int = 3
    #: Querier slots the fair scheduler multiplexes across tenants.
    query_max_concurrency: int = 4
    # Tiered object storage (repro.objstore.plane).
    enable_object_storage: bool = field(default_factory=_env_default("objstore"))
    objstore_flush_interval_ns: int = minutes(5)
    objstore_compaction_interval_ns: int = minutes(30)
    objstore_index_period_ns: int = NANOS_PER_DAY
    objstore_target_object_bytes: int = 1 << 20
    #: None = cold chunks are kept forever; the OMNI retention manager
    #: still sweeps both tiers on its own schedule either way.
    objstore_default_retention_ns: int | None = None
    objstore_tenant_retention_ns: dict[str, int] = field(default_factory=dict)
    # Sharded parallel query engine (repro.queryx.plane).
    enable_query_engine: bool = field(default_factory=_env_default("queryx"))
    #: Stream shards per shardable query (Loki's -querier.max-query-parallelism).
    queryx_shard_count: int = 4
    #: Simulated querier workers in the executor pool.
    queryx_workers: int = 4
    #: Time-split interval; shared with the frontend cache so both cut a
    #: range at identical aligned boundaries.
    queryx_split_interval_ns: int = hours(1)
    #: Accounted wall-clock above this marks a query slow (SlowQueries).
    queryx_slow_query_threshold_ns: int = DEFAULT_SLOW_QUERY_NS
    #: Target false-positive rate for the compactor-built bloom blocks.
    queryx_bloom_fp_rate: float = 0.01
    # Online log-template mining (repro.patterns.plane).
    enable_pattern_mining: bool = field(default_factory=_env_default("patterns"))
    #: Drain similarity threshold: the exact-match fraction a line needs
    #: to join an existing cluster instead of seeding a new one.
    patterns_sim_threshold: float = 0.5
    patterns_ruler_interval_ns: int = seconds(30)
    #: EWMA smoothing for per-template rate baselines.
    patterns_ewma_alpha: float = 0.3
    #: A warmed-up template bursts at burst_factor × its EWMA baseline.
    patterns_burst_factor: float = 8.0
    #: Absolute storm floor (lines/s): any template above this rate is
    #: bursting regardless of baseline — catches storms of brand-new
    #: templates that have no history yet.
    patterns_min_burst_rate: float = 50.0
    #: Evaluations of baseline history before relative bursts can fire.
    patterns_warmup_evals: int = 3
    #: How long a NovelErrorPattern series stays active before it
    #: self-resolves.
    patterns_novel_active_ns: int = minutes(10)
    #: Cold-start corpus bootstrap: templates first sighted within this
    #: window of startup are not "novel" — an empty template store makes
    #: every early line never-before-seen.
    patterns_novel_bootstrap_ns: int = seconds(90)
    # Service-level objectives (repro.slo.plane).
    enable_slo: bool = field(default_factory=_env_default("slo"))
    #: Recording-rule + budget evaluation cadence.
    slo_eval_interval_ns: int = seconds(30)
    #: Error-budget window shared by the built-in SLOs.
    slo_window: str = "30d"
    #: Per-SLO objective overrides on top of
    #: ``repro.slo.plane.DEFAULT_SLO_OBJECTIVES``.
    slo_objectives: dict[str, float] = field(default_factory=dict)
    #: The multi-window multi-burn-rate alert tiers.
    slo_burn_windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS
    #: A novel pattern detected within this bound counts as "fresh".
    slo_pattern_freshness_bound_ns: int = minutes(2)

    def __post_init__(self) -> None:
        if not 0.0 <= self.tracing_sampling <= 1.0:
            raise ValidationError("tracing_sampling must be in [0, 1]")
        for f in fields(self):
            if f.name.endswith("_interval_ns") and getattr(self, f.name) <= 0:
                raise ValidationError(f"{f.name} must be positive")
        for plane in PLANES:
            if plane.on(self):
                plane.check(self)


class MonitoringFramework:
    """The assembled stack. Construct, :meth:`start`, then advance time."""

    # Plane components, left None while their plane is off.
    ring: RingLokiCluster | None = None
    ring_exporter: RingExporter | None = None
    selfheal: SelfHealManager | None = None
    selfheal_exporter: SelfHealExporter | None = None
    journal: NotificationJournal | None = None
    delivery_exporter: DeliveryExporter | None = None
    limits: LimitsRegistry | None = None
    admission: AdmissionController | None = None
    frontend: QueryFrontend | None = None
    scheduler: QueryScheduler | None = None
    tenancy_exporter: TenancyExporter | None = None
    objstore: ObjectStore | None = None
    shipper_index: ShipperIndex | None = None
    shipper: ChunkShipper | None = None
    compactor: Compactor | None = None
    store_gateway: StoreGateway | None = None
    tiered: TieredLokiStore | None = None
    objstore_exporter: ObjstoreExporter | None = None
    blooms: BloomStore | None = None
    queryx: ShardedQueryEngine | None = None
    queryx_exporter: QueryxExporter | None = None
    pattern_store: PatternStore | None = None
    pattern_ingester: PatternIngester | None = None
    pattern_ruler: PatternRuler | None = None
    patterns_exporter: PatternsExporter | None = None
    slo_manager: SloManager | None = None
    slo_exporter: SloExporter | None = None

    def __init__(
        self, config: FrameworkConfig | None = None, clock: SimClock | None = None
    ) -> None:
        self.config = config or FrameworkConfig()
        self.clock = clock or SimClock()
        cfg = self.config
        #: The planes this configuration turns on, in PLANES order.
        self.planes = [p for p in PLANES if p.on(cfg)]

        # --- the machine ------------------------------------------------
        self.cluster = Cluster(cfg.cluster_spec)
        self.sensors = build_standard_bank(self.cluster, seed=cfg.seed)
        self.faults = FaultInjector(self.cluster, self.clock, self.sensors)
        self.gpfs = GpfsModel(
            [GpfsFilesystem("scratch"), GpfsFilesystem("community")],
            seed=cfg.seed + 7,
        )
        self.facility = FacilityModel(
            [str(x) for x in sorted(self.cluster.cabinets)], seed=cfg.seed + 11
        )

        # --- self-tracing (repro.tempo) ---------------------------------
        self.traces: TraceStore | None = None
        self.tracer: Tracer | None = None
        self.traceql: TraceQLEngine | None = None
        self.tracing: PipelineTracing | None = None
        self.trace_metrics: TraceMetricsExporter | None = None
        if cfg.tracing_sampling > 0.0:
            self.traces = TraceStore(cfg.tracing_max_traces)
            self.tracer = Tracer(
                self.traces,
                self.clock,
                sampling=cfg.tracing_sampling,
                seed=cfg.seed + 23,
            )
            self.traceql = TraceQLEngine(self.traces)
            self.tracing = PipelineTracing(self.tracer)

        # --- the Shasta telemetry plane -----------------------------------
        self.broker = Broker(self.clock)
        self.redfish_source = RedfishEventSource(self.cluster, self.clock)
        self.hms = HmsCollector(
            self.broker, self.clock, self.redfish_source, self.sensors,
            tracer=self.tracer,
        )
        self.telemetry_api = TelemetryAPI(self.broker, servers=2)
        self.telemetry_api.register_client("nersc-k3s", "token-nersc-k3s")
        self.console = ConsoleCollector(
            self.broker, self.clock, sorted(self.cluster.nodes),
            cluster=cfg.cluster_name, seed=cfg.seed + 13,
        )
        self.ldms = LdmsAggregator(
            self.broker, self.clock, self.cluster,
            seed=cfg.seed + 17, cluster_name=cfg.cluster_name,
        )

        # --- OMNI: the stores ------------------------------------------------
        #: The warehouse's log backend: a plain LokiStore unless a plane
        #: (the ring, then the tiered store around it) replaces it.
        self.log_backend: LokiStore | RingLokiCluster | TieredLokiStore | None = None
        for plane in self.planes:
            plane.build_stores(self)
        self.warehouse = OmniWarehouse(
            self.clock, loki=self.log_backend, admission=self.admission,
            patterns=self.pattern_ingester,
        )
        self.faults.attach_patterns(self.warehouse, self.pattern_ingester)
        self.logql = LogQLEngine(self.warehouse.loki, patterns=self.pattern_store)
        self.promql = PromQLEngine(self.warehouse.tsdb)
        for plane in self.planes:
            plane.build(self)
        if self.admission is not None or self.pattern_store is not None:
            # The frontend caches over whichever engine is configured; with
            # queryx on the split intervals match, so planner and cache cut
            # ranges at identical aligned boundaries.  Pattern queries always
            # route to the LogQL engine (they read period-partitioned
            # blocks, not chunks), split on the store's period so window
            # merging is exact.
            queryx = self.queryx
            self.frontend = QueryFrontend(
                self.logql if queryx is None else queryx,
                self.clock,
                split_ns=hours(1) if queryx is None else cfg.queryx_split_interval_ns,
                pattern_source=None if self.pattern_store is None else self.logql,
                pattern_split_ns=cfg.objstore_index_period_ns,
            )
        if self.traces is not None:
            self.trace_metrics = TraceMetricsExporter(
                self.traces, self.warehouse.tsdb, self.clock,
                cluster=cfg.cluster_name,
            )

        # --- the k3s consumer pods -------------------------------------------
        token = "token-nersc-k3s"
        reliable = cfg.enable_reliable_delivery
        max_fail = cfg.max_delivery_failures
        self.redfish_consumer = RedfishEventConsumer(
            self.telemetry_api, token, TOPIC_REDFISH_EVENTS, self.warehouse,
            cluster=cfg.cluster_name, tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.sensor_consumer = SensorMetricConsumer(
            self.telemetry_api, token, TOPIC_SENSOR_TELEMETRY, self.warehouse,
            cluster=cfg.cluster_name, tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.syslog_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_SYSLOG, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.container_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONTAINER_LOGS, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.console_consumer = LogLineConsumer(
            self.telemetry_api, token, TOPIC_CONSOLE_LOGS, self.warehouse,
            tracing=self.tracing,
            reliable=reliable, max_delivery_failures=max_fail,
        )
        self.ldms_consumer = LdmsConsumer(
            self.telemetry_api, token, self.warehouse
        )

        # --- fabric manager + NERSC monitor ------------------------------------
        self.fabric_manager = FabricManager(self.cluster)
        self.fm_monitor = FabricManagerMonitor(
            self.fabric_manager,
            self.clock,
            sink=self._fm_sink,
            cluster_name=cfg.cluster_name,
        )

        # --- vmagent + exporters -------------------------------------------------
        self.vmagent = VMAgent(self.warehouse.tsdb, self.clock)
        self.node_exporter = NodeExporter(self.cluster, self.sensors)
        self.kafka_exporter = KafkaExporter(self.broker)
        self.aruba_exporter = ArubaExporter(seed=cfg.seed + 3)
        self.blackbox_exporter = BlackboxExporter(
            [
                ProbeTarget("telemetry-api", lambda: (True, 0.012)),
                ProbeTarget("loki-gateway", lambda: (True, 0.004)),
            ]
        )
        for job, instance, exporter in (
            ("node", "node-exporter:9100", self.node_exporter),
            ("kafka", "kafka-exporter:9308", self.kafka_exporter),
            ("aruba", "aruba-exporter:9101", self.aruba_exporter),
            ("blackbox", "blackbox-exporter:9115", self.blackbox_exporter),
        ):
            self.vmagent.add_target(ScrapeTarget(job, instance, exporter))

        # --- alerting plane ---------------------------------------------------------
        self.slack = SlackWebhook()
        cmdb = build_from_cluster(self.cluster, cfg.cluster_name)
        # Facility plant joins the CMDB so CDU/PDU incidents map to CIs.
        for cdu_name in self.facility.cdus:
            cmdb.add(cdu_name, "cmdb_ci_cooling", parent=cfg.cluster_name)
        for pdu_name in self.facility.pdus:
            cmdb.add(pdu_name, "cmdb_ci_pdu", parent=cfg.cluster_name)
        self.servicenow = ServiceNowPlatform(self.clock, cmdb=cmdb)
        child_routes = [
            route(
                cfg, "servicenow", Matcher("severity", MatchOp.EQ, "critical"),
                continue_=True,
            ),
            *(p.route(cfg) for p in _ROUTE_ORDER if p.route and p in self.planes),
            route(cfg, "slack"),
        ]
        self.alertmanager = Alertmanager(
            self.clock, route(cfg, "slack", routes=child_routes)
        )
        self.dashboards = self._build_dashboards()
        slack_receiver: SlackReceiver | TracingReceiver = SlackReceiver(
            self.slack,
            dashboard_base_url=self.dashboards["overview"].url(),
        )
        sn_receiver: ServiceNowReceiver | TracingReceiver = ServiceNowReceiver(
            self.servicenow
        )
        if self.tracing is not None:
            slack_receiver = TracingReceiver(slack_receiver, self.tracing)
            sn_receiver = TracingReceiver(sn_receiver, self.tracing)
        #: What Alertmanager delivers to; the delivery plane wraps these.
        self.receivers = [slack_receiver, sn_receiver]
        self.flaky_receivers: dict[str, FlakyReceiver] = {}
        self.delivery_receivers: dict[str, RetryingReceiver] = {}
        self.ruler = Ruler(self.logql, self.clock, self.notifier("ruler"))
        self.vmalert = VMAlert(self.promql, self.clock, self.notifier("vmalert"))
        for plane in self.planes:
            plane.build_alerting(self)
        for receiver in self.receivers:
            self.alertmanager.register_receiver(receiver)
        for plane in _TARGET_ORDER:
            if plane.target and plane in self.planes:
                job, instance, attr = plane.target
                self.vmagent.add_target(
                    ScrapeTarget(job, instance, getattr(self, attr))
                )
        if cfg.install_default_rules:
            self._install_default_rules()

        self.proactive: ProactiveMonitor | None = None
        if cfg.enable_proactive_detection:
            # z=6 with a long warmup keeps the fleet-wide false-positive
            # rate at zero over the sensors' own noise, while a real
            # excursion (tens of degrees) scores far beyond it.
            self.proactive = ProactiveMonitor(
                self.warehouse.tsdb,
                self.clock,
                self.alertmanager.receive,
                detector=EwmaDetector(z_threshold=6.0, warmup=15),
            )
            self.proactive.watch_metric("node_temp_celsius", severity="warning")
            self.proactive.watch_metric("gpfs_write_mb_s", severity="warning")

        #: OMNI's event archive (paper §III.C: "anything that has a
        #: start and end time"); SN alerts are mirrored in periodically.
        self.eventstore = EventStore()

        self._started = False

    # ------------------------------------------------------------------
    # Wiring details
    # ------------------------------------------------------------------
    def notifier(self, service: str) -> Callable[[AlertEvent], None]:
        """Alertmanager's intake for one rule evaluator, traced when the
        pipeline traces itself."""
        if self.tracing is None:
            return self.alertmanager.receive
        return self.tracing.notifier(self.alertmanager.receive, service)

    def _fm_sink(self, event: SwitchEvent) -> None:
        """The FM monitor pushes its event lines straight to Loki."""
        root = None
        if self.tracer is not None and self.tracing is not None:
            # The FM monitor bypasses the broker, so its trace starts at
            # the event and goes straight to the store write; the switch
            # alert correlates back via the xname label.
            root = self.tracer.record(
                "fabric_manager",
                "switch_event",
                None,
                start_ns=event.timestamp_ns,
                end_ns=self.clock.now_ns,
                attributes={"xname": event.xname, "state": event.state},
            )
        self.warehouse.ingest_log(
            {
                "app": MONITOR_APP_LABEL,
                "cluster": self.config.cluster_name,
            },
            event.timestamp_ns,
            event.to_line(),
            trace_ctx=root,
        )
        if root is not None and self.tracing is not None:
            self.tracing.store_span(
                root, "loki", "push", [{"xname": event.xname}]
            )

    def _scrape_gpfs(self) -> None:
        """GPFS health (paper §V future work) lands as metrics."""
        now = self.clock.now_ns
        for sample in self.gpfs.sample_all():
            labels = {"fs": sample.fs_name, "cluster": self.config.cluster_name}
            self.warehouse.ingest_metric("gpfs_write_mb_s", labels, sample.write_mb_s, now)
            self.warehouse.ingest_metric("gpfs_read_mb_s", labels, sample.read_mb_s, now)
            self.warehouse.ingest_metric("gpfs_iops", labels, sample.iops, now)
            self.warehouse.ingest_metric(
                "gpfs_crc_errors_total", labels, float(sample.crc_errors), now
            )
            self.warehouse.ingest_metric(
                "gpfs_unhealthy_nsds", labels, float(sample.unhealthy_nsds), now
            )
            self.warehouse.ingest_metric(
                "gpfs_healthy", labels, 1.0 if sample.healthy else 0.0, now
            )

    def _install_default_rules(self) -> None:
        cfg = self.config
        self.ruler.add_rule(
            RuleSpec(
                name="PerlmutterCabinetLeak",
                expr=LEAK_RULE_QUERY + " > 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "Coolant leak detected in {{ $labels.Context }} "
                    "on {{ $labels.cluster }}",
                },
            )
        )
        self.ruler.add_rule(
            RuleSpec(
                name="SwitchOffline",
                expr=SWITCH_RULE_QUERY + " > 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "network"},
                annotations={
                    "summary": "Rosetta switch {{ $labels.xname }} entered state "
                    "{{ $labels.state }}",
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="NodeDown",
                expr="node_up == 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "compute"},
                annotations={"summary": "Node {{ $labels.xname }} is down"},
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="NodeHotTemperature",
                expr=f"node_temp_celsius > {cfg.hot_node_threshold_c:g}",
                for_="5m",
                labels={"severity": "warning", "category": "compute"},
                annotations={
                    "summary": "Node {{ $labels.xname }} temperature is "
                    "{{ $value }} C"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="KafkaConsumerLag",
                expr="kafka_consumergroup_lag > 10000",
                for_="5m",
                labels={"severity": "warning", "category": "pipeline"},
                annotations={
                    "summary": "Consumer group {{ $labels.consumergroup }} lag "
                    "is {{ $value }}"
                },
            )
        )
        self.ruler.add_rule(
            RuleSpec(
                name="NodeKernelPanic",
                expr=(
                    'sum(count_over_time({data_type="console_log"} '
                    '|= "Kernel panic" [5m])) by (hostname, cluster) > 0'
                ),
                for_="0s",  # a panic needs no sustain window
                labels={"severity": "critical", "category": "compute"},
                annotations={
                    "summary": "Kernel panic on {{ $labels.hostname }} console"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="CduLowFlow",
                expr="facility_cdu_flow_lpm < 200",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "CDU {{ $labels.cdu }} coolant flow down to "
                    "{{ $value }} LPM"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="FacilityHumidityHigh",
                expr="facility_room_humidity_percent > 65",
                for_="10m",
                labels={"severity": "warning", "category": "facility"},
                annotations={
                    "summary": "Machine-room humidity at {{ $value }}%"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="PduBreakerOpen",
                expr="facility_pdu_load_kw == 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "facility"},
                annotations={
                    "summary": "PDU {{ $labels.pdu }} carries no load "
                    "(breaker open?)"
                },
            )
        )
        self.vmalert.add_rule(
            RuleSpec(
                name="TelemetrySilent",
                expr='absent(shasta_temperature_celsius)',
                for_="10m",
                labels={"severity": "critical", "category": "pipeline"},
                annotations={
                    "summary": "No Shasta sensor telemetry arriving — "
                    "the collection pipeline itself is down"
                },
            )
        )
        for plane in _RULE_ORDER:
            if plane in self.planes:
                plane.rules(self)
        self.vmalert.add_rule(
            RuleSpec(
                name="GpfsDegraded",
                expr="gpfs_unhealthy_nsds > 0",
                for_=cfg.rule_for,
                labels={"severity": "critical", "category": "storage"},
                annotations={
                    "summary": "GPFS {{ $labels.fs }} has {{ $value }} "
                    "unhealthy NSD servers"
                },
            )
        )

    def _build_dashboards(self) -> dict[str, Dashboard]:
        loki_ds = LokiDatasource(self.logql)
        prom_ds = PrometheusDatasource(self.promql)
        dashboards = {
            "overview": Dashboard(
                "Perlmutter Monitoring Overview", uid="perlmutter-overview",
                panels=[
                    LogsPanel(
                        "Redfish events", loki_ds, '{data_type="redfish_event"}'
                    ),
                    TimeSeriesPanel(
                        "CabinetLeakDetected (count_over_time 60m)", loki_ds,
                        LEAK_QUERY,
                    ),
                    LogsPanel(
                        "Fabric manager events", loki_ds,
                        '{app="fabric_manager_monitor"}',
                    ),
                    StatPanel("Nodes up", prom_ds, "sum(node_up)"),
                    StatPanel(
                        "Max node temp", prom_ds, "max(node_temp_celsius)",
                        unit=" C",
                    ),
                    TopListPanel(
                        "Hottest nodes", prom_ds, "topk(5, node_temp_celsius)",
                        unit=" C",
                    ),
                ],
            )
        }
        for plane in self.planes:
            if plane.dashboard is not None:
                key, dashboard = plane.dashboard(self, prom_ds)
                dashboards[key] = dashboard
        if self.traceql is not None:
            dashboards["tracing"] = Dashboard(
                "Pipeline Tracing", uid="pipeline-tracing", panels=[
                    TracePanel(
                        "Slowest delivered alert", TempoDatasource(self.traceql),
                        '{ span.service = "alertmanager" }',
                    ),
                    TimeSeriesPanel(
                        "Pipeline stage latency p99", prom_ds,
                        "tempo_stage_latency_p99_seconds",
                    ),
                ],
            )
        return dashboards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register every periodic activity on the clock (idempotent)."""
        if self._started:
            return
        cfg = self.config
        self.hms.run_periodic(cfg.redfish_poll_interval_ns, cfg.sensor_interval_ns)
        self.fm_monitor.run_periodic(cfg.fm_poll_interval_ns)
        self.clock.every(cfg.consumer_interval_ns, self._pump_consumers)
        self.clock.every(cfg.scrape_interval_ns, self._scrape_tick)
        self.clock.every(cfg.gpfs_interval_ns, self._scrape_gpfs)
        self.console.run_periodic(
            cfg.console_interval_ns, cfg.console_lines_per_tick
        )
        self.ldms.run_periodic(cfg.ldms_interval_ns)
        self.clock.every(cfg.facility_interval_ns, self._sample_facility)
        self.ruler.run_periodic(cfg.ruler_interval_ns)
        self.vmalert.run_periodic(cfg.vmalert_interval_ns)
        if self.proactive is not None:
            self.proactive.run_periodic(cfg.proactive_interval_ns)
        if self.trace_metrics is not None:
            self.clock.every(
                cfg.tracing_metrics_interval_ns, self.trace_metrics.export
            )
        for plane in _START_ORDER:
            if plane in self.planes:
                plane.start(self)
        self.clock.every(minutes(1), self._mirror_alert_events)
        self._started = True

    def _mirror_alert_events(self) -> None:
        for alert in self.servicenow.alerts():
            record_from_alert(self.eventstore, alert, self.clock.now_ns)

    def service_map(self) -> str:
        """The live, alert-aware service topology view (paper §III.D)."""
        smap = ServiceMap(self.servicenow.cmdb, self.config.cluster_name)
        return smap.render(self.servicenow.alerts())

    def root_cause_report(self):
        """Correlate the currently-active alerts into probable root
        causes (paper §I: "real-time automated root cause analysis")."""
        analyzer = RootCauseAnalyzer(self.cluster, self.facility)
        return analyzer.analyze(self.alertmanager.active_alerts())

    def _pump_consumers(self) -> None:
        self.redfish_consumer.pump()
        self.sensor_consumer.pump()
        self.syslog_consumer.pump()
        self.container_consumer.pump()
        self.console_consumer.pump()
        self.ldms_consumer.pump()

    def _sample_facility(self) -> None:
        """Environmental/facility series (paper §III.C) land as metrics."""
        sample = self.facility.sample(self.clock.now_ns)
        for name, labels, value in sample.flat_metrics():
            self.warehouse.ingest_metric(
                name, {**labels, "cluster": self.config.cluster_name},
                value, sample.timestamp_ns,
            )

    def _scrape_tick(self) -> None:
        self.aruba_exporter.step()
        self.vmagent.scrape_all()

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulated world."""
        if not self._started:
            self.start()
        self.clock.advance(duration_ns)

    # ------------------------------------------------------------------
    # Log producers (rsyslog aggregators / container runtime)
    # ------------------------------------------------------------------
    def publish_syslog(self, labels: dict[str, str], timestamp_ns: int, line: str) -> None:
        """What an rsyslogd aggregator does: envelope into the syslog topic."""
        self.broker.produce(
            TOPIC_SYSLOG,
            dumps_compact({"labels": labels, "ts": timestamp_ns, "line": line}),
            key=labels.get("hostname"),
            timestamp_ns=timestamp_ns,
        )

    def publish_container_log(
        self, labels: dict[str, str], timestamp_ns: int, line: str
    ) -> None:
        self.broker.produce(
            TOPIC_CONTAINER_LOGS,
            dumps_compact({"labels": labels, "ts": timestamp_ns, "line": line}),
            key=labels.get("app"),
            timestamp_ns=timestamp_ns,
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def health_summary(self) -> dict[str, float]:
        """One-call status used by examples and integration tests."""
        summary = {
            "messages_ingested": float(self.warehouse.messages_ingested),
            "log_streams": float(self.warehouse.loki.stream_count()),
            "metric_series": float(self.warehouse.tsdb.series_count()),
            "alert_events": float(self.alertmanager.events_received),
            "notifications": float(self.alertmanager.notifications_sent),
            "notifications_failed": float(self.alertmanager.notifications_failed),
            "slack_messages": float(len(self.slack.messages)),
            "sn_incidents": float(len(self.servicenow.incidents())),
        }
        for plane in self.planes:
            if plane.health is not None:
                summary.update(plane.health(self))
        return summary
