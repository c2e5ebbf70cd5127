"""Per-layer timing from outside the program.

The traced run replaces public methods on the framework's instances with
wrappers that record a span (name, start, end, parent) per call.  Nothing
in the program changes: a wrapper is installed after construction and
before ``start()``, so callbacks that ``start()`` and ``run_periodic``
capture as bound methods pick the wrapper up.  Callables a component
captured at construction (the notifier every rule evaluator holds) are
wrapped where that component holds them.

Layer names are the ``repro.*`` packages: ``<package>.<module>.<function>``.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.servicenow.platform import ServiceNowReceiver
from repro.slackmock.webhook import SlackReceiver

from scenario import consumers


def _innermost(receiver, cls):
    """Follow a receiver's wrapper chain (retry, flaky, idempotent) down
    to the real receiver of type ``cls``; None if it is not in the chain."""
    while receiver is not None and not isinstance(receiver, cls):
        receiver = getattr(receiver, "_inner", None)
    return receiver


def _receivers(fw, cls):
    found = (_innermost(r, cls) for r in fw.alertmanager._receivers.values())
    return [r for r in found if r is not None]


def _attr(path):
    """Holder getter for a dotted attribute path on the framework."""
    def get(fw):
        obj = fw
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return []
        return [obj]
    return get


#: (layer.function, holders on the framework, attribute on each holder).
#: The order is the one the per-layer metrics are printed in.
WRAPS = [
    # write path: telemetry in, bus, consumers, stores
    ("shasta.hms.collect_sensors", _attr("hms"), "collect_sensors"),
    ("shasta.ldms.sample_once", _attr("ldms"), "sample_once"),
    ("bus.broker.produce", _attr("broker"), "produce"),
    ("shasta.telemetry_api.fetch", _attr("telemetry_api"), "fetch"),
    ("core.consumers.pump", consumers, "pump"),
    ("omni.warehouse.ingest_log", _attr("warehouse"), "ingest_log"),
    ("omni.warehouse.ingest_metric", _attr("warehouse"), "ingest_metric"),
    ("tenancy.admission.admit_push", _attr("admission"), "admit_push"),
    ("loki.store.push_stream", _attr("warehouse.loki"), "push_stream"),
    ("loki.store.push", _attr("warehouse.loki"), "push"),
    ("ring.distributor.push", _attr("ring.distributor"), "push"),
    ("patterns.ingester.observe", _attr("pattern_ingester"), "observe"),
    ("tsdb.storage.ingest", _attr("warehouse.tsdb"), "ingest"),
    ("tsdb.vmagent.scrape_all", _attr("vmagent"), "scrape_all"),
    ("objstore.shipper.flush", _attr("shipper"), "flush"),
    ("objstore.compactor.run", _attr("compactor"), "run"),
    # rule evaluation and self-healing
    ("alerting.rules.evaluate_all.ruler", _attr("ruler"), "evaluate_all"),
    ("alerting.rules.evaluate_all.vmalert", _attr("vmalert"), "evaluate_all"),
    ("alerting.rules.evaluate_all.patterns", _attr("pattern_ruler"), "evaluate_all"),
    ("loki.logql.query_instant", _attr("logql"), "query_instant"),
    ("tsdb.promql.query_instant", _attr("promql"), "query_instant"),
    ("slo.manager.tick", _attr("slo_manager"), "tick"),
    ("tsdb.recording.evaluate_all", _attr("slo_manager.recording"), "evaluate_all"),
    ("selfheal.repairer.sweep", _attr("selfheal.repairer"), "sweep"),
    ("selfheal.repairer.under_replicated_streams", _attr("selfheal.repairer"),
     "under_replicated_streams"),
    ("exporters.selfheal_exporter.scrape", _attr("selfheal_exporter"), "scrape"),
    # notification
    ("alerting.alertmanager.receive",
     lambda fw: [h for h in (fw.ruler, fw.vmalert, fw.pattern_ruler, fw.slo_manager)
                 if h is not None and h._notifier is not None],
     "_notifier"),
    ("servicenow.platform.ServiceNowReceiver.notify",
     lambda fw: _receivers(fw, ServiceNowReceiver), "notify"),
    ("slackmock.webhook.SlackReceiver.notify",
     lambda fw: _receivers(fw, SlackReceiver), "notify"),
    # read path
    ("grafana.dashboard.render", lambda fw: list(fw.dashboards.values()), "render"),
    ("loki.frontend.query_range", _attr("frontend"), "query_range"),
    ("queryx.engine.query_range", _attr("queryx"), "query_range"),
    ("loki.logql.query_range", _attr("logql"), "query_range"),
    ("loki.logql.query_logs", _attr("logql"), "query_logs"),
    ("ring.distributor.select", _attr("ring.distributor"), "select"),
    ("objstore.gateway.select", _attr("store_gateway"), "select"),
    ("tsdb.promql.query_range", _attr("promql"), "query_range"),
]

#: Layers whose returned count or collection size is worth reporting.
ITEM_LAYERS = (
    "core.consumers.pump",
    "loki.store.push_stream",
    "ring.distributor.push",
    "patterns.ingester.observe",
    "loki.frontend.query_range",
    "queryx.engine.query_range",
    "objstore.gateway.select",
    "ring.distributor.select",
)
#: Layers whose calls can fail (an exception, or a failed notification).
FAILURE_LAYERS = (
    "servicenow.platform.ServiceNowReceiver.notify",
    "slackmock.webhook.SlackReceiver.notify",
)


#: Layers the dashboards workload calls only while sealing its preloaded
#: stack (``scenario.seal``); there they are reported per seal.
SEAL_LAYERS = ("objstore.shipper.flush", "objstore.compactor.run")

#: Work counters the read-path layers keep themselves:
#: (name, holder on the framework, counter attribute).
PLANE_COUNTERS = (
    ("queryx.engine.subqueries", "queryx", "subqueries_total"),
    ("objstore.gateway.chunks_considered", "store_gateway", "chunks_considered_total"),
    ("objstore.gateway.chunks_skipped", "store_gateway", "chunks_skipped_total"),
)


def plane_counters(fw) -> dict[str, int]:
    return {
        name: getattr(getattr(fw, holder), attr) if getattr(fw, holder) else 0
        for name, holder, attr in PLANE_COUNTERS
    }


def _items(result) -> int:
    if isinstance(result, bool) or result is None:
        return 1
    if isinstance(result, int):
        return result
    try:
        return len(result)
    except TypeError:
        return 1


class Recorder:
    """Spans in memory, per-layer totals kept as they close."""

    def __init__(self) -> None:
        self.recording = False
        self.names = [name for name, _, _ in WRAPS]
        self._index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.items = [0] * n
        self.failed = [0] * n
        #: (layer index, start, end, parent span index or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self.root_time = 0.0
        self.counters = {name: 0 for name, _, _ in PLANE_COUNTERS}
        self._stack: list[list] = []  # [span index, child seconds]

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def install(self, fw) -> None:
        """Wrap every layer present on ``fw`` (call before ``start()``)."""
        for name, holders, attr in WRAPS:
            for holder in holders(fw):
                original = getattr(holder, attr)
                setattr(holder, attr, self._wrap(self._index[name], original))

    def _wrap(self, idx, fn):
        rec = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1][0] if stack else -1
            span = len(rec.spans)
            rec.spans.append(None)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                rec.spans[span] = (idx, start, end, parent)
                rec.calls[idx] += 1
                rec.busy[idx] += dur
                rec.self_time[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    rec.root_time += dur
                if not ok:
                    rec.failed[idx] += 1
            rec.items[idx] += _items(result)
            return result

        return traced

    def add_counters(self, before: dict[str, int], after: dict[str, int]) -> None:
        for key in self.counters:
            self.counters[key] += after[key] - before[key]

    def layer_metrics(self, units: int, seals: int | None = None) -> dict[str, float]:
        """Per-layer totals divided by the units of work traced; the
        ``SEAL_LAYERS`` by ``seals`` instead, when it is given."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            n = seals if seals is not None and name in SEAL_LAYERS else units
            out[f"{name}.calls"] = self.calls[i] / n
            out[f"{name}.busy_s"] = self.busy[i] / n
            out[f"{name}.self_s"] = self.self_time[i] / n
            if name in ITEM_LAYERS:
                out[f"{name}.items"] = self.items[i] / n
            if name in FAILURE_LAYERS:
                out[f"{name}.failed"] = self.failed[i] / n
        c = self.counters
        out["queryx.engine.subqueries"] = c["queryx.engine.subqueries"] / units
        considered = c["objstore.gateway.chunks_considered"]
        out["objstore.gateway.bloom_skip_ratio"] = (
            c["objstore.gateway.chunks_skipped"] / considered if considered else 0.0
        )
        return out

    def self_shares(self, traced_wall: float) -> dict[str, float]:
        return {
            name: self.self_time[i] / traced_wall
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write(self, path: Path) -> None:
        """Spans go out once, when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
