"""LogQL evaluation engine.

Evaluates parsed queries against a :class:`~repro.loki.store.LokiStore`
(or sharded cluster — anything with ``select``).  The engine implements
the paper's core conversion: log lines, filtered and parsed, become
Prometheus-style instant vectors / range series that Grafana plots and
the Ruler alerts on.

Extracted labels (from ``json`` / ``pattern`` / ``logfmt`` stages) join
the stream labels for grouping, which is exactly how the paper's Figure-5
query groups by ``severity``/``message_id`` that exist only *inside* the
log line.
"""

from __future__ import annotations

import re
from typing import Iterable, Protocol

from repro.common.errors import QueryError
from repro.common.jsonutil import flatten_json
from repro.common.labels import LabelSet, Matcher, validate_label_name
from repro.common.simclock import NANOS_PER_SECOND
from repro.common.vector import Sample, Series
from repro.loki.logql.ast import (
    ArithOp,
    BinOp,
    CmpOp,
    Expr,
    GroupMode,
    LabelFilter,
    LabelFormatStage,
    LineFilter,
    LineFilterOp,
    LineFormatStage,
    LogPipeline,
    MetricExpr,
    ParserKind,
    ParserStage,
    PatternTemplate,
    RangeAgg,
    RangeFunc,
    Scalar,
    UNWRAPPED_FUNCS,
    UnwrapStage,
    VectorAgg,
    VectorOp,
)
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry

#: Label attached when a parser stage fails on a line (as real Loki does).
ERROR_LABEL = "__error__"

_LINE_FORMAT_RE = re.compile(r"\{\{\s*\.([a-zA-Z_][a-zA-Z0-9_]*)\s*\}\}")


def _render_line_format(template: str, labels: dict, line: str) -> str:
    """Render the ``{{.label}}`` Go-template subset; ``{{.__line__}}``
    expands to the current line, unknown labels to the empty string."""

    def sub(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name == "__line__":
            return line
        return labels.get(name, "")

    return _LINE_FORMAT_RE.sub(sub, template)

_LOGFMT_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)=("(?:[^"\\]|\\.)*"|\S*)')


class LogSource(Protocol):
    """What the engine needs from a store (single-node or sharded)."""

    def select(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]: ...


class PatternSource(Protocol):
    """What ``detected_patterns`` needs from a pattern store."""

    def query(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
    ) -> list: ...


class LogQLEngine:
    """Evaluates LogQL log and metric queries."""

    def __init__(
        self, source: LogSource, patterns: "PatternSource | None" = None
    ) -> None:
        self._source = source
        self._patterns = patterns
        self._pattern_cache: dict[str, PatternTemplate] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def detected_patterns(
        self,
        selector: str | LogPipeline,
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
    ):
        """Mined templates for streams matching a bare selector, busiest
        first (Loki's ``/loki/api/v1/detected_patterns``).

        Requires a pattern store wired in (``enable_pattern_mining``);
        the selector must carry no pipeline stages — patterns are mined
        from raw lines, so filters cannot apply.
        """
        if self._patterns is None:
            raise QueryError(
                "detected_patterns requires pattern mining "
                "(enable_pattern_mining / REPRO_PLANES=patterns)"
            )
        expr = parse(selector) if isinstance(selector, str) else selector
        if not isinstance(expr, LogPipeline) or expr.stages:
            raise QueryError("detected_patterns requires a bare stream selector")
        if end_ns <= start_ns:
            raise QueryError("detected_patterns requires start < end")
        return self._patterns.query(
            expr.matchers, start_ns, end_ns, tenant=tenant
        )

    def query_logs(
        self, query: str | LogPipeline, start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        """Run a log query; returns entries grouped by final label set,
        each group sorted by timestamp."""
        expr = parse(query) if isinstance(query, str) else query
        if not isinstance(expr, LogPipeline):
            raise QueryError("query_logs requires a log query, not a metric query")
        if expr.unwrap_label is not None:
            raise QueryError("unwrap is only valid inside a range aggregation")
        grouped = self._eval_pipeline(expr, start_ns, end_ns)
        return sorted(grouped.items(), key=lambda kv: kv[0].items_tuple())

    def query_instant(self, query: str | Expr, time_ns: int) -> list[Sample]:
        """Evaluate a metric query at one instant; returns a vector."""
        expr = parse(query) if isinstance(query, str) else query
        if isinstance(expr, LogPipeline):
            raise QueryError("instant query requires a metric query")
        samples = self._eval_metric(expr, time_ns)
        return sorted(samples, key=lambda s: s.labels.items_tuple())

    def query_range(
        self, query: str | Expr, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        """Evaluate a metric query at each step in ``[start, end]``."""
        if step_ns <= 0:
            raise QueryError("step must be positive")
        if end_ns < start_ns:
            raise QueryError("end before start")
        expr = parse(query) if isinstance(query, str) else query
        if isinstance(expr, LogPipeline):
            raise QueryError("range query requires a metric query")
        series: dict[LabelSet, list[tuple[int, float]]] = {}
        t = start_ns
        while t <= end_ns:
            for sample in self._eval_metric(expr, t):
                series.setdefault(sample.labels, []).append((t, sample.value))
            t += step_ns
        return [
            Series(labels, tuple(points))
            for labels, points in sorted(
                series.items(), key=lambda kv: kv[0].items_tuple()
            )
        ]

    # ------------------------------------------------------------------
    # Pipeline evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _line_hints(pipeline: LogPipeline) -> tuple[str, ...]:
        """CONTAINS needles that apply to the *stored* line.

        Filters appearing after a ``line_format`` stage see rewritten
        lines and cannot gate raw chunks.  The hints are purely a
        pruning aid for stores that understand them (bloom blocks);
        every filter is still re-applied here, so a store that ignores
        or over-prunes nothing changes answers.
        """
        needles = []
        for stage in pipeline.stages:
            if isinstance(stage, LineFormatStage):
                break
            if isinstance(stage, LineFilter) and stage.op is LineFilterOp.CONTAINS:
                needles.append(stage.needle)
        return tuple(needles)

    def _eval_pipeline(
        self, pipeline: LogPipeline, start_ns: int, end_ns: int
    ) -> dict[LabelSet, list[LogEntry]]:
        if getattr(self._source, "supports_line_hints", False):
            raw = self._source.select(
                pipeline.matchers,
                start_ns,
                end_ns,
                line_contains=self._line_hints(pipeline),
            )
        else:
            raw = self._source.select(pipeline.matchers, start_ns, end_ns)
        grouped: dict[LabelSet, list[LogEntry]] = {}
        for stream_labels, entries in raw:
            base = stream_labels.to_dict()
            for entry in entries:
                final = self._apply_stages(pipeline.stages, base, entry)
                if final is None:
                    continue
                labels, line = final
                grouped.setdefault(labels, []).append(
                    entry if line == entry.line else LogEntry(entry.timestamp_ns, line)
                )
        for entries in grouped.values():
            entries.sort()
        return grouped

    def _apply_stages(
        self,
        stages: tuple,
        base_labels: dict[str, str],
        entry: LogEntry,
    ) -> tuple[LabelSet, str] | None:
        """Run one entry through the pipeline; None means dropped."""
        labels: dict[str, str] | None = None  # lazily copied
        line = entry.line
        for stage in stages:
            if isinstance(stage, LineFilter):
                if not stage.keep(line):
                    return None
            elif isinstance(stage, ParserStage):
                if labels is None:
                    labels = dict(base_labels)
                self._apply_parser(stage, labels, line)
            elif isinstance(stage, LabelFilter):
                current = labels if labels is not None else base_labels
                if not stage.keep(current):
                    return None
            elif isinstance(stage, LineFormatStage):
                current = labels if labels is not None else base_labels
                line = _render_line_format(stage.template, current, line)
            elif isinstance(stage, LabelFormatStage):
                if labels is None:
                    labels = dict(base_labels)
                if stage.src in labels:
                    labels[stage.dst] = labels[stage.src]
            elif isinstance(stage, UnwrapStage):
                # Handled by the range-aggregation path; for plain stage
                # application it is a no-op (validation prevents misuse).
                pass
            else:  # pragma: no cover - parser only emits the four kinds
                raise QueryError(f"unknown stage {stage!r}")
        final_labels = LabelSet(labels if labels is not None else base_labels)
        return final_labels, line

    def _apply_parser(
        self, stage: ParserStage, labels: dict[str, str], line: str
    ) -> None:
        if stage.kind is ParserKind.JSON:
            try:
                import json as _json

                obj = _json.loads(line)
            except (ValueError, TypeError):
                labels[ERROR_LABEL] = "JSONParserErr"
                return
            if not isinstance(obj, dict):
                labels[ERROR_LABEL] = "JSONParserErr"
                return
            for key, value in flatten_json(obj):
                self._set_extracted(labels, key, value)
        elif stage.kind is ParserKind.LOGFMT:
            for m in _LOGFMT_RE.finditer(line):
                key, value = m.group(1), m.group(2)
                if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                    value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                self._set_extracted(labels, key, value)
        elif stage.kind is ParserKind.PATTERN:
            assert stage.arg is not None
            template = self._pattern_cache.get(stage.arg)
            if template is None:
                template = PatternTemplate.compile(stage.arg)
                self._pattern_cache[stage.arg] = template
            extracted = template.match(line)
            if extracted is None:
                labels[ERROR_LABEL] = "PatternParserErr"
                return
            for key, value in extracted.items():
                self._set_extracted(labels, key, value)

    @staticmethod
    def _set_extracted(labels: dict[str, str], key: str, value: str) -> None:
        """Merge an extracted label; collisions with existing labels get the
        ``_extracted`` suffix, as in real Loki."""
        try:
            validate_label_name(key)
        except Exception:
            return  # unextractable key: skip silently (Loki drops them too)
        if key in labels and labels[key] != value:
            labels[f"{key}_extracted"] = value
        else:
            labels[key] = value

    # ------------------------------------------------------------------
    # Metric evaluation
    # ------------------------------------------------------------------
    def _eval_metric(self, expr: MetricExpr | Scalar, time_ns: int) -> list[Sample]:
        if isinstance(expr, RangeAgg):
            return self._eval_range_agg(expr, time_ns)
        if isinstance(expr, VectorAgg):
            return self._eval_vector_agg(expr, time_ns)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, time_ns)
        raise QueryError(f"cannot evaluate {type(expr).__name__} as a vector")

    def _eval_unwrapped(
        self, pipeline: LogPipeline, start_ns: int, end_ns: int
    ) -> dict[LabelSet, list[float]]:
        """Pipeline evaluation yielding numeric sample values per series.

        Entries whose unwrap label is missing or non-numeric are dropped
        (real Loki marks them ``__error__=SampleExtractionErr``); the
        unwrapped label itself is removed from the series labels.
        """
        label = pipeline.unwrap_label
        assert label is not None
        grouped = self._eval_pipeline(pipeline, start_ns, end_ns)
        out: dict[LabelSet, list[float]] = {}
        for labels, entries in grouped.items():
            raw = labels.get(label)
            if raw is None:
                continue
            try:
                value = float(raw)
            except ValueError:
                continue
            series = labels.without(label)
            out.setdefault(series, []).extend([value] * len(entries))
        return out

    def _eval_range_agg(self, expr: RangeAgg, time_ns: int) -> list[Sample]:
        # Window semantics: (time - range, time].
        start = time_ns - expr.range_ns + 1
        end = time_ns + 1
        range_seconds = expr.range_ns / NANOS_PER_SECOND
        if expr.func in UNWRAPPED_FUNCS:
            out = []
            for labels, values in self._eval_unwrapped(
                expr.pipeline, start, end
            ).items():
                if expr.func is RangeFunc.SUM_OVER_TIME:
                    value = sum(values)
                elif expr.func is RangeFunc.AVG_OVER_TIME:
                    value = sum(values) / len(values)
                elif expr.func is RangeFunc.MAX_OVER_TIME:
                    value = max(values)
                else:  # MIN_OVER_TIME
                    value = min(values)
                out.append(Sample(labels, value, time_ns))
            return out
        grouped = self._eval_pipeline(expr.pipeline, start, end)
        out = []
        for labels, entries in grouped.items():
            if expr.func is RangeFunc.COUNT_OVER_TIME:
                value = float(len(entries))
            elif expr.func is RangeFunc.RATE:
                value = len(entries) / range_seconds
            elif expr.func is RangeFunc.BYTES_OVER_TIME:
                value = float(sum(e.size_bytes() for e in entries))
            else:  # BYTES_RATE
                value = sum(e.size_bytes() for e in entries) / range_seconds
            out.append(Sample(labels, value, time_ns))
        return out

    def _eval_vector_agg(self, expr: VectorAgg, time_ns: int) -> list[Sample]:
        inner = self._eval_metric(expr.expr, time_ns)
        groups: dict[LabelSet, list[float]] = {}
        for sample in inner:
            if expr.mode is GroupMode.BY:
                key = sample.labels.project(expr.labels)
            elif expr.mode is GroupMode.WITHOUT:
                key = sample.labels.without(*expr.labels)
            else:
                key = LabelSet()
            groups.setdefault(key, []).append(sample.value)
        out = []
        for labels, values in groups.items():
            if expr.op is VectorOp.SUM:
                value = sum(values)
            elif expr.op is VectorOp.MIN:
                value = min(values)
            elif expr.op is VectorOp.MAX:
                value = max(values)
            elif expr.op is VectorOp.AVG:
                value = sum(values) / len(values)
            else:  # COUNT
                value = float(len(values))
            out.append(Sample(labels, value, time_ns))
        return out

    def _eval_binop(self, expr: BinOp, time_ns: int) -> list[Sample]:
        scalar_left = isinstance(expr.lhs, Scalar)
        scalar = (expr.lhs if scalar_left else expr.rhs)
        assert isinstance(scalar, Scalar)
        vector_expr = expr.rhs if scalar_left else expr.lhs
        vector = self._eval_metric(vector_expr, time_ns)  # type: ignore[arg-type]
        out = []
        for sample in vector:
            a, b = (
                (scalar.value, sample.value)
                if scalar_left
                else (sample.value, scalar.value)
            )
            if isinstance(expr.op, CmpOp):
                if expr.op.apply(a, b):
                    out.append(sample)  # comparison filters, keeps value
            else:
                assert isinstance(expr.op, ArithOp)
                out.append(sample.with_value(expr.op.apply(a, b)))
        return out
