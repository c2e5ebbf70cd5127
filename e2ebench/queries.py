"""The dashboard query mix: a fixed cycle of reads over the stack.

One cycle holds every dashboard render, LogQL metric range queries
through the query frontend (two repeated keys issued twice each, three
distinct keys), two ``query_logs`` line filters and two PromQL range
queries.  Ranges end before the clock, so the frontend may cache them.
The seed only picks which distinct ranges are used, out of pools of
equal-cost ranges (one step per query, 8 evaluation points each, over a
steady feed), so every seed does the same amount of work per cycle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.common.simclock import PAPER_EPOCH_NS, minutes, seconds

from scenario import SCENARIO_NS, CheckFailed
from speed import at_reference, probe

#: Distinct frontend queries, one per slot of the cycle: few streams each.
DISTINCT_QUERIES = (
    'sum(count_over_time({data_type="syslog", severity="err"}[1m])) by (facility)',
    'sum(rate({data_type="container_log"} | json | level="error" [1m])) by (app)',
    'sum(count_over_time({data_type="syslog", facility="kernel"} |= "error" [1m])) by (severity)',
)
#: Repeated frontend queries over fixed ranges inside the first two
#: minutes: once those have passed, the first issue misses, later ones hit.
REPEAT_QUERIES = (
    ('sum(count_over_time({data_type="syslog", facility="gpfs"} |= "CRC" [5m]))',
     0, seconds(60)),
    ('sum(rate({data_type="container_log"}[1m])) by (app)', 0, seconds(10)),
)
REPEAT_END_NS = PAPER_EPOCH_NS + minutes(2) - 1
LOG_QUERIES = (
    '{data_type="syslog"} |= "error"',
    '{data_type="syslog", severity="err"} |~ "I/O|CRC"',
)
PROM_QUERIES = (
    "sum(node_up)",
    "sum by (topic) (rate(kafka_topic_partition_current_offset[5m]))",
)
#: The step of each distinct query.  Each divides the frontend's 1h split,
#: so ranges split exactly, and each keeps an 8-point range shorter than
#: the two minutes of data the first refresh cycle sees.
DISTINCT_STEPS_S = (10, 12, 15)
POINTS = 8
#: Dashboards show the last eight minutes: the whole scenario.
WINDOW_NS = minutes(8)


@dataclass(frozen=True)
class Op:
    kind: str  # render | frontend | logs | promql
    query: str
    start_ns: int
    end_ns: int
    step_ns: int


def _distinct_ranges(rng: random.Random, step_s: int) -> list[tuple[int, int, int]]:
    """Every 8-point range on the whole-step grid inside the scenario, in
    seeded order."""
    step = seconds(step_s)
    span = (POINTS - 1) * step
    out = []
    k = 0
    while k * step + span < SCENARIO_NS:
        start = PAPER_EPOCH_NS + k * step
        out.append((start, start + span, step))
        k += 1
    rng.shuffle(out)
    return out


class QueryMix:
    """Cycles of the mix; every distinct key is issued once per mix."""

    def __init__(self, seed: int, dashboards: list[str]) -> None:
        rng = random.Random(seed * 7919 + 1)
        self._dashboards = dashboards
        self._pools = [_distinct_ranges(rng, step_s) for step_s in DISTINCT_STEPS_S]

    @property
    def cycle_length(self) -> int:
        return (len(self._dashboards) + 2 * len(REPEAT_QUERIES) + len(DISTINCT_QUERIES)
                + len(LOG_QUERIES) + len(PROM_QUERIES))

    def exhausted(self, data_end: int) -> bool:
        return any(all(r[1] >= data_end for r in pool) for pool in self._pools)

    def _take(self, pool: list, data_end: int) -> tuple[int, int, int]:
        """The next unused range that ends before ``data_end``."""
        for i, r in enumerate(pool):
            if r[1] < data_end:
                return pool.pop(i)
        raise CheckFailed("the query mix ran out of distinct ranges")

    def cycle(self, data_end: int) -> list[Op]:
        """One cycle over the data before ``data_end`` (the clock)."""
        distinct = [
            Op("frontend", q, *self._take(pool, data_end))
            for q, pool in zip(DISTINCT_QUERIES, self._pools)
        ]
        repeats = [
            Op("frontend", q, PAPER_EPOCH_NS + off, REPEAT_END_NS, step)
            for q, off, step in REPEAT_QUERIES
        ]
        window = data_end - WINDOW_NS
        log_start = distinct[0].start_ns
        logs = [
            Op("logs", LOG_QUERIES[0], window, data_end, 0),
            Op("logs", LOG_QUERIES[1], log_start, log_start + minutes(2), 0),
        ]
        prom = [
            Op("promql", PROM_QUERIES[0], window, data_end, seconds(60)),
            Op("promql", PROM_QUERIES[1], distinct[1].start_ns, distinct[1].end_ns,
               distinct[1].step_ns),
        ]
        renders = [
            Op("render", name, window, data_end, minutes(1)) for name in self._dashboards
        ]
        reads = [
            repeats[0], distinct[0], repeats[1], logs[0], prom[0],
            repeats[0], distinct[1], repeats[1], logs[1], prom[1], distinct[2],
        ]
        # Interleave the renders so no stretch of the cycle is all-cheap.
        out: list[Op] = []
        for i in range(max(len(reads), len(renders))):
            out.extend(renders[i:i + 1])
            out.extend(reads[i:i + 1])
        return out


@dataclass
class QueryStats:
    #: Per op: its latency at the reference speed (``speed.py``), and as
    #: measured.
    latencies_s: list[float]
    wall_s: list[float]
    #: Latencies at the reference speed of frontend cache hits and misses.
    hit_s: list[float]
    miss_s: list[float]
    errors: int
    #: (op, result) of every frontend op, checked after timing.
    frontend_results: list


def run_ops(fw, ops: list[Op], stats: QueryStats) -> None:
    """Issue ``ops`` one after another (one closed-loop client)."""
    perf = time.perf_counter
    frontend = fw.frontend
    for op in ops:
        misses = frontend.cache_misses if frontend is not None else 0
        result = None
        before = probe()
        t = perf()
        try:
            if op.kind == "render":
                result = fw.dashboards[op.query].render(op.start_ns, op.end_ns, op.step_ns)
            elif op.kind == "frontend":
                engine = frontend if frontend is not None else fw.logql
                result = engine.query_range(op.query, op.start_ns, op.end_ns, op.step_ns)
            elif op.kind == "logs":
                result = fw.logql.query_logs(op.query, op.start_ns, op.end_ns)
            else:
                result = fw.promql.query_range(op.query, op.start_ns, op.end_ns, op.step_ns)
            failed = False
        except Exception:  # a failed query counts against ops_failed_ratio
            failed = True
        dt = perf() - t
        ref = at_reference(dt, before, probe())
        stats.latencies_s.append(ref)
        stats.wall_s.append(dt)
        if failed:
            stats.errors += 1
        elif op.kind == "frontend":
            hit = frontend is not None and frontend.cache_misses == misses
            (stats.hit_s if hit else stats.miss_s).append(ref)
            if frontend is not None:
                stats.frontend_results.append((op, result))


def check_frontend(fw, stats: QueryStats) -> int:
    """Every frontend result equals the monolithic LogQL engine's answer
    for the same query and range.  Returns the distinct keys checked."""
    reference: dict[tuple, list] = {}
    for op, result in stats.frontend_results:
        key = (op.query, op.start_ns, op.end_ns, op.step_ns)
        if key not in reference:
            reference[key] = fw.logql.query_range(*key)
        if result != reference[key]:
            raise CheckFailed(
                f"frontend result differs from fw.logql for {op.query!r} "
                f"[{op.start_ns}, {op.end_ns}] step {op.step_ns}"
            )
    return len(reference)
