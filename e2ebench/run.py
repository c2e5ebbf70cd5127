"""End-to-end benchmark of the monitoring pipeline.

Usage (from the repository root):

    python3 e2ebench/run.py --workload pipeline-default --seed 1 --seconds 10 --trace 0

Workloads:

* ``pipeline-default``   default flags: the paper's pipeline as deployed.
* ``pipeline-allplanes`` the same inputs with all eight optional planes on.
* ``dashboards``         the all-planes stack preloaded and sealed into the
  object store, then a closed loop of one client issuing the dashboard
  query mix with the clock stopped.

A pipeline run repeats one fixed scenario (a fresh framework each round,
8 simulated minutes, three hardware faults) until ``--seconds`` have
passed.  Every round is checked (see ``scenario.py``) and must produce
the same deterministic digest.

Every end-to-end time is reported at a fixed reference speed of the host:
each timed step, query and set-up is bracketed by a fixed reference loop,
and its wall time is scaled by how long that loop took (``speed.py``).
This takes out the shared host's changes of speed, which otherwise spread
the runs of one workload far beyond the regression bounds.

With ``--trace 1`` the run instead times
each layer from outside (``layers.py``), prints per-layer metrics and
prices the tracing: a wrapped and an unwrapped framework take turns on
the same steps (pipeline) or query cycles (dashboards), and the tracing
overhead is the median of the paired wall-time ratios.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
prints the reason to standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import Recorder, plane_counters  # noqa: E402
from queries import QueryMix, QueryStats, check_frontend, run_ops  # noqa: E402
import speed  # noqa: E402
from speed import at_reference, probe  # noqa: E402
from scenario import (  # noqa: E402
    SCENARIO_NS,
    STEP_NS,
    CheckFailed,
    build,
    drive,
    finish_round,
    make_inputs,
    seal,
    stepper,
)

STEPS_PER_ROUND = SCENARIO_NS // STEP_NS
#: Pipeline rounds every run makes at least, so the sample counts below
#: (and with them the tail percentiles) are the same in every run.
MIN_ROUNDS = {"pipeline-default": 5, "pipeline-allplanes": 2}
#: A pipeline round issues one query-mix cycle after every sixth step from
#: the twelfth on (simulated minutes 2 to 8), as a dashboard refreshing
#: while the pipeline runs; this spreads the query samples over the run,
#: and over enough distinct ranges that seeds get the same median.
QUERY_EVERY_STEPS = 6
FIRST_QUERY_STEP = 12
CYCLES_PER_ROUND = (STEPS_PER_ROUND - FIRST_QUERY_STEP) // QUERY_EVERY_STEPS + 1
#: Extra set-ups a pipeline run times at each refresh point.  A set-up
#: takes tens of milliseconds, and the host's speed changes over seconds,
#: so setup_s is a median over samples spread through the whole run.
SETUPS_PER_REFRESH = 2
#: Preloads per dashboards run: set-up is timed once per preload, and
#: each preload is queried for at least this many query-mix cycles.
PRELOADS = 3
CYCLES_PER_PRELOAD = 6
#: Traced runs: lockstep round pairs (pipeline) and query-mix cycles
#: (dashboards) every traced run makes at least.
MIN_PAIRS = 1
MIN_TRACED_CYCLES = 6
PERCENTILES = (50, 75, 90, 95, 99)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(min_samples: int) -> int:
    """The highest percentile with at least ten samples beyond it, at the
    smallest sample count a run of this workload can have."""
    return max(p for p in PERCENTILES if min_samples * (100 - p) / 100 >= 10)


class Run:
    """Everything one benchmark run measured."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.messages = 0
        self.steps: list[float] = []
        self.digests: set[str] = set()
        self.alert_detect_s = self.incident_open_s = 0.0
        self.attempted = self.failed = 0
        self.queries = QueryStats([], [], [], [], 0, [])
        self.query_wall = 0.0
        self.checked_keys = 0

    def add_round(self, res) -> None:
        self.setups.append(res.setup_s)
        self.messages += res.messages
        self.steps.extend(res.step_s)
        self.digests.add(res.digest)
        if len(self.digests) != 1:
            raise CheckFailed("rounds of one seed produced different outputs")
        self.alert_detect_s = res.alert_detect_s
        self.incident_open_s = res.incident_open_s
        self.attempted += res.attempted
        self.failed += res.failed

    def query(self, fw, ops) -> float:
        """Issue ``ops``; returns their summed wall time."""
        n = len(self.queries.wall_s)
        run_ops(fw, ops, self.queries)
        wall = sum(self.queries.wall_s[n:])
        self.query_wall += wall
        return wall

    def check_queries(self, fw) -> None:
        self.checked_keys += check_frontend(fw, self.queries)
        self.queries.frontend_results.clear()

    def add_queries(self, other: "Run") -> None:
        """Count another run's queries as attempted (and failed) here."""
        self.attempted += len(other.queries.latencies_s)
        self.failed += other.queries.errors

    def totals(self) -> tuple[int, int]:
        q = self.queries
        return self.attempted + len(q.latencies_s), self.failed + q.errors

    def end_to_end(self, step_tail: int, query_tail: int) -> dict:
        ms = 1e3
        q = self.queries.latencies_s
        attempted, failed = self.totals()
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "ingest_msgs_per_s": (self.messages / sum(self.steps), "1/s"),
            "step_p50_ms": (percentile(self.steps, 50) * ms, "ms"),
            "step_tail_ms": (percentile(self.steps, step_tail) * ms, "ms"),
            "alert_detect_s": (self.alert_detect_s, "s"),
            "incident_open_s": (self.incident_open_s, "s"),
            "query_p50_ms": (percentile(q, 50) * ms, "ms"),
            "query_tail_ms": (percentile(q, query_tail) * ms, "ms"),
            "queries_per_s": (len(q) / sum(q), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "ops_failed_ratio": (failed / attempted, "ratio"),
        }


def play(fw, inputs, run: Run, seed: int, paused=nullcontext):
    """One round on ``fw`` as a generator: yields, per step, the step's
    wall time, that time at the reference speed, and the wall time of the
    query-mix cycle run after it (0 if none).  Checking the answers is
    untimed and runs inside ``paused()``."""
    mix = QueryMix(seed, list(fw.dashboards))
    for i, (dt, ref) in enumerate(stepper(fw, inputs)):
        step = i + 1
        q = 0.0
        if step >= FIRST_QUERY_STEP and step % QUERY_EVERY_STEPS == 0:
            q = run.query(fw, mix.cycle(fw.clock.now_ns))
            with paused():
                run.check_queries(fw)
        yield dt, ref, q


def time_setups(all_planes: bool, seed: int) -> list[float]:
    """Set up and drop ``SETUPS_PER_REFRESH`` frameworks; their set-up times."""
    out = []
    for _ in range(SETUPS_PER_REFRESH):
        fw, setup = build(all_planes, seed)
        out.append(setup)
        fw = None
        gc.collect()
    return out


def run_pipeline(name: str, seed: int, seconds: float):
    all_planes = name == "pipeline-allplanes"
    inputs = make_inputs(seed)
    run = Run()
    t_begin = time.perf_counter()
    rnd = 0
    while True:
        fw, setup = build(all_planes, seed)
        dashboards = list(fw.dashboards)
        steps = []
        for _, ref, q in play(fw, inputs, run, seed):
            steps.append(ref)
            if q:
                run.setups.extend(time_setups(all_planes, seed))
        run.add_round(finish_round(fw, inputs, setup, steps))
        # Free this framework before the next is built, so set-up time and
        # peak memory do not depend on when the cyclic collector runs.
        fw = None
        gc.collect()
        rnd += 1
        elapsed = time.perf_counter() - t_begin
        if rnd >= MIN_ROUNDS[name] and elapsed * (rnd + 1) / rnd >= seconds:
            break
    query_min = MIN_ROUNDS[name] * CYCLES_PER_ROUND * QueryMix(seed, dashboards).cycle_length
    info = {"inputs": inputs, "rounds": rnd,
            "tails": (tail_percentile(MIN_ROUNDS[name] * STEPS_PER_ROUND),
                      tail_percentile(query_min))}
    return run, info


def trace_pipeline(name: str, seed: int, seconds: float):
    """Rounds on a wrapped and an unwrapped framework in lockstep: their steps
    alternate, and which of the two goes first alternates too, so both
    see the same machine.  An untraced warm-up round runs first."""
    all_planes = name == "pipeline-allplanes"
    inputs = make_inputs(seed)
    run, untraced = Run(), Run()
    recorder = Recorder()
    fw, setup = build(all_planes, seed)
    steps = [ref for _, ref, _ in play(fw, inputs, untraced, seed)]
    run.add_round(finish_round(fw, inputs, setup, steps))
    fw = None
    gc.collect()
    ratios: list[float] = []
    traced_wall = 0.0
    pairs = 0
    t_begin = time.perf_counter()
    while True:
        t_fw, t_setup = build(all_planes, seed, recorder.install)
        u_fw, u_setup = build(all_planes, seed)
        rounds = {True: play(t_fw, inputs, run, seed, recorder.paused),
                  False: play(u_fw, inputs, untraced, seed)}
        steps = {True: [], False: []}
        before = plane_counters(t_fw)
        for i in range(STEPS_PER_ROUND):
            walls = {}
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                recorder.recording = traced
                dt, ref, q = next(rounds[traced])
                recorder.recording = False
                steps[traced].append(ref)
                walls[traced] = dt + q
            ratios.append(walls[True] / walls[False])
            traced_wall += walls[True]
        recorder.add_counters(before, plane_counters(t_fw))
        # add_round also checks that both give the warm-up round's outputs.
        run.add_round(finish_round(t_fw, inputs, t_setup, steps[True]))
        run.add_round(finish_round(u_fw, inputs, u_setup, steps[False]))
        t_fw = u_fw = rounds = None
        gc.collect()
        pairs += 1
        elapsed = time.perf_counter() - t_begin
        if pairs >= MIN_PAIRS and elapsed * (pairs + 1) / pairs >= seconds:
            break
    run.add_queries(untraced)
    info = {"inputs": inputs, "rounds": pairs * 2 + 1,
            "layers": recorder.layer_metrics(pairs),
            "traced_wall": traced_wall, "overhead": statistics.median(ratios),
            "recorder": recorder, "units": f"{pairs} traced rounds",
            "per": "round"}
    return run, info


def preload(seed: int, inputs, run: Run, recorder: Recorder | None = None):
    """Build the all-planes stack, run the scenario on it and seal it; all
    of it is the dashboards set-up.  With ``recorder``, the stack is
    wrapped and its seal traced.  Returns the stack and the seal's wall."""
    fw, setup = build(True, seed, recorder.install if recorder else None)
    steps = drive(fw, inputs)
    before = probe()
    if recorder:
        recorder.recording = True
    t = time.perf_counter()
    seal(fw)
    sealed = time.perf_counter() - t
    if recorder:
        recorder.recording = False
    sealed_ref = at_reference(sealed, before, probe())
    res = finish_round(fw, inputs, setup, steps)
    res.setup_s = setup + sum(steps) + sealed_ref
    run.add_round(res)
    return fw, sealed


def run_dashboards(seed: int, seconds: float):
    inputs = make_inputs(seed)
    run = Run()
    for _ in range(PRELOADS):
        fw, _ = preload(seed, inputs, run)
        # Each preload gets its share of the query time, so the query
        # samples span the whole run, as the set-ups do.
        mix = QueryMix(seed, list(fw.dashboards))
        data_end = fw.clock.now_ns
        cycles = 0
        t_begin = time.perf_counter()
        while not mix.exhausted(data_end):
            run.query(fw, mix.cycle(data_end))
            cycles += 1
            elapsed = time.perf_counter() - t_begin
            if (cycles >= CYCLES_PER_PRELOAD
                    and elapsed * (cycles + 1) / cycles >= seconds / PRELOADS):
                break
        run.check_queries(fw)
        fw = None
        gc.collect()
    query_min = PRELOADS * CYCLES_PER_PRELOAD * mix.cycle_length
    info = {"inputs": inputs, "rounds": PRELOADS,
            "tails": (tail_percentile(PRELOADS * STEPS_PER_ROUND),
                      tail_percentile(query_min))}
    return run, info


def trace_dashboards(seed: int, seconds: float):
    """Query-mix cycles on a wrapped and an unwrapped preloaded stack."""
    inputs = make_inputs(seed)
    run, untraced = Run(), Run()
    recorder = Recorder()
    untraced_fw, _ = preload(seed, inputs, run)
    fw, seal_wall = preload(seed, inputs, run, recorder)
    data_end = fw.clock.now_ns
    mixes = {True: QueryMix(seed, list(fw.dashboards)),
             False: QueryMix(seed, list(untraced_fw.dashboards))}
    before = plane_counters(fw)
    ratios: list[float] = []
    cycles = 0
    t_begin = time.perf_counter()
    while not mixes[True].exhausted(data_end):
        # The two stacks take turns op by op, so both see the same machine;
        # the cycle's ratio is of its summed op walls.
        ops = {traced: mixes[traced].cycle(data_end) for traced in (True, False)}
        walls = {True: 0.0, False: 0.0}
        for j in range(len(ops[True])):
            for traced in ((True, False) if j % 2 == 0 else (False, True)):
                recorder.recording = traced
                walls[traced] += (run.query(fw, ops[True][j:j + 1]) if traced
                                  else untraced.query(untraced_fw, ops[False][j:j + 1]))
                recorder.recording = False
        if cycles:  # the first pair warms both stacks up
            ratios.append(walls[True] / walls[False])
        cycles += 1
        elapsed = time.perf_counter() - t_begin
        if cycles >= MIN_TRACED_CYCLES and elapsed * (cycles + 1) / cycles >= seconds:
            break
    recorder.add_counters(before, plane_counters(fw))
    run.check_queries(fw)
    untraced.check_queries(untraced_fw)
    run.add_queries(untraced)
    info = {"inputs": inputs, "rounds": 2,
            "layers": recorder.layer_metrics(cycles, seals=1),
            "traced_wall": seal_wall + run.query_wall,
            "overhead": statistics.median(ratios), "recorder": recorder,
            "units": f"1 traced seal ({seal_wall:.3f} s) and {cycles} traced cycles",
            "per": "cycle (objstore.shipper.flush and objstore.compactor.run: per seal)"}
    return run, info


def layer_report(run: Run, info: dict) -> dict[str, float]:
    """Per-layer metrics: per-unit layer totals plus the derived ratios."""
    out = dict(info["layers"])
    q = run.queries
    frontend_calls = len(q.hit_s) + len(q.miss_s)
    out["loki.frontend.hit_ratio"] = len(q.hit_s) / frontend_calls if frontend_calls else 0.0
    out["query.frontend_hit_p50_ms"] = percentile(q.hit_s, 50) * 1e3 if q.hit_s else 0.0
    out["query.frontend_miss_p50_ms"] = percentile(q.miss_s, 50) * 1e3 if q.miss_s else 0.0
    out["trace.overhead_ratio"] = info["overhead"]
    out["trace.unattributed_share"] = max(
        0.0, 1 - info["recorder"].root_time / info["traced_wall"]
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-default", "pipeline-allplanes", "dashboards"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        if args.workload == "dashboards":
            run, info = (trace_dashboards if trace else run_dashboards)(
                args.seed, args.seconds)
        elif trace:
            run, info = trace_pipeline(args.workload, args.seed, args.seconds)
        else:
            run, info = run_pipeline(args.workload, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1

    inputs = info["inputs"]
    attempted, failed = run.totals()
    print(f"workload {args.workload} seed {args.seed}: inputs {inputs.digest} "
          f"({inputs.lines} lines, {inputs.streams} streams, "
          f"{inputs.lines * 1e9 / (STEP_NS * STEPS_PER_ROUND):g} lines/sim-s), "
          f"{info['rounds']} rounds, output digest {next(iter(run.digests))}")
    for f in inputs.faults:
        print(f"  fault {f.kind.value} on {f.target} at +{f.start_offset_ns / 1e9:.3f}s "
              f"for {f.duration_ns / 1e9:g}s")
    print(f"  checks passed: faults alerted/opened/resolved, lines accounted, "
          f"{run.checked_keys} frontend keys equal to fw.logql, rounds identical")
    print(f"  reference loop: median {statistics.median(speed.probes) * 1e3:.4f} ms over "
          f"{len(speed.probes)} passes; end-to-end times are at the speed where it takes "
          f"{speed.REF_S * 1e3:g} ms")
    if trace:
        metrics = layer_report(run, info)
        recorder: Recorder = info["recorder"]
        shares = recorder.self_shares(info["traced_wall"])
        print(f"  per-layer values are per {info['per']} ({info['units']}); "
              f"tracing overhead {info['overhead']:.3f}x (median of paired ratios)")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  self {share * 100:6.2f}%  {name}")
        print(f"  unattributed {metrics['trace.unattributed_share'] * 100:.2f}%")
        out = Path(".e2ebench") / f"spans-{args.workload}-seed{args.seed}.json.gz"
        recorder.write(out)
        print(f"  spans written to {out}")
        values = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        step_tail, query_tail = info["tails"]
        e2e = run.end_to_end(step_tail, query_tail)
        print(f"  step tail is p{step_tail} of {len(run.steps)} steps; "
              f"query tail is p{query_tail} of {len(run.queries.latencies_s)} queries")
        for key, (value, unit) in e2e.items():
            print(f"  {key:<20} {value:14.6g} {unit}")
        # ops_failed_ratio is printed above; the JSON carries its numerator
        # and denominator as "failed" and "attempted".
        values = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()
                  if k != "ops_failed_ratio"}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
