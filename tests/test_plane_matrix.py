"""Golden wiring fingerprints over combinations of the optional planes.

Each row builds a small cluster with a set of ``enable_*`` flags, feeds it
syslog plus a cabinet leak and a node failure for six simulated minutes,
and hashes everything the wiring decides: dashboards and their panels in
order, scrape targets, the rules of every evaluator, the Alertmanager
route tree, which plane attributes are left unset, the health summary, the
Slack messages and the ServiceNow incidents.  The expected digests pin the
wiring as it stands, so a refactor of how planes are assembled must leave
every row unchanged.

Rows: every plane off, every plane on, and a pairwise covering array over
the eight flags (every pair of flags appears in all four on/off
combinations).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.simclock import minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.workloads.scenarios import steady_state_mix

FLAGS = (
    "enable_ingest_ring",
    "enable_self_healing",
    "enable_reliable_delivery",
    "enable_multi_tenancy",
    "enable_object_storage",
    "enable_query_engine",
    "enable_pattern_mining",
    "enable_slo",
)

#: Framework attributes owned by the optional planes; None when off.
PLANE_ATTRS = (
    "ring", "ring_exporter", "selfheal", "selfheal_exporter", "journal",
    "delivery_exporter", "limits", "admission", "frontend", "scheduler",
    "tenancy_exporter", "objstore", "shipper_index", "shipper", "compactor",
    "store_gateway", "tiered", "objstore_exporter", "blooms", "queryx",
    "queryx_exporter", "pattern_store", "pattern_ingester", "pattern_ruler",
    "patterns_exporter", "slo_manager", "slo_exporter",
)

#: Six rows covering every pair of the eight flags in all four on/off
#: combinations: column j is the j-th 3-subset of the rows that contains
#: row 0, complemented for odd j so no row is all-on or all-off.
PAIRWISE = (
    "10101010",
    "10100101",
    "11011011",
    "00011100",
    "01110000",
    "01000111",
)

ROWS = {"off": "00000000", "on": "11111111"} | {
    f"pairwise-{i}": bits for i, bits in enumerate(PAIRWISE)
}

#: Digests recorded before the planes were split out of the framework.
EXPECTED = {
    "off": "912bd2b304123daa8dd6727b9308d5e79b8c4ecaeec93d170c194db373aa219a",
    "on": "acc9f97fe54ba66a76d822abf1a39681e83385a75f9577f6750eddf027fec050",
    "pairwise-0": "583a16bb01e44ca8afdec35ad87796f89b74cc0afabbd8703b399041070b7f32",
    "pairwise-1": "117c1f767883662a762cf0722ee9411d20bf67e204c8cf8ce4a7c5e4e3509afb",
    "pairwise-2": "04866ab367ff7d631a0806941c1c0f61c988f383c26b15ab0d4b51f1458f2846",
    "pairwise-3": "8eae8ccf6b6c2554ecee8833651d3088ebcf1846010ebba715780482f9ba61dc",
    "pairwise-4": "159115884dcaf50cad24803df3e6127ec9e4f59ec5924b99ce8a7d4847cf3058",
    "pairwise-5": "46163e7aafb078f23f9090ba4ce3d77afb6cdd0f9b55b958bdb1706357334720",
}


def _route(route) -> dict:
    return {
        "receiver": route.receiver,
        "matchers": [(m.name, m.op.value, m.value) for m in route.matchers],
        "group_by": list(route.group_by),
        "timing": [route.group_wait, route.group_interval, route.repeat_interval],
        "continue": route.continue_,
        "mute": list(route.mute_time_intervals),
        "routes": [_route(child) for child in route.routes],
    }


def _panel(panel) -> list:
    fields = {
        f.name: repr(getattr(panel, f.name))
        for f in dataclasses.fields(panel)
        if f.name != "datasource"
    }
    return [type(panel).__name__, fields]


def _rules(evaluator) -> list[str]:
    return [] if evaluator is None else [repr(r) for r in evaluator.rules()]


def fingerprint(bits: str) -> str:
    flags = {flag: bit == "1" for flag, bit in zip(FLAGS, bits)}
    fw = MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2), **flags
        )
    )
    fw.start()
    nodes = sorted(fw.cluster.nodes)
    for g in steady_state_mix(nodes[:4], 200, fw.clock.now_ns, minutes(5), seed=1):
        if g.labels["data_type"] == "syslog":
            fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
        else:
            fw.publish_container_log(g.labels, g.timestamp_ns, g.line)
    cabinet = sorted(fw.cluster.cabinets)[0]
    fw.faults.schedule(FaultKind.CABINET_LEAK, cabinet, delay_ns=minutes(1))
    fw.faults.schedule(FaultKind.NODE_DOWN, nodes[0], delay_ns=minutes(1))
    fw.run_for(minutes(6))
    wiring = {
        "dashboards": [
            [key, dash.name, dash.uid, [_panel(p) for p in dash.panels()]]
            for key, dash in fw.dashboards.items()
        ],
        "targets": [
            [t.job, t.instance, type(t.exporter).__name__]
            for t in fw.vmagent.targets()
        ],
        "ruler": _rules(fw.ruler),
        "vmalert": _rules(fw.vmalert),
        "pattern_ruler": _rules(fw.pattern_ruler),
        "route": _route(fw.alertmanager._root),
        "unset": [a for a in PLANE_ATTRS if getattr(fw, a) is None],
        "health": fw.health_summary(),
        "slack": [m.text for m in fw.slack.messages],
        "incidents": [
            [i.number, i.short_description, i.ci_name, i.priority.name,
             i.state.value, i.work_notes]
            for i in fw.servicenow.incidents()
        ],
    }
    text = json.dumps(wiring, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def test_pairwise_rows_cover_every_flag_pair():
    for a, b in itertools.combinations(range(len(FLAGS)), 2):
        seen = {(row[a], row[b]) for row in PAIRWISE}
        assert seen == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_wiring_fingerprint(row):
    assert fingerprint(ROWS[row]) == EXPECTED[row]


def test_all_planes_fingerprint_ignores_hash_seed():
    """String hashing must not leak into any ordering the wiring makes."""
    script = (
        "import sys; sys.path.insert(0, 'tests'); "
        "from test_plane_matrix import ROWS, fingerprint; "
        "print(fingerprint(ROWS['on']))"
    )
    root = Path(__file__).resolve().parent.parent
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert digests == {EXPECTED["on"]}
