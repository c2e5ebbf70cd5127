"""Tests for the assembled framework and the k3s consumers."""

import dataclasses

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import minutes, seconds
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.framework import (
    PLANES,
    FrameworkConfig,
    MonitoringFramework,
    planes_from_env,
)
from repro.core.remediation import AutoRemediator
from repro.servicenow.incidents import IncidentState
from repro.workloads.loggen import SyslogGenerator


@pytest.fixture(scope="module")
def small_config():
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2)
    )


@pytest.fixture
def fw(small_config):
    return MonitoringFramework(small_config)


INTERVAL_FIELDS = [
    f.name for f in dataclasses.fields(FrameworkConfig)
    if f.name.endswith("_interval_ns")
]


class TestConfig:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValidationError):
            FrameworkConfig(ruler_interval_ns=0)

    @pytest.mark.parametrize("name", INTERVAL_FIELDS)
    @pytest.mark.parametrize("value", [0, -1])
    def test_every_interval_must_be_positive(self, name, value):
        """Checked whether or not the owning plane is on: a zero interval
        would otherwise pass here and crash ``start()`` in the clock."""
        with pytest.raises(ValidationError, match=name):
            FrameworkConfig(**{name: value})


class TestPlanesEnv:
    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.token)
    def test_single_token_turns_on_only_that_plane(self, monkeypatch, plane):
        monkeypatch.setenv("REPRO_PLANES", plane.token)
        cfg = FrameworkConfig()
        assert {p.flag for p in PLANES if getattr(cfg, p.flag)} == {plane.flag}

    def test_all_turns_on_every_plane(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANES", "all")
        cfg = FrameworkConfig()
        assert all(getattr(cfg, p.flag) for p in PLANES)

    def test_tokens_combine_and_tolerate_spaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANES", " ring, slo ,")
        assert planes_from_env() == {"ring", "slo"}

    @pytest.mark.parametrize("value", [None, "", " , "])
    def test_empty_or_unset_turns_on_nothing(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_PLANES", raising=False)
        else:
            monkeypatch.setenv("REPRO_PLANES", value)
        cfg = FrameworkConfig()
        assert not any(getattr(cfg, p.flag) for p in PLANES)

    @pytest.mark.parametrize("value", ["rings", "ring,bogus", "all,ring", "1"])
    def test_unknown_token_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PLANES", value)
        with pytest.raises(ValidationError, match="REPRO_PLANES"):
            FrameworkConfig()

    def test_explicit_flag_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANES", "all")
        assert not FrameworkConfig(enable_slo=False).enable_slo


class TestPipeline:
    def test_sensor_metrics_flow_to_tsdb(self, fw):
        fw.run_for(minutes(3))
        samples = fw.promql.query_instant(
            "avg(shasta_temperature_celsius)", fw.clock.now_ns
        )
        assert len(samples) == 1
        assert 20 < samples[0].value < 50

    def test_exporter_metrics_scraped(self, fw):
        fw.run_for(minutes(2))
        up = fw.promql.query_instant("sum(node_up)", fw.clock.now_ns)
        assert up[0].value == float(len(fw.cluster.nodes))

    def test_gpfs_metrics_flow(self, fw):
        fw.run_for(minutes(2))
        healthy = fw.promql.query_instant("gpfs_healthy", fw.clock.now_ns)
        assert len(healthy) == 2  # scratch + community

    def test_syslog_roundtrip(self, fw):
        fw.start()
        gen = SyslogGenerator(sorted(fw.cluster.nodes)[:4], seed=0)
        for g in gen.generate(20, fw.clock.now_ns, seconds(1)):
            fw.publish_syslog(g.labels, g.timestamp_ns, g.line)
        fw.run_for(minutes(1))
        logs = fw.logql.query_logs(
            '{data_type="syslog"}', 0, fw.clock.now_ns + minutes(1)
        )
        total = sum(len(entries) for _, entries in logs)
        assert total == 20

    def test_container_log_roundtrip(self, fw):
        fw.start()
        fw.publish_container_log(
            {"app": "telemetry-api", "data_type": "container_log"},
            fw.clock.now_ns,
            '{"level":"info","msg":"ok"}',
        )
        fw.run_for(minutes(1))
        logs = fw.logql.query_logs(
            '{data_type="container_log"} | json | level="info"',
            0,
            fw.clock.now_ns + 1,
        )
        assert logs

    def test_health_summary_keys(self, fw):
        fw.run_for(minutes(1))
        summary = fw.health_summary()
        assert summary["messages_ingested"] > 0
        assert set(summary) >= {
            "log_streams", "metric_series", "alert_events", "notifications",
        }

    def test_telemetry_api_balances_requests(self, fw):
        fw.run_for(minutes(2))
        counts = fw.telemetry_api.server_request_counts()
        assert len(counts) == 2
        assert abs(counts[0] - counts[1]) <= 1


class TestAlertingEndToEnd:
    def test_node_down_alert_and_incident(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(1))
        fw.run_for(minutes(10))
        assert any("NodeDown" in m.text for m in fw.slack.messages)
        incidents = [
            i for i in fw.servicenow.incidents() if str(node) in i.short_description
        ]
        assert incidents

    def test_gpfs_degraded_alert(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        fw.gpfs.set_degraded("scratch", True, fraction=0.5)
        fw.run_for(minutes(10))
        assert any("GpfsDegraded" in m.text for m in fw.slack.messages)

    def test_no_faults_no_critical_alerts(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.run_for(minutes(10))
        assert not any("CabinetLeak" in m.text for m in fw.slack.messages)
        assert not any("SwitchOffline" in m.text for m in fw.slack.messages)
        assert fw.servicenow.incidents() == []

    def test_alert_resolves_after_repair(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(
            FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1), duration_ns=minutes(5)
        )
        fw.run_for(minutes(25))
        assert any("RESOLVED" in m.text for m in fw.slack.messages)
        assert fw.ruler.firing_series() == []


class TestRemediation:
    def test_auto_remediation_resolves_incident(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        repaired = []

        def playbook(incident):
            for fault in fw.faults.active_faults():
                fw.faults.repair(fault)
                repaired.append(fault)
            return True

        remediator.register_playbook(
            "SwitchOffline", playbook, duration_ns=minutes(2)
        )
        remediator.run_periodic(minutes(1))
        sw = sorted(fw.cluster.switches)[0]
        fw.faults.schedule(FaultKind.SWITCH_OFFLINE, sw, delay_ns=minutes(1))
        fw.run_for(minutes(20))
        assert repaired
        resolved = fw.servicenow.incidents(IncidentState.RESOLVED)
        assert resolved
        assert resolved[0].assigned_to == "auto-remediation"
        assert remediator.success_rate() == 1.0
        assert fw.servicenow.mttr_ns() is not None

    def test_unmatched_incident_untouched(self, small_config):
        fw = MonitoringFramework(small_config)
        fw.start()
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        remediator.register_playbook("SomethingElse", lambda i: True)
        remediator.run_periodic(minutes(1))
        node = sorted(fw.cluster.nodes)[0]
        fw.faults.schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(1))
        fw.run_for(minutes(15))
        assert fw.servicenow.incidents(IncidentState.NEW)
        assert remediator.records == []

    def test_playbook_needs_pattern(self, small_config):
        fw = MonitoringFramework(small_config)
        remediator = AutoRemediator(fw.clock, fw.servicenow)
        with pytest.raises(ValidationError):
            remediator.register_playbook("", lambda i: True)
