"""What an optional plane hands the framework.

The paper's pipeline (Redfish/sensors/syslog → bus → Loki + TSDB →
Ruler/vmalert → Alertmanager → Slack/ServiceNow) is wired in
:mod:`repro.core.framework`.  Every optional plane on top of it keeps its
wiring in one ``repro/<package>/plane.py`` exporting a :class:`Plane`:
which config flag turns it on, its config checks, what it builds at each
of the framework's three construction points, its scrape target, route,
rules, dashboard, periodic work and health figures.  The framework walks
its ``PLANES`` tuple at each hook and skips the planes that are off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.alerting.alertmanager import Route
from repro.common.labels import Matcher, MatchOp

if TYPE_CHECKING:
    from repro.core.framework import FrameworkConfig, MonitoringFramework
    from repro.grafana.dashboard import Dashboard
    from repro.grafana.datasource import PrometheusDatasource

    Hook = Callable[[MonitoringFramework], None]


def _nothing(_: Any) -> None:
    return None


@dataclass(frozen=True)
class Plane:
    """One optional plane's wiring.  Every hook but ``check`` receives the
    framework under construction and reads or sets its attributes."""

    #: The ``FrameworkConfig`` field that turns the plane on.
    flag: str
    #: The plane's name in the ``REPRO_PLANES`` environment variable.
    token: str
    #: Further flags the plane needs; without them it stays off.
    requires: tuple[str, ...] = ()
    #: Non-interval config checks (intervals are checked for every field).
    check: Callable[[FrameworkConfig], None] = _nothing
    #: Construction before the warehouse (log backends, admission, miners).
    build_stores: Hook = _nothing
    #: Construction once the warehouse and its engines exist.
    build: Hook = _nothing
    #: Construction once Alertmanager and the rule evaluators exist.
    build_alerting: Hook = _nothing
    #: vmagent scrape target: (job, instance, exporter attribute on fw).
    target: tuple[str, str, str] | None = None
    #: Child route placed ahead of the catch-all Slack route.
    route: Callable[[FrameworkConfig], Route] | None = None
    #: Default alerting rules (skipped with ``install_default_rules=False``).
    rules: Hook = _nothing
    #: The plane's dashboard and its key in ``fw.dashboards``.
    dashboard: (
        Callable[[MonitoringFramework, PrometheusDatasource], tuple[str, Dashboard]]
        | None
    ) = None
    #: Periodic work, registered on the clock by ``fw.start()``.
    start: Hook = _nothing
    #: Figures merged into ``fw.health_summary()``.
    health: Callable[[MonitoringFramework], dict[str, float]] | None = None

    def on(self, cfg: FrameworkConfig) -> bool:
        return all(getattr(cfg, f) for f in (self.flag, *self.requires))


def route(
    cfg: FrameworkConfig,
    receiver: str,
    *matchers: Matcher,
    group_by: tuple[str, ...] = ("alertname", "cluster"),
    **kwargs: Any,
) -> Route:
    """An Alertmanager route on the configured group timings."""
    return Route(
        receiver=receiver,
        matchers=matchers,
        group_by=group_by,
        group_wait=cfg.group_wait,
        group_interval=cfg.group_interval,
        repeat_interval=cfg.repeat_interval,
        **kwargs,
    )


def category_route(cfg: FrameworkConfig, category: str, key: str) -> Route:
    """Slack route for one alert category, grouped per ``key`` value."""
    return route(
        cfg,
        "slack",
        Matcher("category", MatchOp.EQ, category),
        group_by=("alertname", key, "cluster"),
    )
