"""SLO evaluation + the alert-rule engine on the simulated clock."""

import pytest

from repro.cluster.config import ClusterPolicy, QueueConfig, TenantConfig
from repro.cluster.traffic import TrafficProfile, sample_profile
from repro.obs import EventBus
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    ClusterMonitor,
    burn_rate_rules,
    render_alert_timeline,
)
from repro.obs.slo import (
    SloConfig,
    burn_rate,
    evaluate_slo,
    evaluate_slos,
    render_slo_table,
)
from repro.obs.tsdb import TimeSeriesStore


SLO = SloConfig(
    name="t-latency", tenant="t", objective=0.9, latency=0.2, window=1.0
)


def _store_with(latencies=(), failed=0, shed=0, rejected=0, t0=0.0):
    store = TimeSeriesStore(step=0.05)
    t = t0
    for latency in latencies:
        store.record("hist", "cluster.job.latency", t, latency, tenant="t")
        t += 0.05
    for series, count in (
        ("cluster.jobs.failed", failed),
        ("cluster.jobs.shed", shed),
        ("cluster.jobs.rejected", rejected),
    ):
        for _ in range(count):
            store.record("counter", series, t, 1.0, tenant="t")
            t += 0.05
    return store, t


# -- SLO declarations --------------------------------------------------------


def test_slo_config_validates():
    with pytest.raises(ValueError, match="objective"):
        SloConfig(name="x", tenant="t", objective=1.0, latency=1, window=1)
    with pytest.raises(ValueError, match="latency"):
        SloConfig(name="x", tenant="t", objective=0.9, latency=0, window=1)
    with pytest.raises(ValueError, match="window"):
        SloConfig(name="x", tenant="t", objective=0.9, latency=1, window=0)
    with pytest.raises(ValueError, match="needs a name"):
        SloConfig(name="", tenant="t", objective=0.9, latency=1, window=1)


def test_slo_error_budget_and_round_trip():
    assert SLO.error_budget == pytest.approx(0.1)
    assert SloConfig.from_dict(SLO.to_dict()) == SLO
    # tenant defaults from context, name auto-derives
    derived = SloConfig.from_dict(
        {"objective": 0.9, "latency": 0.2, "window": 1.0}, tenant="web"
    )
    assert derived.tenant == "web"
    assert derived.name == "web-latency"


def test_evaluate_slo_math():
    # 8 good, 1 slow, 1 failure: compliance 8/10, burn 2.0 vs 0.1 budget
    store, t = _store_with(latencies=[0.1] * 8 + [0.5], failed=1)
    status = evaluate_slo(store, SLO, at=t)
    assert status.total == 10
    assert status.good == 8
    assert status.bad == 2
    assert status.compliance == pytest.approx(0.8)
    assert status.burn_rate == pytest.approx(0.2 / 0.1)
    assert status.budget_remaining == 0.0
    assert not status.healthy


def test_evaluate_slo_counts_all_error_families():
    store, t = _store_with(latencies=[0.1], shed=1, rejected=1, failed=1)
    status = evaluate_slo(store, SLO, at=t)
    assert status.total == 4
    assert status.bad == 3


def test_evaluate_slo_idle_is_healthy():
    store = TimeSeriesStore()
    status = evaluate_slo(store, SLO, at=1.0)
    assert status.total == 0
    assert status.healthy
    assert status.burn_rate == 0.0
    assert status.budget_remaining == 1.0


def test_window_excludes_old_samples():
    store, _ = _store_with(latencies=[5.0] * 4)  # all bad, near t=0
    # far in the future the bad samples age out of the 1s window
    status = evaluate_slo(store, SLO, at=10.0)
    assert status.total == 0
    assert status.healthy


def test_burn_rate_over_custom_window():
    store, t = _store_with(latencies=[5.0] * 10)
    assert burn_rate(store, SLO, window=1.0, at=t) == pytest.approx(10.0)
    assert burn_rate(store, SLO, window=1.0, at=t + 50.0) == 0.0


def test_render_slo_table_marks_breach():
    store, t = _store_with(latencies=[5.0] * 10)
    text = render_slo_table(evaluate_slos(store, [SLO], at=t))
    assert "BREACH" in text
    assert "t-latency" in text


# -- alert rules -------------------------------------------------------------


def test_alert_rule_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        AlertRule(name="x", kind="nope")
    with pytest.raises(ValueError, match="needs a series"):
        AlertRule(name="x", kind="static")
    with pytest.raises(ValueError, match="needs an slo"):
        AlertRule(name="x", kind="burn_rate")
    with pytest.raises(ValueError, match="unknown reduce"):
        AlertRule(name="x", kind="static", series="s", reduce="median")
    with pytest.raises(ValueError, match="unknown op"):
        AlertRule(name="x", kind="static", series="s", op="!=")


def test_alert_rule_round_trip_emits_only_relevant_keys():
    static = AlertRule(
        name="s", kind="static", series="cluster.events",
        labels={"kind": "admission.reject"}, window=0.25,
        reduce="sum", op=">=", threshold=1.0, for_seconds=0.1,
    )
    assert AlertRule.from_dict(static.to_dict()) == static
    assert "slo" not in static.to_dict()
    burn = AlertRule(name="b", kind="burn_rate", slo="x", factor=4.0)
    assert AlertRule.from_dict(burn.to_dict()) == burn
    assert "series" not in burn.to_dict()
    assert "threshold" not in burn.to_dict()
    absence = AlertRule(name="a", kind="absence", series="s", window=0.5)
    assert AlertRule.from_dict(absence.to_dict()) == absence


def test_burn_rate_rules_pair():
    fast, slow = burn_rate_rules(SLO, step=0.05)
    assert fast.kind == slow.kind == "burn_rate"
    assert fast.slo == slow.slo == SLO.name
    assert fast.factor > slow.factor
    assert fast.window < slow.window
    assert slow.for_seconds > 0


# -- the engine lifecycle ----------------------------------------------------


def _static_engine(rule, bus=None):
    store = TimeSeriesStore(step=0.05)
    return store, AlertEngine(store, [rule], bus=bus)


def test_static_rule_fires_and_resolves():
    rule = AlertRule(
        name="rejects", kind="static", series="rej", window=0.1,
        reduce="sum", op=">=", threshold=2.0,
    )
    store, engine = _static_engine(rule)
    store.record("counter", "rej", 0.01, 1.0)
    engine.evaluate(0.05)
    assert engine.firing() == []
    store.record("counter", "rej", 0.06, 1.0)
    engine.evaluate(0.1)
    assert engine.firing() == ["rejects"]
    engine.evaluate(1.0)  # window empty again
    assert engine.firing() == []
    transitions = [(a["transition"]) for a in store.alerts]
    assert transitions == ["firing", "resolved"]


def test_for_seconds_dwell_walks_pending_then_firing():
    rule = AlertRule(
        name="slow", kind="static", series="x", window=10.0,
        reduce="sum", op=">", threshold=0.5, for_seconds=0.1,
    )
    store, engine = _static_engine(rule)
    store.record("counter", "x", 0.0, 1.0)
    engine.evaluate(0.05)
    assert engine.pending() == ["slow"]
    engine.evaluate(0.1)
    assert engine.pending() == ["slow"]  # 0.05 elapsed < 0.1
    engine.evaluate(0.2)
    assert engine.firing() == ["slow"]
    transitions = [a["transition"] for a in store.alerts]
    assert transitions == ["pending", "firing"]


def test_pending_that_clears_resolves_without_firing():
    rule = AlertRule(
        name="blip", kind="static", series="x", window=0.1,
        reduce="sum", op=">", threshold=0.5, for_seconds=1.0,
    )
    store, engine = _static_engine(rule)
    store.record("counter", "x", 0.0, 1.0)
    engine.evaluate(0.05)
    assert engine.pending() == ["blip"]
    engine.evaluate(5.0)  # condition gone before the dwell elapsed
    assert engine.pending() == []
    assert engine.firing() == []
    assert [a["transition"] for a in store.alerts] == ["pending", "resolved"]


def test_absence_rule_fires_on_silence():
    rule = AlertRule(name="dead", kind="absence", series="beat", window=0.3)
    store = TimeSeriesStore(step=0.05)
    engine = AlertEngine(store, [rule])
    store.record("counter", "beat", 0.1, 1.0)
    engine.evaluate(0.3)
    assert engine.firing() == []
    engine.evaluate(0.5)  # 0.4s of silence > 0.3 window
    assert engine.firing() == ["dead"]
    store.record("counter", "beat", 0.55, 1.0)
    engine.evaluate(0.6)
    assert engine.firing() == []


def test_static_reducers():
    store = TimeSeriesStore(step=0.05)
    store.record("gauge", "depth", 0.02, 9.0)
    store.record("hist", "lat", 0.02, 0.5)
    store.record("hist", "lat", 0.03, 0.7)
    store.record("counter", "err", 0.02, 1.0)
    store.record("counter", "err", 0.07, 3.0)
    last = AlertRule(
        name="g", kind="static", series="depth", window=1.0,
        reduce="last", op=">=", threshold=9.0,
    )
    count = AlertRule(
        name="n", kind="static", series="lat", window=1.0,
        reduce="count", op=">=", threshold=2.0,
    )
    # max reduces per-bucket values: counter sums of 1.0 then 3.0
    biggest = AlertRule(
        name="m", kind="static", series="err", window=1.0,
        reduce="max", op=">", threshold=2.5,
    )
    engine = AlertEngine(store, [last, count, biggest])
    engine.evaluate(0.5)
    assert engine.firing() == ["g", "m", "n"]


def test_burn_rate_needs_both_windows():
    """Long-window burn without short-window burn must not fire."""
    slo = SloConfig(
        name="s", tenant="t", objective=0.9, latency=0.2, window=2.0
    )
    rule = AlertRule(
        name="mw", kind="burn_rate", slo="s", factor=2.0,
        window=2.0, short_window=0.2,
    )
    store = TimeSeriesStore(step=0.05)
    # bad jobs early, then a recovery: long window still burns, short
    # window is clean
    for i in range(10):
        store.record(
            "hist", "cluster.job.latency", i * 0.05, 5.0, tenant="t"
        )
    for i in range(10):
        store.record(
            "hist", "cluster.job.latency", 1.0 + i * 0.02, 0.01, tenant="t"
        )
    engine = AlertEngine(store, [rule], slos=[slo])
    engine.evaluate(1.2)
    assert engine.firing() == []
    # during the burn, both windows agree
    engine2 = AlertEngine(store, [rule], slos=[slo])
    engine2.evaluate(0.5)
    assert engine2.firing() == ["mw"]


def test_engine_rejects_unknown_slo_reference():
    store = TimeSeriesStore()
    rule = AlertRule(name="x", kind="burn_rate", slo="ghost")
    with pytest.raises(ValueError, match="unknown slo"):
        AlertEngine(store, [rule])


def test_observe_watermark_evaluates_each_crossed_boundary():
    rule = AlertRule(
        name="r", kind="static", series="x", window=0.05,
        reduce="sum", op=">", threshold=0.5,
    )
    store, engine = _static_engine(rule)
    store.record("counter", "x", 0.12, 1.0)
    engine.observe_watermark(0.12)   # first observation: one eval
    engine.observe_watermark(0.13)   # same bucket: no new eval
    store.record("counter", "x", 0.31, 1.0)
    engine.observe_watermark(0.31)   # crosses 0.15..0.30: catch-up evals
    transitions = [(a["t"], a["transition"]) for a in store.alerts]
    assert (0.1, "firing") in transitions
    # the 0.12 hit aged out of the tiny window by 0.2
    assert any(
        t > 0.1 and tr == "resolved" for t, tr in transitions
    )


def test_alert_events_emitted_on_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(e.kind))
    rule = AlertRule(
        name="r", kind="static", series="x", window=1.0,
        reduce="sum", op=">", threshold=0.5,
    )
    store, engine = _static_engine(rule, bus=bus)
    store.record("counter", "x", 0.0, 1.0)
    engine.evaluate(0.05)
    assert "alert.firing" in seen


def test_render_alert_timeline():
    entries = [
        {"t": 0.5, "alert": "a", "transition": "firing", "kind": "static",
         "value": 3.0, "threshold": 1.0},
    ]
    text = render_alert_timeline(entries)
    assert "firing" in text and "threshold=1.0" in text
    assert render_alert_timeline([]) == "(no alert transitions recorded)"


# -- ClusterMonitor ----------------------------------------------------------


def test_for_policy_expands_slos_and_keeps_extra_rules():
    policy = sample_profile().cluster_policy()
    monitor = ClusterMonitor.for_policy(policy)
    names = {rule.name for rule in monitor.rules}
    assert "etl-latency-fast-burn" in names
    assert "etl-latency-slow-burn" in names
    assert "admission-rejects" in names
    assert monitor.store.meta["slos"]  # declarations ride in the meta


def test_monitor_finish_is_idempotent_and_freezes_statuses():
    bus = EventBus()
    finals = []
    bus.subscribe(
        lambda e: finals.append(e.attrs)
        if e.kind == "slo.status" and e.attrs.get("final") else None
    )
    monitor = ClusterMonitor(slos=[SLO]).attach(bus)
    bus.emit("job.finish", sim_time=0.3, tenant="t",
             outcome="completed", latency=0.1)
    bus.emit("cluster.finish", sim_time=0.5, utilization=0.5)
    assert monitor.finished
    assert len(finals) == 1
    assert monitor.store.statuses[0]["slo"] == "t-latency"
    monitor.finish(0.9)  # second call is a no-op
    assert len(monitor.store.statuses) == 1


def test_monitor_ignores_its_own_lifecycle_events():
    bus = EventBus()
    monitor = ClusterMonitor(slos=[SLO]).attach(bus)
    bus.emit("alert.firing", sim_time=0.1, alert="x")
    bus.emit("slo.status", sim_time=0.1, slo="y")
    assert len(monitor.store) == 0


def test_slo_status_emitted_only_on_health_transitions():
    bus = EventBus()
    statuses = []
    bus.subscribe(
        lambda e: statuses.append(e.attrs)
        if e.kind == "slo.status" else None
    )
    monitor = ClusterMonitor(slos=[SLO]).attach(bus)
    for i in range(4):  # healthy, stays healthy: one initial emit only
        bus.emit("job.finish", sim_time=0.1 + i * 0.1, tenant="t",
                 outcome="completed", latency=0.05)
    non_final = [s for s in statuses if not s.get("final")]
    assert len(non_final) == 1
    # now breach: exactly one transition event
    for i in range(20):
        bus.emit("job.finish", sim_time=0.5 + i * 0.01, tenant="t",
                 outcome="completed", latency=5.0)
    non_final = [s for s in statuses if not s.get("final")]
    assert len(non_final) == 2
    assert non_final[-1]["healthy"] is False


# -- policy / profile plumbing ----------------------------------------------


def _policy(**kwargs):
    return ClusterPolicy(
        queues=[QueueConfig("q", 1.0)],
        tenants=[TenantConfig("t", "q")],
        **kwargs,
    )


def test_policy_validates_slo_tenants_and_rule_references():
    with pytest.raises(ValueError, match="unknown tenant"):
        _policy(slos=[SloConfig(
            name="x", tenant="ghost", objective=0.9, latency=1, window=1,
        )])
    with pytest.raises(ValueError, match="duplicate slo"):
        _policy(slos=[SLO, SLO])
    with pytest.raises(ValueError, match="unknown slo"):
        _policy(alerts=[AlertRule(name="x", kind="burn_rate", slo="ghost")])


def test_profile_names_slos_and_alerts_only_when_declared():
    from repro.cluster.traffic import TrafficTenant

    # journals written before the monitoring layer landed stay stable:
    # the keys only appear when declared
    bare = TrafficProfile(
        queues=[QueueConfig("q", 1.0)],
        tenants=[TrafficTenant(name="t", queue="q", rate=1.0)],
    ).to_dict()
    assert "alerts" not in bare
    assert "slo" not in bare["tenants"][0]


def test_profile_round_trip_with_slos_and_alerts():
    profile = sample_profile()
    rebuilt = TrafficProfile.from_dict(profile.to_dict())
    assert rebuilt.to_dict() == profile.to_dict()
    assert [t.slo for t in rebuilt.tenants] == [
        t.slo for t in profile.tenants
    ]
    assert rebuilt.alerts == profile.alerts


def test_tenant_slo_is_renamed_to_its_tenant():
    from repro.cluster.traffic import TrafficTenant

    tenant = TrafficTenant(
        name="web", queue="q", rate=1.0,
        slo=SloConfig(
            name="x", tenant="other", objective=0.9, latency=1, window=1,
        ),
    )
    assert tenant.slo.tenant == "web"
