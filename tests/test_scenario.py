import json
import shutil

import pytest

from threatflow import scenario
from threatflow.bus import Broker, EventType, Publisher, Subscription
from threatflow.errors import ComponentFault, NotFoundError, ParseError, ValidationError
from threatflow.runtime import EventKind, Outcome
from threatflow.scenario import (
    DEMO_BUNDLE_DIR,
    MockComponentConfig,
    MockInvoker,
    StepClock,
    build_report,
    geocode,
    inject_threat,
    load_bundle,
    load_fixtures,
    render_map,
    reports_equivalent,
    run_demo,
)


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


def test_geocode_known_airport(fixtures):
    coords = geocode(fixtures, "FCO")
    assert coords == {"lat": 41.8003, "lon": 12.2389}
    assert geocode(fixtures, "fco") == coords  # case-insensitive lookup


def test_geocode_rejects_bad_codes(fixtures):
    with pytest.raises(ValidationError):
        geocode(fixtures, "TOOLONG")
    with pytest.raises(NotFoundError):
        geocode(fixtures, "ZZZ")


def test_render_map_stamps_provider_and_plots_all_observations(fixtures):
    coords = geocode(fixtures, "FCO")
    obs = scenario.observations(fixtures, coords)
    art = render_map("mapA", coords, obs)
    assert art["providerId"] == "mapA"
    assert art["center"] == coords
    assert len(art["plottedPoints"]) == len(obs) == 3
    assert {p["label"] for p in art["plottedPoints"]} == {o["id"] for o in obs}


def test_reports_equivalent_ignores_provider_and_timestamp(fixtures):
    coords = geocode(fixtures, "FCO")
    conditions = scenario.weather(fixtures, coords)
    obs = scenario.observations(fixtures, coords)
    a = build_report("FCO", coords, conditions, obs, render_map("mapA", coords, obs), 1.0)
    b = build_report("FCO", coords, conditions, obs, render_map("mapB", coords, obs), 2.0)
    assert reports_equivalent(a, b)
    c = build_report("LHR", geocode(fixtures, "LHR"), conditions, obs,
                     render_map("mapA", coords, obs), 1.0)
    assert not reports_equivalent(a, c)


def test_mock_invoker_dispatch_and_fault(fixtures):
    invoker = MockInvoker(fixtures, clock=StepClock(10.0))
    coords = invoker.invoke("geo-1", "geocode", {"iata": "OSL"})
    assert coords["lat"] == 60.1976
    report = invoker.invoke(
        "report-1",
        "build-report",
        {
            "iata": "OSL",
            "coords": coords,
            "weather": invoker.invoke("weather-1", "weather", {"coords": coords}),
            "observations": invoker.invoke("obs-1", "observations", {"coords": coords}),
            "map": invoker.invoke("mapA", "render-map", {
                "coords": coords,
                "observations": invoker.invoke("obs-1", "observations", {"coords": coords}),
            }),
        },
    )
    assert report.iata == "OSL"
    assert report.generated_at == 10.0

    invoker.set_behavior(MockComponentConfig("mapA", kind="failWithError", error_id="T-X"))
    with pytest.raises(ComponentFault) as exc:
        invoker.invoke("mapA", "render-map", {"coords": coords, "observations": []})
    assert exc.value.error_id == "T-X"
    with pytest.raises(ValidationError):
        invoker.invoke("geo-1", "no-such-op", {})


def test_mock_config_validation():
    with pytest.raises(ValidationError):
        MockComponentConfig("c", kind="explode").validate()
    with pytest.raises(ValidationError):
        MockComponentConfig("c", kind="failWithError").validate()
    MockComponentConfig("c", kind="delaySteps", steps=3).validate()


def test_inject_threat_validates_probability():
    pub = Publisher(Broker(), "monitor-1", clock=lambda: 1.0)
    with pytest.raises(ValidationError):
        inject_threat(pub, "mapA", "T-X", 1.5)
    assert inject_threat(pub, "mapA", "T-X", 0.5) == 0  # no subscribers yet


def test_bundle_loads_demo_assets():
    bundle = load_bundle(DEMO_BUNDLE_DIR)
    assert bundle.process.id == "airport-report"
    assert len(bundle.process.service_tasks()) == 5
    assert len(bundle.registry.candidates("task-map")) == 2
    assert [r.rule_id for r in bundle.rules] == ["r-ddos-map"]
    assert bundle.aux and bundle.aux[0][0] == "hardening"
    with pytest.raises(NotFoundError):
        load_bundle("/no/such/bundle")


def test_step_clock_is_monotonic():
    clock = StepClock(5.0, step=2.0)
    assert [clock(), clock(), clock()] == [5.0, 7.0, 9.0]


def test_demo_reaches_recomposition():
    result = run_demo(seed=7)
    assert result.plan_ids[0] != result.plan_ids[1]
    assert result.reports[0].map_artifact["providerId"] == "mapA"
    assert result.reports[1].map_artifact["providerId"] == "mapB"
    assert reports_equivalent(*result.reports)
    assert result.injected["componentId"] == "mapA"
    assert [a["action"] for a in result.actions] == ["recompose"]
    assert all(
        svc_inst.outcome is Outcome.COMPLETED
        for svc_inst in result.service.instances.values()
    )


def test_demo_other_airport():
    result = run_demo(seed=7, iata="LHR")
    assert result.reports[0].iata == "LHR"
    assert reports_equivalent(*result.reports)


def test_demo_render_text_mentions_key_milestones():
    result = run_demo(seed=7)
    text = scenario.render_demo_text(result)
    assert "plans (2):" in text
    assert "injected: T-DDOS-COMP on mapA at probability 0.8" in text
    assert '"action": "recompose"' in text
    assert "event log:" in text
    # the log section is line-delimited JSON
    log_start = text.index("event log:\n") + len("event log:\n")
    for line in text[log_start:].strip().split("\n"):
        json.loads(line)


def test_demo_process_has_expected_shape():
    from threatflow import bpmn

    bundle = load_bundle(DEMO_BUNDLE_DIR)
    pm = bundle.process
    tasks = [t.id for t in pm.service_tasks()]
    assert len(tasks) == 5
    gateways = [n for n in pm.nodes if isinstance(n, bpmn.ParallelGateway)]
    directions = {g.direction for g in gateways}
    assert len(gateways) == 2 and directions == {
        bpmn.GatewayDirection.FORK,
        bpmn.GatewayDirection.JOIN,
    }
    assert bpmn.list_threat_refs(pm) == {("task-map", "T-DDOS-COMP")}


def test_demo_first_instance_completes_all_five_tasks():
    result = run_demo(seed=7)
    first = result.instance_ids[0]
    inst = result.service.instances[first]
    done = [e for e in inst.event_log if e.kind is EventKind.TASK_COMPLETED]
    assert len(done) == 5
    order = [e.detail["task"] for e in done]
    assert order[0] == "task-geocode"
    assert order[-1] == "task-report"
    assert {"task-weather", "task-obs"} == set(order[1:3])
    assert order[3] == "task-map"


def test_geocode_is_pure(fixtures):
    assert geocode(fixtures, "FCO") == geocode(fixtures, "FCO")
    assert geocode(fixtures, "fco") == geocode(fixtures, "FCO")


def test_inject_accepts_probability_one():
    broker = Broker()
    broker.subscribe(Subscription("probe", "threat-level-change.*"))
    monitor = Publisher(broker, "monitor-1", clock=iter(range(100, 200)).__next__)
    count = inject_threat(monitor, component_id="mapA", threat_id="T-DDOS-COMP", probability=1.0)
    assert count == 1
    assert broker.poll("probe").payload.probability == 1.0


def test_launch_runs_bundled_hardening_process():
    result = run_demo(seed=7)
    svc = result.service
    iid = svc.act_launch("hardening")
    assert iid is not None
    assert svc.aux["hardening"].instances[iid].outcome is Outcome.COMPLETED
    launched = [e for e in svc.event_log if e.kind is EventKind.ACTION_TAKEN
                and e.detail.get("action") == "launchProcess"]
    assert launched and launched[-1].detail["result"] == f"started:{iid}"


@pytest.mark.parametrize("text", [
    "[]",
    json.dumps({"components": []}),
    json.dumps({"components": {"mapA": {"behavior": {"kind": "delaySteps", "n": "x"}}}}),
], ids=["not-an-object", "components-list", "steps-text"])
def test_malformed_mocks_raise_validation_error(text):
    with pytest.raises(ValidationError):
        scenario.load_mocks(text)


@pytest.mark.parametrize("name", ["process.bpmn", "adaptation.rules", "aux/hardening.registry"])
def test_bundle_file_that_is_not_utf8_raises_parse_error(tmp_path, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(DEMO_BUNDLE_DIR, bundle)
    (bundle / name).write_bytes((bundle / name).read_bytes() + b"\xff")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_bundle(bundle)
