"""Airport-report case study: deterministic mock components, a threat
injector, and the scripted end-to-end demo.

The composite service takes an airport IATA code, geocodes it, fetches
weather and local observations in parallel, plots the observations on a
map, and assembles a report. Two map providers compete for the map task;
a monitored DDoS threat on the active one triggers recomposition to the
other. All component behaviour is fixture-driven and pure, so two runs
with the same inputs are identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from . import bpmn
from .bus import Broker, EventType, Publisher
from .composition import CandidateRegistry, RankingCriteria, load_criteria, load_registry
from .errors import ComponentFault, NotFoundError, ValidationError, parse_json, read_text, reading
from .rules import AdaptationRule, load_rules
from .runtime import ComponentInvoker, DeployedService, EventKind, deploy, export_log_lines

FIXTURES_DIR = Path(__file__).parent / "fixtures"
DEMO_BUNDLE_DIR = FIXTURES_DIR / "demo_bundle"


# --- fixtures -------------------------------------------------------------------

@dataclass(frozen=True)
class Fixtures:
    airports: dict
    weather: dict
    observations: dict


def load_fixtures(root: Path | None = None) -> Fixtures:
    root = root or FIXTURES_DIR
    return Fixtures(*(
        parse_json(read_text(root / name, f"no such file: {root / name}"), name)
        for name in ("airports.json", "weather.json", "observations.json")
    ))


def _coord_key(coords: dict) -> str:
    return f"{coords['lat']},{coords['lon']}"


# --- mock component operations (pure, fixture-driven) ----------------------------

def geocode(fixtures: Fixtures, iata: str) -> dict:
    if not isinstance(iata, str) or len(iata) != 3 or not iata.isalpha():
        raise ValidationError(f"IATA code must be 3 letters, got {iata!r}")
    entry = fixtures.airports.get(iata.upper())
    if entry is None:
        raise NotFoundError(f"no airport fixture for IATA code {iata!r}")
    return {"lat": entry["lat"], "lon": entry["lon"]}


def weather(fixtures: Fixtures, coords: dict) -> dict:
    entry = fixtures.weather.get(_coord_key(coords))
    if entry is None:
        raise NotFoundError(f"no weather fixture at {_coord_key(coords)}")
    return dict(entry)


def observations(fixtures: Fixtures, coords: dict) -> list[dict]:
    entries = fixtures.observations.get(_coord_key(coords))
    if entries is None:
        raise NotFoundError(f"no observations fixture at {_coord_key(coords)}")
    return [dict(e) for e in entries]


def render_map(provider_id: str, coords: dict, obs: list[dict]) -> dict:
    """Structured plot descriptor stamped with the producing component's id;
    every observation must appear as a plotted point."""
    return {
        "providerId": provider_id,
        "center": {"lat": coords["lat"], "lon": coords["lon"]},
        "plottedPoints": [
            {"lat": o["lat"], "lon": o["lon"], "label": o["id"]} for o in obs
        ],
    }


@dataclass(frozen=True)
class AirportReport:
    iata: str
    coordinates: tuple[float, float]
    weather: dict
    observations: tuple[dict, ...]
    map_artifact: dict
    generated_at: float

    def to_record(self) -> dict:
        return {
            "iata": self.iata,
            "coordinates": {"lat": self.coordinates[0], "lon": self.coordinates[1]},
            "weather": dict(self.weather),
            "observations": [dict(o) for o in self.observations],
            "mapArtifact": dict(self.map_artifact),
            "generatedAt": self.generated_at,
        }


def build_report(
    iata: str,
    coords: dict,
    conditions: dict,
    obs: list[dict],
    map_artifact: dict,
    generated_at: float,
) -> AirportReport:
    return AirportReport(
        iata=iata.upper(),
        coordinates=(coords["lat"], coords["lon"]),
        weather=conditions,
        observations=tuple(obs),
        map_artifact=map_artifact,
        generated_at=generated_at,
    )


def reports_equivalent(a: AirportReport, b: AirportReport) -> bool:
    """Field-wise equality ignoring the map provider and timestamps."""
    ra, rb = a.to_record(), b.to_record()
    for rec in (ra, rb):
        rec.pop("generatedAt")
        rec["mapArtifact"] = {k: v for k, v in rec["mapArtifact"].items() if k != "providerId"}
    return ra == rb


# --- mock invoker ----------------------------------------------------------------

@dataclass(frozen=True)
class MockComponentConfig:
    component_id: str
    kind: str = "healthy"  # healthy | failWithError | delaySteps
    error_id: str | None = None
    steps: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("healthy", "failWithError", "delaySteps"):
            raise ValidationError(f"unknown mock behavior {self.kind!r}")
        if self.kind == "failWithError" and not self.error_id:
            raise ValidationError(f"mock {self.component_id!r} failWithError without an errorId")
        if self.steps < 0:
            raise ValidationError(f"mock {self.component_id!r} delaySteps must be >= 0")


def load_mocks(text: str) -> dict[str, MockComponentConfig]:
    raw = parse_json(text, "mocks file")
    configs: dict[str, MockComponentConfig] = {}
    with reading("mocks"):
        for comp_id, rec in raw.get("components", {}).items():
            behavior = rec.get("behavior", {"kind": "healthy"})
            configs[comp_id] = MockComponentConfig(
                component_id=comp_id,
                kind=behavior.get("kind", "healthy"),
                error_id=behavior.get("errorId"),
                steps=int(behavior.get("n", 0)),
            )
    return configs


class MockInvoker(ComponentInvoker):
    """Dispatches on operationRef; behaviour is configurable per component.
    A failWithError component raises a fault carrying its error id, which a
    boundary event with that errorRef can catch."""

    def __init__(
        self,
        fixtures: Fixtures,
        configs: dict[str, MockComponentConfig] | None = None,
        clock=None,
    ):
        self.fixtures = fixtures
        self.configs = dict(configs or {})
        self._clock = clock or time.time

    def set_behavior(self, config: MockComponentConfig) -> None:
        self.configs[config.component_id] = config

    def delay_steps(self, component_id: str, operation_ref: str) -> int:
        cfg = self.configs.get(component_id)
        return cfg.steps if cfg is not None and cfg.kind == "delaySteps" else 0

    def invoke(self, component_id: str, operation_ref: str, inputs: dict) -> object:
        cfg = self.configs.get(component_id)
        if cfg is not None and cfg.kind == "failWithError":
            raise ComponentFault(cfg.error_id)
        if operation_ref == "geocode":
            return geocode(self.fixtures, inputs["iata"])
        if operation_ref == "weather":
            return weather(self.fixtures, inputs["coords"])
        if operation_ref == "observations":
            return observations(self.fixtures, inputs["coords"])
        if operation_ref == "render-map":
            return render_map(component_id, inputs["coords"], inputs["observations"])
        if operation_ref == "build-report":
            return build_report(
                iata=inputs["iata"],
                coords=inputs["coords"],
                conditions=inputs["weather"],
                obs=inputs["observations"],
                map_artifact=inputs["map"],
                generated_at=self._clock(),
            )
        if operation_ref == "harden":
            return {"status": "hardened"}
        raise ValidationError(f"mock invoker has no operation {operation_ref!r}")


# --- threat injection --------------------------------------------------------------

def inject_threat(
    publisher: Publisher, component_id: str, threat_id: str, probability: float
) -> int:
    """Publish a ThreatLevelChange alert as a monitor would; returns the
    delivery count (0 with no subscribers is fine, best-effort)."""
    return publisher.publish(
        EventType.THREAT_LEVEL_CHANGE,
        component_id,
        probability=probability,
        threat_id=threat_id,
    )


# --- deployment bundle ---------------------------------------------------------------

@dataclass(frozen=True)
class Bundle:
    process: bpmn.ProcessModel
    registry: CandidateRegistry
    rules: tuple[AdaptationRule, ...]
    criteria: RankingCriteria
    mocks: dict
    aux: tuple[tuple[str, bpmn.ProcessModel, CandidateRegistry], ...] = ()


def load_bundle(path: Path | str) -> Bundle:
    root = Path(path)
    if not root.is_dir():
        raise NotFoundError(f"bundle directory {root} does not exist")

    aux_entries = []
    aux_dir = root / "aux"
    if aux_dir.is_dir():
        for proc_file in sorted(aux_dir.glob("*.bpmn")):
            missing = f"auxiliary process {proc_file.name} has no .registry file"
            registry = load_registry(read_text(proc_file.with_suffix(".registry"), missing))
            process = bpmn.parse_bpmn(read_text(proc_file, f"bundle is missing aux/{proc_file.name}"))
            aux_entries.append((proc_file.stem, process, registry))

    mocks_file = root / "mocks.json"
    mocks = load_mocks(read_text(mocks_file, "bundle is missing mocks.json")) if mocks_file.exists() else {}

    return Bundle(
        process=bpmn.parse_bpmn(read_text(root / "process.bpmn", "bundle is missing process.bpmn")),
        registry=load_registry(read_text(root / "components.registry", "bundle is missing components.registry")),
        rules=tuple(load_rules(read_text(root / "adaptation.rules", "bundle is missing adaptation.rules"))),
        criteria=load_criteria(read_text(root / "ranking.criteria", "bundle is missing ranking.criteria")),
        mocks=mocks,
        aux=tuple(aux_entries),
    )


# --- scripted demo -------------------------------------------------------------------

class StepClock:
    """Deterministic clock: starts at a fixed instant, advances by a fixed
    step per reading."""

    def __init__(self, start: float, step: float = 1.0):
        self._now = start
        self._step = step

    def __call__(self) -> float:
        now = self._now
        self._now += self._step
        return now


@dataclass(frozen=True)
class DemoResult:
    service: DeployedService
    reports: tuple[AirportReport, ...]
    instance_ids: tuple[str, ...]
    plan_ids: tuple[str, ...]  # active plan before and after recomposition
    actions: tuple[dict, ...]
    injected: dict

    def log_lines(self) -> str:
        return export_log_lines(self.service.merged_log())


def deploy_bundle(bundle: Bundle, broker: Broker, invoker: ComponentInvoker,
                  service_id: str, clock) -> DeployedService:
    """The auxiliary processes, then the main process with them attached."""
    aux = {
        name: deploy(aux_pm, aux_reg, rules=[], criteria=bundle.criteria, broker=broker,
                     invoker=invoker, service_id=name, clock=clock)
        for name, aux_pm, aux_reg in bundle.aux
    }
    return deploy(bundle.process, bundle.registry, rules=list(bundle.rules), criteria=bundle.criteria,
                  broker=broker, invoker=invoker, service_id=service_id, clock=clock, aux=aux)


def run_demo(seed: int = 7, iata: str = "FCO", bundle_dir: Path | str | None = None) -> DemoResult:
    """The scripted incident timeline: deploy, run one instance, watch the
    active map component get DDoS-flagged at probability 0.8, recompose, run
    a second instance, return both reports plus the full event log."""
    rng = random.Random(seed)
    clock = StepClock(start=1_000_000.0 + rng.randint(0, 999))
    bundle = load_bundle(bundle_dir or DEMO_BUNDLE_DIR)
    fixtures = load_fixtures()

    broker = Broker()
    invoker = MockInvoker(fixtures, bundle.mocks, clock=clock)
    svc = deploy_bundle(bundle, broker, invoker, "airport-report", clock)

    first_plan = svc.active_plan_id
    iid1 = svc.start_instance({"iata": iata})
    report1 = svc.instances[iid1].report["report"]

    monitor = Publisher(broker, "monitor-1", clock=clock)
    flagged = svc.active_plan().binding_for("task-map")
    inject_threat(monitor, flagged, "T-DDOS-COMP", 0.8)
    events_before = len(svc.event_log)
    svc.drain_notifications()
    actions = [
        e.detail for e in svc.event_log[events_before:] if e.kind is EventKind.ACTION_TAKEN
    ]

    second_plan = svc.active_plan_id
    iid2 = svc.start_instance({"iata": iata})
    report2 = svc.instances[iid2].report["report"]

    return DemoResult(
        service=svc,
        reports=(report1, report2),
        instance_ids=(iid1, iid2),
        plan_ids=(first_plan, second_plan),
        actions=tuple(actions),
        injected={
            "componentId": flagged,
            "threatId": "T-DDOS-COMP",
            "probability": 0.8,
        },
    )


def render_demo_text(result: DemoResult) -> str:
    """Human-readable demo transcript; the event log itself is line-JSON."""
    svc = result.service
    plans = svc.plans
    out = [
        f"service: {svc.service_id}",
        f"plans ({len(plans)}):",
    ]
    for p in plans:
        marker = "*" if p.plan_id == svc.active_plan_id else " "
        out.append(f"  {marker} {p.plan_id}  score={p.rank_score:.4f}")
    out.append(f"active plan before threat: {result.plan_ids[0]}")
    for iid, report in zip(result.instance_ids, result.reports):
        art = report.map_artifact
        out.append(
            f"instance {iid}: report for {report.iata} at "
            f"({report.coordinates[0]}, {report.coordinates[1]}), "
            f"map by {art['providerId']} with {len(art['plottedPoints'])} points"
        )
    inj = result.injected
    out.append(
        f"injected: {inj['threatId']} on {inj['componentId']} "
        f"at probability {inj['probability']}"
    )
    for action in result.actions:
        out.append(f"action: {json.dumps(action, sort_keys=True)}")
    out.append(f"active plan after threat: {result.plan_ids[1]}")
    out.append("event log:")
    out.append(result.log_lines().rstrip("\n"))
    return "\n".join(out) + "\n"
