"""Seeded inputs for the benchmark, built without the program's own code.

Every input is plain data or text: a process spec that this module writes
out as BPMN XML, a candidate table written as a `.registry` document, rules
written as a `.rules` document, and a bystander subscription table. The
seed changes names, threat ids, probabilities and the order of things,
never the sizes or the score structure, so every seed asks the program for
the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
EXT_NS = "urn:x-threatflow:bpmn"
TLC = "threat-level-change"
THRESHOLD = 0.5
REQUIRED_INPUT = "request"

# event-type topic segments bystanders listen to besides threat-level-change
OTHER_TYPES = ("trustworthiness-change", "contract-violation", "context-change", "component-change")


@dataclass(frozen=True)
class Candidate:
    id: str
    provider: str
    trust: float
    qos: float
    cost: float


@dataclass(frozen=True)
class TaskSpec:
    id: str
    name: str
    operation_ref: str
    input_vars: tuple[str, ...]
    output_var: str
    threats: tuple[str, ...]


@dataclass(frozen=True)
class ServiceSpec:
    process_id: str
    tasks: tuple[TaskSpec, ...]
    fork_at: int  # tasks fork_at + 1 and fork_at + 2 run between a fork and a join
    candidates: dict[str, tuple[Candidate, ...]]
    weights: tuple[float, float, float]  # trust, qos, cost

    def plan_count(self) -> int:
        count = 1
        for t in self.tasks:
            count *= len(self.candidates[t.id])
        return count


def score_table(candidate_counts: list[int]) -> tuple[list[list[tuple[float, float, float]]], tuple]:
    """(trust, qos, cost) rows, one per task, and the ranking weights, drawn
    from a generator that does not depend on the seed. How far the best
    candidate of a task leads the others decides how many plans a recompose
    skips, which is most of its cost; with one table for every seed the
    seed moves that cost between tasks but never changes it."""
    table = random.Random(f"score-table:{candidate_counts}")
    rows = [
        [(round(table.uniform(0.3, 1.0), 3), round(table.uniform(0.3, 1.0), 3), round(table.uniform(0.5, 5.0), 2))
         for _ in range(count)]
        for count in candidate_counts
    ]
    weights = (round(table.uniform(0.3, 0.7), 2), round(table.uniform(0.1, 0.4), 2), round(table.uniform(0.05, 0.3), 2))
    return rows, weights


def make_service(rng: random.Random, candidate_counts: list[int], tag: str) -> ServiceSpec:
    """A model with len(candidate_counts) tasks, one fork/join around two of
    them, and one or two threats per task. The seed shuffles which task gets
    which row of the score table, so the plan space and the score structure
    are the same for every seed."""
    rows, weights = score_table(candidate_counts)
    rng.shuffle(rows)
    n = len(rows)
    fork_at = rng.randrange(1, n - 2)
    words = ("geo", "wx", "obs", "map", "rep", "auth", "pay", "log", "cache", "route", "sign", "feed", "tile")
    names = rng.sample(words, k=n) if n <= len(words) else [f"w{i}" for i in range(n)]
    task_ids = [f"{tag}-t{i:02d}-{names[i]}" for i in range(n)]
    tasks = []
    for i, tid in enumerate(task_ids):
        if i == 0:
            inputs = (REQUIRED_INPUT,)
        elif i == fork_at + 2:
            inputs = (f"out{i - 2}",)  # both parallel tasks read the task before the fork
        elif i == fork_at + 3:
            inputs = (f"out{i - 2}", f"out{i - 1}")
        else:
            inputs = (f"out{i - 1}",)
        threats = tuple(
            f"T-{tag.upper()}-{rng.randrange(10**6):06d}-{k}" for k in range(1 + i % 2)
        )
        tasks.append(TaskSpec(tid, f"Task {names[i]}", f"op-{names[i]}", inputs, f"out{i}", threats))
    candidates = {
        t.id: tuple(
            Candidate(id=f"{t.id}-c{j}", provider=f"prov-{rng.randrange(1000)}", trust=trust, qos=qos, cost=cost)
            for j, (trust, qos, cost) in enumerate(rows[i])
        )
        for i, t in enumerate(tasks)
    }
    return ServiceSpec(f"{tag}-process", tuple(tasks), fork_at, candidates, weights)


# --- the spec as the parser should see it --------------------------------------------

def expected_nodes(spec: ServiceSpec) -> set[tuple]:
    """Each node as (kind, fields...), the form `canonical_model` produces."""
    nodes: set[tuple] = {("StartEvent", "start"), ("EndEvent", "end")}
    nodes.add(("ParallelGateway", "fork", "fork"))
    nodes.add(("ParallelGateway", "join", "join"))
    for t in spec.tasks:
        nodes.add(("ServiceTask", t.id, t.name, t.operation_ref, t.input_vars, t.output_var))
        for threat in t.threats:
            nodes.add(("ErrorBoundaryEvent", f"b-{t.id}-{threat}", t.id, threat, "end"))
    return nodes


def expected_flows(spec: ServiceSpec) -> set[tuple[str, str, str, str]]:
    """Each sequence flow as ("SequenceFlow", id, source, target)."""
    ids = [t.id for t in spec.tasks]
    k = spec.fork_at
    edges = [("start", ids[0])]
    edges += [(ids[i], ids[i + 1]) for i in range(k)]
    edges += [(ids[k], "fork"), ("fork", ids[k + 1]), ("fork", ids[k + 2])]
    edges += [(ids[k + 1], "join"), (ids[k + 2], "join")]
    if k + 3 < len(ids):
        edges.append(("join", ids[k + 3]))
        edges += [(ids[i], ids[i + 1]) for i in range(k + 3, len(ids) - 1)]
        edges.append((ids[-1], "end"))
    else:
        edges.append(("join", "end"))
    return {("SequenceFlow", f"f{i:03d}", src, dst) for i, (src, dst) in enumerate(sorted(edges))}


def expected_errors(spec: ServiceSpec) -> set[tuple[str, str, str]]:
    return {("ErrorDecl", threat, f"Threat {threat}") for t in spec.tasks for threat in t.threats}


def bpmn_text(spec: ServiceSpec) -> str:
    """The spec as BPMN 2.0 XML. Boundary events name no handler flow, so the
    parser routes them to the single end event."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<definitions xmlns="{BPMN_NS}" xmlns:ext="{EXT_NS}" targetNamespace="urn:bench">',
    ]
    for _, threat, name in sorted(expected_errors(spec)):
        out.append(f"  <error id={quoteattr(threat)} name={quoteattr(name)} />")
    out.append(f'  <process id={quoteattr(spec.process_id)} name="generated" isExecutable="true">')
    out.append('    <startEvent id="start" />')
    for t in spec.tasks:
        out.append(
            f"    <serviceTask id={quoteattr(t.id)} name={quoteattr(t.name)} "
            f"operationRef={quoteattr(t.operation_ref)} "
            f"ext:inputVars={quoteattr(','.join(t.input_vars))} "
            f"ext:outputVar={quoteattr(t.output_var)} />"
        )
        for threat in t.threats:
            out.append(f'    <boundaryEvent id={quoteattr(f"b-{t.id}-{threat}")} attachedToRef={quoteattr(t.id)}>')
            out.append(f"      <errorEventDefinition errorRef={quoteattr(threat)} />")
            out.append("    </boundaryEvent>")
    out.append('    <parallelGateway id="fork" gatewayDirection="Diverging" />')
    out.append('    <parallelGateway id="join" gatewayDirection="Converging" />')
    out.append('    <endEvent id="end" />')
    for _, flow_id, src, dst in sorted(expected_flows(spec)):
        out.append(f'    <sequenceFlow id="{flow_id}" sourceRef={quoteattr(src)} targetRef={quoteattr(dst)} />')
    out.append("  </process>")
    out.append("</definitions>")
    return "\n".join(out) + "\n"


def registry_text(spec: ServiceSpec) -> str:
    return json.dumps({
        "tasks": {
            t.id: [
                {
                    "id": c.id,
                    "provider": c.provider,
                    "operationRef": t.operation_ref,
                    "trustworthiness": c.trust,
                    "latencyScore": c.qos,
                    "cost": c.cost,
                }
                for c in spec.candidates[t.id]
            ]
            for t in spec.tasks
        }
    })


def criteria_text(spec: ServiceSpec) -> str:
    w_trust, w_qos, w_cost = spec.weights
    return json.dumps({"wTrust": w_trust, "wQos": w_qos, "wCost": w_cost})


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    event_kebab: str
    subject_task: str
    threat: str | None
    scope: str
    ref_task: str | None
    action: str


def make_rules(spec: ServiceSpec, task_scoped: bool, other_types: bool) -> list[RuleSpec]:
    """One recompose rule per task on the task's first threat. task_scoped
    adds a beforeTask notify rule per task on the same threat, so that
    alerts no whole-process rule takes are evaluated per live instance.
    other_types adds a stop rule on trustworthiness changes for every other
    task, which widens the derived topic set."""
    rules = []
    for i, t in enumerate(spec.tasks):
        rules.append(RuleSpec(f"r{i:02d}-recompose", TLC, t.id, t.threats[0], "wholeProcess", None, "recompose"))
        if task_scoped:
            rules.append(RuleSpec(f"s{i:02d}-before", TLC, t.id, t.threats[0], "beforeTask", t.id, "notify"))
        if other_types and i % 2 == 0:
            rules.append(RuleSpec(f"x{i:02d}-trust", "trustworthiness-change", t.id, None, "wholeProcess", None, "stop"))
    return rules


_EVENT_TYPES = {
    TLC: "ThreatLevelChange",
    "trustworthiness-change": "TrustworthinessChange",
}


def rules_text(rules: list[RuleSpec]) -> str:
    records = []
    for r in rules:
        rec = {
            "ruleId": r.rule_id,
            "eventType": _EVENT_TYPES[r.event_kebab],
            "subjectTaskId": r.subject_task,
            "scope": {"kind": r.scope, **({"refTaskId": r.ref_task} if r.ref_task else {})},
            "action": {"kind": r.action, "params": {"message": "bench"} if r.action == "notify" else {}},
        }
        if r.threat is not None:
            rec["threatId"] = r.threat
            rec["predicate"] = {"comparator": ">=", "threshold": THRESHOLD}
        records.append(rec)
    return json.dumps(records)


def make_bystanders(rng: random.Random, service_components: list[str], count: int) -> dict[str, tuple[str, ...]]:
    """Subscriber id -> topic patterns. Fixed shares for every seed: a tenth
    take every alert through `threat-level-change.*`, a tenth take another
    event type's wildcard, two take each service component's alert topic
    exactly (one of them also holds the alert wildcard, so one publish
    matches two of its patterns), and the rest hold exact topics on
    components outside the service."""
    ids = [f"by-{i:04d}" for i in range(count)]
    rng.shuffle(ids)
    it = iter(ids)
    table: dict[str, tuple[str, ...]] = {}
    for _ in range(count // 10):
        table[next(it)] = (f"{TLC}.*",)
    for k in range(count // 10):
        table[next(it)] = (f"{OTHER_TYPES[k % len(OTHER_TYPES)]}.*",)
    for comp in service_components:
        table[next(it)] = (f"{TLC}.{comp}",)
        table[next(it)] = (f"{TLC}.{comp}", f"{TLC}.*")
    for sid in it:
        kind = rng.choice((TLC,) + OTHER_TYPES)
        table[sid] = (f"{kind}.ext-{rng.randrange(10**6):06d}",)
    return table


# --- the requirements input of the design-deploy workload --------------------------------

def make_selection(rng: random.Random, srs_record: dict) -> tuple[frozenset, tuple]:
    """Carry every threat of the document, mapping every goal and
    transmission plus each threatened actor to a task, in a seeded order."""
    threatened = {t["targetRef"] for t in srs_record["threats"]}
    refs = [g["id"] for g in srs_record["goals"]] + [t["id"] for t in srs_record["transmissions"]]
    refs += sorted(r for r in threatened if r not in refs)
    rng.shuffle(refs)
    mapping = tuple((ref, f"Step {ref} {rng.randrange(100)}") for ref in refs)
    chosen = frozenset((t["threatId"], t["targetRef"]) for t in srs_record["threats"])
    return chosen, mapping
