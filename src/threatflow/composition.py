"""Candidate components, composition plans, ranking and plan verification.

Every service task of a process has one or more candidate components in a
registry; a composition plan is one total binding of tasks to components,
ranked by a weighted mean of trustworthiness, QoS and cost, and verified
against adaptation rules plus the latest threat state. Both split per
(task, component) pair, so select_plan chooses task by task for deploy and
recomposition; generate_plans enumerates the Cartesian product of candidate
lists (up to PLAN_CEILING) only to list and rank every plan. All functions
here are pure; ThreatState is the one mutable type and hands out snapshots.

Per binding, select_plan checks a candidate against the (threat id,
predicate) pairs that candidate_table precomputes for its task, a few dict
lookups that decide what verify_plan decides for a one-task binding; it
builds no plan or verdict.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import threading
from collections.abc import Container, Iterable
from dataclasses import dataclass, replace

from . import bpmn
from .bus import EventType
from .errors import (
    EmptyInputError,
    MissingCandidatesError,
    ParseError,
    PlanCountExceededError,
    ValidationError,
)
from .rules import AdaptationRule, Predicate

PLAN_CEILING = 10_000
_RESERVED_IN_IDS = re.compile(r"[+.*\s]")  # '+' joins plan ids; '.' and '*' are topic syntax


@dataclass(frozen=True)
class ComponentDescriptor:
    id: str
    provider: str
    operation_ref: str
    trustworthiness: float
    latency_score: float
    cost: float = 0.0

    def validate(self) -> None:
        if not self.id:
            raise ValidationError("component id is empty")
        if _RESERVED_IN_IDS.search(self.id):
            raise ValidationError(f"component id {self.id!r} contains '+', '.', '*' or whitespace")
        if not 0.0 <= self.trustworthiness <= 1.0:
            raise ValidationError(f"component {self.id!r} trustworthiness outside [0,1]")
        if not 0.0 <= self.latency_score <= 1.0:
            raise ValidationError(f"component {self.id!r} latencyScore outside [0,1]")
        if self.cost < 0:
            raise ValidationError(f"component {self.id!r} cost is negative")


@dataclass(frozen=True)
class CandidateRegistry:
    """Ordered candidate lists per task id; order feeds plan enumeration."""

    entries: tuple[tuple[str, tuple[ComponentDescriptor, ...]], ...] = ()

    def candidates(self, task_id: str) -> tuple[ComponentDescriptor, ...]:
        for tid, comps in self.entries:
            if tid == task_id:
                return comps
        return ()

    def all_components(self) -> list[ComponentDescriptor]:
        out: dict[str, ComponentDescriptor] = {}
        for _, comps in self.entries:
            for c in comps:
                out.setdefault(c.id, c)
        return list(out.values())

    def validate(self) -> None:
        """Besides per-entry checks, a component id listed under several
        tasks must carry the same descriptor everywhere: plans resolve
        components by id alone."""
        seen_tasks: set[str] = set()
        known: dict[str, ComponentDescriptor] = {}
        for task_id, comps in self.entries:
            if task_id in seen_tasks:
                raise ValidationError(f"registry lists task {task_id!r} twice")
            seen_tasks.add(task_id)
            if not comps:
                raise ValidationError(f"registry entry for task {task_id!r} is empty")
            seen_ids: set[str] = set()
            for c in comps:
                c.validate()
                if c.id in seen_ids:
                    raise ValidationError(f"task {task_id!r} lists component {c.id!r} twice")
                seen_ids.add(c.id)
                if (first := known.setdefault(c.id, c)) is not c and first != c:
                    raise ValidationError(f"component {c.id!r} has different descriptors under two tasks")

    def validate_against(self, pm: bpmn.ProcessModel) -> None:
        self.validate()
        for task in pm.service_tasks():
            comps = self.candidates(task.id)
            if not comps:
                raise MissingCandidatesError(f"task {task.id!r} has no candidate components")
            for c in comps:
                if task.operation_ref and c.operation_ref != task.operation_ref:
                    raise ValidationError(
                        f"component {c.id!r} implements {c.operation_ref!r} but task "
                        f"{task.id!r} requires {task.operation_ref!r}"
                    )


@dataclass(frozen=True)
class CompositionPlan:
    plan_id: str
    bindings: tuple[tuple[str, str], ...]  # (task id, component id) in document order
    rank_score: float = 0.0

    def binding_for(self, task_id: str) -> str | None:
        for tid, comp_id in self.bindings:
            if tid == task_id:
                return comp_id
        return None

    def component_ids(self) -> set[str]:
        return {comp_id for _, comp_id in self.bindings}


@dataclass(frozen=True)
class RankingCriteria:
    w_trust: float
    w_qos: float
    w_cost: float

    def validate(self) -> None:
        if min(self.w_trust, self.w_qos, self.w_cost) < 0:
            raise ValidationError("ranking weights must be non-negative")
        if self.w_trust + self.w_qos + self.w_cost <= 0:
            raise ValidationError("ranking weights must not all be zero")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reasons: tuple[str, ...] = ()


class ThreatState:
    """Latest (component, threat) probability levels, newest timestamp wins;
    stale updates (older timestamp for a known key) are ignored. Levels are
    kept only for the threat ids given at construction, the ones a service's
    rules name; an update for any other id is dropped and counted in
    `unknown_threats`, so a publisher inventing ids cannot grow the state."""

    def __init__(self, threat_ids: Iterable[str]) -> None:
        self._lock = threading.Lock()
        self._levels: dict[tuple[str, str], tuple[float, float]] = {}
        self._threat_ids = frozenset(threat_ids)
        self.unknown_threats = 0

    def update(self, component_id: str, threat_id: str, probability: float, timestamp: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValidationError(f"probability {probability} outside [0,1]")
        key = (component_id, threat_id)
        with self._lock:
            if threat_id not in self._threat_ids:
                self.unknown_threats += 1
                return False
            current = self._levels.get(key)
            if current is not None and timestamp < current[1]:
                return False
            self._levels[key] = (probability, timestamp)
            return True

    def level(self, component_id: str, threat_id: str) -> float | None:
        with self._lock:
            entry = self._levels.get((component_id, threat_id))
        return entry[0] if entry else None

    def snapshot(self) -> dict[tuple[str, str], float]:
        with self._lock:
            return {key: prob for key, (prob, _) in self._levels.items()}


def generate_plans(
    pm: bpmn.ProcessModel,
    reg: CandidateRegistry,
    ceiling: int = PLAN_CEILING,
) -> list[CompositionPlan]:
    """All total bindings, exactly one plan per element of the Cartesian
    product of candidate lists; planId concatenates the bound component ids
    in task document order."""
    reg.validate_against(pm)
    tasks = pm.index.service_tasks
    count = math.prod(len(reg.candidates(t.id)) for t in tasks)
    if count > ceiling:
        raise PlanCountExceededError(f"{count} plans exceed the ceiling of {ceiling}")
    return [_plan(tasks, combo, 0.0) for combo in itertools.product(*(reg.candidates(t.id) for t in tasks))]


def _plan(tasks, combo, rank_score: float) -> CompositionPlan:
    bindings = tuple((task.id, c.id) for task, c in zip(tasks, combo))
    return CompositionPlan("+".join(c.id for c in combo), bindings, rank_score)


def _mean(values: list[float]) -> float:
    """A left fold from 0, on every Python version: from 3.12 on, sum() of
    floats is compensated and would round differently."""
    return functools.reduce(operator.add, values, 0) / len(values) if values else 0.0


def _score(comps, criteria: RankingCriteria, max_mean_cost: float) -> float:
    """(wT*meanTrust + wQ*meanQos - wC*meanCost/maxMeanCost) / (wT+wQ+wC)."""
    norm_cost = _mean([c.cost for c in comps]) / max_mean_cost if max_mean_cost > 0 else 0.0
    return (
        criteria.w_trust * _mean([c.trustworthiness for c in comps])
        + criteria.w_qos * _mean([c.latency_score for c in comps])
        - criteria.w_cost * norm_cost
    ) / (criteria.w_trust + criteria.w_qos + criteria.w_cost)


def rank_plans(
    plans: list[CompositionPlan],
    criteria: RankingCriteria,
    reg: CandidateRegistry,
) -> list[CompositionPlan]:
    """Scored by _score, maxMeanCost over the given plans; sorted best first,
    ties broken by planId ascending."""
    if not plans:
        raise EmptyInputError("no plans to rank")
    criteria.validate()

    known = {c.id: c for c in reg.all_components()}
    for p in plans:
        for _, comp_id in p.bindings:
            if comp_id not in known:
                raise ValidationError(f"plan {p.plan_id!r} binds unknown component {comp_id!r}")
    bound_comps = [[known[comp_id] for _, comp_id in p.bindings] for p in plans]
    max_mean_cost = max(_mean([c.cost for c in comps]) for comps in bound_comps)
    scored = [
        replace(p, rank_score=_score(comps, criteria, max_mean_cost))
        for p, comps in zip(plans, bound_comps)
    ]
    return sorted(scored, key=lambda p: (-p.rank_score, p.plan_id))


@dataclass(frozen=True)
class CandidateTable:
    """What plan choice needs that no threat level or flag changes."""

    process: bpmn.ProcessModel
    criteria: RankingCriteria
    max_mean_cost: float
    # per service task in document order: the task, its candidates with their
    # one-task scores (best first), and the (threat id, predicate) pairs of the
    # ThreatLevelChange rules whose subject it is
    rows: tuple[tuple[bpmn.ServiceTask, list[tuple[float, ComponentDescriptor]], tuple[tuple[str, Predicate], ...]], ...]
    # threat id -> the predicates of the ThreatLevelChange rules naming it,
    # None for a rule with no threshold
    thresholds: dict[str, list[Predicate | None]]


def candidate_table(
    pm: bpmn.ProcessModel,
    reg: CandidateRegistry,
    criteria: RankingCriteria,
    rules: list[AdaptationRule],
) -> CandidateTable:
    """reg must pass validate_against(pm). The mean of per-task maximum costs
    equals rank_plans' maximum mean cost exactly: float addition is monotone.
    A row keeps only the rules verify_plan can fail on: ThreatLevelChange
    rules with both a predicate and a threat id. A one-task score is
    _score([c], ...) term by term: _mean([x]) is 0 + x, which is x except
    that -0.0 becomes 0.0, hence the + 0.0 below."""
    tasks = pm.index.service_tasks
    max_mean_cost = _mean([max(c.cost for c in reg.candidates(t.id)) for t in tasks])
    checks: dict[str, list[tuple[str, Predicate]]] = {}
    thresholds: dict[str, list[Predicate | None]] = {}
    for r in rules:
        if r.event_type is EventType.THREAT_LEVEL_CHANGE and r.threat_id is not None:
            thresholds.setdefault(r.threat_id, []).append(r.predicate)
            if r.predicate is not None:
                checks.setdefault(r.subject_task_id, []).append((r.threat_id, r.predicate))
    w_trust, w_qos, w_cost = criteria.w_trust, criteria.w_qos, criteria.w_cost
    weight = w_trust + w_qos + w_cost

    def one_task_score(c: ComponentDescriptor) -> float:
        norm_cost = (c.cost + 0.0) / max_mean_cost if max_mean_cost > 0 else 0.0
        return (w_trust * (c.trustworthiness + 0.0) + w_qos * (c.latency_score + 0.0) - w_cost * norm_cost) / weight

    rows = []
    for task in tasks:
        scored = [(one_task_score(c), c) for c in reg.candidates(task.id)]
        scored.sort(key=lambda sc: sc[0], reverse=True)
        rows.append((task, scored, tuple(checks.get(task.id, ()))))
    return CandidateTable(pm, criteria, max_mean_cost, tuple(rows), thresholds)


def select_plan(
    table: CandidateTable,
    levels: dict[tuple[str, str], float],
    excluded: Container[str],
) -> CompositionPlan | None:
    """The first plan of rank_plans(generate_plans(pm, reg)) that binds no
    excluded component and passes verify_plan, or None if none does.

    A plan's score is the mean of its components' one-task scores and
    verify_plan fails on single bindings, so each task keeps its best allowed
    candidates on its own; a candidate is allowed unless excluded or a
    (threat id, predicate) pair of its row is satisfied by its level. Those
    within 1e-9 of a task's best are kept too, and their product is scored
    with the full formula, so float rounding and planId tie-breaks match
    rank_plans.
    """
    best = []
    for _, scored, checks in table.rows:
        tied: list[ComponentDescriptor] = []
        for score, c in scored:
            if tied and score < top - 1e-9:
                break
            if c.id in excluded or checks and any(
                (level := levels.get((c.id, threat_id))) is not None and pred.satisfied_by(level)
                for threat_id, pred in checks
            ):
                continue
            if not tied:
                top = score
            tied.append(c)
        if not tied:
            return None
        best.append(tied)
    tasks = table.process.index.service_tasks
    plans = (
        _plan(tasks, combo, _score(combo, table.criteria, table.max_mean_cost))
        for combo in itertools.product(*best)
    )
    return min(plans, key=lambda p: (-p.rank_score, p.plan_id))


def verify_plan(
    plan: CompositionPlan,
    pm: bpmn.ProcessModel,
    rules: list[AdaptationRule],
    levels: dict[tuple[str, str], float],
) -> Verdict:
    """Fails iff a ThreatLevelChange rule's predicate is satisfied by the
    latest probability recorded for (bound component, rule threat)."""
    reasons: list[str] = []
    for rule in rules:
        if rule.event_type is not EventType.THREAT_LEVEL_CHANGE:
            continue
        if rule.predicate is None or rule.threat_id is None:
            continue
        comp_id = plan.binding_for(rule.subject_task_id)
        if comp_id is None:
            continue
        probability = levels.get((comp_id, rule.threat_id))
        if probability is None:
            continue
        if rule.predicate.satisfied_by(probability):
            reasons.append(
                f"task {rule.subject_task_id!r} binds {comp_id!r} whose threat "
                f"{rule.threat_id!r} is at probability {probability} "
                f"({rule.predicate.comparator.value} {rule.predicate.threshold}, rule {rule.rule_id!r})"
            )
    return Verdict(passed=not reasons, reasons=tuple(reasons))


# --- .registry and .criteria file formats ----------------------------------------

def registry_from_record(raw: dict) -> CandidateRegistry:
    try:
        entries = []
        for task_id, comps in raw["tasks"].items():
            descriptors = tuple(
                ComponentDescriptor(
                    id=c["id"],
                    provider=c.get("provider", ""),
                    operation_ref=c.get("operationRef", ""),
                    trustworthiness=float(c["trustworthiness"]),
                    latency_score=float(c["latencyScore"]),
                    cost=float(c.get("cost", 0.0)),
                )
                for c in comps
            )
            entries.append((task_id, descriptors))
    except KeyError as exc:
        raise ValidationError(f"registry record missing field {exc}")
    reg = CandidateRegistry(entries=tuple(entries))
    reg.validate()
    return reg


def load_registry(text: str) -> CandidateRegistry:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed registry file: {exc.msg}", (exc.lineno, exc.colno))
    return registry_from_record(raw)


def dump_registry(reg: CandidateRegistry) -> str:
    raw = {
        "tasks": {
            task_id: [
                {
                    "id": c.id,
                    "provider": c.provider,
                    "operationRef": c.operation_ref,
                    "trustworthiness": c.trustworthiness,
                    "latencyScore": c.latency_score,
                    "cost": c.cost,
                }
                for c in comps
            ]
            for task_id, comps in reg.entries
        }
    }
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def load_criteria(text: str) -> RankingCriteria:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed criteria file: {exc.msg}", (exc.lineno, exc.colno))
    try:
        criteria = RankingCriteria(
            w_trust=float(raw["wTrust"]),
            w_qos=float(raw["wQos"]),
            w_cost=float(raw["wCost"]),
        )
    except KeyError as exc:
        raise ValidationError(f"criteria record missing field {exc}")
    criteria.validate()
    return criteria


def dump_criteria(criteria: RankingCriteria) -> str:
    raw = {"wTrust": criteria.w_trust, "wQos": criteria.w_qos, "wCost": criteria.w_cost}
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"
