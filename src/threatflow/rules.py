"""Adaptation rules: event-condition-action triggers attached to a deployment.

A rule names the event type it reacts to, the service task it governs, an
optional probability predicate, an execution-window scope and the action to
take. Predicates, scopes and rules check themselves when built, as
notifications do, so evaluation takes both as valid. Evaluation is a pure
function; the runtime serializes calls. This module also derives the bus
subscriptions a deployment needs from its rules and the per-task candidates
of its registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import bpmn
from .bus import EventType, Notification
from .errors import DerivationError, EvaluationError, ParseError, ValidationError, parse_json, reading

if TYPE_CHECKING:
    from .composition import CandidateRegistry


class Comparator(Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"

    def holds(self, value: float, threshold: float) -> bool:
        if self is Comparator.GE:
            return value >= threshold
        if self is Comparator.GT:
            return value > threshold
        if self is Comparator.LE:
            return value <= threshold
        return value < threshold


@dataclass(frozen=True)
class Predicate:
    comparator: Comparator
    threshold: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError(f"threshold {self.threshold} outside [0,1] inclusive")

    def satisfied_by(self, probability: float) -> bool:
        return self.comparator.holds(probability, self.threshold)


class ScopeKind(Enum):
    WHOLE_PROCESS = "wholeProcess"
    BEFORE_TASK = "beforeTask"
    DURING_TASK = "duringTask"
    AFTER_TASK = "afterTask"


@dataclass(frozen=True)
class Scope:
    kind: ScopeKind
    ref_task_id: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind is ScopeKind.WHOLE_PROCESS:
            if self.ref_task_id is not None:
                raise ValidationError("wholeProcess scope takes no reference task")
        elif not self.ref_task_id:
            raise ValidationError(f"scope {self.kind.value} requires a reference task id")


class ActionKind(Enum):
    STOP = "stop"
    RECOMPOSE = "recompose"
    LAUNCH_PROCESS = "launchProcess"
    NOTIFY = "notify"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return None


class TaskStatus(Enum):
    NOT_STARTED = "notStarted"
    ACTIVE = "active"
    COMPLETED = "completed"


_SCOPE_STATUS = {
    ScopeKind.BEFORE_TASK: TaskStatus.NOT_STARTED,
    ScopeKind.DURING_TASK: TaskStatus.ACTIVE,
    ScopeKind.AFTER_TASK: TaskStatus.COMPLETED,
}


@dataclass(frozen=True)
class InstancePosition:
    task_status: tuple[tuple[str, TaskStatus], ...] = ()

    def status_of(self, task_id: str) -> TaskStatus | None:
        for tid, status in self.task_status:
            if tid == task_id:
                return status
        return None


@dataclass(frozen=True)
class AdaptationRule:
    rule_id: str
    event_type: EventType
    subject_task_id: str
    action: Action
    scope: Scope = Scope(kind=ScopeKind.WHOLE_PROCESS)
    threat_id: str | None = None
    predicate: Predicate | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Its predicate and scope checked themselves when built."""
        if not all(isinstance(v, str) for v in (self.rule_id, self.subject_task_id, self.threat_id or "")):
            raise ValidationError(f"rule {self.rule_id!r} has a non-string ruleId, subjectTaskId or threatId")
        if not self.rule_id:
            raise ValidationError("rule id is empty")
        if not self.subject_task_id:
            raise ValidationError(f"rule {self.rule_id!r} has no subject task")
        if self.event_type is EventType.THREAT_LEVEL_CHANGE:
            if not self.threat_id:
                raise ValidationError(
                    f"rule {self.rule_id!r} reacts to threat level changes but names no threat"
                )
        elif self.threat_id is not None:
            raise ValidationError(
                f"rule {self.rule_id!r} carries a threat id but its event type "
                f"{self.event_type.value} is not ThreatLevelChange"
            )

    def validate_against(self, pm: bpmn.ProcessModel) -> None:
        task_ids = pm.index.task_ids
        if self.subject_task_id not in task_ids:
            raise ValidationError(
                f"rule {self.rule_id!r} subject task {self.subject_task_id!r} "
                f"is not a task of process {pm.id!r}"
            )
        if self.scope.ref_task_id is not None and self.scope.ref_task_id not in task_ids:
            raise ValidationError(
                f"rule {self.rule_id!r} scope task {self.scope.ref_task_id!r} "
                f"is not a task of process {pm.id!r}"
            )


def evaluate(
    rule: AdaptationRule,
    n: Notification,
    pos: InstancePosition,
    binding: str,
) -> bool:
    """True iff the notification matches the rule's event type and subject,
    its probability (when present) satisfies the predicate, and the instance
    position lies in the rule's scope window. The rule and the notification
    checked themselves when built; a position with no status for the rule's
    scope task raises EvaluationError rather than evaluate to a silent False."""
    if n.type is not rule.event_type:
        return False
    if n.subject_component_id != binding:
        return False
    if rule.event_type is EventType.THREAT_LEVEL_CHANGE and n.threat_id != rule.threat_id:
        return False

    if rule.predicate is not None and n.payload.probability is not None:
        if not rule.predicate.satisfied_by(n.payload.probability):
            return False

    if rule.scope.kind is ScopeKind.WHOLE_PROCESS:
        return True
    status = pos.status_of(rule.scope.ref_task_id)
    if status is None:
        raise EvaluationError(
            f"instance position has no status for scope task {rule.scope.ref_task_id!r}"
        )
    return status is _SCOPE_STATUS[rule.scope.kind]


def derive_subscriptions(
    rules: list[AdaptationRule],
    reg: "CandidateRegistry",
) -> set[str]:
    """One topic per (rule, candidate of its subject task), so subscriptions
    already cover every future recomposition."""
    topics: set[str] = set()
    for rule in rules:
        subjects = reg.candidates(rule.subject_task_id)
        if not subjects:
            raise DerivationError(
                f"rule {rule.rule_id!r} subject task {rule.subject_task_id!r} "
                "has no candidate component"
            )
        topics.update(f"{rule.event_type.kebab}.{c.id}" for c in subjects)
    return topics


# --- .rules file format ---------------------------------------------------------

def rule_to_record(rule: AdaptationRule) -> dict:
    rec: dict = {
        "ruleId": rule.rule_id,
        "eventType": rule.event_type.value,
        "subjectTaskId": rule.subject_task_id,
        "scope": {"kind": rule.scope.kind.value},
        "action": {"kind": rule.action.kind.value, "params": dict(rule.action.params)},
    }
    if rule.scope.ref_task_id is not None:
        rec["scope"]["refTaskId"] = rule.scope.ref_task_id
    if rule.threat_id is not None:
        rec["threatId"] = rule.threat_id
    if rule.predicate is not None:
        rec["predicate"] = {
            "comparator": rule.predicate.comparator.value,
            "threshold": rule.predicate.threshold,
        }
    return rec


def rule_from_record(rec: dict) -> AdaptationRule:
    with reading("rule"):
        predicate = None
        if "predicate" in rec:
            predicate = Predicate(
                comparator=Comparator(rec["predicate"]["comparator"]),
                threshold=float(rec["predicate"]["threshold"]),
            )
        scope_rec = rec.get("scope", {"kind": "wholeProcess"})
        return AdaptationRule(
            rule_id=rec["ruleId"],
            event_type=EventType(rec["eventType"]),
            subject_task_id=rec["subjectTaskId"],
            threat_id=rec.get("threatId"),
            predicate=predicate,
            scope=Scope(kind=ScopeKind(scope_rec["kind"]), ref_task_id=scope_rec.get("refTaskId")),
            action=Action(
                kind=ActionKind(rec["action"]["kind"]),
                params=tuple(sorted(rec["action"].get("params", {}).items())),
            ),
        )


def load_rules(text: str) -> list[AdaptationRule]:
    raw = parse_json(text, "rules file")
    if not isinstance(raw, list):
        raise ParseError("rules file must hold a list of rule records")
    rules = [rule_from_record(rec) for rec in raw]
    seen: set[str] = set()
    for r in rules:
        if r.rule_id in seen:
            raise ValidationError(f"duplicate rule id {r.rule_id!r}")
        seen.add(r.rule_id)
    return rules


def dump_rules(rules: list[AdaptationRule]) -> str:
    return json.dumps([rule_to_record(r) for r in rules], indent=2, sort_keys=True) + "\n"
