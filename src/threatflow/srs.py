"""Security requirements specification (SRS) intake and process skeletons.

An SRS is the machine-readable export of a goal model: actors, goals,
document transmissions, threat annotations and commitments. This module
loads .srs files (a JSON schema mirroring the document one-to-one),
transforms a designer's threat selection into a linear BPMN skeleton whose
boundary events carry the chosen threat IDs, and checks an existing model
for nonconformity against its source SRS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import bpmn
from .errors import DanglingReferenceError, ParseError, ValidationError, blank, parse_json, reading

ID_MATCH_CAVEAT = (
    "matching is by exact threat ID only; refined or sub-typed threats "
    "carried under a different ID are reported as missing"
)


@dataclass(frozen=True)
class SrsActor:
    id: str
    name: str = ""


@dataclass(frozen=True)
class SrsGoal:
    id: str
    name: str = ""
    owner_actor: str = ""
    delegated_to: str | None = None


@dataclass(frozen=True)
class SrsTransmission:
    id: str
    document_name: str = ""
    from_actor: str = ""
    to_actor: str = ""


@dataclass(frozen=True)
class SrsThreat:
    threat_id: str
    name: str = ""
    target_ref: str = ""


@dataclass(frozen=True)
class SrsCommitment:
    id: str
    text: str = ""
    related_ref: str = ""


@dataclass(frozen=True)
class SrsDocument:
    actors: tuple[SrsActor, ...] = ()
    goals: tuple[SrsGoal, ...] = ()
    transmissions: tuple[SrsTransmission, ...] = ()
    threats: tuple[SrsThreat, ...] = ()
    commitments: tuple[SrsCommitment, ...] = ()

    def element_ids(self) -> set[str]:
        return (
            {a.id for a in self.actors}
            | {g.id for g in self.goals}
            | {t.id for t in self.transmissions}
        )

    def threat_ids(self) -> set[str]:
        return {t.threat_id for t in self.threats}


@dataclass(frozen=True)
class ThreatSelection:
    """What to carry over: (threatId, targetRef) pairs plus the designer's
    mapping from goal/transmission id to task name, in intended task order."""

    chosen: frozenset[tuple[str, str]] = frozenset()
    task_mapping: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class NonconformityReport:
    missing_threat_ids: frozenset[str] = frozenset()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TransformResult:
    model: bpmn.ProcessModel
    warnings: tuple[str, ...] = ()


def _check_references(doc: SrsDocument) -> None:
    actor_ids = {a.id for a in doc.actors}
    element_ids = doc.element_ids()
    for g in doc.goals:
        if g.owner_actor and g.owner_actor not in actor_ids:
            raise DanglingReferenceError(f"goal {g.id!r} ownerActor {g.owner_actor!r} is unknown")
        if g.delegated_to is not None and g.delegated_to not in actor_ids:
            raise DanglingReferenceError(f"goal {g.id!r} delegatedTo {g.delegated_to!r} is unknown")
    for t in doc.transmissions:
        for actor in (t.from_actor, t.to_actor):
            if actor not in actor_ids:
                raise DanglingReferenceError(f"transmission {t.id!r} actor {actor!r} is unknown")
    for th in doc.threats:
        if not isinstance(th.threat_id, str) or blank(th.threat_id):
            raise ValidationError(f"threat targeting {th.target_ref!r} has a blank or non-string threat id")
        if th.target_ref not in element_ids:
            raise DanglingReferenceError(
                f"threat {th.threat_id!r} targets unknown element {th.target_ref!r}"
            )
    for c in doc.commitments:
        if c.related_ref and c.related_ref not in element_ids:
            raise DanglingReferenceError(f"commitment {c.id!r} relates to unknown {c.related_ref!r}")


def load_srs(text: str) -> SrsDocument:
    """Parse .srs text; every cross-reference must resolve in-document."""
    raw = parse_json(text, "SRS") if text.strip() else {}
    with reading("SRS", error=ParseError):
        doc = SrsDocument(
            actors=tuple(SrsActor(id=a["id"], name=a.get("name", "")) for a in raw.get("actors", [])),
            goals=tuple(
                SrsGoal(
                    id=g["id"],
                    name=g.get("name", ""),
                    owner_actor=g.get("ownerActor", ""),
                    delegated_to=g.get("delegatedTo"),
                )
                for g in raw.get("goals", [])
            ),
            transmissions=tuple(
                SrsTransmission(
                    id=t["id"],
                    document_name=t.get("documentName", ""),
                    from_actor=t.get("fromActor", ""),
                    to_actor=t.get("toActor", ""),
                )
                for t in raw.get("transmissions", [])
            ),
            threats=tuple(
                SrsThreat(
                    threat_id=t["threatId"],
                    name=t.get("name", ""),
                    target_ref=t.get("targetRef", ""),
                )
                for t in raw.get("threats", [])
            ),
            commitments=tuple(
                SrsCommitment(
                    id=c["id"],
                    text=c.get("text", ""),
                    related_ref=c.get("relatedRef", ""),
                )
                for c in raw.get("commitments", [])
            ),
        )
        _check_references(doc)
    return doc


def dump_srs(doc: SrsDocument) -> str:
    raw = {
        "actors": [{"id": a.id, "name": a.name} for a in doc.actors],
        "goals": [
            {
                "id": g.id,
                "name": g.name,
                "ownerActor": g.owner_actor,
                **({"delegatedTo": g.delegated_to} if g.delegated_to is not None else {}),
            }
            for g in doc.goals
        ],
        "transmissions": [
            {"id": t.id, "documentName": t.document_name, "fromActor": t.from_actor, "toActor": t.to_actor}
            for t in doc.transmissions
        ],
        "threats": [
            {"threatId": t.threat_id, "name": t.name, "targetRef": t.target_ref} for t in doc.threats
        ],
        "commitments": [
            {"id": c.id, "text": c.text, "relatedRef": c.related_ref} for c in doc.commitments
        ],
    }
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def validate_selection(srs: SrsDocument, sel: ThreatSelection) -> None:
    pairs = {(t.threat_id, t.target_ref) for t in srs.threats}
    for pair in sorted(sel.chosen):
        if pair not in pairs:
            raise ValidationError(f"selected pair {pair!r} does not occur in the SRS")
    element_ids = srs.element_ids()
    seen_refs: set[str] = set()
    for ref, task_name in sel.task_mapping:
        if ref not in element_ids:
            raise ValidationError(f"task mapping names unknown element {ref!r}")
        if ref in seen_refs:
            raise ValidationError(f"task mapping lists element {ref!r} twice")
        seen_refs.add(ref)
        if not task_name:
            raise ValidationError(f"task mapping for {ref!r} has an empty task name")


def transform_to_skeleton(srs: SrsDocument, sel: ThreatSelection) -> TransformResult:
    """Linear skeleton: one task per mapping entry, in mapping order, with a
    boundary event per chosen threat whose target is mapped. Chosen threats
    on unmapped targets are skipped with a recorded warning, never silently."""
    validate_selection(srs, sel)

    nodes: list[bpmn.Node] = [bpmn.StartEvent(id="start")]
    flows: list[bpmn.SequenceFlow] = []
    prev = "start"
    task_of_ref: dict[str, str] = {}
    for i, (ref, task_name) in enumerate(sel.task_mapping, start=1):
        task_id = f"task-{ref}"
        task_of_ref[ref] = task_id
        nodes.append(bpmn.ServiceTask(id=task_id, name=task_name))
        flows.append(bpmn.SequenceFlow(id=f"flow-{i}", from_node=prev, to_node=task_id))
        prev = task_id
    nodes.append(bpmn.EndEvent(id="end"))
    flows.append(bpmn.SequenceFlow(id=f"flow-{len(sel.task_mapping) + 1}", from_node=prev, to_node="end"))

    pm = bpmn.ProcessModel(id="skeleton", name="", nodes=tuple(nodes), flows=tuple(flows))

    threat_names = {t.threat_id: t.name for t in srs.threats}
    warnings: list[str] = []
    for threat_id, target_ref in sorted(sel.chosen):
        task_id = task_of_ref.get(target_ref)
        if task_id is None:
            warnings.append(
                f"threat {threat_id!r} targets {target_ref!r} which is not mapped to a task; skipped"
            )
            continue
        pm = bpmn.attach_threat(pm, task_id, threat_id, threat_name=threat_names.get(threat_id, ""))

    violations = bpmn.validate(pm)
    if violations:
        raise ValidationError("skeleton does not validate: " + "; ".join(violations))
    return TransformResult(model=pm, warnings=tuple(warnings))


def check_conformity(pm: bpmn.ProcessModel, srs: SrsDocument) -> NonconformityReport:
    """Threat IDs the SRS requires but the model does not carry, by exact ID."""
    carried = {b.error_ref for b in pm.boundary_events()}
    missing = frozenset(srs.threat_ids() - carried)
    notes: tuple[str, ...] = ()
    if missing:
        notes = (ID_MATCH_CAVEAT,)
    return NonconformityReport(missing_threat_ids=missing, notes=notes)
