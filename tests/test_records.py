"""A record is valid once built: each record type refuses an invalid value
at construction, so no consumer needs to check it again."""

import math

import pytest

from threatflow.bus import EventType, Notification, Payload
from threatflow.composition import CandidateRegistry, ComponentDescriptor, RankingCriteria
from threatflow.errors import ValidationError
from threatflow.repo import Countermeasure, Threat, ThreatClass
from threatflow.rules import Action, ActionKind, AdaptationRule, Comparator, Predicate, Scope, ScopeKind
from threatflow.scenario import MockComponentConfig


def _descriptor(cid="c1", trust=0.5, cost=0.0):
    return ComponentDescriptor(cid, "prov", "op", trust, 0.5, cost)


INVALID = {
    "notification-probability-7": (
        lambda: Notification(
            type=EventType.THREAT_LEVEL_CHANGE, topic="threat-level-change.mapA",
            subject_component_id="mapA", payload=Payload(probability=7.0),
            timestamp=1.0, seq=1, publisher_id="m", threat_id="T-X",
        ),
        r"probability 7.0 outside \[0,1\]",
    ),
    "descriptor-trust-5": (lambda: _descriptor(trust=5.0), "trustworthiness outside"),
    "descriptor-cost-negative": (lambda: _descriptor(cost=-3.0), "cost -3.0 is not finite"),
    "registry-task-twice": (
        lambda: CandidateRegistry(entries=(("t1", (_descriptor(),)), ("t1", (_descriptor(),)))),
        "lists task 't1' twice",
    ),
    # candidate_table divides by the weight sum, and NaN weights score every plan nan
    "criteria-all-zero": (lambda: RankingCriteria(0.0, 0.0, 0.0), "must not all be zero"),
    "criteria-nan": (lambda: RankingCriteria(math.nan, 1.0, 1.0), "must be finite"),
    "predicate-threshold-1.5": (lambda: Predicate(Comparator.GE, 1.5), "outside"),
    "scope-without-task": (lambda: Scope(ScopeKind.BEFORE_TASK), "requires a reference task"),
    "rule-without-threat": (
        lambda: AdaptationRule("r1", EventType.THREAT_LEVEL_CHANGE, "t1", Action(ActionKind.STOP)),
        "names no threat",
    ),
    "rule-blank-threat": (
        lambda: AdaptationRule("r1", EventType.THREAT_LEVEL_CHANGE, "t1", Action(ActionKind.STOP), threat_id=" "),
        "names no threat",
    ),
    "notification-blank-threat": (
        lambda: Notification(
            type=EventType.THREAT_LEVEL_CHANGE, topic="threat-level-change.mapA",
            subject_component_id="mapA", payload=Payload(probability=0.5),
            timestamp=1.0, seq=1, publisher_id="m", threat_id="\u3000",
        ),
        "without threatId",
    ),
    "threat-empty-id": (lambda: Threat(" ", "blank", ThreatClass.BUSINESS), "threat id is empty"),
    "countermeasure-rank-2": (lambda: Countermeasure("cm-1", "T-X", "t", rank_score=2.0), "outside"),
    "mock-unknown-kind": (lambda: MockComponentConfig("c1", kind="sometimes"), "unknown mock behavior"),
}


@pytest.mark.parametrize("case", INVALID)
def test_an_invalid_record_is_refused_at_construction(case):
    build, message = INVALID[case]
    with pytest.raises(ValidationError, match=message):
        build()
