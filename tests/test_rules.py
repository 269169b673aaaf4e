import json

import pytest

from threatflow import rules as r
from threatflow.bus import EventType, Notification, Payload
from threatflow.composition import CandidateRegistry, ComponentDescriptor
from threatflow.errors import DerivationError, EvaluationError, ValidationError


def notification(
    event_type=EventType.THREAT_LEVEL_CHANGE,
    subject="comp-1",
    probability=0.8,
    threat_id="T-DOS",
    value=None,
):
    return Notification(
        type=event_type,
        topic=f"{event_type.kebab}.{subject}",
        subject_component_id=subject,
        payload=Payload(probability=probability, value=value),
        timestamp=100.0,
        seq=1,
        publisher_id="monitor-1",
        threat_id=threat_id,
    )


def rule(
    rule_id="r1",
    event_type=EventType.THREAT_LEVEL_CHANGE,
    task="t1",
    scope=r.Scope(kind=r.ScopeKind.WHOLE_PROCESS),
    threat_id="T-DOS",
    predicate=r.Predicate(comparator=r.Comparator.GE, threshold=0.5),
    action=r.Action(kind=r.ActionKind.RECOMPOSE),
):
    return r.AdaptationRule(
        rule_id=rule_id,
        event_type=event_type,
        subject_task_id=task,
        action=action,
        scope=scope,
        threat_id=threat_id,
        predicate=predicate,
    )


def test_comparators_hold_at_boundaries():
    assert r.Comparator.GE.holds(0.5, 0.5)
    assert not r.Comparator.GT.holds(0.5, 0.5)
    assert r.Comparator.LE.holds(0.5, 0.5)
    assert not r.Comparator.LT.holds(0.5, 0.5)
    assert r.Comparator.GT.holds(0.6, 0.5)
    assert r.Comparator.LT.holds(0.4, 0.5)


def test_predicate_threshold_must_be_unit_interval():
    with pytest.raises(ValidationError):
        r.Predicate(comparator=r.Comparator.GE, threshold=1.5).validate()
    r.Predicate(comparator=r.Comparator.GE, threshold=1.0).validate()


def test_scope_ref_task_required_unless_whole_process():
    with pytest.raises(ValidationError):
        r.Scope(kind=r.ScopeKind.BEFORE_TASK).validate()
    with pytest.raises(ValidationError):
        r.Scope(kind=r.ScopeKind.WHOLE_PROCESS, ref_task_id="t1").validate()
    r.Scope(kind=r.ScopeKind.DURING_TASK, ref_task_id="t1").validate()


def test_threat_id_allowed_only_on_threat_level_rules():
    with pytest.raises(ValidationError):
        rule(threat_id=None).validate()
    with pytest.raises(ValidationError):
        rule(event_type=EventType.CONTEXT_CHANGE, threat_id="T-DOS", predicate=None).validate()
    rule().validate()
    rule(event_type=EventType.CONTEXT_CHANGE, threat_id=None, predicate=None).validate()


def test_evaluate_matches_type_subject_threat_and_predicate():
    pos = r.InstancePosition()
    assert r.evaluate(rule(), notification(), pos, binding="comp-1")
    assert not r.evaluate(rule(), notification(subject="other"), pos, binding="comp-1")
    assert not r.evaluate(
        rule(), notification(event_type=EventType.CONTEXT_CHANGE, threat_id=None, value="x"),
        pos, binding="comp-1",
    )
    assert not r.evaluate(rule(), notification(threat_id="T-OTHER"), pos, binding="comp-1")
    assert not r.evaluate(rule(), notification(probability=0.3), pos, binding="comp-1")


def test_evaluate_is_vacuous_without_probability():
    # a predicate cannot reject a payload that carries no probability
    ctx_rule = rule(event_type=EventType.CONTEXT_CHANGE, threat_id=None)
    n = notification(
        event_type=EventType.CONTEXT_CHANGE, probability=None,
        threat_id=None, value="degraded",
    )
    assert r.evaluate(ctx_rule, n, r.InstancePosition(), "comp-1")


def test_evaluate_scope_gates_on_task_status():
    scoped = rule(scope=r.Scope(kind=r.ScopeKind.DURING_TASK, ref_task_id="t9"))
    active = r.InstancePosition(task_status=(("t9", r.TaskStatus.ACTIVE),))
    done = r.InstancePosition(task_status=(("t9", r.TaskStatus.COMPLETED),))
    assert r.evaluate(scoped, notification(), active, "comp-1")
    assert not r.evaluate(scoped, notification(), done, "comp-1")


def test_evaluate_missing_scope_status_raises():
    scoped = rule(scope=r.Scope(kind=r.ScopeKind.AFTER_TASK, ref_task_id="t9"))
    with pytest.raises(EvaluationError):
        r.evaluate(scoped, notification(), r.InstancePosition(), "comp-1")


def test_evaluate_rejects_malformed_notification():
    with pytest.raises(ValidationError, match=r"probability 7.0 outside \[0,1\]"):
        bad = Notification(
            type=EventType.THREAT_LEVEL_CHANGE,
            topic="threat-level-change.comp-1",
            subject_component_id="comp-1",
            payload=Payload(probability=7.0),  # outside [0,1]
            timestamp=1.0,
            seq=1,
            publisher_id="m",
            threat_id="T-DOS",
        )
        r.evaluate(rule(), bad, r.InstancePosition(), "comp-1")


def registry(**candidates):
    """Task id -> component ids, one default descriptor each."""
    return CandidateRegistry(
        entries=tuple(
            (task_id, tuple(ComponentDescriptor(cid, "prov", "", 0.5, 0.5) for cid in ids))
            for task_id, ids in candidates.items()
        )
    )


def test_derive_subscriptions_covers_candidates_in_all_plans():
    topics = r.derive_subscriptions([rule()], registry(t1=["a", "b"], t2=["x"]))
    assert topics == {"threat-level-change.a", "threat-level-change.b"}


def test_derive_subscriptions_requires_a_candidate_somewhere():
    with pytest.raises(DerivationError):
        r.derive_subscriptions([rule()], registry(t2=["x"]))


def test_rule_records_roundtrip():
    original = [
        rule(),
        rule(
            rule_id="r2",
            event_type=EventType.CONTEXT_CHANGE,
            threat_id=None,
            predicate=None,
            scope=r.Scope(kind=r.ScopeKind.BEFORE_TASK, ref_task_id="t1"),
            action=r.Action(kind=r.ActionKind.NOTIFY, params=(("message", "heads up"),)),
        ),
    ]
    again = r.load_rules(r.dump_rules(original))
    assert again == original


def test_duplicate_rule_ids_rejected():
    text = r.dump_rules([rule(), rule()])
    with pytest.raises(ValidationError):
        r.load_rules(text)


def test_action_params_lookup():
    a = r.Action(kind=r.ActionKind.LAUNCH_PROCESS, params=(("processRef", "hardening"),))
    assert a.param("processRef") == "hardening"
    assert a.param("missing") is None


def test_no_rules_derive_no_subscriptions():
    assert r.derive_subscriptions([], registry(t1=["a"])) == set()


def test_derivation_matches_bruteforce_cross_product():
    import random

    from threatflow.composition import generate_plans

    from _generators import random_process, random_registry

    rng = random.Random(505)
    for _ in range(10):
        pm = random_process(rng, max_tasks=3, parallel_ok=False)
        reg = random_registry(rng, pm, max_candidates=3)
        plans = generate_plans(pm, reg)
        tasks = [t.id for t in pm.service_tasks()]
        kinds = [
            EventType.THREAT_LEVEL_CHANGE,
            EventType.CONTEXT_CHANGE,
            EventType.TRUSTWORTHINESS_CHANGE,
        ]
        rules = []
        for i in range(5):
            kind = rng.choice(kinds)
            rules.append(
                rule(
                    rule_id=f"r{i}",
                    event_type=kind,
                    task=rng.choice(tasks),
                    threat_id="T-DOS" if kind is EventType.THREAT_LEVEL_CHANGE else None,
                    predicate=(
                        r.Predicate(comparator=r.Comparator.GE, threshold=0.5)
                        if kind is EventType.THREAT_LEVEL_CHANGE
                        else None
                    ),
                    action=r.Action(kind=r.ActionKind.NOTIFY),
                )
            )
        oracle = {
            f"{ru.event_type.kebab}.{comp_id}"
            for ru in rules
            for plan in plans
            for task_id, comp_id in plan.bindings
            if task_id == ru.subject_task_id
        }
        assert r.derive_subscriptions(rules, reg) == oracle
        assert oracle  # every rule's subject is a real task, so never empty


def _rule_record(**fields):
    rec = r.rule_to_record(rule())
    rec.update(fields)
    return rec


@pytest.mark.parametrize("text", [
    "[1]",
    json.dumps([_rule_record(action={"kind": "recompose", "params": [1]})]),
    json.dumps([_rule_record(scope="wholeProcess")]),
    json.dumps([_rule_record(ruleId=[1])]),
    json.dumps([_rule_record(subjectTaskId={"a": 1})]),
    json.dumps([_rule_record(threatId=[1])]),
], ids=["not-a-record", "params-list", "scope-text", "rule-id-list", "subject-dict", "threat-id-list"])
def test_malformed_rules_raise_validation_error(text):
    with pytest.raises(ValidationError):
        r.load_rules(text)
