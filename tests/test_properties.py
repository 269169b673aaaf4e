"""Property-based checks for the invariants that hold over whole input spaces."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from threatflow import bpmn
from threatflow.bus import (
    Broker,
    EventType,
    Notification,
    Payload,
    Subscription,
    SubscriptionHandle,
    topic_matches,
)
from threatflow.composition import (
    CandidateRegistry,
    candidate_table,
    ComponentDescriptor,
    RankingCriteria,
    generate_plans,
    rank_plans,
    select_plan,
    verify_plan,
)
from threatflow.rules import Action, ActionKind, AdaptationRule, Comparator, Predicate

from _generators import random_process

SUBJECTS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
EVENT_TYPES = st.sampled_from(list(EventType))


@given(event_type=EVENT_TYPES, subject=SUBJECTS, other=EVENT_TYPES)
def test_topic_matches_exact_and_wildcard(event_type, subject, other):
    topic = f"{event_type.kebab}.{subject}"
    assert topic_matches(topic, topic)
    assert topic_matches(f"{event_type.kebab}.*", topic)
    if other is not event_type:
        assert not topic_matches(f"{other.kebab}.*", topic)


TLC, CTX = EventType.THREAT_LEVEL_CHANGE.kebab, EventType.CONTEXT_CHANGE.kebab
PATTERNS = [f"{head}.{tail}" for head in (TLC, CTX, "no-such-type") for tail in ("a", "b", "*", "a.b")]
SUBSCRIBER_IDS = ["s1", "s2", "s3"]
BROKER_OPS = st.lists(
    st.tuples(st.just("sub"), st.sampled_from(SUBSCRIBER_IDS), st.sampled_from(PATTERNS))
    | st.tuples(st.just("unsub"), st.sampled_from(SUBSCRIBER_IDS), st.sampled_from(PATTERNS))
    | st.tuples(st.just("pub"), st.sampled_from([EventType.THREAT_LEVEL_CHANGE, EventType.CONTEXT_CHANGE]),
                st.sampled_from(["a", "b", "c"])),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=BROKER_OPS)
def test_broker_index_delivers_as_a_scan_of_every_pattern(ops):
    broker = Broker()
    table: set[tuple[str, str]] = set()  # (subscriber id, pattern)
    # s1 holds overlapping exact and wildcard patterns, and shares the wildcard with s2
    ops = [("sub", "s1", f"{TLC}.a"), ("sub", "s1", f"{TLC}.*"), ("sub", "s2", f"{TLC}.*")] + ops
    for seq, (op, x, y) in enumerate(ops, start=1):
        if op == "sub":
            broker.subscribe(Subscription(x, y))
            table.add((x, y))
        elif op == "unsub":
            broker.unsubscribe(SubscriptionHandle(x, y, broker))  # only warns when (x, y) is not held
            table.discard((x, y))
        else:
            n = Notification(type=x, topic=f"{x.kebab}.{y}", subject_component_id=y,
                             payload=Payload(probability=0.5, value="v"), timestamp=1.0, seq=seq,
                             publisher_id="monitor-1", threat_id="T-X")
            want = {sid for sid, pattern in table if topic_matches(pattern, n.topic)}
            assert broker.publish(n) == len(want)
            got = {sid for sid in SUBSCRIBER_IDS if broker.poll(sid) is not None}
            assert got == want
            assert all(broker.poll(sid) is None for sid in SUBSCRIBER_IDS)
        for sid in SUBSCRIBER_IDS:
            for pattern in PATTERNS:
                assert broker.has_subscription(sid, pattern) == ((sid, pattern) in table)


@given(
    event_type=EVENT_TYPES,
    subject=SUBJECTS,
    probability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    value=st.none() | st.text(max_size=20),
    seq=st.integers(min_value=1, max_value=10**6),
    ts=st.floats(min_value=0.0, max_value=10**9, allow_nan=False),
)
def test_notification_record_roundtrip(event_type, subject, probability, value, seq, ts):
    threat = "T-X" if event_type is EventType.THREAT_LEVEL_CHANGE else None
    n = Notification(
        type=event_type,
        topic=f"{event_type.kebab}.{subject}",
        subject_component_id=subject,
        payload=Payload(probability=probability, value=value),
        timestamp=ts,
        seq=seq,
        publisher_id="monitor-1",
        threat_id=threat,
    )
    n.validate()
    assert Notification.from_record(n.to_record()) == n


@settings(max_examples=60, deadline=None)
@given(
    metrics=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    ),
    weights=st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ).filter(lambda w: sum(w) > 0),
)
def test_ranking_is_a_sorted_permutation(metrics, weights):
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="start"),
            bpmn.ServiceTask(id="t1", operation_ref="op1"),
            bpmn.EndEvent(id="end"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="start", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="end"),
        ),
    )
    reg = CandidateRegistry(
        entries=(
            (
                "t1",
                tuple(
                    ComponentDescriptor(
                        id=f"c{j}",
                        provider="prov",
                        operation_ref="op1",
                        trustworthiness=t,
                        latency_score=q,
                        cost=c,
                    )
                    for j, (t, q, c) in enumerate(metrics)
                ),
            ),
        )
    )
    plans = generate_plans(pm, reg)
    ranked = rank_plans(plans, RankingCriteria(*weights), reg)
    assert sorted(p.plan_id for p in ranked) == sorted(p.plan_id for p in plans)
    keys = [(-p.rank_score, p.plan_id) for p in ranked]
    assert keys == sorted(keys)


# ids that sort before ('!', '#') and after ('0', 'a') the '+' joining plan ids
SELECTION_IDS = ("a", "a!", "a0", "ab", "#x", "b", "b-1", "c", "c_2", "z")
# (trust, qos, cost) profiles; ids share a few of them, so exact ties are
# common, and sums such as 0.1 + 0.2 vs 0.3 + 0.0 tie only up to rounding
SELECTION_PROFILES = st.sampled_from([
    (0.1, 0.2, 0.1), (0.3, 0.0, 0.1), (0.2, 0.1, 0.1), (0.0, 0.3, 0.1),
    (0.6, 0.3, 0.2), (0.9, 0.0, 0.2), (0.5, 0.5, 1.0), (1.0, 0.0, 0.0),
])
SELECTION_THREATS = ("T1", "T2")


@st.composite
def selection_cases(draw):
    pm = random_process(draw(st.randoms(use_true_random=False)), max_tasks=4)
    # no operationRefs, so one descriptor can serve several tasks
    pm = replace(pm, nodes=tuple(replace(n, operation_ref="") if isinstance(n, bpmn.ServiceTask) else n
                                 for n in pm.nodes))
    # one descriptor per id, so an id shared by several tasks is valid
    profiles = draw(st.lists(SELECTION_PROFILES, min_size=1, max_size=3))
    pool = {
        cid: ComponentDescriptor(cid, "prov", "", *draw(st.sampled_from(profiles)))
        for cid in SELECTION_IDS
    }
    entries = tuple(
        (t.id, tuple(pool[c] for c in draw(
            st.lists(st.sampled_from(SELECTION_IDS), min_size=1, max_size=3, unique=True))))
        for t in pm.service_tasks()
    )
    reg = CandidateRegistry(entries=entries)
    reg.validate_against(pm)
    weights = draw(st.tuples(*[st.sampled_from([0.0, 0.1, 0.3, 1.0])] * 3).filter(lambda w: sum(w) > 0))
    rules = [
        AdaptationRule(
            rule_id=f"r{k}",
            event_type=EventType.THREAT_LEVEL_CHANGE,
            subject_task_id=draw(st.sampled_from([t.id for t in pm.service_tasks()])),
            action=Action(kind=ActionKind.RECOMPOSE),
            threat_id=draw(st.sampled_from(SELECTION_THREATS)),
            predicate=Predicate(
                comparator=draw(st.sampled_from(list(Comparator))),
                threshold=draw(st.sampled_from([0.2, 0.5, 0.8])),
            ),
        )
        for k in range(draw(st.integers(0, 3)))
    ]
    levels = draw(st.dictionaries(
        st.tuples(st.sampled_from(SELECTION_IDS), st.sampled_from(SELECTION_THREATS)),
        st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
        max_size=6,
    ))
    flagged = draw(st.sets(st.sampled_from(SELECTION_IDS), max_size=3))
    return pm, reg, RankingCriteria(*weights), rules, levels, flagged


@settings(max_examples=200, deadline=None)
@given(case=selection_cases())
def test_select_plan_matches_first_passing_ranked_plan(case):
    pm, reg, criteria, rules, levels, flagged = case
    oracle = next(
        (
            p
            for p in rank_plans(generate_plans(pm, reg), criteria, reg)
            if not p.component_ids() & flagged and verify_plan(p, pm, rules, levels).passed
        ),
        None,
    )
    chosen = select_plan(candidate_table(pm, reg, criteria, rules), levels, flagged)
    if oracle is None:
        assert chosen is None
    else:
        assert chosen is not None
        assert (chosen.plan_id, chosen.bindings, chosen.rank_score) == (
            oracle.plan_id, oracle.bindings, oracle.rank_score,
        )
