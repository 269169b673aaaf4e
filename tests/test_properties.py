"""Property-based checks for the invariants that hold over whole input spaces."""

import functools
import itertools
import operator
import random
import re
from collections import Counter
from dataclasses import replace
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threatflow import bpmn, composition, runtime
from threatflow.bpmn import EndEvent, GatewayDirection, ParallelGateway, ProcessModel, StartEvent
from threatflow.bus import (
    Broker,
    EventType,
    Notification,
    Payload,
    Subscription,
    SubscriptionHandle,
    topic_for,
    topic_matches,
    validate_pattern,
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
from threatflow.errors import ComponentFault, DeploymentError, ValidationError
from threatflow.rules import (
    Action,
    ActionKind,
    AdaptationRule,
    Comparator,
    InstancePosition,
    Predicate,
    Scope,
    ScopeKind,
    TaskStatus,
)
from threatflow.runtime import EventKind, Outcome, ServiceStatus

from _generators import random_process, random_registry

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


# (trust, qos, cost) profiles that several candidates share, so plans tie exactly
RANK_PROFILES = st.sampled_from([
    (0.1, 0.2, 0.1), (0.3, 0.0, 0.1), (0.2, 0.1, 0.1), (0.6, 0.3, 0.2), (0.5, 0.5, 1.0), (0.0, 0.0, 0.0),
])


@st.composite
def ranking_cases(draw):
    """A chain of 1-4 tasks, each with up to three candidates; a candidate may
    have a bit-identical mirror whose id adds '!' (which sorts before the '+'
    joining plan ids, so the tie-break differs on the last task), and the
    costs may all be zero; with zero costs, weights of -0.0 give scores of
    -0.0."""
    n = draw(st.integers(1, 4))
    tasks = tuple(bpmn.ServiceTask(id=f"t{k}", operation_ref="op") for k in range(n))
    order = ["start", *(t.id for t in tasks), "end"]
    pm = ProcessModel(
        id="chain",
        nodes=(StartEvent(id="start"), *tasks, EndEvent(id="end")),
        flows=tuple(bpmn.SequenceFlow(id=f"f{k}", from_node=a, to_node=b)
                    for k, (a, b) in enumerate(zip(order, order[1:]))),
    )
    zero_costs = draw(st.booleans())
    names = st.lists(st.sampled_from(("a", "a0", "ab", "#x", "b", "z")), min_size=1, max_size=3, unique=True)
    entries = []
    for t in tasks:
        comps = []
        for name in draw(names):
            trust, qos, cost = draw(RANK_PROFILES)
            if zero_costs:
                cost = draw(st.sampled_from([0.0, -0.0]))
            c = ComponentDescriptor(f"{t.id}{name}", "prov", "op", trust, qos, cost)
            comps.append(c)
            if draw(st.booleans()):
                comps.append(replace(c, id=c.id + "!"))
        entries.append((t.id, tuple(comps)))
    weights = draw(st.tuples(*[st.sampled_from([-0.0, 0.0, 0.1, 0.3, 1.0])] * 3).filter(lambda w: sum(w) > 0))
    return pm, CandidateRegistry(entries=tuple(entries)), RankingCriteria(*weights)


@settings(max_examples=200, deadline=None)
@given(case=ranking_cases())
def test_ranking_matches_the_sorted_copies_it_replaced(case):
    pm, reg, criteria = case
    plans = generate_plans(pm, reg)
    known = {c.id: c for c in reg.all_components()}
    bound_comps = [[known[comp_id] for _, comp_id in p.bindings] for p in plans]
    max_mean_cost = max(composition._mean([c.cost for c in comps]) for comps in bound_comps)
    reference = sorted(
        [replace(p, rank_score=composition._score(comps, criteria, max_mean_cost))
         for p, comps in zip(plans, bound_comps)],
        key=lambda p: (-p.rank_score, p.plan_id),
    )
    ranked = rank_plans(plans, criteria, reg)
    # hex() tells -0.0 from 0.0
    assert [(p.plan_id, p.bindings, p.rank_score.hex()) for p in ranked] == [
        (p.plan_id, p.bindings, p.rank_score.hex()) for p in reference
    ]


def _score_before_one_pass(comps, criteria, max_mean_cost):
    """The ranking formula as three _mean calls, each a left fold from the
    int 0: the form every ranked score and selection was made in first."""
    def mean(values):
        return functools.reduce(operator.add, values, 0) / len(values) if values else 0.0

    norm_cost = mean([c.cost for c in comps]) / max_mean_cost if max_mean_cost > 0 else 0.0
    return (
        criteria.w_trust * mean([c.trustworthiness for c in comps])
        + criteria.w_qos * mean([c.latency_score for c in comps])
        - criteria.w_cost * norm_cost
    ) / (criteria.w_trust + criteria.w_qos + criteria.w_cost)


ZEROS_AND_SUBNORMALS = st.sampled_from([-0.0, 0.0, 5e-324, 1.1125369292536007e-308])
SCORE_UNIT = st.floats(min_value=0.0, max_value=1.0) | ZEROS_AND_SUBNORMALS
SCORE_COST = st.floats(min_value=0.0, max_value=1e308) | ZEROS_AND_SUBNORMALS | st.sampled_from([1e308, 2.0**969])


@settings(max_examples=300, deadline=None)
@given(
    profiles=st.lists(st.tuples(SCORE_UNIT, SCORE_UNIT, SCORE_COST), min_size=1, max_size=6),
    weights=st.tuples(SCORE_UNIT, SCORE_UNIT, SCORE_UNIT).filter(lambda w: sum(w) > 0),
    max_mean_cost=SCORE_COST,
)
def test_one_pass_score_matches_the_mean_based_formula(profiles, weights, max_mean_cost):
    comps = [ComponentDescriptor(f"c{j}", "prov", "op", t, q, c) for j, (t, q, c) in enumerate(profiles)]
    criteria = RankingCriteria(*weights)
    # hex() tells -0.0 from 0.0; nan (a sum past 1e308) hexes to 'nan' on both sides
    for plan in (comps, comps[:1], []):
        assert composition._score(plan, criteria, max_mean_cost).hex() == (
            _score_before_one_pass(plan, criteria, max_mean_cost).hex()
        )


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


class FullScanService(runtime.DeployedService):
    """Reference for the alert path: live instances found by scanning every
    instance, every instance rule evaluated against every live instance, and
    each instance's plan id and bindings kept in `eager`, copied from the
    plan at start; a plan switch rewrites every notStarted task of every live
    instance there from the new plan and counts the rewrites per task."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.eager = {}  # instance id -> [plan id, bindings]

    def start_instance(self, variables, run=True):
        with self._lock:
            plan = self._plan
            iid = super().start_instance(variables, run=False)
            self.eager[iid] = [plan.plan_id, dict(plan.bindings)]
            if run:
                self.run_instance(iid)
            return iid

    def live_instances(self):
        return [i for i in self.instances.values() if i.outcome is Outcome.IN_PROGRESS]

    def on_notification(self, n):
        with self._lock:
            if self.status is not ServiceStatus.RUNNING:
                return []
            try:
                n.validate()
            except ValidationError as exc:
                self._log(
                    EventKind.NOTIFICATION_RECEIVED,
                    {"topic": getattr(n, "topic", ""), "error": str(exc)},
                )
                return []
            self._log(
                EventKind.NOTIFICATION_RECEIVED,
                {
                    "type": n.type.value,
                    "topic": n.topic,
                    "subject": n.subject_component_id,
                    "publisher": n.publisher_id,
                    "publisherSeq": n.seq,
                },
            )
            if n.type is EventType.THREAT_LEVEL_CHANGE:
                self.threat_state.update(
                    n.subject_component_id, n.threat_id, n.payload.probability, n.timestamp
                )

            actions = []
            targets = [(None, dict(self._plan.bindings), self._service_rules)]
            targets += [(i, self.eager[i.instance_id][1], self._instance_rules) for i in self.live_instances()]
            for inst, bindings, rules in targets:
                position = inst.position() if inst else InstancePosition()
                for rule in rules:
                    binding = bindings.get(rule.subject_task_id)
                    if binding is None:
                        continue
                    if runtime.evaluate(rule, n, position, binding):
                        level = inst.instance_id if inst else "service"
                        self._log(EventKind.RULE_MATCHED, {"rule": rule.rule_id, "level": level, "topic": n.topic})
                        actions.append(self._execute_action(rule, n, inst))
                        if rule.action.kind in (ActionKind.STOP, ActionKind.RECOMPOSE):
                            return actions
            return actions

    def _adopt_bindings(self, changed):
        rewrites = Counter()
        for inst in self.live_instances():
            eager = self.eager[inst.instance_id]
            eager[0] = self._plan.plan_id
            for task_id, comp_id in self._plan.bindings:
                if inst.task_status.get(task_id) is TaskStatus.NOT_STARTED:
                    if eager[1].get(task_id) != comp_id:
                        rewrites[task_id] += 1
                    eager[1][task_id] = comp_id
        return [f"{t}:{c}:{rewrites[t]}" for t, c in self._plan.bindings if rewrites[t]]


class CaseInvoker(runtime.ComponentInvoker):
    def __init__(self, delays, faults):
        self.delays, self.faults = delays, faults

    def invoke(self, component_id, operation_ref, inputs):
        if component_id in self.faults:
            raise ComponentFault(self.faults[component_id])
        return component_id

    def delay_steps(self, component_id, operation_ref):
        return self.delays.get(component_id, 0)


ALERT_THREATS = ("T1", "T2")
RULE_EVENT_TYPES = (EventType.THREAT_LEVEL_CHANGE, EventType.TRUSTWORTHINESS_CHANGE)


@st.composite
def alert_cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    pm = random_process(rng, max_tasks=4, threat_pool=ALERT_THREATS)
    reg = random_registry(rng, pm, min_candidates=2)  # a switch off any one component finds a plan
    task_ids = [t.id for t in pm.service_tasks()]
    components = sorted({c.id for t in task_ids for c in reg.candidates(t)})
    rules = []
    for k in range(draw(st.integers(1, 6))):
        event_type = draw(st.sampled_from(RULE_EVENT_TYPES))
        action = draw(st.sampled_from(list(ActionKind)))
        params = ()
        if action is ActionKind.LAUNCH_PROCESS:
            params = (("processRef", draw(st.sampled_from(["aux", "self", "unknown"]))),)
        elif action is ActionKind.NOTIFY:
            params = (("message", f"m{k}"),)
        scope = draw(st.sampled_from(list(ScopeKind)))
        rules.append(AdaptationRule(
            rule_id=f"r{k}",
            event_type=event_type,
            subject_task_id=draw(st.sampled_from(task_ids)),
            action=Action(kind=action, params=params),
            scope=Scope(scope, None if scope is ScopeKind.WHOLE_PROCESS else draw(st.sampled_from(task_ids))),
            threat_id=draw(st.sampled_from(ALERT_THREATS)) if event_type is EventType.THREAT_LEVEL_CHANGE else None,
            predicate=draw(st.none() | st.builds(
                Predicate, st.sampled_from(list(Comparator)), st.sampled_from([0.2, 0.5, 0.8]))),
        ))
    # most components take extra steps, so started tasks stay active
    delays = {c: d for c in components if (d := draw(st.integers(0, 3)))}
    faults = draw(st.dictionaries(st.sampled_from(components), st.sampled_from([*ALERT_THREATS, "T-OTHER"]),
                                  max_size=1))
    start = st.tuples(st.just("start"), st.booleans())
    event_types, threats = st.sampled_from(RULE_EVENT_TYPES), st.sampled_from(ALERT_THREATS)
    levels = st.sampled_from([0.1, 0.5, 0.9])
    alert = st.tuples(st.just("alert"), event_types, st.integers(0, len(components)), threats, levels)
    step = st.tuples(st.just("step"), st.integers(0, 9), st.integers(1, 6))
    # a switch flags what the plan binds to a task, then alerts on it: the
    # live instances that started the task keep it off the plan
    switch = st.tuples(st.just("switch"), st.integers(0, len(task_ids) - 1), event_types, threats, levels)
    # a few instances are live from the start and step into their tasks;
    # starts, alerts and switches weigh double and steps triple; a stop op
    # stops the service one time in five
    ops = [("start", False)] * draw(st.integers(1, 3)) + draw(st.lists(step, min_size=1, max_size=4))
    ops += draw(st.lists(
        start | alert | step | switch | start | alert | step | switch | step
        | st.tuples(st.just("recompose"), st.sampled_from(components))
        | st.tuples(st.just("stop"), st.integers(0, 4)),
        min_size=4,
        max_size=30,
    ))
    return pm, reg, rules, components, delays, faults, ops


def _alert_service(cls, pm, reg, rules, delays, faults):
    criteria = RankingCriteria(0.6, 0.3, 0.1)
    aux = runtime.deploy(pm, reg, [], criteria, Broker(), CaseInvoker(delays, faults), service_id="aux")
    svc = cls(service_id="svc", process=pm, registry=reg, rules=rules, criteria=criteria, broker=Broker(),
              invoker=CaseInvoker(delays, faults), subscriptions=[], clock=iter(range(1, 10**6)).__next__,
              aux={"aux": aux})
    svc.aux["self"] = svc
    return svc


def _apply(svc, op, seq, components):
    kind = op[0]
    try:
        if kind == "start":
            return svc.start_instance({}, run=op[1])
        if kind == "step":
            live = svc.live_instances()
            if live:
                inst = live[op[1] % len(live)]
                for _ in range(op[2]):
                    if inst.outcome is Outcome.IN_PROGRESS:
                        svc.step(inst.instance_id)
            return None
        if kind == "alert":
            event_type, subject = op[1], [*components, "elsewhere"][op[2]]
            tlc = event_type is EventType.THREAT_LEVEL_CHANGE
            return svc.on_notification(Notification(
                type=event_type, topic=topic_for(event_type, subject), subject_component_id=subject,
                payload=Payload(probability=op[4]), timestamp=float(seq), seq=seq, publisher_id="monitor",
                threat_id=op[3] if tlc else None,
            ))
        if kind == "recompose":
            return svc.act_recompose(op[1])
        if kind == "switch":
            _, flagged = svc.active_plan().bindings[op[1]]
            alert = ("alert", op[2], components.index(flagged), op[3], op[4])
            return svc.act_recompose(flagged), _apply(svc, alert, seq, components)
        if op[1] == 0:
            svc.act_stop()
        return None
    except DeploymentError as exc:
        return str(exc)


def _bound(svc, inst):
    """An instance's plan id and bindings: the reference's eager copies, or
    what the service reports."""
    if isinstance(svc, FullScanService):
        return tuple(svc.eager[inst.instance_id])
    return inst.plan_id, inst.bindings


def _state(svc):
    return (
        svc.status,
        svc.active_plan_id,
        [i.instance_id for i in svc.live_instances()],
        {iid: (i.outcome, *_bound(svc, i), dict(i.task_status)) for iid, i in svc.instances.items()},
        [(e.seq, e.kind, e.detail) for e in svc.merged_log()],
    )


@settings(max_examples=300, deadline=None)
@given(case=alert_cases())
def test_alert_path_matches_the_full_scan_reference(case):
    """Same actions, events, bindings and live set as the full scan; the
    service evaluates a rule only where its event type and its subject
    task's binding match the alert, in the reference's order; and each task
    runs on the component the reference bound it to when it started."""
    pm, reg, rules, components, delays, faults, ops = case
    fast = _alert_service(runtime.DeployedService, pm, reg, rules, delays, faults)
    full = _alert_service(FullScanService, pm, reg, rules, delays, faults)
    evaluate = runtime.evaluate
    calls = []

    def recording(rule, n, position, binding):
        could_match = rule.event_type is n.type and binding == n.subject_component_id
        calls.append((rule.rule_id, binding, position, could_match))
        return evaluate(rule, n, position, binding)

    with mock.patch.object(runtime, "evaluate", recording):
        for seq, op in enumerate(ops, start=1):
            calls.clear()
            got = _apply(fast, op, seq, components)
            fast_calls = list(calls)
            calls.clear()
            want = _apply(full, op, seq, components)
            assert got == want, op
            assert _state(fast) == _state(full), op
            assert fast_calls == [c for c in calls if c[3]], op
    # the service's token path is the reference's too: each task event names
    # the component that the reference's own copy bound the task to at its start
    for e in full.merged_log():
        if e.kind in (EventKind.TASK_STARTED, EventKind.TASK_COMPLETED, EventKind.TASK_FAILED):
            assert e.detail["component"] == full.eager[e.detail["instance"]][1][e.detail["task"]], e


# --- design-time fast paths against the references they replace --------------

def _xml_char(ch: str) -> bool:
    """The Char production of XML 1.0."""
    cp = ord(ch)
    return ch in "\t\n\r" or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD or cp >= 0x10000


MARKUP = st.sampled_from("&<>\"'\n\r\t")
XML_CHARS = st.one_of(
    MARKUP,
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000),
)
ANY_CHARS = st.one_of(MARKUP, st.characters())
XML_TEXT, ANY_TEXT = st.text(XML_CHARS), st.text(ANY_CHARS)


@given(value=XML_TEXT)
def test_attribute_quoting_equals_quoteattr_on_xml_text(value):
    assert bpmn._quote(value) == quoteattr(value)


NOT_XML_CHARS = st.sampled_from([chr(cp) for cp in range(0x20) if chr(cp) not in "\t\n\r"]
                                + ["\ud800", "\udbff", "\udc00", "\udfff", "\ufffe", "\uffff"])


@given(head=XML_TEXT, bad=NOT_XML_CHARS, tail=ANY_TEXT)
def test_attribute_quoting_refuses_what_xml_cannot_carry(head, bad, tail):
    value = head + bad + tail
    with pytest.raises(ValidationError, match=re.escape(f"{value!r}: XML 1.0 cannot carry {bad!r}")):
        bpmn._quote(value)


@settings(deadline=None)
@given(
    ids=st.lists(st.text(XML_CHARS, min_size=1) | st.text(ANY_CHARS, min_size=1), min_size=8, max_size=8, unique=True),
    names=st.lists(XML_TEXT | ANY_TEXT, min_size=5, max_size=5),
)
@example(
    ids=["s&", "t<1>", 't"2\'', "e\n", "f\r1", "f\t2", "f 3", "b&<>\"'\n\r\t"],
    names=["p&<>", "n\"'", "n\r\n\t", "x'", ""],
)
def test_serialize_round_trips_or_refuses_any_text(ids, names):
    start, t1, t2, end, f1, f2, f3, boundary = ids
    pm = bpmn.ProcessModel(
        id=names[0] + "p",
        name=names[0],
        nodes=(
            bpmn.StartEvent(id=start),
            bpmn.ServiceTask(id=t1, name=names[1], operation_ref=names[2]),
            bpmn.ServiceTask(id=t2, name=names[3]),
            bpmn.EndEvent(id=end),
            bpmn.ErrorBoundaryEvent(id=boundary, attached_to=t1, error_ref=names[4] + "T", handler_target=end),
        ),
        flows=(
            bpmn.SequenceFlow(id=f1, from_node=start, to_node=t1),
            bpmn.SequenceFlow(id=f2, from_node=t1, to_node=t2),
            bpmn.SequenceFlow(id=f3, from_node=t2, to_node=end),
        ),
        errors=(bpmn.ErrorDecl(id=names[4] + "T", name=names[3]),),
    )
    try:
        doc = bpmn.serialize(pm)
    except ValidationError:
        assert bpmn.validate(pm) or not all(map(_xml_char, "".join(ids + names)))
        return
    assert bpmn.structurally_equal(bpmn.parse_bpmn(doc), pm)


def _validate_pattern_by_steps(pattern: str) -> None:
    """bus.validate_pattern as a sequence of checks, the reference for its
    one-regex accept path."""
    if not pattern or pattern.isspace():
        raise ValidationError("empty topic pattern")
    segments = pattern.split(".")
    if len(segments) < 2 or any(not s for s in segments):
        raise ValidationError(f"pattern {pattern!r} must be '<event-type>.<subject>'")
    head, tail = segments[0], segments[1:]
    if "*" in head or any("*" in s for s in tail[:-1]):
        raise ValidationError(f"pattern {pattern!r}: '*' is only valid as the trailing segment")
    if tail[-1] != "*" and "*" in tail[-1]:
        raise ValidationError(f"pattern {pattern!r}: partial wildcards are not supported")
    if tail[-1] == "*" and len(tail) != 1:
        raise ValidationError(f"pattern {pattern!r}: wildcard must follow the event-type segment")


def _pattern_verdict(check, pattern):
    try:
        check(pattern)
    except ValidationError as exc:
        return str(exc)
    return None


def test_validate_pattern_matches_the_step_by_step_checks_on_short_patterns():
    for size in range(7):
        for chars in itertools.product("a.* \n-", repeat=size):
            pattern = "".join(chars)
            assert _pattern_verdict(validate_pattern, pattern) == _pattern_verdict(
                _validate_pattern_by_steps, pattern), pattern


@given(pattern=st.text(st.sampled_from("ab.*- \n\t\u3000")) | st.text())
def test_validate_pattern_matches_the_step_by_step_checks(pattern):
    assert _pattern_verdict(validate_pattern, pattern) == _pattern_verdict(_validate_pattern_by_steps, pattern)


UNIT = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([-0.0, 0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    profiles=st.lists(
        st.tuples(UNIT, UNIT, st.floats(min_value=0.0, max_value=1e6) | st.sampled_from([-0.0, 0.0])),
        min_size=1, max_size=6,
    ),
    weights=st.tuples(UNIT, UNIT, UNIT).filter(lambda w: sum(w) > 0),
)
def test_candidate_table_one_task_scores_equal_the_score_formula(profiles, weights):
    pm = random_process(random.Random(len(profiles)), max_tasks=3, parallel_ok=False)
    tasks = pm.service_tasks()
    reg = CandidateRegistry(entries=tuple(
        (t.id, tuple(ComponentDescriptor(f"{t.id}-c{j}", "prov", t.operation_ref, trust, qos, cost)
                     for j, (trust, qos, cost) in enumerate(profiles[k:] or profiles)))
        for k, t in enumerate(tasks)
    ))
    criteria = RankingCriteria(*weights)
    table = candidate_table(pm, reg, criteria, [])
    for _, scored, _ in table.rows:
        for score, c in scored:
            assert score.hex() == composition._score([c], criteria, table.max_mean_cost).hex()


# --- the one-pass structure check against the three walks it replaced -------

def _check_acyclic(pm: ProcessModel) -> list[str]:
    """Runs after the id, endpoint and boundary checks pass, so the index's
    topological order holds every node iff the flows are acyclic; the search
    below only names a node on a cycle."""
    if len(pm.index.order) == len(pm.nodes):
        return []
    succ = pm.index.successors
    WHITE, GREY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in succ}
    for root in succ:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GREY
        while stack:
            nid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[nid] = BLACK
                stack.pop()
            elif color[nxt] == GREY:
                return [f"cycle detected through node {nxt!r}"]
            elif color[nxt] == WHITE:
                color[nxt] = GREY
                stack.append((nxt, iter(succ[nxt])))
    return []


def _check_reachability(pm: ProcessModel) -> list[str]:
    idx = pm.index
    seen = set()
    frontier = [pm.start_event().id]
    while frontier:
        nid = frontier.pop()
        if nid in seen:
            continue
        seen.add(nid)
        frontier.extend(idx.successors.get(nid, ()))
        for b in idx.boundaries.get(nid, {}).values():
            frontier += [b.id, b.handler_target]
    return [
        f"node {n.id!r} is unreachable from the start event"
        for n in pm.nodes
        if n.id not in seen and not isinstance(n, StartEvent)
    ]


def _check_gateway_pairing(pm: ProcessModel) -> list[str]:
    """Every fork must converge on one matching join across all branches."""
    v: list[str] = []
    nodes, succ, indeg = pm.index.nodes, pm.index.successors, pm.index.indegree
    forks = [n for n in pm.nodes if isinstance(n, ParallelGateway) and n.direction is GatewayDirection.FORK]
    joins = {n.id for n in pm.nodes if isinstance(n, ParallelGateway) and n.direction is GatewayDirection.JOIN}

    join_of: dict[str, str | None] = {}

    def find_join(fork_id: str) -> str | None:
        if fork_id in join_of:
            return join_of[fork_id]
        join_of[fork_id] = None  # guards (unreachable) recursion
        found: set[str | None] = set()
        for branch_head in succ[fork_id]:
            found.add(_walk_branch(branch_head))
        if len(found) == 1 and None not in found:
            join = found.pop()
            if indeg[join] != len(succ[fork_id]):
                v.append(
                    f"join {join!r} has {indeg[join]} incoming flows but fork "
                    f"{fork_id!r} has {len(succ[fork_id])} branches"
                )
            join_of[fork_id] = join
            return join
        v.append(f"fork {fork_id!r} branches do not converge on a single join")
        return None

    def _walk_branch(node_id: str) -> str | None:
        while True:
            node = nodes[node_id]
            if isinstance(node, ParallelGateway) and node.direction is GatewayDirection.JOIN:
                return node_id
            if isinstance(node, EndEvent):
                return None
            if isinstance(node, ParallelGateway) and node.direction is GatewayDirection.FORK:
                inner = find_join(node_id)
                if inner is None:
                    return None
                node_id = succ[inner][0]
                continue
            nxt = succ[node_id]
            if len(nxt) != 1:
                return None
            node_id = nxt[0]

    matched: set[str] = set()
    for fork in forks:
        j = find_join(fork.id)
        if j is not None:
            if j in matched:
                v.append(f"join {j!r} matched by more than one fork")
            matched.add(j)
    for j in joins - matched:
        v.append(f"join {j!r} has no matching fork")
    return v


def _reference_structure(pm):
    """What validate() reported once the id, flow, boundary and degree
    checks passed, before one pass over the topological order replaced
    these three walks; reachability ran only on acyclic flows."""
    return _check_acyclic(pm) or _check_reachability(pm) + _check_gateway_pairing(pm)


@st.composite
def degree_valid_graphs(draw):
    """Flows between the out- and in-slots that the degree rules give each
    node, matched at random or, half the time, forward along a random
    ranking where it can, so that acyclic graphs are common; sometimes an
    end event that only a boundary handler feeds."""
    nodes = [bpmn.StartEvent(id="start")]
    outs, ins = ["start"], []
    for i in range(draw(st.integers(0, 4))):
        nodes.append(bpmn.ServiceTask(id=f"t{i}"))
        outs.append(f"t{i}")
        ins.append(f"t{i}")
    for i in range(draw(st.integers(0, 3))):
        nodes.append(bpmn.ParallelGateway(id=f"g{i}f", direction=GatewayDirection.FORK))
        outs += [f"g{i}f"] * draw(st.integers(2, 4))
        ins.append(f"g{i}f")
    for i in range(draw(st.integers(0, 3))):
        nodes.append(bpmn.ParallelGateway(id=f"g{i}j", direction=GatewayDirection.JOIN))
        outs.append(f"g{i}j")
        ins += [f"g{i}j"] * draw(st.integers(2, 4))
    if len(outs) <= len(ins):  # one more fork leaves a flow over for an end event
        nodes.append(bpmn.ParallelGateway(id="gxf", direction=GatewayDirection.FORK))
        outs += ["gxf"] * (len(ins) - len(outs) + 2)
        ins.append("gxf")
    rank = {nid: k for k, nid in enumerate(draw(st.permutations([n.id for n in nodes[1:]])), start=1)}
    rank["start"] = 0
    surplus = len(outs) - len(ins)
    first = draw(st.integers(1, surplus))
    nodes.append(bpmn.EndEvent(id="end"))
    ins += ["end"] * first + ["end2"] * (surplus - first)
    if surplus > first:
        nodes.append(bpmn.EndEvent(id="end2"))
    forward = draw(st.booleans())
    flows = []
    for a in sorted(outs, key=rank.__getitem__, reverse=True):
        later = [b for b in ins if rank.get(b, len(nodes)) > rank[a]] if forward else []
        b = draw(st.sampled_from(later or ins))
        ins.remove(b)
        flows.append(bpmn.SequenceFlow(f"f{len(flows):02d}", a, b))
    pm = bpmn.ProcessModel(id="p", nodes=tuple(nodes), flows=tuple(flows))
    tasks = [n.id for n in nodes if isinstance(n, bpmn.ServiceTask)]
    if tasks and draw(st.booleans()):
        pm = replace(pm, nodes=pm.nodes + (bpmn.EndEvent(id="end-h"),))
        pm = bpmn.attach_threat(pm, draw(st.sampled_from(tasks)), "T1", handler_target="end-h")
    return pm


def _after(pm, node_id):
    """The nodes that node_id reaches along flows, itself excluded."""
    seen, frontier = set(), list(pm.index.successors[node_id])
    while frontier:
        nid = frontier.pop()
        if nid not in seen:
            seen.add(nid)
            frontier += pm.index.successors[nid]
    return sorted(seen)


@st.composite
def nested_models(draw, forward_only=False, variables=False):
    """Valid structured models: sequences of tasks and forks whose branches
    are sequences again, nested up to three deep, with 2-4 branches, some
    branches empty, and 1-4 boundary handlers. Half the time, where a task
    inside a fork has an earlier task in its sequence, both also carry one:
    the earlier task's handler skips past the task, and the task's handler
    targets a join around it, an outer one when the first handler lands on
    the inner one. So the join meets of the input pass often see a handler
    onto an outer join from inside an inner fork beside a handler that
    skips a setter in the same branch. Any other handler targets any node,
    boundary events included, or half the time (always if forward_only) a
    node after its task, so that both the handler sets validate refuses and
    those it keeps are common. With variables, the skipping task sets z,
    which no other task sets, each other task may set x or y, and each task
    reads those that a task before it sets or, one time in four, those that
    any task sets, itself or a later or sibling task included."""
    nodes, flows, ids = [bpmn.StartEvent(id="start")], [], itertools.count()
    where = {}  # task -> the nodes of its sequence then the node after it, the task's place there, the joins around it

    def link(a, b):
        flows.append(bpmn.SequenceFlow(f"f{next(ids):03d}", a, b))

    def sequence(prev, depth, least, joins=()):
        items = []
        for _ in range(draw(st.integers(least, 3))):
            k = next(ids)
            if depth < 3 and draw(st.booleans()):
                fork, join = f"g{k}f", f"g{k}j"
                nodes.append(bpmn.ParallelGateway(id=fork, direction=GatewayDirection.FORK))
                link(prev, fork)
                branch_ends = [sequence(fork, depth + 1, 0, joins + (join,)) for _ in range(draw(st.integers(2, 4)))]
                nodes.append(bpmn.ParallelGateway(id=join, direction=GatewayDirection.JOIN))
                for end in branch_ends:
                    link(end, join)
                items.append(fork)
                prev = join
            else:
                nodes.append(bpmn.ServiceTask(id=f"t{k}"))
                link(prev, f"t{k}")
                items.append(f"t{k}")
                prev = f"t{k}"
        ahead = items + [joins[-1] if joins else "end"]
        for i, nid in enumerate(items):
            if nid.startswith("t"):
                where[nid] = (ahead, i, joins)
        return prev

    link(sequence("start", 0, 1), "end")
    nodes.append(bpmn.EndEvent(id="end"))
    handler_end = draw(st.booleans())
    if handler_end:
        nodes.append(bpmn.EndEvent(id="end-h"))
    pm = bpmn.ProcessModel(id="p", nodes=tuple(nodes), flows=tuple(flows))
    tasks = [n.id for n in pm.service_tasks()]
    chosen = draw(st.lists(st.sampled_from(tasks), unique=True, min_size=1, max_size=4)) if tasks else []
    forced, skipping = {}, None  # task -> handler target; the task whose handler skips a later one
    pairs = []  # (earlier task, task, the nodes past the task that leave a join around it free)
    for t in tasks:
        ahead, i, joins = where[t]
        past = ahead[i + 1:] if len(joins) > 1 else ahead[i + 1:-1] if joins else []
        pairs += [(u, t, past) for u in tasks if past and where[u][0] is ahead and where[u][1] < i]
    if pairs and draw(st.booleans()):
        skipping, t, past = draw(st.sampled_from(pairs))
        forced[skipping] = draw(st.sampled_from(past))
        forced[t] = draw(st.sampled_from([j for j in where[t][2] if j != forced[skipping]]))
    for task in dict.fromkeys(chosen + list(forced)):
        pm = bpmn.attach_threat(pm, task, "T1", handler_target="end")
    anywhere = [n.id for n in pm.nodes]
    extra = ["end-h"] if handler_end else []
    pm = replace(pm, nodes=tuple(
        replace(n, handler_target=forced.get(n.attached_to) or draw(st.sampled_from(
            _after(pm, n.attached_to) + extra if forward_only or draw(st.booleans()) else anywhere
        ))) if isinstance(n, bpmn.ErrorBoundaryEvent) else n
        for n in pm.nodes
    ))
    if handler_end and all(b.handler_target != "end-h" for b in pm.boundary_events()):
        pm = replace(pm, nodes=tuple(n for n in pm.nodes if n.id != "end-h"))
    if variables:
        outputs = {t: "z" if t == skipping else draw(st.sampled_from(["", "x", "y"])) for t in tasks}
        after, inputs = {u: set(_after(pm, u)) for u in tasks}, {}
        for t in tasks:
            setters = tasks if draw(st.integers(0, 3)) == 0 else [u for u in tasks if t in after[u]]
            pool = sorted({outputs[u] for u in setters} - {""})
            inputs[t] = tuple(draw(st.lists(st.sampled_from(pool), unique=True))) if pool else ()
        pm = replace(pm, nodes=tuple(
            replace(n, output_var=outputs[n.id], input_vars=inputs[n.id]) if isinstance(n, bpmn.ServiceTask) else n
            for n in pm.nodes
        ))
    return pm


@st.composite
def flow_swap_mutants(draw):
    """A nested model with the targets of 1-3 pairs of flows swapped, which
    keeps every node's in- and out-degree."""
    pm = draw(nested_models())
    targets = [f.to_node for f in pm.flows]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, len(targets) - 1)), draw(st.integers(0, len(targets) - 1))
        targets[a], targets[b] = targets[b], targets[a]
    return replace(pm, flows=tuple(replace(f, to_node=t) for f, t in zip(pm.flows, targets)))


# two joins each close two of a fork's four branches: every flow into each
# join carries the same open fork, so only the branch count rejects it
FORK_CLOSED_BY_TWO_JOINS = bpmn.ProcessModel(
    id="p",
    nodes=(
        bpmn.StartEvent(id="start"),
        bpmn.ParallelGateway(id="g", direction=GatewayDirection.FORK),
        bpmn.ParallelGateway(id="j1", direction=GatewayDirection.JOIN),
        bpmn.ParallelGateway(id="j2", direction=GatewayDirection.JOIN),
        bpmn.EndEvent(id="end"),
    ),
    flows=tuple(bpmn.SequenceFlow(f"f{k}", a, b) for k, (a, b) in enumerate([
        ("start", "g"), ("g", "j1"), ("g", "j1"), ("g", "j2"), ("g", "j2"), ("j1", "end"), ("j2", "end"),
    ])),
)


# fork g's two branches each carry a token out of it to task c: each alone
# completes, but when both a and b fault, c runs twice
TWO_BRANCHES_OUT = bpmn.ProcessModel(
    id="p",
    nodes=(
        bpmn.StartEvent(id="start"),
        bpmn.ParallelGateway(id="g", direction=GatewayDirection.FORK),
        bpmn.ServiceTask(id="a"),
        bpmn.ServiceTask(id="b"),
        bpmn.ParallelGateway(id="j", direction=GatewayDirection.JOIN),
        bpmn.ServiceTask(id="c"),
        bpmn.EndEvent(id="end"),
        bpmn.ErrorBoundaryEvent(id="boundary-a-T1", attached_to="a", error_ref="T1", handler_target="c"),
        bpmn.ErrorBoundaryEvent(id="boundary-b-T1", attached_to="b", error_ref="T1", handler_target="c"),
    ),
    flows=tuple(bpmn.SequenceFlow(f"f{k}", a, b) for k, (a, b) in enumerate([
        ("start", "g"), ("g", "a"), ("g", "b"), ("a", "j"), ("b", "j"), ("j", "c"), ("c", "end"),
    ])),
    errors=(bpmn.ErrorDecl(id="T1"),),
)


def _reference_handlers(pm):
    """The handler rule by brute force, from the set of nodes that each node
    reaches along flows. A node lies in the branch of fork F headed by h when
    h reaches it and some other branch of F does not; a flow lies in the
    branches its source lies in, and in the one it opens if it leaves a
    fork. A handler may target an end event, or a node that its task reaches
    and that some flow enters lying only in branches its task lies in. The
    handlers that leave a fork for any node but an end event lie in one of
    its branches: a handler leaving it from another branch than the first
    one does, in model order, is refused."""
    nodes = {n.id: n for n in pm.nodes}
    reach = {nid: {nid} for nid in nodes}
    changed = True
    while changed:  # grow each node's set by its successors' until none grows
        changed = False
        for f in pm.flows:
            if not reach[f.to_node] <= reach[f.from_node]:
                reach[f.from_node] |= reach[f.to_node]
                changed = True
    heads = {
        nid: [f.to_node for f in pm.flows if f.from_node == nid]
        for nid, n in nodes.items()
        if isinstance(n, ParallelGateway) and n.direction is GatewayDirection.FORK
    }

    def branches(nid):
        return {(f, h) for f, hs in heads.items() for h in hs
                if nid in reach[h] and any(nid not in reach[o] for o in hs)}

    def on(flow):
        return branches(flow.from_node) | ({(flow.from_node, flow.to_node)} if flow.from_node in heads else set())

    def outermost(pairs):
        return sorted(pairs, key=lambda pair: len(branches(pair[0])))

    v, leaving = [], {}
    for b in pm.boundary_events():
        task, target = b.attached_to, b.handler_target
        if isinstance(nodes[target], bpmn.ErrorBoundaryEvent):
            v.append(f"boundary event {b.id!r} handler targets boundary event {target!r}")
            continue
        if isinstance(nodes[target], EndEvent):
            continue
        mine = branches(task)
        into = [f for f in pm.flows if f.to_node == target]
        kept = [on(f) for f in into if on(f) <= mine]
        if into and not kept:
            fork = outermost(on(into[0]) - mine)[0][0]
            v.append(f"boundary event {b.id!r} handler target {target!r} enters fork {fork!r} "
                     f"outside the branch of task {task!r}")
        elif target == task or target not in reach[task]:
            v.append(f"boundary event {b.id!r} handler target {target!r} leads back to task {task!r}")
        else:
            left = outermost(mine - kept[0])
            for fork, head in left:
                leaving.setdefault(fork, (head, b.id))
            clash = next((fork for fork, head in left if leaving[fork][0] != head), None)
            if clash:
                v.append(f"boundary events {leaving[clash][1]!r} and {b.id!r} carry tokens out of fork "
                         f"{clash!r} from two of its branches")
    return v


def _reference_inputs(pm):
    """The input rule by brute force over runs. Each task that carries
    boundary events faults with one of them or with none; a run's graph
    keeps the flows out of the tasks that do not fault and adds one from
    each faulting task to its handler target. The start fires, then a join
    once as many edges from fired nodes enter it as flows do, and any other
    node once one does. Each fired task must find each input variable that
    some task sets set by a task that does not fault on a path of fired
    edges into it: a run may reach it before any other task completes. A
    task is reported with the first input it misses in some run."""
    nodes = {n.id: n for n in pm.nodes}
    tasks = [n for n in pm.nodes if isinstance(n, bpmn.ServiceTask)]
    produced = {t.output_var for t in tasks if t.output_var}
    indegree = Counter(f.to_node for f in pm.flows)
    carried = {}
    for b in pm.boundary_events():
        carried.setdefault(b.attached_to, [None]).append(b)
    missed = {t.id: set() for t in tasks}
    for chosen in itertools.product(*carried.values()):
        faulting = {b.attached_to: b.handler_target for b in chosen if b}
        edges = [(f.from_node, f.to_node) for f in pm.flows if f.from_node not in faulting] + list(faulting.items())
        out, into = {nid: [] for nid in nodes}, {nid: [] for nid in nodes}
        for a, b in edges:
            out[a].append(b)
            into[b].append(a)
        entered, fired, frontier = Counter(), {"start"}, ["start"]
        while frontier:
            for b in out[frontier.pop()]:
                entered[b] += 1
                is_join = isinstance(nodes[b], ParallelGateway) and nodes[b].direction is GatewayDirection.JOIN
                if b not in fired and entered[b] >= (indegree[b] if is_join else 1):
                    fired.add(b)
                    frontier.append(b)
        done = {}  # fired node -> the outputs of the tasks that do not fault on a path of fired edges into it

        def set_before(nid):
            if nid not in done:
                done[nid] = set().union(*(
                    set_before(a) | ({nodes[a].output_var} if isinstance(nodes[a], bpmn.ServiceTask)
                                     and a not in faulting else set())
                    for a in into[nid] if a in fired
                ))
            return done[nid]

        for t in tasks:
            if t.id in fired:
                missed[t.id] |= {var for var in t.input_vars if var in produced and var not in set_before(t.id)}
    return [
        f"task {t.id!r} may run without its input variable {var!r}: a run reaches it before any task that "
        "sets it completes"
        for t in pm.index.service_tasks
        if (var := next((var for var in t.input_vars if var in missed[t.id]), None))
    ]


@settings(max_examples=400, deadline=None)
@given(pm=degree_valid_graphs() | nested_models() | nested_models(variables=True) | flow_swap_mutants())
@example(pm=FORK_CLOSED_BY_TWO_JOINS)
@example(pm=TWO_BRANCHES_OUT)
def test_structure_check_matches_the_three_reference_walks(pm):
    assume(all(f.from_node != f.to_node for f in pm.flows))  # a self-loop fails an earlier check
    structure = bpmn._check_structure(pm)
    reference = _reference_structure(pm)
    # the three walks decide the flow violations; once the flows hold, the
    # pass reports exactly the handler violations, and once those hold, the
    # input violations
    flow_violations = [p for p in structure if not p.startswith(("boundary event", "task "))]
    assert bool(flow_violations) == bool(reference), (structure, reference)
    assert structure == (flow_violations or _reference_handlers(pm) or _reference_inputs(pm))
    # every earlier check passes
    assert bpmn.validate(pm) == structure
    if not _check_acyclic(pm):
        assert _check_reachability(pm) == []


@settings(max_examples=200, deadline=None)
@given(pm=nested_models(forward_only=True, variables=True))
def test_input_check_matches_the_fault_subset_reference(pm):
    """Once the flows and handlers hold, validate refuses exactly the tasks
    that some run, under some subset of faulting tasks, reaches before a
    task that sets one of their inputs completes."""
    assume(not _reference_handlers(pm))
    assert bpmn.validate(pm) == _reference_inputs(pm)


@settings(max_examples=300, deadline=None)
@given(
    pm=nested_models(forward_only=True) | nested_models(forward_only=True, variables=True),
    steps=st.lists(st.integers(0, 2), max_size=30),
)
@example(pm=TWO_BRANCHES_OUT, steps=[])
def test_a_run_completes_whichever_tasks_fault_once_validate_keeps_the_handlers(pm, steps):
    """The runtime as oracle: in a model that validate accepts, a run ends
    COMPLETED whichever subset of the tasks that carry a handler faults,
    however the tasks' extra steps interleave the branches. Handlers target
    nodes after their tasks, which validate mostly keeps, and tasks read
    variables that tasks set, mostly tasks before them."""
    if bpmn.validate(pm):
        return
    reg = random_registry(random.Random(0), pm, max_candidates=1)
    delays = {f"{t.id}-c1": d for t, d in zip(pm.service_tasks(), steps)}
    tasks = [b.attached_to for b in pm.boundary_events()]
    for faulting in itertools.chain.from_iterable(itertools.combinations(tasks, k) for k in range(len(tasks) + 1)):
        invoker = CaseInvoker(delays, {f"{t}-c1": "T1" for t in faulting})
        svc = runtime.deploy(pm, reg, [], RankingCriteria(1.0, 0.0, 0.0), Broker(), invoker)
        inst = svc.instances[svc.start_instance({})]
        assert (inst.outcome, inst.error) == (Outcome.COMPLETED, None), faulting


@settings(max_examples=300, deadline=None)
@given(pm=nested_models(forward_only=True, variables=True), steps=st.lists(st.integers(0, 2), max_size=30))
def test_a_run_completes_when_one_task_faults_once_validate_keeps_the_handlers_and_their_inputs(pm, steps):
    """The runtime as oracle for the input-variable rule, one fault at a
    time: in a model that validate accepts, a run ends COMPLETED with no
    task faulting and whichever one task that carries a handler faults,
    however the tasks' extra steps interleave the branches."""
    if bpmn.validate(pm):
        return
    reg = random_registry(random.Random(0), pm, max_candidates=1)
    delays = {f"{t.id}-c1": d for t, d in zip(pm.service_tasks(), steps)}
    for faulting in [None, *(b.attached_to for b in pm.boundary_events())]:
        invoker = CaseInvoker(delays, {f"{faulting}-c1": "T1"} if faulting else {})
        svc = runtime.deploy(pm, reg, [], RankingCriteria(1.0, 0.0, 0.0), Broker(), invoker)
        inst = svc.instances[svc.start_instance({})]
        assert (inst.outcome, inst.error) == (Outcome.COMPLETED, None), faulting
