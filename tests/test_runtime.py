import itertools
from collections import Counter
from dataclasses import replace

import pytest

from threatflow import bpmn, runtime
from threatflow.bus import Broker, EventType, Notification, Payload, Publisher, Subscription
from threatflow.composition import CandidateRegistry, ComponentDescriptor, RankingCriteria
from threatflow.errors import (
    ComponentFault,
    DeploymentError,
    PlanCountExceededError,
    ValidationError,
)
from threatflow.rules import (
    Action,
    ActionKind,
    AdaptationRule,
    Comparator,
    Predicate,
    Scope,
    ScopeKind,
    TaskStatus,
)
from threatflow.runtime import EventKind, Outcome, ServiceStatus, deploy, export_log_lines


class ScriptedInvoker(runtime.ComponentInvoker):
    """Returns canned results per component; can fault or stall on demand."""

    def __init__(self, faults=None, delays=None):
        self.faults = dict(faults or {})
        self.delays = dict(delays or {})
        self.calls = []

    def invoke(self, component_id, operation_ref, inputs):
        self.calls.append((component_id, operation_ref, dict(inputs)))
        if component_id in self.faults:
            raise ComponentFault(self.faults[component_id])
        return f"out-{component_id}"

    def delay_steps(self, component_id, operation_ref):
        return self.delays.get(component_id, 0)


def linear_model(n_tasks=2, wired=True):
    nodes = [bpmn.StartEvent(id="start")]
    flows = []
    prev = "start"
    prev_var = "seed" if wired else ""
    for i in range(1, n_tasks + 1):
        tid = f"t{i}"
        nodes.append(
            bpmn.ServiceTask(
                id=tid,
                operation_ref=f"op{i}",
                input_vars=(prev_var,) if wired else (),
                output_var=f"v{i}" if wired else "",
            )
        )
        flows.append(bpmn.SequenceFlow(id=f"f{i}", from_node=prev, to_node=tid))
        prev = tid
        prev_var = f"v{i}"
    nodes.append(bpmn.EndEvent(id="end"))
    flows.append(bpmn.SequenceFlow(id=f"f{n_tasks + 1}", from_node=prev, to_node="end"))
    return bpmn.ProcessModel(id="p", nodes=tuple(nodes), flows=tuple(flows))


def registry_for(pm, counts=None):
    counts = counts or {}
    entries = []
    for t in pm.service_tasks():
        k = counts.get(t.id, 1)
        entries.append(
            (
                t.id,
                tuple(
                    ComponentDescriptor(
                        id=f"{t.id}-c{j}",
                        provider="prov",
                        operation_ref=t.operation_ref,
                        trustworthiness=round(1.0 - 0.1 * j, 2),
                        latency_score=0.5,
                        cost=1.0,
                    )
                    for j in range(1, k + 1)
                ),
            )
        )
    return CandidateRegistry(entries=tuple(entries))


CRITERIA = RankingCriteria(w_trust=0.6, w_qos=0.3, w_cost=0.1)


def tlc_rule(rule_id="r1", task="t1", threat="T-DOS", action=ActionKind.RECOMPOSE,
             scope=None, threshold=0.5, params=()):
    return AdaptationRule(
        rule_id=rule_id,
        event_type=EventType.THREAT_LEVEL_CHANGE,
        subject_task_id=task,
        action=Action(kind=action, params=tuple(params)),
        scope=scope or Scope(kind=ScopeKind.WHOLE_PROCESS),
        threat_id=threat,
        predicate=Predicate(comparator=Comparator.GE, threshold=threshold),
    )


def make_service(pm=None, counts=None, rules=(), invoker=None, service_id="svc", aux=None, broker=None):
    pm = pm or linear_model()
    svc = deploy(
        pm,
        registry_for(pm, counts),
        rules=list(rules),
        criteria=CRITERIA,
        broker=broker or Broker(),
        invoker=invoker or ScriptedInvoker(),
        service_id=service_id,
        clock=itertools.count(1).__next__,
        aux=aux,
    )
    return svc


def test_deploy_activates_best_plan_and_subscribes():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    assert svc.active_plan_id == svc.plans[0].plan_id
    assert svc.plans[0].rank_score >= svc.plans[1].rank_score
    assert svc.subscriptions == ["threat-level-change.t1-c1", "threat-level-change.t1-c2"]
    assert svc.status is ServiceStatus.RUNNING


def test_deploy_rejects_invalid_model_and_uncovered_tasks():
    pm = linear_model()
    broken = bpmn.ProcessModel(id="b", nodes=(bpmn.StartEvent(id="s"),))
    with pytest.raises(ValidationError):
        deploy(broken, CandidateRegistry(), [], CRITERIA, Broker(), ScriptedInvoker())
    with pytest.raises(DeploymentError):
        deploy(pm, CandidateRegistry(), [], CRITERIA, Broker(), ScriptedInvoker())


def test_deploy_rejects_reserved_service_id():
    pm = linear_model()
    with pytest.raises(ValidationError):
        deploy(pm, registry_for(pm), [], CRITERIA, Broker(), ScriptedInvoker(), service_id="a.b")


def test_instance_runs_linear_chain_and_pipes_variables():
    invoker = ScriptedInvoker()
    svc = make_service(invoker=invoker)
    iid = svc.start_instance({"seed": "s0"})
    inst = svc.instances[iid]
    assert inst.outcome is Outcome.COMPLETED
    assert inst.report == {"seed": "s0", "v1": "out-t1-c1", "v2": "out-t2-c1"}
    assert [c[0] for c in invoker.calls] == ["t1-c1", "t2-c1"]
    assert invoker.calls[1][2] == {"v1": "out-t1-c1"}  # t2 consumed t1's output
    kinds = [e.kind for e in svc.merged_log()]
    assert kinds == [
        EventKind.TASK_STARTED, EventKind.TASK_COMPLETED,
        EventKind.TASK_STARTED, EventKind.TASK_COMPLETED,
    ]


def test_start_instance_requires_process_inputs():
    svc = make_service()
    assert svc.required_inputs() == ["seed"]
    with pytest.raises(ValidationError):
        svc.start_instance({})


def test_parallel_branches_both_execute_before_join():
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="start"),
            bpmn.ParallelGateway(id="fork", direction=bpmn.GatewayDirection.FORK),
            bpmn.ServiceTask(id="ta", operation_ref="opa", output_var="va"),
            bpmn.ServiceTask(id="tb", operation_ref="opb", output_var="vb"),
            bpmn.ParallelGateway(id="join", direction=bpmn.GatewayDirection.JOIN),
            bpmn.ServiceTask(id="tc", operation_ref="opc", input_vars=("va", "vb")),
            bpmn.EndEvent(id="end"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="start", to_node="fork"),
            bpmn.SequenceFlow(id="f2", from_node="fork", to_node="ta"),
            bpmn.SequenceFlow(id="f3", from_node="fork", to_node="tb"),
            bpmn.SequenceFlow(id="f4", from_node="ta", to_node="join"),
            bpmn.SequenceFlow(id="f5", from_node="tb", to_node="join"),
            bpmn.SequenceFlow(id="f6", from_node="join", to_node="tc"),
            bpmn.SequenceFlow(id="f7", from_node="tc", to_node="end"),
        ),
    )
    invoker = ScriptedInvoker()
    svc = make_service(pm=pm, invoker=invoker)
    iid = svc.start_instance({})
    assert svc.instances[iid].outcome is Outcome.COMPLETED
    called = [c[0] for c in invoker.calls]
    assert called.index("tc-c1") == 2  # tc strictly after both branches
    assert set(called[:2]) == {"ta-c1", "tb-c1"}


def test_matching_fault_reroutes_through_boundary():
    pm = bpmn.attach_threat(linear_model(wired=False), "t1", "T-DOS")
    svc = make_service(pm=pm, invoker=ScriptedInvoker(faults={"t1-c1": "T-DOS"}))
    iid = svc.start_instance({})
    inst = svc.instances[iid]
    assert inst.outcome is Outcome.COMPLETED  # handler routes to the end event
    kinds = [e.kind for e in inst.event_log]
    assert EventKind.BOUNDARY_TRIGGERED in kinds
    failed = next(e for e in inst.event_log if e.kind is EventKind.TASK_FAILED)
    assert failed.detail["handled"] is True
    assert failed.detail["errorId"] == "T-DOS"
    assert "t2-c1" not in [c[0] for c in svc.invoker.calls]  # t2 skipped by reroute


def test_unmatched_fault_fails_instance():
    pm = bpmn.attach_threat(linear_model(wired=False), "t1", "T-DOS")
    svc = make_service(pm=pm, invoker=ScriptedInvoker(faults={"t1-c1": "T-OTHER"}))
    iid = svc.start_instance({})
    inst = svc.instances[iid]
    assert inst.outcome is Outcome.FAILED
    assert "T-OTHER" in inst.error
    failed = next(e for e in inst.event_log if e.kind is EventKind.TASK_FAILED)
    assert failed.detail["handled"] is False


def test_delay_steps_keep_task_active():
    pm = linear_model(n_tasks=1, wired=False)
    svc = make_service(pm=pm, invoker=ScriptedInvoker(delays={"t1-c1": 3}))
    iid = svc.start_instance({}, run=False)
    svc.step(iid)  # start event
    svc.step(iid)  # task becomes active, delay begins
    inst = svc.instances[iid]
    assert inst.task_status["t1"] is TaskStatus.ACTIVE
    svc.step(iid)
    assert inst.task_status["t1"] is TaskStatus.ACTIVE
    svc.run_instance(iid)
    assert inst.outcome is Outcome.COMPLETED


def test_position_reports_task_statuses_in_document_order():
    pm = linear_model(wired=False)
    svc = make_service(pm=pm, invoker=ScriptedInvoker(delays={"t2-c1": 5}))
    iid = svc.start_instance({}, run=False)
    for _ in range(4):  # start, t1, forward, t2 active
        svc.step(iid)
    pos = svc.instances[iid].position()
    assert pos.task_status == (
        ("t1", TaskStatus.COMPLETED),
        ("t2", TaskStatus.ACTIVE),
    )


def threat_notification(subject, probability, seq=1, threat="T-DOS", ts=None):
    return Notification(
        type=EventType.THREAT_LEVEL_CHANGE,
        topic=f"threat-level-change.{subject}",
        subject_component_id=subject,
        payload=Payload(probability=probability),
        timestamp=ts if ts is not None else 100.0 + seq,
        seq=seq,
        publisher_id="monitor-1",
        threat_id=threat,
    )


def test_notification_matching_whole_process_rule_recomposes():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    before = svc.active_plan_id
    flagged = svc.active_plan().binding_for("t1")
    actions = svc.on_notification(threat_notification(flagged, 0.8))
    assert actions == [{"rule": "r1", "action": "recompose",
                        "outcome": f"switched:{svc.active_plan_id}"}]
    assert svc.active_plan_id != before
    assert flagged not in svc.active_plan().component_ids()
    kinds = [e.kind for e in svc.event_log]
    assert kinds.count(EventKind.RULE_MATCHED) == 1
    assert kinds.count(EventKind.ACTION_TAKEN) == 1
    assert kinds.count(EventKind.PLAN_SWITCHED) == 1


def test_notification_below_threshold_matches_nothing():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    flagged = svc.active_plan().binding_for("t1")
    assert svc.on_notification(threat_notification(flagged, 0.3)) == []
    assert EventKind.RULE_MATCHED not in [e.kind for e in svc.event_log]
    # the level is still recorded for later verification
    assert svc.threat_state.level(flagged, "T-DOS") == 0.3


def test_scoped_rule_evaluates_per_live_instance():
    pm = linear_model(wired=False)
    scoped = tlc_rule(
        task="t1",
        action=ActionKind.NOTIFY,
        scope=Scope(kind=ScopeKind.DURING_TASK, ref_task_id="t2"),
        params=(("message", "mid-flight"),),
    )
    svc = make_service(pm=pm, counts={"t1": 1}, rules=[scoped],
                       invoker=ScriptedInvoker(delays={"t2-c1": 9}))
    iid = svc.start_instance({}, run=False)
    for _ in range(4):
        svc.step(iid)
    assert svc.instances[iid].task_status["t2"] is TaskStatus.ACTIVE
    actions = svc.on_notification(threat_notification("t1-c1", 0.9))
    assert actions == [{"rule": "r1", "action": "notify", "outcome": "published"}]
    matched = next(e for e in svc.event_log if e.kind is EventKind.RULE_MATCHED)
    assert matched.detail["level"] == iid


def test_alert_reads_each_live_instance_position_once(monkeypatch):
    calls = []
    position = runtime.ProcessInstance.position
    monkeypatch.setattr(runtime.ProcessInstance, "position",
                        lambda inst: calls.append(inst.instance_id) or position(inst))
    scoped = [tlc_rule(rule_id=f"r{k}", scope=Scope(kind=ScopeKind.BEFORE_TASK, ref_task_id="t2"),
                       action=ActionKind.NOTIFY) for k in range(3)]
    svc = make_service(counts={"t1": 1}, rules=scoped)
    first = svc.start_instance({"seed": 1}, run=False)
    second = svc.start_instance({"seed": 2}, run=False)
    assert len(svc.on_notification(threat_notification("t1-c1", 0.9))) == 6
    assert sorted(calls) == [first, second]


def test_scoped_rule_silent_when_no_live_instance():
    scoped = tlc_rule(scope=Scope(kind=ScopeKind.DURING_TASK, ref_task_id="t2"),
                      action=ActionKind.NOTIFY)
    svc = make_service(counts={"t1": 1}, rules=[scoped])
    assert svc.on_notification(threat_notification("t1-c1", 0.9)) == []


def test_rules_fire_in_rule_id_order_and_stop_short_circuits():
    rules = [
        tlc_rule(rule_id="r2", action=ActionKind.NOTIFY, params=(("message", "later"),)),
        tlc_rule(rule_id="r1", action=ActionKind.STOP),
    ]
    svc = make_service(counts={"t1": 2}, rules=rules)
    flagged = svc.active_plan().binding_for("t1")
    actions = svc.on_notification(threat_notification(flagged, 0.9))
    assert [a["rule"] for a in actions] == ["r1"]  # r2 never reached
    assert svc.status is ServiceStatus.STOPPED


def test_stop_action_stops_live_instances():
    pm = linear_model(wired=False)
    svc = make_service(pm=pm, rules=[tlc_rule(action=ActionKind.STOP)],
                       invoker=ScriptedInvoker(delays={"t2-c1": 50}))
    iid = svc.start_instance({}, run=False)
    for _ in range(4):
        svc.step(iid)
    svc.on_notification(threat_notification("t1-c1", 0.9))
    assert svc.instances[iid].outcome is Outcome.STOPPED_BY_RULE
    assert svc.live_instances() == []
    with pytest.raises(DeploymentError):
        svc.start_instance({})
    # a stopped service ignores further notifications
    assert svc.on_notification(threat_notification("t1-c1", 0.9)) == []


def test_recompose_adopts_bindings_for_not_started_tasks():
    pm = linear_model(wired=False)
    svc = make_service(pm=pm, counts={"t1": 1, "t2": 2}, rules=[tlc_rule(task="t2")],
                       invoker=ScriptedInvoker(delays={"t1-c1": 50}))
    iid = svc.start_instance({}, run=False)
    for _ in range(3):
        svc.step(iid)
    inst = svc.instances[iid]
    assert inst.task_status["t1"] is TaskStatus.ACTIVE
    old_binding = inst.bindings["t2"]
    svc.on_notification(threat_notification(old_binding, 0.8))
    assert inst.bindings["t2"] != old_binding  # notStarted task rebound
    assert inst.bindings["t1"] == "t1-c1"  # active task untouched
    assert inst.plan_id == svc.active_plan_id
    switch = next(e for e in svc.event_log if e.kind is EventKind.PLAN_SWITCHED)
    assert f"{iid}:t2:{inst.bindings['t2']}" in switch.detail["rebound"]
    svc.run_instance(iid)
    assert inst.outcome is Outcome.COMPLETED


def test_recompose_without_alternative_stops_and_notifies():
    svc = make_service(counts={"t1": 2})  # t2 has a single candidate everywhere
    svc.broker.subscribe(Subscription("probe", "context-change.*"))
    result = svc.act_recompose("t2-c1")
    assert not result.switched
    assert svc.status is ServiceStatus.STOPPED
    note = svc.broker.poll("probe")
    assert note is not None
    assert note.type is EventType.CONTEXT_CHANGE
    assert "no composition plan passes verification" in note.payload.value
    taken = [e for e in svc.event_log if e.kind is EventKind.ACTION_TAKEN]
    assert len(taken) == 1
    assert taken[0].detail["result"] == "stopped"


def test_flagged_component_reenters_after_decay():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    first = svc.active_plan().binding_for("t1")
    svc.on_notification(threat_notification(first, 0.8, seq=1))
    second = svc.active_plan().binding_for("t1")
    assert second != first
    # threat decays below the rule threshold; the flag is released and the
    # original, better-ranked component wins again
    svc.on_notification(threat_notification(first, 0.1, seq=2))
    svc.on_notification(threat_notification(second, 0.9, seq=1))
    assert svc.active_plan().binding_for("t1") == first
    assert svc.status is ServiceStatus.RUNNING


def test_flag_without_decay_keeps_component_excluded():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    first = svc.active_plan().binding_for("t1")
    svc.on_notification(threat_notification(first, 0.8, seq=1))
    second = svc.active_plan().binding_for("t1")
    # first is still flagged at 0.8; flagging second leaves nothing to run
    result = svc.act_recompose(second, threat_id="T-DOS")
    assert not result.switched
    assert svc.status is ServiceStatus.STOPPED


def test_flag_raised_by_a_rule_with_no_threshold_is_kept():
    # the rule matches any level, so no level can lower the flags it raised
    svc = make_service(counts={"t1": 3}, rules=[replace(tlc_rule(), predicate=None)])
    svc.on_notification(threat_notification("t1-c1", 0.9, seq=1))
    assert svc.active_plan().binding_for("t1") == "t1-c2"
    svc.on_notification(threat_notification("t1-c2", 0.9, seq=2))
    assert svc.active_plan().binding_for("t1") == "t1-c3"
    assert svc._flagged.keys() == {"t1-c1", "t1-c2"}


def test_launch_action_starts_aux_process():
    aux_pm = linear_model(n_tasks=1, wired=False)
    broker = Broker()
    aux_svc = deploy(aux_pm, registry_for(aux_pm), [], CRITERIA, broker,
                     ScriptedInvoker(), service_id="hardening")
    rule = tlc_rule(action=ActionKind.LAUNCH_PROCESS, params=(("processRef", "hardening"),))
    pm = linear_model(wired=False)
    svc = deploy(pm, registry_for(pm), [rule], CRITERIA, broker, ScriptedInvoker(),
                 service_id="main", aux={"hardening": aux_svc})
    actions = svc.on_notification(threat_notification("t1-c1", 0.9))
    assert actions[0]["outcome"].startswith("started:")
    launched = actions[0]["outcome"].split(":", 1)[1]
    assert aux_svc.instances[launched].outcome is Outcome.COMPLETED


def test_launch_unknown_process_ref_is_reported_not_fatal():
    rule = tlc_rule(action=ActionKind.LAUNCH_PROCESS, params=(("processRef", "ghost"),))
    svc = make_service(rules=[rule])
    actions = svc.on_notification(threat_notification("t1-c1", 0.9))
    assert actions == [{"rule": "r1", "action": "launchProcess", "outcome": "unknownProcessRef"}]
    assert svc.status is ServiceStatus.RUNNING


def test_a_refused_launch_is_logged_and_later_alerts_are_still_handled():
    broker = Broker()
    aux_pm = linear_model(n_tasks=1)  # its task reads `seed`, which a rule's launch never passes
    aux_svc = deploy(aux_pm, registry_for(aux_pm), [], CRITERIA, broker,
                     ScriptedInvoker(), service_id="hardening")
    rule = tlc_rule(action=ActionKind.LAUNCH_PROCESS, params=(("processRef", "hardening"),))
    pm = linear_model(wired=False)
    svc = deploy(pm, registry_for(pm), [rule], CRITERIA, broker, ScriptedInvoker(),
                 service_id="main", aux={"hardening": aux_svc})
    pub = Publisher(broker, "monitor-1", clock=iter(range(200, 300)).__next__)
    for _ in range(2):
        pub.publish(EventType.THREAT_LEVEL_CHANGE, "t1-c1", probability=0.9, threat_id="T-DOS")
    assert svc.drain_notifications() == 2
    assert broker.pending("main") == 0
    taken = [e.detail for e in svc.event_log if e.kind is EventKind.ACTION_TAKEN]
    assert [(d["result"], "seed" in d["error"]) for d in taken] == [("refused", True)] * 2

    aux_svc.act_stop()
    actions = svc.on_notification(threat_notification("t1-c1", 0.9, seq=9))
    assert actions == [{"rule": "r1", "action": "launchProcess", "outcome": "refused"}]
    assert "stopped" in svc.event_log[-1].detail["error"]
    assert aux_svc.instances == {} and svc.status is ServiceStatus.RUNNING


def test_drain_notifications_processes_queue_in_order():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    pub = Publisher(svc.broker, "monitor-1", clock=iter(range(200, 300)).__next__)
    flagged = svc.active_plan().binding_for("t1")
    pub.publish(EventType.THREAT_LEVEL_CHANGE, flagged, probability=0.2, threat_id="T-DOS")
    pub.publish(EventType.THREAT_LEVEL_CHANGE, flagged, probability=0.8, threat_id="T-DOS")
    assert svc.drain_notifications() == 2
    assert svc.active_plan().binding_for("t1") != flagged


def test_merged_log_is_ordered_and_exports_stable_lines():
    svc = make_service()
    svc.start_instance({"seed": "x"})
    svc.start_instance({"seed": "y"})
    events = svc.merged_log()
    assert [e.seq for e in events] == sorted(e.seq for e in events)
    lines = export_log_lines(events)
    assert lines == export_log_lines(svc.merged_log())
    assert lines.endswith("\n")
    assert export_log_lines([]) == ""


def test_deploy_without_rules_runs_with_no_subscriptions():
    svc = make_service(rules=[])
    assert svc.subscriptions == []
    assert svc.status is ServiceStatus.RUNNING
    iid = svc.start_instance({"seed": "s0"})
    assert svc.instances[iid].outcome is Outcome.COMPLETED


def test_deploy_error_names_the_uncovered_task():
    pm = linear_model()
    partial = registry_for(pm)
    only_t1 = type(partial)(entries=tuple(e for e in partial.entries if e[0] == "t1"))
    with pytest.raises(DeploymentError) as exc:
        deploy(pm, only_t1, [], CRITERIA, Broker(), ScriptedInvoker())
    assert "t2" in str(exc.value)


def test_instance_past_rebound_task_keeps_its_original_output():
    pm = linear_model(wired=False)
    invoker = ScriptedInvoker(delays={"t2-c1": 50})
    svc = make_service(pm=pm, counts={"t1": 2, "t2": 1}, rules=[tlc_rule(task="t1")],
                       invoker=invoker)
    iid = svc.start_instance({}, run=False)
    for _ in range(4):
        svc.step(iid)
    inst = svc.instances[iid]
    assert inst.task_status["t1"] is TaskStatus.COMPLETED
    assert inst.task_status["t2"] is TaskStatus.ACTIVE
    old = inst.bindings["t1"]
    svc.on_notification(threat_notification(old, 0.8))
    assert svc.active_plan().binding_for("t1") != old
    assert inst.bindings["t1"] == old  # completed work is not redone
    svc.run_instance(iid)
    assert inst.outcome is Outcome.COMPLETED
    assert (old, "op1", {}) in invoker.calls
    second = svc.start_instance({})
    new_binding = svc.active_plan().binding_for("t1")
    assert svc.instances[second].bindings["t1"] == new_binding
    assert (new_binding, "op1", {}) in invoker.calls


def test_stop_rule_stops_every_live_instance():
    pm = linear_model(wired=False)
    svc = make_service(
        pm=pm,
        counts={"t1": 1, "t2": 1},
        rules=[tlc_rule(action=ActionKind.STOP)],
        invoker=ScriptedInvoker(delays={"t1-c1": 50}),
    )
    first = svc.start_instance({}, run=False)
    second = svc.start_instance({}, run=False)
    for iid in (first, second):
        svc.step(iid)
        svc.step(iid)
    svc.on_notification(threat_notification("t1-c1", 0.9))
    assert svc.status is ServiceStatus.STOPPED
    assert svc.instances[first].outcome is Outcome.STOPPED_BY_RULE
    assert svc.instances[second].outcome is Outcome.STOPPED_BY_RULE


def test_notify_action_reaches_context_subscribers():
    svc = make_service()
    svc.broker.subscribe(Subscription("ops", "context-change.*"))
    delivered = svc.act_notify("maintenance window")
    assert delivered == 1
    note = svc.broker.poll("ops")
    assert note.type is EventType.CONTEXT_CHANGE
    assert note.payload.value == "maintenance window"
    assert note.subject_component_id == svc.service_id


def test_unmatched_event_type_logs_receipt_and_nothing_else():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    n = Notification(
        type=EventType.COMPONENT_CHANGE,
        topic="component-change.t1-c1",
        subject_component_id="t1-c1",
        payload=Payload(value="redeployed"),
        timestamp=100.0,
        seq=1,
        publisher_id="monitor-1",
    )
    before = len(svc.event_log)
    actions = svc.on_notification(n)
    assert actions == []
    tail = svc.event_log[before:]
    assert [e.kind for e in tail] == [EventKind.NOTIFICATION_RECEIVED]


def test_plan_space_beyond_the_listing_ceiling_deploys_and_recomposes():
    """14 tasks x 2 candidates is 16,384 plans, more than PLAN_CEILING: plan
    choice works task by task, and only the full listing is refused."""
    pm = linear_model(n_tasks=14)
    svc = make_service(pm=pm, counts={t.id: 2 for t in pm.service_tasks()}, rules=[tlc_rule(task="t9")])
    assert svc.active_plan_id == "+".join(f"t{i}-c1" for i in range(1, 15))
    with pytest.raises(PlanCountExceededError):
        svc.plans

    actions = svc.on_notification(threat_notification("t9-c1", 0.9))
    assert actions[0]["outcome"] == f"switched:{svc.active_plan_id}"
    assert svc.active_plan_id == "+".join(f"t{i}-c{2 if i == 9 else 1}" for i in range(1, 15))
    inst = svc.instances[svc.start_instance({"seed": "x"})]
    assert inst.outcome is Outcome.COMPLETED
    assert inst.bindings["t9"] == "t9-c2"


def test_finished_instances_leave_the_live_index_and_cost_an_alert_nothing(monkeypatch):
    scoped = tlc_rule(scope=Scope(kind=ScopeKind.BEFORE_TASK, ref_task_id="t2"),
                      action=ActionKind.NOTIFY)
    invoker = ScriptedInvoker()
    svc = make_service(pm=linear_model(wired=False), counts={"t1": 2}, rules=[scoped], invoker=invoker)

    completed = svc.start_instance({})
    invoker.faults["t1-c1"] = "T-OTHER"
    faulted = svc.start_instance({})
    invoker.faults.clear()
    invoker.delays["t1-c1"] = 1000
    exhausted = svc.start_instance({}, run=False)
    svc.step(exhausted)
    svc.step(exhausted)  # t1 active for 1000 steps, more than the budget run_instance grants now
    invoker.delays.clear()
    svc.run_instance(exhausted)
    assert svc.instances[completed].outcome is Outcome.COMPLETED
    assert "unhandled error 'T-OTHER'" in svc.instances[faulted].error
    assert "step budget" in svc.instances[exhausted].error
    finished = [completed, faulted, exhausted] + [svc.start_instance({}) for _ in range(20)]

    invoker.delays["t1-c1"] = 50
    held = svc.start_instance({}, run=False)
    svc.step(held)
    svc.step(held)  # t1 active on t1-c1, so the switch below leaves it bound there
    svc.act_recompose("t1-c1")
    fresh = svc.start_instance({}, run=False)
    assert svc.instances[fresh].bindings["t1"] == "t1-c2"
    assert [i.instance_id for i in svc.live_instances()] == [held, fresh]
    assert all(iid in svc.instances for iid in finished)

    calls = []
    position = runtime.ProcessInstance.position
    monkeypatch.setattr(runtime.ProcessInstance, "position",
                        lambda inst: calls.append(inst.instance_id) or position(inst))
    actions = svc.on_notification(threat_notification("t1-c1", 0.9))
    assert [(a["rule"], a["action"]) for a in actions] == [("r1", "notify")]
    assert calls == [held]  # neither finished instances nor one bound elsewhere

    svc.act_stop()
    assert svc.live_instances() == []
    for iid in (held, fresh):
        assert svc.instances[iid].outcome is Outcome.STOPPED_BY_RULE


def _pinned_service(counts):
    """t1 stays active for 50 steps on every candidate, so an instance
    stepped twice keeps its t1 component across plan switches. r1 recomposes
    at 0.5 and up; r2 notifies before t2, from 0.2 up, for each instance
    that binds t1 to the alert's subject."""
    pm = linear_model(wired=False)
    delays = {f"t1-c{j}": 50 for j in range(1, counts["t1"] + 1)}
    notify = tlc_rule(rule_id="r2", scope=Scope(kind=ScopeKind.BEFORE_TASK, ref_task_id="t2"),
                      action=ActionKind.NOTIFY, threshold=0.2)
    return make_service(pm=pm, counts=counts, rules=[tlc_rule(), notify], invoker=ScriptedInvoker(delays=delays))


def _pin_t1(svc):
    iid = svc.start_instance({}, run=False)
    svc.step(iid)
    svc.step(iid)  # start, then t1 active on the plan's component
    assert svc.instances[iid].task_status["t1"] is TaskStatus.ACTIVE
    return iid


def _reached(svc, subject, probability, seq, monkeypatch):
    """The instances an alert visits, and those whose r2 it matches, in order."""
    visited = []
    position = runtime.ProcessInstance.position
    monkeypatch.setattr(runtime.ProcessInstance, "position",
                        lambda inst: visited.append(inst.instance_id) or position(inst))
    before = len(svc.event_log)
    svc.on_notification(threat_notification(subject, probability, seq=seq))
    monkeypatch.setattr(runtime.ProcessInstance, "position", position)
    matched = [e.detail["level"] for e in svc.event_log[before:] if e.kind is EventKind.RULE_MATCHED]
    return visited, matched


def _filed(svc):
    return {key: list(bucket) for key, bucket in svc._off_plan.items()}


def test_an_alert_reaches_the_instances_a_switch_left_on_its_subject(monkeypatch):
    # A -> B: the alert on A is taken by no plan rule and reaches only the
    # two instances that started t1 on A, in start order
    svc = _pinned_service({"t1": 3})
    first, second = _pin_t1(svc), _pin_t1(svc)
    assert svc._off_plan == {}
    svc.on_notification(threat_notification("t1-c1", 0.9, seq=1))
    assert svc.active_plan().binding_for("t1") == "t1-c2"
    rebound = svc.start_instance({}, run=False)
    on_b = _pin_t1(svc)
    assert _filed(svc) == {("t1", "t1-c1"): [first, second]}
    assert _reached(svc, "t1-c1", 0.9, 2, monkeypatch) == ([first, second], [first, second])
    assert _reached(svc, "t1-c3", 0.9, 3, monkeypatch) == ([], [])
    # the plan's own component still reaches every live instance bound to it
    assert _reached(svc, "t1-c2", 0.3, 4, monkeypatch) == ([rebound, on_b],) * 2


def test_a_switch_back_to_the_kept_component_empties_its_entry(monkeypatch):
    # A -> B -> A: the A instances are on the plan again, the B one is not
    svc = _pinned_service({"t1": 2})
    first, second = _pin_t1(svc), _pin_t1(svc)
    svc.on_notification(threat_notification("t1-c1", 0.9, seq=1))
    rebound = svc.start_instance({}, run=False)
    on_b = _pin_t1(svc)
    svc.on_notification(threat_notification("t1-c1", 0.1, seq=2))  # lowers A's level below r1's
    svc.on_notification(threat_notification("t1-c2", 0.9, seq=3))  # prunes A's flag, back to A
    assert svc.active_plan().binding_for("t1") == "t1-c1"
    assert svc.instances[rebound].bindings["t1"] == "t1-c1"
    assert _filed(svc) == {("t1", "t1-c2"): [on_b]}
    assert _reached(svc, "t1-c1", 0.3, 4, monkeypatch) == ([first, second, rebound],) * 2
    assert _reached(svc, "t1-c2", 0.9, 5, monkeypatch) == ([on_b],) * 2


def test_each_kept_component_has_its_own_entry_across_switches(monkeypatch):
    # A -> B -> C: A and B instances each reached by an alert on their own
    svc = _pinned_service({"t1": 3})
    on_a = _pin_t1(svc)
    svc.on_notification(threat_notification("t1-c1", 0.9, seq=1))
    on_b = _pin_t1(svc)
    svc.on_notification(threat_notification("t1-c2", 0.9, seq=2))
    assert svc.active_plan().binding_for("t1") == "t1-c3"
    on_c = _pin_t1(svc)
    assert _filed(svc) == {("t1", "t1-c1"): [on_a], ("t1", "t1-c2"): [on_b]}
    assert _reached(svc, "t1-c1", 0.9, 3, monkeypatch) == ([on_a],) * 2
    assert _reached(svc, "t1-c2", 0.9, 4, monkeypatch) == ([on_b],) * 2
    assert _reached(svc, "t1-c3", 0.3, 5, monkeypatch) == ([on_c],) * 2


def _shared_service(rules, invoker):
    """Three tasks; t2 and t3 share an operation, so one component, "shared",
    can serve both, and the plan binds it to both until it is flagged."""
    pm = linear_model(n_tasks=3, wired=False)
    pm = replace(pm, nodes=tuple(replace(n, operation_ref="op") if n.id in ("t2", "t3") else n
                                 for n in pm.nodes))

    def component(cid, op, trust):
        return ComponentDescriptor(id=cid, provider="prov", operation_ref=op,
                                   trustworthiness=trust, latency_score=0.5, cost=1.0)

    shared = component("shared", "op", 0.9)
    reg = CandidateRegistry(entries=(
        ("t1", (component("t1-c1", "op1", 0.9),)),
        ("t2", (shared, component("t2-alt", "op", 0.5))),
        ("t3", (shared, component("t3-alt", "op", 0.5))),
    ))
    return deploy(pm, reg, rules=rules, criteria=CRITERIA, broker=Broker(), invoker=invoker,
                  service_id="svc", clock=iter(range(1, 1000)).__next__)


def test_an_alert_on_a_component_kept_by_two_tasks_visits_instances_in_start_order(monkeypatch):
    # rule order puts t3 before t2, so the entries are read in that order
    rules = [tlc_rule(rule_id=f"r{k}", task=task, action=ActionKind.NOTIFY,
                      scope=Scope(kind=ScopeKind.AFTER_TASK, ref_task_id="t1"))
             for k, task in ((1, "t3"), (2, "t2"))]
    invoker = ScriptedInvoker(delays={"shared": 50})
    svc = _shared_service(rules, invoker)
    at_t2 = svc.start_instance({}, run=False)
    for _ in range(3):  # start, t1 done, t2 active on the shared component
        svc.step(at_t2)
    invoker.delays = {"shared": 0}
    at_t3 = svc.start_instance({}, run=False)
    for _ in range(3):  # start, t1 done, t2 done on the shared component
        svc.step(at_t3)
    invoker.delays = {"shared": 50}
    svc.step(at_t3)  # t3 active on the shared component
    svc.act_recompose("shared")
    assert _filed(svc) == {("t2", "shared"): [at_t2, at_t3], ("t3", "shared"): [at_t3]}
    visited, matched = _reached(svc, "shared", 0.9, 1, monkeypatch)
    assert visited == [at_t2, at_t3]
    assert matched == [at_t2, at_t3, at_t3]  # r2 for at_t2, then r1 and r2 for at_t3


def test_finished_stopped_and_evicted_instances_leave_no_off_plan_entry():
    svc = _pinned_service({"t1": 2})
    held = []
    for k in range(runtime.FINISHED_RETENTION + 20):
        iid = _pin_t1(svc)
        flagged = svc.active_plan().binding_for("t1")
        svc.on_notification(threat_notification(flagged, 0.9, seq=2 * k + 1))
        svc.on_notification(threat_notification(flagged, 0.1, seq=2 * k + 2))
        assert svc.active_plan().binding_for("t1") != flagged
        assert iid in svc._off_plan[("t1", flagged)]
        if k % 100 == 0:
            held.append(iid)
            continue
        svc.run_instance(iid)
        assert svc.instances[iid].outcome is Outcome.COMPLETED
        assert iid not in svc._off_plan.get(("t1", flagged), {})
    assert svc.evicted_outcomes[Outcome.COMPLETED] > 0
    assert {iid for bucket in svc._off_plan.values() for iid in bucket} <= set(held)
    svc.act_stop()
    assert svc._off_plan == {}


def test_plan_switch_rebinds_changed_not_started_tasks_in_instance_then_task_order():
    invoker = ScriptedInvoker(delays={"shared": 50})
    svc = _shared_service([], invoker)
    assert svc.active_plan_id == "t1-c1+shared+shared"
    past_t1 = svc.start_instance({}, run=False)
    for _ in range(3):  # start, t1 done, t2 active on the shared component
        svc.step(past_t1)
    invoker.delays = {"t1-c1": 50}
    at_t1 = svc.start_instance({}, run=False)
    for _ in range(2):  # start, t1 active
        svc.step(at_t1)

    assert svc.act_recompose("shared").new_plan_id == "t1-c1+t2-alt+t3-alt"
    switch = next(e for e in svc.event_log if e.kind is EventKind.PLAN_SWITCHED)
    assert switch.detail["rebound"] == f"{past_t1}:t3:t3-alt,{at_t1}:t2:t2-alt,{at_t1}:t3:t3-alt"
    assert svc.instances[past_t1].bindings == {"t1": "t1-c1", "t2": "shared", "t3": "t3-alt"}
    assert svc.instances[at_t1].bindings == {"t1": "t1-c1", "t2": "t2-alt", "t3": "t3-alt"}
    assert {svc.instances[i].plan_id for i in (past_t1, at_t1)} == {"t1-c1+t2-alt+t3-alt"}


def test_parse_deploy_serialize_checks_the_graph_once(monkeypatch):
    doc = bpmn.serialize(linear_model())
    calls = []
    check = bpmn._check_reachability
    monkeypatch.setattr(bpmn, "_check_reachability", lambda pm: calls.append(pm) or check(pm))
    pm = bpmn.parse_bpmn(doc)
    deploy(pm, registry_for(pm), rules=[], criteria=CRITERIA, broker=Broker(), invoker=ScriptedInvoker())
    assert bpmn.serialize(pm) == doc
    assert calls == [pm]


def test_threat_ids_no_rule_names_leave_the_threat_state_alone():
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    watched = svc.active_plan().binding_for("t1")
    svc.on_notification(threat_notification(watched, 0.3, seq=1))
    before = svc.threat_state.snapshot()
    for seq in range(2, 10_002):
        svc.on_notification(threat_notification(watched, 0.9, seq=seq, threat=f"T-NEW-{seq}"))
    assert svc.threat_state.snapshot() == before == {(watched, "T-DOS"): 0.3}
    assert svc.threat_state.unknown_threats == 10_000
    assert svc.active_plan().binding_for("t1") == watched


def test_flag_for_a_threat_no_rule_names_is_kept_like_a_manual_flag():
    # no level is stored for such a threat, so no alert can lower it: the
    # flag stays until the service is redeployed, as a manual flag does
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()])
    first = svc.active_plan().binding_for("t1")
    second = svc.act_recompose(first, threat_id="T-UNRULED").new_plan_id
    assert first not in svc.active_plan().component_ids()
    svc.on_notification(threat_notification(first, 0.0, seq=1, threat="T-UNRULED"))
    assert svc.threat_state.unknown_threats == 1
    # a recompose away from the second component prunes only flags it can
    # read a level for, so with the first still flagged no plan is left
    svc.on_notification(threat_notification(svc.active_plan().binding_for("t1"), 0.9, seq=2))
    assert svc.active_plan_id == second
    assert svc.status is ServiceStatus.STOPPED


def test_direct_calls_bypass_at_most_once_and_the_broker_does_not():
    broker = Broker()
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule(action=ActionKind.NOTIFY)], broker=broker)
    watched = svc.active_plan().binding_for("t1")
    alert = threat_notification(watched, 0.9, seq=7)
    assert len(svc.on_notification(alert)) == 1
    assert len(svc.on_notification(alert)) == 1  # handled again
    assert broker.publish(alert) == 1
    assert broker.publish(alert) == 0  # dropped: seq 7 of monitor-1 was accepted
    assert svc.drain_notifications() == 1


class _FaultOnBadSeed(runtime.ComponentInvoker):
    def invoke(self, component_id, operation_ref, inputs):
        if str(inputs.get("seed", "")).startswith("bad"):
            raise ComponentFault("T-OTHER")
        return f"out-{component_id}"


def test_soak_keeps_the_event_store_and_finished_instances_bounded():
    broker = Broker()
    svc = make_service(counts={"t1": 2}, rules=[tlc_rule()], invoker=_FaultOnBadSeed(), broker=broker)
    monitor = Publisher(broker, "monitor-1", clock=itertools.count(1).__next__)
    live = [svc.start_instance({"seed": f"live-{i}"}, run=False) for i in range(5)]
    ran = Counter()
    for k in range(10_000):  # 20,000 alerts: each high one switches the plan away
        flagged = svc.active_plan().binding_for("t1")
        for probability in (0.9, 0.1):
            monitor.publish(EventType.THREAT_LEVEL_CHANGE, flagged, probability=probability, threat_id="T-DOS")
            assert svc.drain_notifications() == 1
        assert svc.active_plan().binding_for("t1") != flagged
        if k % 10 < 3:  # 3,000 runs, one in seven of them faulting
            n = sum(ran.values())
            newest_id = svc.start_instance({"seed": f"{'bad' if n % 7 == 0 else 'ok'}-{n}"})
            ran[svc.instances[newest_id].outcome] += 1
    assert svc.status is ServiceStatus.RUNNING
    assert sum(ran.values()) == 3_000 and ran[Outcome.FAILED] == 429

    assert len(svc.merged_log()) == runtime.EVENT_CAPACITY
    assert len(svc.instances) == runtime.FINISHED_RETENTION + len(live)
    retained = Counter(inst.outcome for inst in svc.instances.values())
    assert retained + svc.evicted_outcomes == ran + Counter({Outcome.IN_PROGRESS: len(live)})
    plan = dict(svc.active_plan().bindings)
    for iid in live:
        inst = svc.instances[iid]
        assert inst.outcome is Outcome.IN_PROGRESS and inst.bindings == plan
    newest = svc.instances[newest_id]
    assert newest.outcome is Outcome.COMPLETED
    assert newest.report == {"seed": newest.variables["seed"], "v1": f"out-{newest.bindings['t1']}",
                             "v2": "out-t2-c1"}
    assert [e.kind for e in newest.event_log][-1] is EventKind.TASK_COMPLETED
    assert svc.event_log[-1].seq == svc.merged_log()[-1].seq
