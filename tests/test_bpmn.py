import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from threatflow import bpmn, runtime
from threatflow.bus import Broker
from threatflow.composition import RankingCriteria
from threatflow.errors import (
    ComponentFault,
    ConflictError,
    NotFoundError,
    ParseError,
    UnsupportedConstructError,
    ValidationError,
)
from threatflow.scenario import DEMO_BUNDLE_DIR

from _generators import random_process, random_registry


def linear_model(n_tasks=2, pid="p1"):
    nodes = [bpmn.StartEvent(id="start")]
    flows = []
    prev = "start"
    for i in range(1, n_tasks + 1):
        tid = f"t{i}"
        nodes.append(bpmn.ServiceTask(id=tid, name=f"Task {i}", operation_ref=f"op{i}"))
        flows.append(bpmn.SequenceFlow(id=f"f{i}", from_node=prev, to_node=tid))
        prev = tid
    nodes.append(bpmn.EndEvent(id="end"))
    flows.append(bpmn.SequenceFlow(id=f"f{n_tasks + 1}", from_node=prev, to_node="end"))
    return bpmn.ProcessModel(id=pid, name="Linear", nodes=tuple(nodes), flows=tuple(flows))


def test_valid_linear_model_has_no_violations():
    assert bpmn.validate(linear_model()) == []


def test_validate_flags_duplicate_ids():
    pm = linear_model()
    pm = bpmn.ProcessModel(
        id=pm.id, name=pm.name, nodes=pm.nodes + (bpmn.ServiceTask(id="t1"),), flows=pm.flows
    )
    assert any("duplicate" in p for p in bpmn.validate(pm))


def test_validate_requires_exactly_one_start():
    pm = linear_model()
    no_start = bpmn.ProcessModel(
        id=pm.id,
        nodes=tuple(n for n in pm.nodes if not isinstance(n, bpmn.StartEvent)),
        flows=tuple(f for f in pm.flows if f.from_node != "start"),
    )
    assert bpmn.validate(no_start) != []


def test_validate_rejects_self_loop():
    pm = linear_model()
    pm = bpmn.ProcessModel(
        id=pm.id, nodes=pm.nodes, flows=pm.flows + (bpmn.SequenceFlow(id="fx", from_node="t1", to_node="t1"),)
    )
    assert any("t1" in p for p in bpmn.validate(pm))


def test_validate_rejects_cycle():
    pm = linear_model(3)
    pm = bpmn.ProcessModel(
        id=pm.id, nodes=pm.nodes, flows=pm.flows + (bpmn.SequenceFlow(id="fb", from_node="t3", to_node="t1"),)
    )
    assert bpmn.validate(pm) != []


def test_validate_rejects_boundary_without_error_decl():
    pm = linear_model()
    boundary = bpmn.ErrorBoundaryEvent(
        id="b1", attached_to="t1", error_ref="T-GHOST", handler_target="end"
    )
    pm = bpmn.ProcessModel(id=pm.id, nodes=pm.nodes + (boundary,), flows=pm.flows)
    assert any("T-GHOST" in p for p in bpmn.validate(pm))


def test_attach_threat_adds_boundary_and_error_decl():
    pm = bpmn.attach_threat(linear_model(), "t1", "T-DOS")
    assert bpmn.validate(pm) == []
    assert bpmn.list_threat_refs(pm) == {("t1", "T-DOS")}
    assert [e.id for e in pm.errors] == ["T-DOS"]
    boundary = pm.boundary_events()[0]
    assert boundary.id == "boundary-t1-T-DOS"
    assert boundary.handler_target == "end"  # sole end event is the default


def test_attach_threat_rejects_unknown_task_and_duplicates():
    pm = linear_model()
    with pytest.raises(NotFoundError):
        bpmn.attach_threat(pm, "nope", "T-DOS")
    pm = bpmn.attach_threat(pm, "t1", "T-DOS")
    with pytest.raises(ConflictError):
        bpmn.attach_threat(pm, "t1", "T-DOS")


def test_attach_threat_builds_no_index_of_the_model_it_replaces():
    pm = linear_model()
    assert bpmn.attach_threat(pm, "t1", "T-DOS", handler_target="end").boundary_events()
    with pytest.raises(NotFoundError):
        bpmn.attach_threat(pm, "t1", "T-DOS", handler_target="nowhere")
    with pytest.raises(NotFoundError):
        bpmn.attach_threat(pm, "start", "T-DOS")  # a node, but no service task
    assert "index" not in pm.__dict__


def test_same_threat_on_two_tasks_builds_multiset():
    pm = bpmn.attach_threat(bpmn.attach_threat(linear_model(), "t1", "T-DOS"), "t2", "T-DOS")
    assert bpmn.error_ref_multiset(pm) == ["T-DOS", "T-DOS"]
    assert len(pm.errors) == 1  # one declaration serves both references


def test_serialize_is_deterministic():
    pm = bpmn.attach_threat(linear_model(), "t2", "T-DOS")
    assert bpmn.serialize(pm) == bpmn.serialize(pm)


def test_serialize_refuses_invalid_model():
    pm = bpmn.ProcessModel(id="broken", nodes=(bpmn.StartEvent(id="s"),), flows=())
    with pytest.raises(ValidationError):
        bpmn.serialize(pm)


def test_round_trip_preserves_structure():
    pm = bpmn.attach_threat(linear_model(3), "t2", "T-DOS")
    again = bpmn.parse_bpmn(bpmn.serialize(pm))
    assert bpmn.structural_diff(pm, again) == []


def test_round_trip_generated_models():
    rng = random.Random(42)
    for _ in range(20):
        pm = random_process(rng)
        again = bpmn.parse_bpmn(bpmn.serialize(pm))
        assert bpmn.structurally_equal(pm, again)
        assert bpmn.error_ref_multiset(pm) == bpmn.error_ref_multiset(again)


def test_parse_reports_position_on_malformed_xml():
    with pytest.raises(ParseError) as exc:
        bpmn.parse_bpmn("<definitions><process></definitions>")
    assert exc.value.position is not None


def test_parse_rejects_unsupported_elements():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <process id="p">
        <startEvent id="s"/>
        <exclusiveGateway id="x"/>
        <endEvent id="e"/>
        <sequenceFlow id="f1" sourceRef="s" targetRef="x"/>
        <sequenceFlow id="f2" sourceRef="x" targetRef="e"/>
      </process>
    </definitions>"""
    with pytest.raises(UnsupportedConstructError) as exc:
        bpmn.parse_bpmn(doc)
    assert "exclusiveGateway" in exc.value.elements


def test_parse_requires_single_process():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <process id="a"/><process id="b"/>
    </definitions>"""
    with pytest.raises(ValidationError):
        bpmn.parse_bpmn(doc)


def test_parse_infers_gateway_direction_from_degree():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <process id="p">
        <startEvent id="s"/>
        <parallelGateway id="g1"/>
        <serviceTask id="t1"/>
        <serviceTask id="t2"/>
        <parallelGateway id="g2"/>
        <endEvent id="e"/>
        <sequenceFlow id="f1" sourceRef="s" targetRef="g1"/>
        <sequenceFlow id="f2" sourceRef="g1" targetRef="t1"/>
        <sequenceFlow id="f3" sourceRef="g1" targetRef="t2"/>
        <sequenceFlow id="f4" sourceRef="t1" targetRef="g2"/>
        <sequenceFlow id="f5" sourceRef="t2" targetRef="g2"/>
        <sequenceFlow id="f6" sourceRef="g2" targetRef="e"/>
      </process>
    </definitions>"""
    pm = bpmn.parse_bpmn(doc)
    directions = {n.id: n.direction for n in pm.nodes if isinstance(n, bpmn.ParallelGateway)}
    assert directions == {"g1": bpmn.GatewayDirection.FORK, "g2": bpmn.GatewayDirection.JOIN}


def test_parse_defaults_boundary_handler_to_sole_end_event():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <error id="T-DOS"/>
      <process id="p">
        <startEvent id="s"/>
        <serviceTask id="t1"/>
        <boundaryEvent id="b1" attachedToRef="t1">
          <errorEventDefinition errorRef="T-DOS"/>
        </boundaryEvent>
        <endEvent id="e"/>
        <sequenceFlow id="f1" sourceRef="s" targetRef="t1"/>
        <sequenceFlow id="f2" sourceRef="t1" targetRef="e"/>
      </process>
    </definitions>"""
    pm = bpmn.parse_bpmn(doc)
    assert pm.boundary_events()[0].handler_target == "e"


def test_document_order_is_stable_and_places_boundaries_after_task():
    pm = bpmn.attach_threat(linear_model(3), "t2", "T-DOS")
    order = [n.id for n in bpmn.document_order(pm)]
    assert order[0] == "start"
    assert order[-1] == "end"
    assert order.index("boundary-t2-T-DOS") == order.index("t2") + 1


def test_structural_diff_reports_changed_node():
    a = linear_model()
    b = bpmn.ProcessModel(
        id=a.id,
        name=a.name,
        nodes=tuple(
            bpmn.ServiceTask(id=n.id, name="Renamed", operation_ref=n.operation_ref)
            if isinstance(n, bpmn.ServiceTask) and n.id == "t1"
            else n
            for n in a.nodes
        ),
        flows=a.flows,
    )
    diffs = bpmn.structural_diff(a, b)
    assert any("only in first" in d for d in diffs)
    assert any("only in second" in d for d in diffs)


def test_two_start_events_violation_names_the_count():
    pm = linear_model()
    doubled = bpmn.ProcessModel(
        id=pm.id,
        name=pm.name,
        nodes=pm.nodes + (bpmn.StartEvent(id="start2"),),
        flows=pm.flows + (bpmn.SequenceFlow(id="fx", from_node="start2", to_node="t1"),),
    )
    assert any("2 start events" in p for p in bpmn.validate(doubled))


def test_unwired_task_violation_names_the_task():
    # a task no flow reaches is caught by the degree rules, which name it
    pm = linear_model()
    orphaned = bpmn.ProcessModel(
        id=pm.id, name=pm.name, nodes=pm.nodes + (bpmn.ServiceTask(id="island"),), flows=pm.flows
    )
    assert any("'island'" in p for p in bpmn.validate(orphaned))


def test_end_event_fed_only_by_boundary_handler_is_valid():
    xml = """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" targetNamespace="urn:x">
  <error id="T-X" name="T-X" />
  <process id="p" isExecutable="true">
    <startEvent id="s" />
    <serviceTask id="t1" />
    <boundaryEvent id="b1" attachedToRef="t1">
      <errorEventDefinition errorRef="T-X" />
    </boundaryEvent>
    <endEvent id="e" />
    <endEvent id="e2" />
    <sequenceFlow id="h1" sourceRef="b1" targetRef="e2" />
    <sequenceFlow id="f1" sourceRef="s" targetRef="t1" />
    <sequenceFlow id="f2" sourceRef="t1" targetRef="e" />
  </process>
</definitions>
"""
    pm = bpmn.parse_bpmn(xml)
    assert bpmn.validate(pm) == []
    assert next(iter(pm.boundary_events())).handler_target == "e2"
    once = bpmn.serialize(pm)
    assert once == bpmn.serialize(bpmn.parse_bpmn(once))


def test_boundary_attached_to_missing_task_is_flagged():
    pm = linear_model()
    loose = bpmn.ProcessModel(
        id=pm.id,
        name=pm.name,
        nodes=pm.nodes
        + (
            bpmn.ErrorBoundaryEvent(
                id="b1", attached_to="ghost", error_ref="T-X", handler_target="end"
            ),
        ),
        flows=pm.flows,
        errors=(bpmn.ErrorDecl(id="T-X", name="T-X"),),
    )
    assert any("attachedTo" in p and "ghost" in p for p in bpmn.validate(loose))


def test_serialized_xml_names_threat_in_error_ref():
    pm = bpmn.attach_threat(linear_model(), "t1", "T-SPOOF")
    xml = bpmn.serialize(pm)
    assert 'errorRef="T-SPOOF"' in xml
    assert 'attachedToRef="t1"' in xml


def test_empty_process_name_attribute_is_omitted():
    pm = linear_model()
    unnamed = bpmn.ProcessModel(id="p-bare", nodes=pm.nodes, flows=pm.flows)
    line = next(l for l in bpmn.serialize(unnamed).splitlines() if "<process" in l)
    assert "name=" not in line
    named = next(l for l in bpmn.serialize(pm).splitlines() if "<process" in l)
    assert 'name="Linear"' in named


def test_threat_refs_match_direct_boundary_scan():
    pm = linear_model(n_tasks=3)
    pairs = [("t1", "T-A"), ("t1", "T-B"), ("t2", "T-A"), ("t3", "T-C")]
    for task, ref in pairs:
        pm = bpmn.attach_threat(pm, task, ref)
    oracle = {(b.attached_to, b.error_ref) for b in pm.boundary_events()}
    assert bpmn.list_threat_refs(pm) == oracle == set(pairs)


def test_index_is_built_once_and_leaves_value_semantics_alone():
    pm = bpmn.attach_threat(linear_model(), "t1", "T-DOS")
    twin = bpmn.ProcessModel(id=pm.id, name=pm.name, nodes=pm.nodes, flows=pm.flows, errors=pm.errors)
    before = hash(pm)
    idx = pm.index
    assert pm.index is idx
    assert pm == twin and hash(pm) == before == hash(twin)
    assert repr(pm) == repr(twin)
    renamed = replace(pm, name="Renamed")
    assert renamed.index is not idx and renamed.nodes == pm.nodes


def test_index_tables():
    pm = bpmn.attach_threat(linear_model(), "t1", "T-DOS")
    pm = replace(pm, flows=pm.flows + (bpmn.SequenceFlow(id="f0", from_node="t1", to_node="end"),))
    idx = pm.index
    assert pm.node_by_id("t2") == bpmn.ServiceTask(id="t2", name="Task 2", operation_ref="op2")
    assert pm.node_by_id("ghost") is None
    assert idx.successors["t1"] == ["end", "t2"]  # f0 sorts before f2
    assert idx.indegree == {"start": 0, "t1": 1, "t2": 1, "end": 2, "boundary-t1-T-DOS": 0}
    assert idx.boundaries["t1"]["T-DOS"].handler_target == "end"
    assert [t.id for t in idx.service_tasks] == ["t1", "t2"]
    assert idx.order == bpmn.document_order(pm)


def test_index_tolerates_models_that_fail_validation():
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(bpmn.StartEvent(id="s"), bpmn.ServiceTask(id="s"), bpmn.EndEvent(id="e")),
        flows=(bpmn.SequenceFlow(id="f1", from_node="ghost", to_node="e"),),
    )
    assert pm.node_by_id("s") == bpmn.StartEvent(id="s")
    assert pm.index.successors["ghost"] == ["e"]
    assert bpmn.validate(pm)


def test_serialize_refuses_a_character_xml_cannot_carry():
    pm = linear_model()
    bad = replace(pm, nodes=tuple(replace(n, name="a\x01b") if n.id == "t1" else n for n in pm.nodes))
    assert bpmn.validate(bad) == []
    with pytest.raises(ValidationError, match=re.escape(repr("a\x01b"))):
        bpmn.serialize(bad)


def test_violations_are_kept_on_the_model_value():
    pm = bpmn.attach_threat(linear_model(), "t1", "T-DOS")
    twin = bpmn.ProcessModel(id=pm.id, name=pm.name, nodes=pm.nodes, flows=pm.flows, errors=pm.errors)
    first = bpmn.validate(pm)
    first.append("caller's own entry")
    assert bpmn.validate(pm) == [] and pm.violations == ()
    assert pm == twin and hash(pm) == hash(twin) and repr(pm) == repr(twin)
    broken = replace(pm, flows=pm.flows[1:])
    assert bpmn.validate(broken) == list(broken.violations) != []


# --- structure: acyclic flows, and each fork closed by one join -------------

def flow_model(edges, forks=(), joins=(), ends=("end",)):
    """A model with a node for each name in edges, in order of first use:
    'start' is the start event, forks and joins are parallel gateways, ends
    are end events and every other name is a service task."""
    def node(name):
        if name == "start":
            return bpmn.StartEvent(id=name)
        if name in ends:
            return bpmn.EndEvent(id=name)
        if name in forks or name in joins:
            direction = bpmn.GatewayDirection.FORK if name in forks else bpmn.GatewayDirection.JOIN
            return bpmn.ParallelGateway(id=name, direction=direction)
        return bpmn.ServiceTask(id=name, operation_ref=f"op-{name}")

    names = dict.fromkeys(name for edge in edges for name in edge)
    return bpmn.ProcessModel(
        id="p",
        nodes=tuple(map(node, names)),
        flows=tuple(bpmn.SequenceFlow(f"f{k:02d}", a, b) for k, (a, b) in enumerate(edges)),
    )


def test_validate_rejects_a_cycle_the_degree_rules_allow():
    pm = flow_model(
        [("start", "join"), ("join", "t"), ("t", "fork"), ("fork", "join"), ("fork", "end")],
        forks={"fork"}, joins={"join"},
    )
    assert bpmn.validate(pm) == ["flows cycle: nodes 'end', 'fork', 'join', 't' lie on or after a cycle"]


def test_validate_rejects_a_fork_branch_that_reaches_an_end_event():
    pm = flow_model([("start", "g"), ("g", "a"), ("g", "b"), ("a", "end"), ("b", "end")], forks={"g"})
    assert bpmn.validate(pm) == ["end event 'end' ends a branch of fork 'g' before its join"]


def test_validate_rejects_a_join_fed_by_branches_of_two_forks():
    pm = flow_model(
        [("start", "g1"), ("g1", "a"), ("g1", "g2"), ("g2", "b"), ("g2", "c"),
         ("a", "j"), ("b", "j"), ("c", "j"), ("j", "end")],
        forks={"g1", "g2"}, joins={"j"},
    )
    assert bpmn.validate(pm) == ["join 'j' does not close the branches of one fork"]


def test_validate_rejects_a_fork_whose_branches_meet_at_two_joins():
    pm = flow_model(
        [("start", "g"), ("g", "a"), ("g", "b"), ("g", "c"), ("g", "d"),
         ("a", "j1"), ("b", "j1"), ("c", "j2"), ("d", "j2"), ("j1", "end"), ("j2", "end")],
        forks={"g"}, joins={"j1", "j2"},
    )
    assert bpmn.validate(pm) == [
        "join 'j1' has 2 incoming flows but fork 'g' has 4 branches",
        "join 'j2' has 2 incoming flows but fork 'g' has 4 branches",
    ]


class CountingInvoker(runtime.ComponentInvoker):
    def __init__(self, delays):
        self.delays, self.calls = delays, Counter()

    def invoke(self, component_id, operation_ref, inputs):
        self.calls[component_id] += 1
        return component_id

    def delay_steps(self, component_id, operation_ref):
        return self.delays.get(component_id, 0)


def test_nested_fork_validates_round_trips_and_runs_to_completion():
    # the outer fork's second branch holds a fork/join of its own, one of
    # whose branches is a task that takes three extra steps
    pm = flow_model(
        [("start", "g1"), ("g1", "a"), ("g1", "b"), ("b", "g2"), ("g2", "slow"), ("g2", "c"),
         ("slow", "j2"), ("c", "j2"), ("a", "j1"), ("j2", "j1"), ("j1", "d"), ("d", "end")],
        forks={"g1", "g2"}, joins={"j1", "j2"},
    )
    assert bpmn.validate(pm) == []
    again = bpmn.parse_bpmn(bpmn.serialize(pm))
    assert bpmn.structurally_equal(again, pm)
    invoker = CountingInvoker(delays={"slow-c1": 3})
    svc = runtime.deploy(again, random_registry(random.Random(0), again, max_candidates=1), rules=[],
                         criteria=RankingCriteria(1.0, 0.0, 0.0), broker=Broker(), invoker=invoker)
    assert svc.instances[svc.start_instance({})].outcome is runtime.Outcome.COMPLETED
    assert invoker.calls == Counter({f"{t}-c1": 1 for t in ("a", "b", "c", "slow", "d")})


# --- boundary handlers: forward, inside the forks open at the task ----------

def _handlers(pm, *triples):
    for task, threat, target in triples:
        pm = bpmn.attach_threat(pm, task, threat, handler_target=target)
    return pm


HANDLER_CYCLES = {
    "to-a-boundary": (
        lambda: _handlers(linear_model(), ("t2", "T-B", "end"), ("t1", "T-A", "boundary-t2-T-B")),
        ["boundary event 'boundary-t1-T-A' handler targets boundary event 'boundary-t2-T-B'"],
    ),
    "to-the-start": (
        lambda: _handlers(linear_model(), ("t2", "T-A", "start")),
        ["boundary event 'boundary-t2-T-A' handler target 'start' leads back to task 't2'"],
    ),
    "to-its-own-task": (
        lambda: _handlers(linear_model(), ("t1", "T-A", "t1")),
        ["boundary event 'boundary-t1-T-A' handler target 't1' leads back to task 't1'"],
    ),
    "between-siblings": (
        lambda: _handlers(
            flow_model([("start", "g"), ("g", "a"), ("g", "b"), ("a", "j"), ("b", "j"), ("j", "end")],
                       forks={"g"}, joins={"j"}),
            ("a", "T-A", "b"), ("b", "T-B", "a"),
        ),
        ["boundary event 'boundary-a-T-A' handler target 'b' enters fork 'g' outside the branch of task 'a'",
         "boundary event 'boundary-b-T-B' handler target 'a' enters fork 'g' outside the branch of task 'b'"],
    ),
}


def _assert_refused(pm, problems):
    assert bpmn.validate(pm) == problems
    with pytest.raises(ValidationError):
        runtime.deploy(pm, random_registry(random.Random(0), pm, max_candidates=1), rules=[],
                       criteria=RankingCriteria(1.0, 0.0, 0.0), broker=Broker(), invoker=CountingInvoker({}))
    # the same document with its handlers aimed at the end event parses; as written, it does not
    ends = {b.id: "end" for b in pm.boundary_events()}
    xml = bpmn.serialize(replace(pm, nodes=tuple(
        replace(n, handler_target=ends[n.id]) if n.id in ends else n for n in pm.nodes
    )))
    for b in pm.boundary_events():
        xml = xml.replace(f'sourceRef="{b.id}" targetRef="end"', f'sourceRef="{b.id}" targetRef="{b.handler_target}"')
    with pytest.raises(ValidationError) as exc:
        bpmn.parse_bpmn(xml)
    assert all(p in str(exc.value) for p in problems)


@pytest.mark.parametrize("case", HANDLER_CYCLES)
def test_a_handler_that_closes_a_cycle_is_refused(case):
    make, problems = HANDLER_CYCLES[case]
    _assert_refused(make(), problems)


def test_a_handler_to_a_later_task_is_kept():
    pm = _handlers(linear_model(3), ("t1", "T-A", "t3"), ("t2", "T-B", "end"))
    assert bpmn.validate(pm) == []


class FaultingInvoker(CountingInvoker):
    """Each component in faults raises the threat it maps to."""

    def __init__(self, faults, delays=None):
        super().__init__(delays or {})
        self.faults = faults

    def invoke(self, component_id, operation_ref, inputs):
        if component_id in self.faults:
            raise ComponentFault(self.faults[component_id])
        return super().invoke(component_id, operation_ref, inputs)


def _run_faulting(pm, tasks, validated=True, delays=None):
    """One instance whose listed tasks raise their boundary threat, and
    whose components take the extra steps in delays, on a service that
    deploy builds or, if not validated, built without deploy's validation."""
    faults = {f"{b.attached_to}-c1": b.error_ref for b in pm.boundary_events() if b.attached_to in tasks}
    reg = random_registry(random.Random(0), pm, max_candidates=1)
    setup = dict(rules=[], criteria=RankingCriteria(1.0, 0.0, 0.0), broker=Broker(),
                 invoker=FaultingInvoker(faults, delays))
    if validated:
        svc = runtime.deploy(pm, reg, **setup)
    else:
        svc = runtime.DeployedService(service_id="svc", process=pm, registry=reg, subscriptions=[], **setup)
    return svc.instances[svc.start_instance({})]


# g forks to a and b, joined at j, then c; and t before a fork g to x and y
SIBLINGS = [("start", "g"), ("g", "a"), ("g", "b"), ("a", "j"), ("b", "j"), ("j", "c"), ("c", "end")]
LATER_FORK = [("start", "t"), ("t", "g"), ("g", "x"), ("g", "y"), ("x", "j"), ("y", "j"), ("j", "end")]
EARLIER_FORK = [("start", "g"), ("g", "x"), ("g", "y"), ("x", "j"), ("y", "j"), ("j", "t"), ("t", "end")]


def _with_vars(pm, **tasks):
    """pm with each task named given its (input variables, output variable)."""
    return replace(pm, nodes=tuple(
        replace(n, input_vars=tasks[n.id][0], output_var=tasks[n.id][1]) if n.id in tasks else n for n in pm.nodes
    ))


# a sets x; b, and in the longer chain c after it, read x
SETS_X = [("start", "a"), ("a", "b"), ("b", "end")]
SETS_X_READ_LATER = [("start", "a"), ("a", "b"), ("b", "c"), ("c", "end")]
EARLIER_SETS_X = [("start", "p"), ("p", "a"), ("a", "b"), ("b", "end")]
# a handler from a to m; m, or s after it, sets what b reads
CHAIN = [("start", "a"), ("a", "m"), ("m", "b"), ("b", "end")]
CHAIN_SET_BETWEEN = [("start", "a"), ("a", "m"), ("m", "s"), ("s", "b"), ("b", "end")]
# g forks to a then a2, and to s, or to s0 then s; joined at j, then b
SIBLING_SETS = [("start", "g"), ("g", "a"), ("g", "s"), ("a", "a2"), ("a2", "j"), ("s", "j"),
                ("j", "b"), ("b", "end")]
SIBLING_SETS_LATER = [("start", "g"), ("g", "a"), ("g", "s0"), ("s0", "s"), ("a", "j"), ("s", "j"),
                      ("j", "b"), ("b", "end")]


def _forked(edges, *triples):
    """flow_model of edges with the handlers of triples; an end event 'end-h'
    is added when a handler targets it."""
    pm = flow_model(edges, forks={"g"}, joins={"j"})
    if any(target == "end-h" for _, _, target in triples):
        pm = replace(pm, nodes=pm.nodes + (bpmn.EndEvent(id="end-h"),))
    return _handlers(pm, *triples)


def _without_x(task):
    """What validate reports for a task that may run without its input x."""
    return (f"task {task!r} may run without its input variable 'x': a run reaches it before any task that "
            "sets it completes")


# shapes that no faulting run completes, with the failure the runtime reports
# when the tasks named fault in a model that skipped validation
HANDLERS_STRANDED = {
    "into-a-sibling-branch": (
        lambda: _forked(SIBLINGS, ("a", "T-A", "b")), ["a"],
        ["boundary event 'boundary-a-T-A' handler target 'b' enters fork 'g' outside the branch of task 'a'"],
        "token re-entered completed task 'b'",
    ),
    "into-a-later-fork": (
        lambda: _forked(LATER_FORK, ("t", "T-A", "x")), ["t"],
        ["boundary event 'boundary-t-T-A' handler target 'x' enters fork 'g' outside the branch of task 't'"],
        "tokens exhausted before any end event was reached",
    ),
    "onto-a-later-join": (
        lambda: _forked(LATER_FORK, ("t", "T-A", "j")), ["t"],
        ["boundary event 'boundary-t-T-A' handler target 'j' enters fork 'g' outside the branch of task 't'"],
        "tokens exhausted before any end event was reached",
    ),
    "back-into-a-closed-fork": (
        lambda: _forked(EARLIER_FORK, ("t", "T-A", "x")), ["t"],
        ["boundary event 'boundary-t-T-A' handler target 'x' enters fork 'g' outside the branch of task 't'"],
        "token re-entered completed task 'x'",
    ),
    "out-of-two-branches": (
        lambda: _forked(SIBLINGS, ("a", "T-A", "c"), ("b", "T-B", "c")), ["a", "b"],
        ["boundary events 'boundary-a-T-A' and 'boundary-b-T-B' carry tokens out of fork 'g' from two of its branches"],
        "token re-entered completed task 'c'",
    ),
    "past-the-task-setting-its-input": (
        lambda: _with_vars(_forked(SETS_X, ("a", "T-A", "b")), a=((), "x"), b=(("x",), "")), ["a"],
        [_without_x("b")],
        "task 'b' lacks input variables ['x']",
    ),
    "past-the-task-setting-a-later-input": (
        lambda: _with_vars(_forked(SETS_X_READ_LATER, ("a", "T-A", "b")), a=((), "x"), c=(("x",), "")), ["a"],
        [_without_x("c")],
        "task 'c' lacks input variables ['x']",
    ),
    "out-of-a-fork-whose-other-branch-sets-its-input": (
        lambda: _with_vars(_forked(SIBLING_SETS_LATER, ("a", "T-A", "b")), s=((), "x"), b=(("x",), "")), ["a"],
        [_without_x("b")],
        "task 'b' lacks input variables ['x']",
    ),
    "two-faults-in-one-run": (
        lambda: _with_vars(_forked(EARLIER_SETS_X, ("p", "T-P", "a"), ("a", "T-A", "b")),
                           p=((), "x"), a=((), "x"), b=(("x",), "")), ["p", "a"],
        [_without_x("b")],
        "task 'b' lacks input variables ['x']",
    ),
    # a's handler carries its token out of the inner fork g2 to the join j of
    # the outer fork g, past s; it counts for the branch of g that holds g2
    "from-a-nested-fork-past-its-setter": (
        lambda: _with_vars(_handlers(
            flow_model([("start", "g"), ("g", "g2"), ("g", "j"), ("g2", "a"), ("g2", "c"), ("a", "j2"),
                        ("c", "j2"), ("j2", "s"), ("s", "j"), ("j", "b"), ("b", "end")],
                       forks={"g", "g2"}, joins={"j", "j2"}),
            ("a", "T-A", "j"),
        ), s=((), "x"), b=(("x",), "")), ["a"],
        [_without_x("b")],
        "task 'b' lacks input variables ['x']",
    ),
    # p's handler skips a, so the branch of g through p reaches j without x,
    # though a's handler, the first to reach j, carries x there
    "into-a-join-from-a-branch-that-may-skip-its-setter": (
        lambda: _with_vars(_handlers(
            flow_model([("start", "g"), ("g", "p"), ("g", "z"), ("p", "a"), ("a", "q"), ("q", "j"),
                        ("z", "j"), ("j", "b"), ("b", "end")], forks={"g"}, joins={"j"}),
            ("p", "T-P", "q"), ("a", "T-A", "j"),
        ), p=((), "x"), b=(("x",), "")), ["p"],
        [_without_x("b")],
        "task 'b' lacks input variables ['x']",
    ),
}


@pytest.mark.parametrize("case", HANDLERS_STRANDED)
def test_a_handler_that_no_faulting_run_completes_is_refused(case):
    make, faulting, problems, error = HANDLERS_STRANDED[case]
    pm = make()
    _assert_refused(pm, problems)
    inst = _run_faulting(pm, faulting, validated=False)
    assert (inst.outcome, inst.error) == (runtime.Outcome.FAILED, error)


HANDLERS_KEPT = {
    "to-its-join": lambda: _forked(SIBLINGS, ("a", "T-A", "j")),
    "past-its-join": lambda: _forked(SIBLINGS, ("a", "T-A", "c")),
    "to-the-end": lambda: _forked(SIBLINGS, ("a", "T-A", "end")),
    "to-a-handler-fed-end": lambda: _forked(SIBLINGS, ("a", "T-A", "end-h")),
    "to-a-later-fork": lambda: _forked(LATER_FORK, ("t", "T-A", "g")),
    "out-of-two-branches-to-ends": lambda: _forked(SIBLINGS, ("a", "T-A", "end"), ("b", "T-B", "end-h")),
    "out-of-one-branch-and-to-its-join": lambda: _forked(SIBLINGS, ("a", "T-A", "c"), ("b", "T-B", "j")),
    "past-a-task-whose-input-an-earlier-task-sets": lambda: _with_vars(
        _forked(EARLIER_SETS_X, ("a", "T-A", "b")), p=((), "x"), a=((), "x"), b=(("x",), "")),
    "to-a-target-that-sets-a-later-input": lambda: _with_vars(
        _forked(CHAIN, ("a", "T-A", "m")), m=((), "x"), b=(("x",), "")),
    "to-a-target-before-the-task-that-sets-a-later-input": lambda: _with_vars(
        _forked(CHAIN_SET_BETWEEN, ("a", "T-A", "m")), s=((), "x"), b=(("x",), "")),
    "inside-a-fork-whose-other-branch-sets-a-later-input": lambda: _with_vars(
        _forked(SIBLING_SETS, ("a", "T-A", "a2")), s=((), "x"), b=(("x",), "")),
    "to-the-join-of-a-fork-whose-other-branch-sets-a-later-input": lambda: _with_vars(
        _forked(SIBLING_SETS, ("a", "T-A", "j")), s=((), "x"), b=(("x",), "")),
}


@pytest.mark.parametrize("case", HANDLERS_KEPT)
def test_a_handler_forward_inside_the_open_forks_is_kept_and_completes(case):
    pm = HANDLERS_KEPT[case]()
    assert bpmn.validate(pm) == []
    assert bpmn.structurally_equal(bpmn.parse_bpmn(bpmn.serialize(pm)), pm)
    tasks = [b.attached_to for b in pm.boundary_events()]
    for k in range(len(tasks) + 1):
        for faulting in itertools.combinations(tasks, k):
            inst = _run_faulting(pm, faulting)
            assert (inst.outcome, inst.error) == (runtime.Outcome.COMPLETED, None), faulting


# shapes without handlers where some run reaches a task before any task that
# sets its input x completes, with the extra steps components take in that run
INPUTS_UNSET = {
    "read-before-its-setter": (
        lambda: _with_vars(flow_model([("start", "t1"), ("t1", "t2"), ("t2", "end")]),
                           t1=(("x",), ""), t2=((), "x")),
        {}, "t1",
    ),
    "read-from-a-sibling-branch": (lambda: _with_vars(_forked(SIBLINGS), a=((), "x"), b=(("x",), "")),
                                   {"a-c1": 1}, "b"),
}


@pytest.mark.parametrize("case", INPUTS_UNSET)
def test_a_task_that_a_run_reaches_before_its_input_is_set_is_refused(case):
    make, delays, reader = INPUTS_UNSET[case]
    pm = make()
    assert bpmn.validate(pm) == [_without_x(reader)]
    with pytest.raises(ValidationError):
        _run_faulting(pm, [])
    inst = _run_faulting(pm, [], validated=False, delays=delays)
    assert (inst.outcome, inst.error) == (runtime.Outcome.FAILED, f"task {reader!r} lacks input variables ['x']")


@pytest.mark.parametrize("blank", [" ", "　"])
def test_a_blank_error_ref_is_refused_as_an_empty_one(blank):
    pm = bpmn.parse_bpmn((DEMO_BUNDLE_DIR / "process.bpmn").read_text(encoding="utf-8"))
    task = next(n.id for n in pm.nodes if isinstance(n, bpmn.ServiceTask))
    with pytest.raises(ValidationError, match="threat id is empty"):
        bpmn.attach_threat(pm, task, blank)
    boundary = bpmn.ErrorBoundaryEvent(
        id="boundary-blank", attached_to=task, error_ref=blank, handler_target=pm.end_events()[0].id
    )
    blanked = replace(pm, nodes=pm.nodes + (boundary,))
    assert bpmn.validate(blanked) == ["boundary event 'boundary-blank' has empty errorRef"]
    doc = bpmn.serialize(bpmn.attach_threat(pm, task, "T-SOON-BLANK"))
    with pytest.raises(ValidationError, match="has empty errorRef"):
        bpmn.parse_bpmn(doc.replace('errorRef="T-SOON-BLANK"', f'errorRef="{blank}"'))
