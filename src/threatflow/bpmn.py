"""Executable BPMN subset with threat-bearing error boundary events.

Supported elements: process, startEvent, endEvent, serviceTask,
parallelGateway, sequenceFlow, boundaryEvent (with errorEventDefinition)
and top-level error declarations. A boundary event stores the threat ID
directly in the errorRef attribute of its errorEventDefinition; the error
declaration carries the display name. Anything else is rejected by name.

validate() requires exactly one start event, acyclic sequence flows, and
each fork closed by one join that takes all of its branches. Forks may nest
inside the branches of other forks, and no branch may reach an end event
before its join. Every node is then reachable from the start, so
reachability needs no check of its own. A boundary handler moves its
task's token forward into no fork branch but those open at the task, and
one branch of a fork at most sends handler tokens out of it to other nodes
than end events. Each input variable of a task is a process input, set by
no task, or set before the task runs in every run: whichever of the tasks
fault and however the branches interleave, a task that sets it completes
first. So no handler closes a cycle, and a run whose tasks raise handled
threats completes whichever of them fault.

Models are immutable values, and a model value is validated once: its
violations are kept on it, so parse, deploy and serialize check it a single
time. parse/serialize round-trip to structural equality, and serialization
is deterministic byte-for-byte. serialize refuses a model holding a
character that XML 1.0 cannot carry rather than write a document that
parse_bpmn would reject.
"""

from __future__ import annotations

import heapq
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from typing import Union
from xml.sax import saxutils

from .errors import (
    ConflictError,
    NotFoundError,
    ParseError,
    UnsupportedConstructError,
    ValidationError,
)

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
EXT_NS = "urn:x-threatflow:bpmn"

SUPPORTED_ELEMENTS = {
    "definitions",
    "process",
    "error",
    "startEvent",
    "endEvent",
    "serviceTask",
    "parallelGateway",
    "sequenceFlow",
    "boundaryEvent",
    "errorEventDefinition",
    "documentation",  # tolerated and ignored
}
_BPMN_TAGS = {f"{{{BPMN_NS}}}{name}": name for name in SUPPORTED_ELEMENTS}


class GatewayDirection(Enum):
    FORK = "fork"
    JOIN = "join"


@dataclass(frozen=True)
class StartEvent:
    id: str


@dataclass(frozen=True)
class EndEvent:
    id: str


@dataclass(frozen=True)
class ServiceTask:
    id: str
    name: str = ""
    operation_ref: str = ""
    input_vars: tuple[str, ...] = ()
    output_var: str = ""


@dataclass(frozen=True)
class ParallelGateway:
    id: str
    direction: GatewayDirection


@dataclass(frozen=True)
class ErrorBoundaryEvent:
    id: str
    attached_to: str
    error_ref: str
    handler_target: str


Node = Union[StartEvent, EndEvent, ServiceTask, ParallelGateway, ErrorBoundaryEvent]


@dataclass(frozen=True)
class SequenceFlow:
    id: str
    from_node: str
    to_node: str


@dataclass(frozen=True)
class ErrorDecl:
    id: str
    name: str = ""


@dataclass(frozen=True)
class ProcessIndex:
    """Graph lookups over one model, built once (ProcessModel.index). Invalid
    models index too: flows may name unknown nodes."""

    nodes: dict[str, Node]
    successors: dict[str, list[str]]  # flow targets, ordered by flow id
    indegree: dict[str, int]  # incoming sequence flows
    boundaries: dict[str, dict[str, ErrorBoundaryEvent]]  # task id -> errorRef -> boundary
    order: list[Node]  # document order; short of the model if flows cycle
    service_tasks: tuple[ServiceTask, ...]  # in document order
    task_ids: frozenset[str]  # of every service task, reached by the order or not


def _index(pm: ProcessModel) -> ProcessIndex:
    nodes = {n.id: n for n in reversed(pm.nodes)}  # the first node wins a duplicate id
    succ: dict[str, list[str]] = {n.id: [] for n in pm.nodes}
    indeg = dict.fromkeys(succ, 0)
    for f in sorted(pm.flows, key=lambda f: f.id):
        succ.setdefault(f.from_node, []).append(f.to_node)
        indeg[f.to_node] = indeg.get(f.to_node, 0) + 1
    boundaries: dict[str, dict[str, ErrorBoundaryEvent]] = {}
    for b in pm.boundary_events():
        boundaries.setdefault(b.attached_to, {}).setdefault(b.error_ref, b)

    # topological over flows with id tie-break; boundary events follow their task
    waiting = {n.id: indeg[n.id] for n in pm.nodes if not isinstance(n, ErrorBoundaryEvent)}
    ready = [nid for nid, d in waiting.items() if d == 0]
    heapq.heapify(ready)
    order: list[Node] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nodes[nid])
        order.extend(sorted(boundaries.get(nid, {}).values(), key=lambda b: b.id))
        for nxt in succ[nid]:
            if nxt in waiting:
                waiting[nxt] -= 1
                if waiting[nxt] == 0:
                    heapq.heappush(ready, nxt)
    tasks = tuple(n for n in order if isinstance(n, ServiceTask))
    task_ids = frozenset(n.id for n in pm.nodes if isinstance(n, ServiceTask))
    return ProcessIndex(nodes, succ, indeg, boundaries, order, tasks, task_ids)


@dataclass(frozen=True)
class ProcessModel:
    id: str
    name: str = ""
    nodes: tuple[Node, ...] = ()
    flows: tuple[SequenceFlow, ...] = ()
    errors: tuple[ErrorDecl, ...] = ()

    @cached_property
    def index(self) -> ProcessIndex:
        """Built on first use; equality, hashing and replace() ignore it."""
        return _index(self)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """What validate() reports, checked on first use; like index, a
        model value never changes, so it is never checked again."""
        return tuple(_check(self))

    def node_by_id(self, node_id: str) -> Node | None:
        return self.index.nodes.get(node_id)

    def service_tasks(self) -> list[ServiceTask]:
        return [n for n in self.nodes if isinstance(n, ServiceTask)]

    def boundary_events(self) -> list[ErrorBoundaryEvent]:
        return [n for n in self.nodes if isinstance(n, ErrorBoundaryEvent)]

    def start_event(self) -> StartEvent:
        starts = [n for n in self.nodes if isinstance(n, StartEvent)]
        if len(starts) != 1:
            raise ValidationError(f"process {self.id!r} has {len(starts)} start events")
        return starts[0]

    def end_events(self) -> list[EndEvent]:
        return [n for n in self.nodes if isinstance(n, EndEvent)]


# --- validation ---------------------------------------------------------------

def validate(pm: ProcessModel) -> list[str]:
    """Empty list iff all model invariants hold; each violation names the
    offending node or flow and the invariant it breaks. The check runs once
    per model value (ProcessModel.violations); each call gets a new list."""
    return list(pm.violations)


def _blank(threat_id: str) -> bool:
    """Empty or whitespace only: no threat id, as repo.Threat rules too."""
    return not threat_id or threat_id.isspace()


def _check(pm: ProcessModel) -> list[str]:
    v: list[str] = []
    ids: dict[str, Node] = {}
    for n in pm.nodes:
        if not n.id:
            v.append("node with empty id")
            continue
        if n.id in ids:
            v.append(f"duplicate node id {n.id!r}")
        ids[n.id] = n

    starts = [n for n in pm.nodes if isinstance(n, StartEvent)]
    if len(starts) != 1:
        v.append(f"process has {len(starts)} start events, expected exactly 1")
    if not any(isinstance(n, EndEvent) for n in pm.nodes):
        v.append("process has no end event")

    flow_ids: set[str] = set()
    for f in pm.flows:
        if f.id in flow_ids:
            v.append(f"duplicate flow id {f.id!r}")
        flow_ids.add(f.id)
        if f.from_node == f.to_node:
            v.append(f"flow {f.id!r} is a self-loop on {f.from_node!r}")
        for end in (f.from_node, f.to_node):
            if end not in ids:
                v.append(f"flow {f.id!r} endpoint {end!r} names no node")
            elif isinstance(ids[end], ErrorBoundaryEvent):
                v.append(
                    f"flow {f.id!r} touches boundary event {end!r}; boundary events "
                    "connect through their handler target"
                )

    boundaries = pm.boundary_events()
    seen_pairs: set[tuple[str, str]] = set()
    for b in boundaries:
        if not isinstance(ids.get(b.attached_to), ServiceTask):
            v.append(f"boundary event {b.id!r} attachedTo {b.attached_to!r} is not a service task")
        if _blank(b.error_ref):
            v.append(f"boundary event {b.id!r} has empty errorRef")
        if b.handler_target not in ids:
            v.append(f"boundary event {b.id!r} handler target {b.handler_target!r} names no node")
        pair = (b.attached_to, b.error_ref)
        if pair in seen_pairs:
            v.append(f"duplicate boundary event for task/threat pair {pair!r}")
        seen_pairs.add(pair)

    decl_ids: set[str] = set()
    for e in pm.errors:
        if e.id in decl_ids:
            v.append(f"duplicate error declaration {e.id!r}")
        decl_ids.add(e.id)
    for b in boundaries:
        if not _blank(b.error_ref) and b.error_ref not in decl_ids:
            v.append(f"errorRef {b.error_ref!r} on {b.id!r} has no error declaration")

    # degree rules for the structured subset (flows only; boundary events
    # are attached, not flow-connected)
    if not v:
        idx = pm.index
        # an end event may be fed solely by a boundary handler reroute
        handler_fed = {b.handler_target for b in boundaries}
        for n in pm.nodes:
            i, o = idx.indegree[n.id], len(idx.successors[n.id])
            if isinstance(n, StartEvent) and (i != 0 or o != 1):
                v.append(f"start event {n.id!r} must have 0 in / 1 out flows, has {i}/{o}")
            elif isinstance(n, EndEvent) and ((i < 1 and n.id not in handler_fed) or o != 0):
                v.append(f"end event {n.id!r} must have >=1 in / 0 out flows, has {i}/{o}")
            elif isinstance(n, ServiceTask) and (i != 1 or o != 1):
                v.append(f"service task {n.id!r} must have 1 in / 1 out flows, has {i}/{o}")
            elif isinstance(n, ParallelGateway):
                if n.direction is GatewayDirection.FORK and (i != 1 or o < 2):
                    v.append(f"fork gateway {n.id!r} must have 1 in / >=2 out flows, has {i}/{o}")
                if n.direction is GatewayDirection.JOIN and (i < 2 or o != 1):
                    v.append(f"join gateway {n.id!r} must have >=2 in / 1 out flows, has {i}/{o}")

    return v or _check_structure(pm)


def _check_structure(pm: ProcessModel) -> list[str]:
    """Acyclic flows, fork/join pairing, boundary handlers and input
    variables, in one pass over the index's topological order, once the id,
    endpoint, boundary and degree checks pass: the order then holds every
    node iff the flows are acyclic. Each flow carries the forks open on it
    and the branch it is on: a fork opens itself on each branch, a join must
    close the last fork on every one of that fork's branches, and an end
    event must see none open. A handler's target is then an end event, or a
    node after its task that some flow enters carrying only forks and
    branches open at the task; and the handlers whose tokens leave a fork
    for other nodes than end events must all lie in one of its branches.

    Each arrival at a node, a flow or a handler, also carries the variables
    that every run has set by then, of those that a task reads and some task
    sets (a definite-assignment pass; none runs if there are none). A handler
    carries what its task holds, without the task's output. A node holds
    what all of its arrivals carry; a join, what any branch of its fork
    carries on all of its arrivals, a handler counting for the branch of its
    task; a task passes on its output too. A task that does not hold each
    such input is refused, once the flows and handlers hold.

    Reachability needs no check of its own: by the degree rules and acyclic
    flows, a walk back along incoming flows from any node but a handler-fed
    end (hung on a boundary event, hung on a task) ends at the start."""
    idx = pm.index
    if len(idx.order) != len(pm.nodes):
        placed = {n.id for n in idx.order}
        missing = sorted(n.id for n in pm.nodes if n.id not in placed)
        return [f"flows cycle: nodes {', '.join(map(repr, missing))} lie on or after a cycle"]
    v: list[str] = []
    # (fork, branch head) pairs, outermost first; one tuple per incoming flow
    contexts: dict[str, list[tuple[tuple[str, str], ...]]] = {n.id: [] for n in pm.nodes}
    tasks = idx.service_tasks
    read = {var for t in tasks for var in t.input_vars}
    # a bit for each variable that a task reads and some task sets: no other can be missing at a task
    bit = {var: 1 << k for k, var in enumerate(read.intersection(t.output_var for t in tasks if t.output_var))}
    # per flow and handler into a node: the context of the flow or of the handler's task, and the bits it carries
    arrivals: dict[str, list[tuple[tuple[tuple[str, str], ...], int]]] = {n.id: [] for n in pm.nodes} if bit else {}
    unset: list[str] = []
    for n in idx.order:  # a boundary event has no flows and passes through
        ins = contexts[n.id]
        out = ins[0] if ins else ()
        is_fork = isinstance(n, ParallelGateway) and n.direction is GatewayDirection.FORK
        is_join = isinstance(n, ParallelGateway) and not is_fork
        if bit and not isinstance(n, (EndEvent, ErrorBoundaryEvent)):  # the nodes that pass something on
            got = arrivals[n.id]
            if is_join:  # the meet within each branch of the fork it closes, joined over them
                meets: dict[tuple[tuple[str, str], ...], int] = {}
                for t, bits in got:
                    branch = t[len(out) - 1:len(out)]
                    meets[branch] = meets.get(branch, bits) & bits
                held = 0
                for bits in meets.values():
                    held |= bits
            else:  # the meet of all; the start has none
                held = got[0][1] if got else 0
                for _, bits in got:
                    held &= bits
            if isinstance(n, ServiceTask):
                for var in n.input_vars:
                    if var in bit and not held & bit[var]:
                        unset.append(f"task {n.id!r} may run without its input variable {var!r}: a run "
                                     "reaches it before any task that sets it completes")
                        break
                for b in idx.boundaries.get(n.id, {}).values():
                    arrivals[b.handler_target].append((out, held))
                held |= bit.get(n.output_var, 0)
        if is_join:
            forks = [f for f, _ in out]
            branches = len(idx.successors[forks[-1]]) if out else 0
            if not out or any([f for f, _ in t] != forks for t in ins):
                v.append(f"join {n.id!r} does not close the branches of one fork")
            elif len(ins) != branches:
                v.append(f"join {n.id!r} has {len(ins)} incoming flows but fork {forks[-1]!r} has {branches} branches")
            out = out[:-1]
        elif isinstance(n, EndEvent) and any(ins):
            v.append(f"end event {n.id!r} ends a branch of fork {next(t for t in ins if t)[-1][0]!r} before its join")
        for nxt in idx.successors[n.id]:
            t = out + ((n.id, nxt),) if is_fork else out
            contexts[nxt].append(t)
            if bit:
                arrivals[nxt].append((t, held))
    if v:
        return v

    at = {n.id: k for k, n in enumerate(idx.order)}
    leaving: dict[str, tuple[str, str]] = {}  # fork -> branch head and boundary id of the first handler out
    for b in pm.boundary_events():
        if isinstance(idx.nodes[x := b.handler_target], EndEvent):
            continue
        task = contexts[b.attached_to][0]  # a service task has one incoming flow
        # per incoming flow of x, the first fork it carries in a branch not open at the task
        outside = [next((f for f, head in t if (f, head) not in task), None) for t in contexts[x]]
        if isinstance(idx.nodes[x], ErrorBoundaryEvent):
            v.append(f"boundary event {b.id!r} handler targets boundary event {x!r}")
        elif outside and None not in outside:
            v.append(f"boundary event {b.id!r} handler target {x!r} enters fork {outside[0]!r} "
                     f"outside the branch of task {b.attached_to!r}")
        elif at[x] <= at[b.attached_to]:
            v.append(f"boundary event {b.id!r} handler target {x!r} leads back to task {b.attached_to!r}")
        else:
            left = task[len(contexts[x][outside.index(None)]):]  # the forks the token leaves
            for f, head in left:
                leaving.setdefault(f, (head, b.id))
            clash = next((f for f, head in left if leaving[f][0] != head), None)
            if clash:
                v.append(f"boundary events {leaving[clash][1]!r} and {b.id!r} carry tokens out of fork "
                         f"{clash!r} from two of its branches")
    return v or unset


# --- operations ---------------------------------------------------------------

def list_threat_refs(pm: ProcessModel) -> set[tuple[str, str]]:
    """(task id, threat ID) for every boundary event in the model."""
    return {(b.attached_to, b.error_ref) for b in pm.boundary_events()}


def error_ref_multiset(pm: ProcessModel) -> list[str]:
    return sorted(b.error_ref for b in pm.boundary_events())


def attach_threat(
    pm: ProcessModel,
    task_id: str,
    threat_id: str,
    handler_target: str | None = None,
    threat_name: str = "",
) -> ProcessModel:
    """Return a new model with a boundary event carrying threat_id on task_id.

    handler_target defaults to the process end event.
    """
    task = next((n for n in pm.nodes if n.id == task_id), None)
    if not isinstance(task, ServiceTask):
        raise NotFoundError(f"no service task {task_id!r} in process {pm.id!r}")
    if _blank(threat_id):
        raise ValidationError("threat id is empty")
    if (task_id, threat_id) in list_threat_refs(pm):
        raise ConflictError(f"task {task_id!r} already carries threat {threat_id!r}")
    if handler_target is None:
        ends = pm.end_events()
        if len(ends) != 1:
            raise ValidationError(
                f"process {pm.id!r} has {len(ends)} end events; handler target must be explicit"
            )
        handler_target = ends[0].id
    elif all(n.id != handler_target for n in pm.nodes):
        raise NotFoundError(f"handler target {handler_target!r} names no node")

    boundary = ErrorBoundaryEvent(
        id=f"boundary-{task_id}-{threat_id}",
        attached_to=task_id,
        error_ref=threat_id,
        handler_target=handler_target,
    )
    errors = pm.errors
    if all(e.id != threat_id for e in errors):
        errors = errors + (ErrorDecl(id=threat_id, name=threat_name or threat_id),)
    return replace(pm, nodes=pm.nodes + (boundary,), errors=errors)


def structurally_equal(a: ProcessModel, b: ProcessModel) -> bool:
    return not structural_diff(a, b)


def structural_diff(a: ProcessModel, b: ProcessModel) -> list[str]:
    """Human-readable differences, ignoring declaration order."""
    diffs: list[str] = []
    if a.id != b.id:
        diffs.append(f"process id {a.id!r} != {b.id!r}")
    if a.name != b.name:
        diffs.append(f"process name {a.name!r} != {b.name!r}")
    for label, left, right in (
        ("node", set(a.nodes), set(b.nodes)),
        ("flow", set(a.flows), set(b.flows)),
        ("error", set(a.errors), set(b.errors)),
    ):
        for item in sorted(left - right, key=repr):
            diffs.append(f"{label} only in first: {item}")
        for item in sorted(right - left, key=repr):
            diffs.append(f"{label} only in second: {item}")
    return diffs


def document_order(pm: ProcessModel) -> list[Node]:
    """Canonical order: topological over flows with id tie-break; boundary
    events follow their attached task."""
    order = pm.index.order
    if len(order) != len(pm.nodes):
        raise ValidationError(f"process {pm.id!r} flow graph is not acyclic")
    return list(order)


# --- XML serializer -----------------------------------------------------------

# attribute text that quoteattr would only wrap in double quotes: no markup
# character, no quote, no whitespace it escapes, nothing outside XML 1.0
_PLAIN_ATTR = re.compile(r'[^\x00-\x1f"&<>\ud800-\udfff\ufffe\uffff]*')
_NOT_XML_CHAR = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _quote(value: str) -> str:
    """saxutils.quoteattr(value) for any string XML 1.0 can carry; a value
    holding a character outside its Char production raises ValidationError."""
    if _PLAIN_ATTR.fullmatch(value):
        return '"' + value + '"'
    bad = _NOT_XML_CHAR.search(value)
    if bad:
        raise ValidationError(f"cannot serialize {value!r}: XML 1.0 cannot carry {bad.group()!r}")
    return saxutils.quoteattr(value)


def serialize(pm: ProcessModel) -> str:
    """Deterministic BPMN 2.0 XML: identical models yield identical bytes."""
    violations = validate(pm)
    if violations:
        raise ValidationError("cannot serialize invalid model: " + "; ".join(violations))

    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<definitions xmlns="{BPMN_NS}" xmlns:ext="{EXT_NS}" '
        'targetNamespace="urn:x-threatflow:process">'
    )
    for e in sorted(pm.errors, key=lambda e: e.id):
        attrs = f" id={_quote(e.id)}"
        if e.name:
            attrs += f" name={_quote(e.name)}"
        out.append(f"  <error{attrs} />")

    proc_attrs = f" id={_quote(pm.id)}"
    if pm.name:
        proc_attrs += f" name={_quote(pm.name)}"
    out.append(f"  <process{proc_attrs} isExecutable=\"true\">")

    for node in document_order(pm):
        if isinstance(node, StartEvent):
            out.append(f"    <startEvent id={_quote(node.id)} />")
        elif isinstance(node, EndEvent):
            out.append(f"    <endEvent id={_quote(node.id)} />")
        elif isinstance(node, ServiceTask):
            attrs = f" id={_quote(node.id)}"
            if node.name:
                attrs += f" name={_quote(node.name)}"
            if node.operation_ref:
                attrs += f" operationRef={_quote(node.operation_ref)}"
            if node.input_vars:
                attrs += f" ext:inputVars={_quote(','.join(node.input_vars))}"
            if node.output_var:
                attrs += f" ext:outputVar={_quote(node.output_var)}"
            out.append(f"    <serviceTask{attrs} />")
        elif isinstance(node, ParallelGateway):
            direction = "Diverging" if node.direction is GatewayDirection.FORK else "Converging"
            out.append(
                f"    <parallelGateway id={_quote(node.id)} "
                f'gatewayDirection="{direction}" />'
            )
        elif isinstance(node, ErrorBoundaryEvent):
            out.append(
                f"    <boundaryEvent id={_quote(node.id)} "
                f"attachedToRef={_quote(node.attached_to)}>"
            )
            out.append(f"      <errorEventDefinition errorRef={_quote(node.error_ref)} />")
            out.append("    </boundaryEvent>")

    all_flows = list(pm.flows) + [
        SequenceFlow(id=f"{b.id}-handler", from_node=b.id, to_node=b.handler_target)
        for b in pm.boundary_events()
    ]
    for f in sorted(all_flows, key=lambda f: f.id):
        out.append(
            f"    <sequenceFlow id={_quote(f.id)} "
            f"sourceRef={_quote(f.from_node)} targetRef={_quote(f.to_node)} />"
        )
    out.append("  </process>")
    out.append("</definitions>")
    return "\n".join(out) + "\n"


# --- XML parser ---------------------------------------------------------------

def _tag(el: ET.Element) -> str:
    """Local name of an element's tag; one lookup for a BPMN element."""
    return _BPMN_TAGS.get(el.tag) or el.tag.rsplit("}", 1)[-1]


def _attr(el: ET.Element, name: str) -> str:
    """Attribute by local name, tolerating namespace qualification."""
    value = el.get(name)
    if value is not None:
        return value
    qualified = "}" + name  # no key is the bare name, so one with this local name ends in '}name'
    for key, value in el.items():
        if key.endswith(qualified):
            return value
    return ""


def parse_bpmn(doc: str) -> ProcessModel:
    """Parse a BPMN 2.0 XML document into a validated ProcessModel."""
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc.msg.split(':')[0]}", exc.position)

    unsupported = sorted({kind for el in root.iter() if (kind := _tag(el)) not in SUPPORTED_ELEMENTS})
    if unsupported:
        raise UnsupportedConstructError(unsupported)

    processes = [el for el in root if _tag(el) == "process"]
    if len(processes) != 1:
        raise ValidationError(f"document declares {len(processes)} processes, expected exactly 1")
    proc = processes[0]

    errors = tuple(
        ErrorDecl(id=_attr(el, "id"), name=_attr(el, "name"))
        for el in root
        if _tag(el) == "error"
    )

    nodes: list[Node] = []
    raw_flows: list[SequenceFlow] = []
    pending_gateways: list[str] = []
    boundary_raw: list[tuple[str, str, str]] = []  # id, attachedToRef, errorRef

    for el in proc:
        kind = _tag(el)
        el_id = _attr(el, "id")
        if kind == "startEvent":
            nodes.append(StartEvent(id=el_id))
        elif kind == "endEvent":
            nodes.append(EndEvent(id=el_id))
        elif kind == "serviceTask":
            raw_vars = _attr(el, "inputVars")
            nodes.append(
                ServiceTask(
                    id=el_id,
                    name=_attr(el, "name"),
                    operation_ref=_attr(el, "operationRef"),
                    input_vars=tuple(s for s in raw_vars.split(",") if s) if raw_vars else (),
                    output_var=_attr(el, "outputVar"),
                )
            )
        elif kind == "parallelGateway":
            direction = _attr(el, "gatewayDirection")
            if direction == "Diverging":
                nodes.append(ParallelGateway(id=el_id, direction=GatewayDirection.FORK))
            elif direction == "Converging":
                nodes.append(ParallelGateway(id=el_id, direction=GatewayDirection.JOIN))
            else:
                pending_gateways.append(el_id)
        elif kind == "sequenceFlow":
            raw_flows.append(
                SequenceFlow(id=el_id, from_node=_attr(el, "sourceRef"), to_node=_attr(el, "targetRef"))
            )
        elif kind == "boundaryEvent":
            defs = [c for c in el if _tag(c) == "errorEventDefinition"]
            if not defs:
                raise ValidationError(f"boundary event {el_id!r} lacks an errorEventDefinition")
            attached = _attr(el, "attachedToRef")
            if not attached:
                raise ValidationError(f"boundary event {el_id!r} lacks attachedToRef")
            boundary_raw.append((el_id, attached, _attr(defs[0], "errorRef")))
        # documentation elements are ignored

    for gw_id in pending_gateways:
        outs = sum(1 for f in raw_flows if f.from_node == gw_id)
        ins = sum(1 for f in raw_flows if f.to_node == gw_id)
        if outs >= 2 and ins <= 1:
            nodes.append(ParallelGateway(id=gw_id, direction=GatewayDirection.FORK))
        elif ins >= 2 and outs <= 1:
            nodes.append(ParallelGateway(id=gw_id, direction=GatewayDirection.JOIN))
        else:
            raise ValidationError(
                f"parallel gateway {gw_id!r} direction is ambiguous ({ins} in / {outs} out)"
            )

    # flows leaving a boundary event define its handler target
    boundary_ids = {b[0] for b in boundary_raw}
    handler_flows = [f for f in raw_flows if f.from_node in boundary_ids]
    flows = tuple(f for f in raw_flows if f.from_node not in boundary_ids)
    handlers: dict[str, str] = {}
    for f in handler_flows:
        if f.from_node in handlers:
            raise ValidationError(f"boundary event {f.from_node!r} has more than one outgoing flow")
        handlers[f.from_node] = f.to_node

    end_ids = [n.id for n in nodes if isinstance(n, EndEvent)]
    for b_id, attached, error_ref in boundary_raw:
        target = handlers.get(b_id)
        if target is None:
            if len(end_ids) != 1:
                raise ValidationError(
                    f"boundary event {b_id!r} has no handler flow and the process has "
                    f"{len(end_ids)} end events"
                )
            target = end_ids[0]
        nodes.append(
            ErrorBoundaryEvent(id=b_id, attached_to=attached, error_ref=error_ref, handler_target=target)
        )

    pm = ProcessModel(
        id=_attr(proc, "id"),
        name=_attr(proc, "name"),
        nodes=tuple(nodes),
        flows=flows,
        errors=errors,
    )
    violations = validate(pm)
    if violations:
        raise ValidationError("invalid process model: " + "; ".join(violations))
    return pm
