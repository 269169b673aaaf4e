"""Service runtime environment: deploy, execute, monitor, adapt.

A deployment binds a process model to its best composition plan, chosen
task by task, registers the bus subscriptions its rules need, and then runs
process instances with token semantics. Incoming notifications update the
threat state, are matched against the rules, and may trigger stop,
recomposition, an auxiliary process launch, or an outbound notify.

A live instance records a task's component when the task starts, and a
task it has not started reads the active plan; a started task never changes
component, and a finished instance freezes its bindings and plan id. The
started-task index maps (task id, component) to the live instances that
started that task on that component, so the live instances bound off the
plan are the index entries whose task the plan binds elsewhere. An alert
costs the service-scope rules plus the instance rules of its event type,
tried on an instance only where it binds their subject task to the alert's
subject: every live instance when the plan binds a subject task to the
subject, otherwise only the indexed instances that started a subject task
on it. Finished instances cost nothing. A plan switch touches no live
instance: it costs the tasks whose component changed.

What a service remembers is bounded. One store per service holds the
newest EVENT_CAPACITY events; `event_log`, each instance's `event_log` and
`merged_log()` each return a new list of the events it still holds, so they
show the newest events only, and a list taken earlier does not grow with
later events. `instances` holds every live instance and the newest
FINISHED_RETENTION finished ones; an older finished instance is dropped and
its outcome counted in `evicted_outcomes`. The threat state keeps levels
only for the threat ids the service's ThreatLevelChange rules name and
counts other alerts in its `unknown_threats`, so a flag that act_recompose
raises for a threat id no rule names is never lowered by an alert: it
stays, as a manual flag does.

All public entry points of one DeployedService serialize on a single lock:
notification handling is FIFO and rule evaluation race-free. Separate
services are independent. At-most-once delivery per (publisher, seq) is the
broker's: a notification handed to `on_notification` directly, not through
the broker, is handled again for a (publisher, seq) it has already seen.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import bpmn
from .bus import Broker, EventType, Notification, Publisher, Subscription
from .composition import (
    CandidateRegistry,
    CompositionPlan,
    RankingCriteria,
    ThreatState,
    candidate_table,
    generate_plans,
    rank_plans,
    select_plan,
    verify_plan,  # noqa: F401  perfbench's traced run wraps it under this module
)
from .errors import (
    ComponentFault,
    DeploymentError,
    MissingCandidatesError,
    ValidationError,
)
from .rules import (
    ActionKind,
    AdaptationRule,
    InstancePosition,
    ScopeKind,
    TaskStatus,
    derive_subscriptions,
    evaluate,
)


# the newest events a service keeps, as many as a bus queue holds
EVENT_CAPACITY = 4096
# finished instances kept in DeployedService.instances beside the live ones
FINISHED_RETENTION = 1024


class EventKind(Enum):
    TASK_STARTED = "taskStarted"
    TASK_COMPLETED = "taskCompleted"
    TASK_FAILED = "taskFailed"
    BOUNDARY_TRIGGERED = "boundaryTriggered"
    RULE_MATCHED = "ruleMatched"
    ACTION_TAKEN = "actionTaken"
    PLAN_SWITCHED = "planSwitched"
    NOTIFICATION_RECEIVED = "notificationReceived"


class ExecutionEvent(NamedTuple):
    """A plain tuple: an instance run logs several, so each is built
    positionally, at about half the cost of a frozen dataclass."""

    seq: int
    kind: EventKind
    detail: dict
    at: float

    def to_record(self) -> dict:
        return {"seq": self.seq, "kind": self.kind.value, "detail": dict(self.detail), "at": self.at}


class Outcome(Enum):
    IN_PROGRESS = "inProgress"
    COMPLETED = "completed"
    STOPPED_BY_RULE = "stoppedByRule"
    FAILED = "failed"


class ServiceStatus(Enum):
    RUNNING = "running"
    STOPPED = "stopped"


class ComponentInvoker:
    """How the runtime calls a bound component. Implementations raise
    ComponentFault to signal a failure carrying an error id that boundary
    events can catch; delay_steps lets a component's invocation span
    several token steps (keeps the task active in between)."""

    def invoke(self, component_id: str, operation_ref: str, inputs: dict) -> object:
        raise NotImplementedError

    def delay_steps(self, component_id: str, operation_ref: str) -> int:
        return 0


@dataclass(frozen=True)
class RecomposeResult:
    switched: bool
    new_plan_id: str | None = None


class ProcessInstance:
    def __init__(
        self,
        instance_id: str,
        variables: dict,
        task_ids: list[str],
        start_node: str,
        service: "DeployedService",
    ):
        self.instance_id = instance_id
        self.variables = variables
        self.outcome = Outcome.IN_PROGRESS
        self.report: dict | None = None
        self.error: str | None = None
        self._service = service
        self.task_status: dict[str, TaskStatus] = {tid: TaskStatus.NOT_STARTED for tid in task_ids}
        self._task_ids = task_ids
        self._tokens: deque[str] = deque([start_node])
        self._join_arrivals: dict[str, int] = {}
        self._delay_left: dict[str, int] = {}
        self._end_reached = False
        self.steps = 0
        # task id -> the component the task started on
        self._started: dict[str, str] = {}
        # the plan active when the instance left the live set
        self._final: CompositionPlan | None = None

    @property
    def plan_id(self) -> str:
        """The active plan's id while the instance is live, then the id of
        the plan active when it finished."""
        return (self._final or self._service._plan).plan_id

    @property
    def bindings(self) -> dict[str, str]:
        """Task id -> component, as a new dict on each read: the component a
        started task started on, and the plan's for a task not started."""
        started = self._started
        return {t: started.get(t, c) for t, c in (self._final or self._service._plan).bindings}

    @property
    def event_log(self) -> list[ExecutionEvent]:
        """This instance's events that its service's store still holds, oldest
        first, as a new list on each read."""
        return self._service._events_of(self.instance_id)

    def position(self) -> InstancePosition:
        return InstancePosition(
            task_status=tuple((tid, self.task_status[tid]) for tid in self._task_ids)
        )


class DeployedService:
    def __init__(
        self,
        service_id: str,
        process: bpmn.ProcessModel,
        registry: CandidateRegistry,
        rules: list[AdaptationRule],
        criteria: RankingCriteria,
        broker: Broker,
        invoker: ComponentInvoker,
        subscriptions: list[str],
        clock=None,
        aux: dict[str, "DeployedService"] | None = None,
    ):
        self.service_id = service_id
        self.process = process
        self.registry = registry
        self.rules = sorted(rules, key=lambda r: r.rule_id)
        # wholeProcess rules see the active plan, the others each live instance
        self._service_rules = [r for r in self.rules if r.scope.kind is ScopeKind.WHOLE_PROCESS]
        self._instance_rules = [r for r in self.rules if r.scope.kind is not ScopeKind.WHOLE_PROCESS]
        self.criteria = criteria
        self._candidates = candidate_table(process, registry, criteria, self.rules)
        self._plan = select_plan(self._candidates, {}, ())  # every plan passes with no threat levels
        # task id -> component of _plan, replaced at each switch
        self._bound = dict(self._plan.bindings)
        self.threat_state = ThreatState(self._candidates.thresholds)
        self.status = ServiceStatus.RUNNING
        self.instances: dict[str, ProcessInstance] = {}
        # the in-progress subset of instances, in start order; an instance
        # leaves it when its outcome leaves IN_PROGRESS, for the FIFO of
        # finished ids that `instances` keeps up to FINISHED_RETENTION
        self._live: dict[str, ProcessInstance] = {}
        self._finished: deque[str] = deque()
        self.evicted_outcomes: Counter[Outcome] = Counter()
        index = process.index
        tasks = self._tasks = index.service_tasks
        self._task_ids = [t.id for t in tasks]
        # the started-task index: (task id, component) -> the live instances,
        # in task-start order, that started that task on that component
        self._start_index: dict[tuple[str, str], dict[str, ProcessInstance]] = {}
        self._nodes = index.nodes
        self._successors = index.successors
        self._indegree = index.indegree
        self._budget = 2 * len(process.nodes) + len(process.flows) + 8
        produced = {t.output_var for t in tasks if t.output_var}
        self._required_inputs = sorted({v for t in tasks for v in t.input_vars} - produced)
        self._start_node = process.start_event().id
        self.subscriptions = subscriptions
        self.aux = aux or {}
        self.broker = broker
        self.invoker = invoker
        self._clock = clock or time.time
        self._publisher = Publisher(broker, service_id, clock=self._clock)
        self._lock = threading.RLock()
        # in seq order: _log runs under _lock
        self._events: deque[ExecutionEvent] = deque(maxlen=EVENT_CAPACITY)
        self._event_counter = itertools.count(1)
        self._instance_counter = itertools.count(1)
        # flagged component -> threat id that triggered the flag (None = manual);
        # a flagged pair re-enters ranking once its level drops below every
        # applicable rule threshold
        self._flagged: dict[str, str | None] = {}

    # -- observability

    def _log(self, kind: EventKind, detail: dict) -> None:
        """An instance's events name it in detail["instance"]; the service's name none."""
        self._events.append(ExecutionEvent(next(self._event_counter), kind, detail, self._clock()))

    @property
    def event_log(self) -> list[ExecutionEvent]:
        """The service's own events, not any instance's, as a new list on each read."""
        return self._events_of(None)

    def _events_of(self, instance_id: str | None) -> list[ExecutionEvent]:
        """The stored events whose detail names `instance_id` under "instance"
        (none for the service's own), oldest first."""
        with self._lock:
            return [e for e in self._events if e.detail.get("instance") == instance_id]

    def merged_log(self) -> list[ExecutionEvent]:
        """Every event the store still holds, service and instances, in seq order."""
        with self._lock:
            return list(self._events)

    # -- plan helpers

    @property
    def plans(self) -> list[CompositionPlan]:
        """Every plan ranked, enumerated on each access (up to PLAN_CEILING).
        The plans share one (task id, component id) pair per candidate, and
        the ranking holds one scored list."""
        return rank_plans(generate_plans(self.process, self.registry), self.criteria, self.registry)

    @property
    def active_plan_id(self) -> str:
        return self._plan.plan_id

    def active_plan(self) -> CompositionPlan:
        return self._plan

    def required_inputs(self) -> list[str]:
        return list(self._required_inputs)

    def live_instances(self) -> list[ProcessInstance]:
        return list(self._live.values())

    # -- instance execution

    def start_instance(self, variables: dict, run: bool = True) -> str:
        with self._lock:
            if self.status is not ServiceStatus.RUNNING:
                raise DeploymentError(
                    f"service {self.service_id!r} is stopped; new instances refused"
                )
            missing = [v for v in self._required_inputs if v not in variables]
            if missing:
                raise ValidationError(f"missing required input variables: {', '.join(missing)}")
            instance_id = f"i{next(self._instance_counter)}"
            inst = ProcessInstance(
                instance_id=instance_id,
                variables=dict(variables),
                task_ids=self._task_ids,
                start_node=self._start_node,
                service=self,
            )
            self.instances[instance_id] = inst
            self._live[instance_id] = inst
            if run:
                self.run_instance(instance_id)
            return instance_id

    def run_instance(self, instance_id: str) -> ProcessInstance:
        with self._lock:
            inst = self.instances[instance_id]
            bindings = inst.bindings
            budget = self._budget
            for task in self._tasks:
                budget += self.invoker.delay_steps(bindings[task.id], task.operation_ref)
            while inst.outcome is Outcome.IN_PROGRESS and inst._tokens:
                if inst.steps >= budget:
                    inst.outcome = Outcome.FAILED
                    inst.error = f"step budget of {budget} exhausted"
                    self._retire(instance_id)
                    break
                self._move(inst)
            return inst

    def step(self, instance_id: str) -> ProcessInstance:
        """One token move of an instance in progress that holds a token."""
        with self._lock:
            inst = self.instances[instance_id]
            if inst.outcome is not Outcome.IN_PROGRESS:
                raise ValidationError(f"instance {instance_id!r} is not in progress")
            if not inst._tokens:
                raise ValidationError(f"instance {instance_id!r} has no tokens to move")
            self._move(inst)
            return inst

    def _move(self, inst: ProcessInstance) -> None:
        """Move the instance's first token. Start emits, tasks invoke their
        bound component, forks duplicate, joins wait for all incoming tokens,
        end consumes; an instance left without tokens finishes."""
        node_id = inst._tokens.popleft()
        node = self._nodes.get(node_id)
        inst.steps += 1

        if isinstance(node, bpmn.ServiceTask):
            self._step_task(inst, node)
        elif isinstance(node, bpmn.ParallelGateway):
            if node.direction is bpmn.GatewayDirection.FORK:
                self._forward(inst, node_id)
            else:
                arrived = inst._join_arrivals.get(node_id, 0) + 1
                if arrived >= self._indegree.get(node_id, 0):
                    inst._join_arrivals[node_id] = 0
                    self._forward(inst, node_id)
                else:
                    inst._join_arrivals[node_id] = arrived
        elif isinstance(node, bpmn.StartEvent):
            self._forward(inst, node_id)
        elif isinstance(node, bpmn.EndEvent):
            inst._end_reached = True
        else:
            inst.outcome = Outcome.FAILED
            inst.error = f"token reached unexpected node {node_id!r}"

        if inst.outcome is Outcome.IN_PROGRESS:
            if inst._tokens:
                return
            if inst._end_reached:
                inst.outcome = Outcome.COMPLETED
                inst.report = dict(inst.variables)
            else:
                inst.outcome = Outcome.FAILED
                inst.error = "tokens exhausted before any end event was reached"
        self._retire(inst.instance_id)

    def _retire(self, instance_id: str) -> None:
        """A finished instance leaves _live and the started-task index, and
        its bindings and plan id freeze; past FINISHED_RETENTION the oldest
        finished one leaves `instances`, and only its outcome is counted."""
        inst = self._live.pop(instance_id)
        inst._final = self._plan
        for key in inst._started.items():
            bucket = self._start_index[key]
            del bucket[instance_id]
            if not bucket:
                del self._start_index[key]
        self._finished.append(instance_id)
        if len(self._finished) > FINISHED_RETENTION:
            self.evicted_outcomes[self.instances.pop(self._finished.popleft()).outcome] += 1

    def _forward(self, inst: ProcessInstance, node_id: str) -> None:
        inst._tokens.extend(self._successors[node_id])

    def _step_task(self, inst: ProcessInstance, task: bpmn.ServiceTask) -> None:
        status = inst.task_status[task.id]
        if status is TaskStatus.NOT_STARTED:
            comp_id = inst._started[task.id] = self._bound[task.id]
            self._start_index.setdefault((task.id, comp_id), {})[inst.instance_id] = inst
            inst.task_status[task.id] = TaskStatus.ACTIVE
            self._log(
                EventKind.TASK_STARTED,
                {"task": task.id, "component": comp_id, "instance": inst.instance_id},
            )
            delay = self.invoker.delay_steps(comp_id, task.operation_ref)
            if delay > 0:
                inst._delay_left[task.id] = delay
                inst._tokens.append(task.id)
            else:
                self._invoke(inst, task, comp_id)
        elif status is TaskStatus.ACTIVE:
            comp_id = inst._started[task.id]
            left = inst._delay_left.get(task.id, 0) - 1
            if left > 0:
                inst._delay_left[task.id] = left
                inst._tokens.append(task.id)
            else:
                inst._delay_left.pop(task.id, None)
                self._invoke(inst, task, comp_id)
        else:
            inst.outcome = Outcome.FAILED
            inst.error = f"token re-entered completed task {task.id!r}"

    def _invoke(self, inst: ProcessInstance, task: bpmn.ServiceTask, comp_id: str) -> None:
        missing = [v for v in task.input_vars if v not in inst.variables]
        if missing:
            inst.outcome = Outcome.FAILED
            inst.error = f"task {task.id!r} lacks input variables {missing}"
            self._log(
                EventKind.TASK_FAILED,
                {
                    "task": task.id,
                    "component": comp_id,
                    "instance": inst.instance_id,
                    "handled": False,
                    "error": inst.error,
                },
            )
            inst._tokens.clear()
            return
        inputs = {v: inst.variables[v] for v in task.input_vars}
        try:
            result = self.invoker.invoke(comp_id, task.operation_ref, inputs)
        except ComponentFault as fault:
            self._handle_fault(inst, task, comp_id, fault)
            return
        if task.output_var:
            inst.variables[task.output_var] = result
        inst.task_status[task.id] = TaskStatus.COMPLETED
        self._log(
            EventKind.TASK_COMPLETED,
            {"task": task.id, "component": comp_id, "instance": inst.instance_id},
        )
        self._forward(inst, task.id)

    def _handle_fault(
        self,
        inst: ProcessInstance,
        task: bpmn.ServiceTask,
        comp_id: str,
        fault: ComponentFault,
    ) -> None:
        boundary = self.process.index.boundaries.get(task.id, {}).get(fault.error_id)
        handled = boundary is not None
        self._log(
            EventKind.TASK_FAILED,
            {
                "task": task.id,
                "component": comp_id,
                "instance": inst.instance_id,
                "errorId": fault.error_id,
                "handled": handled,
            },
        )
        if not handled:
            inst.outcome = Outcome.FAILED
            inst.error = f"component {comp_id!r} failed with unhandled error {fault.error_id!r}"
            inst._tokens.clear()
            return
        # the task's position status has no failed member; a handled fault
        # counts the task as done and the handler path carries on
        inst.task_status[task.id] = TaskStatus.COMPLETED
        self._log(
            EventKind.BOUNDARY_TRIGGERED,
            {
                "boundary": boundary.id,
                "task": task.id,
                "errorId": fault.error_id,
                "handler": boundary.handler_target,
                "instance": inst.instance_id,
            },
        )
        inst._tokens.append(boundary.handler_target)

    # -- notification handling

    def drain_notifications(self) -> int:
        """Process everything queued for this service's subscriptions, FIFO,
        without waiting for more."""
        processed = 0
        while (n := self.broker.poll(self.service_id)) is not None:
            self.on_notification(n)
            processed += 1
        return processed

    def on_notification(self, n: Notification) -> list[dict]:
        with self._lock:
            if self.status is not ServiceStatus.RUNNING:
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

            actions: list[dict] = []
            subject = n.subject_component_id
            for inst, rules in self._targets(n):
                # no action that returns to this loop changes the instance's task status
                position = inst.position() if inst else InstancePosition()
                for rule in rules:
                    if evaluate(rule, n, position, subject):
                        level = inst.instance_id if inst else "service"
                        self._log(EventKind.RULE_MATCHED, {"rule": rule.rule_id, "level": level, "topic": n.topic})
                        actions.append(self._execute_action(rule, n, inst))
                        if rule.action.kind in (ActionKind.STOP, ActionKind.RECOMPOSE):
                            return actions
            return actions

    def _targets(self, n: Notification):
        """The active plan with its service rules, then each live instance
        that may bind a subject task to n's subject, with its instance rules,
        each time keeping only the rules that can match n: evaluate() rejects
        a rule of another event type or whose subject task is bound to
        another component, so every rule kept binds its subject task to the
        subject. Unless the plan binds a subject task to the subject, only
        the instances that started a subject task on it can, so only the
        started-task index entries of those tasks are visited, in instance
        start order. Lazy, so a stop or recompose taken on the plan's rules
        visits no instance."""
        subject = n.subject_component_id
        plan = self._bound
        yield None, [
            r for r in self._service_rules if r.event_type is n.type and plan.get(r.subject_task_id) == subject
        ]
        rules = [r for r in self._instance_rules if r.event_type is n.type]
        if not rules:
            return
        tasks = dict.fromkeys(r.subject_task_id for r in rules)
        if any(plan.get(t) == subject for t in tasks):
            instances = self.live_instances()
        else:  # an entry holds task-start order; ids count up from i1 in instance start order
            union = {iid: inst for t in tasks for iid, inst in self._start_index.get((t, subject), {}).items()}
            instances = [union[iid] for iid in sorted(union, key=lambda iid: int(iid[1:]))]
        for inst in instances:
            started = inst._started
            hit = [r for r in rules if started.get(r.subject_task_id, plan.get(r.subject_task_id)) == subject]
            if hit:
                yield inst, hit

    def _execute_action(
        self, rule: AdaptationRule, n: Notification, inst: ProcessInstance | None
    ) -> dict:
        kind = rule.action.kind
        if kind is ActionKind.STOP:
            self.act_stop(reason=f"rule {rule.rule_id}")
            return {"rule": rule.rule_id, "action": "stop", "outcome": "stopped"}
        if kind is ActionKind.RECOMPOSE:
            result = self.act_recompose(n.subject_component_id, threat_id=n.threat_id)
            outcome = f"switched:{result.new_plan_id}" if result.switched else "stopped"
            return {"rule": rule.rule_id, "action": "recompose", "outcome": outcome}
        if kind is ActionKind.LAUNCH_PROCESS:
            ref = rule.action.param("processRef") or ""
            launched = self.act_launch(ref, {})
            if launched:
                outcome = f"started:{launched}"
            else:
                outcome = "refused" if ref in self.aux else "unknownProcessRef"
            return {"rule": rule.rule_id, "action": "launchProcess", "outcome": outcome}
        message = rule.action.param("message") or ""
        self.act_notify(message)
        return {"rule": rule.rule_id, "action": "notify", "outcome": "published"}

    # -- adaptation actions

    def act_stop(self, reason: str = "requested") -> None:
        with self._lock:
            stopped = self._stop_internal()
            self._log(
                EventKind.ACTION_TAKEN,
                {"action": "stop", "reason": reason, "stoppedInstances": ",".join(stopped)},
            )

    def _stop_internal(self) -> list[str]:
        """Stop every live instance and the service; the ids stopped."""
        stopped = []
        for inst in self.live_instances():
            inst.outcome = Outcome.STOPPED_BY_RULE
            inst._tokens.clear()
            stopped.append(inst.instance_id)
            self._retire(inst.instance_id)
        self.status = ServiceStatus.STOPPED
        return stopped

    def act_recompose(self, flagged_component_id: str, threat_id: str | None = None) -> RecomposeResult:
        """Choose the best plan that binds no flagged component and verifies
        against the current threat state, and switch to it. With no passing
        plan the service stops and says so on the bus."""
        with self._lock:
            if flagged_component_id not in self._flagged:
                self._flagged[flagged_component_id] = threat_id
            elif self._flagged[flagged_component_id] is not None and threat_id is not None:
                self._flagged[flagged_component_id] = threat_id
            levels = self.threat_state.snapshot()
            self._prune_flags(levels, keep=flagged_component_id)

            old_plan, old = self._plan, self._bound
            plan = select_plan(self._candidates, levels, self._flagged.keys())
            if plan is not None:
                self._plan, self._bound = plan, dict(plan.bindings)
                changed = [(t, c) for t, c in plan.bindings if old.get(t) != c]
                rebound = self._adopt_bindings(changed)
                self._log(
                    EventKind.ACTION_TAKEN,
                    {
                        "action": "recompose",
                        "flagged": flagged_component_id,
                        "result": f"switched:{plan.plan_id}",
                    },
                )
                self._log(
                    EventKind.PLAN_SWITCHED,
                    {
                        "from": old_plan.plan_id,
                        "to": plan.plan_id,
                        "flagged": flagged_component_id,
                        "rebound": ",".join(rebound),
                    },
                )
                return RecomposeResult(switched=True, new_plan_id=plan.plan_id)

            stopped = self._stop_internal()
            self._log(
                EventKind.ACTION_TAKEN,
                {
                    "action": "recompose",
                    "flagged": flagged_component_id,
                    "result": "stopped",
                    "stoppedInstances": ",".join(stopped),
                },
            )
            self._publisher.publish(
                EventType.CONTEXT_CHANGE,
                self.service_id,
                value=f"service {self.service_id} stopped: no composition plan passes verification",
            )
            return RecomposeResult(switched=False)

    def _prune_flags(self, levels: dict[tuple[str, str], float], keep: str) -> None:
        """A flagged pair re-enters ranking once a lower level arrives that no
        longer satisfies any threshold of a ThreatLevelChange rule naming its
        threat. A rule with no threshold matches any level, so a flag raised
        for its threat stays, as does a manual flag (no threat)."""
        thresholds = self._candidates.thresholds
        for comp_id, threat_id in list(self._flagged.items()):
            if comp_id == keep or threat_id is None:
                continue
            level = levels.get((comp_id, threat_id))
            if level is None:
                continue
            if not any(p is None or p.satisfied_by(level) for p in thresholds[threat_id]):
                del self._flagged[comp_id]

    def _adopt_bindings(self, changed: list[tuple[str, str]]) -> list[str]:
        """The `rebound` entries of a switch to the plan that changed the
        (task, component) pairs listed, in plan task order: one
        "task:component:count" per changed task, counting the live instances
        that had not started the task and so now read its new component,
        left out at 0. A started task keeps the component it started on, so
        no live instance is touched."""
        started: Counter[str] = Counter()
        for (t, _), bucket in self._start_index.items():
            started[t] += len(bucket)
        live = len(self._live)
        return [f"{t}:{c}:{k}" for t, c in changed if (k := live - started[t])]

    def act_launch(self, process_ref: str, variables: dict | None = None) -> str | None:
        """The started auxiliary instance's id, or None for an unknown
        processRef or a start its service refuses; each result is logged."""
        with self._lock:
            target = self.aux.get(process_ref)
            if target is None:
                self._log(
                    EventKind.ACTION_TAKEN,
                    {"action": "launchProcess", "processRef": process_ref, "result": "unknownProcessRef"},
                )
                return None
            try:
                instance_id = target.start_instance(variables or {})
            except (DeploymentError, ValidationError) as exc:  # stopped, or it needs inputs
                self._log(
                    EventKind.ACTION_TAKEN,
                    {"action": "launchProcess", "processRef": process_ref, "result": "refused", "error": str(exc)},
                )
                return None
            self._log(
                EventKind.ACTION_TAKEN,
                {"action": "launchProcess", "processRef": process_ref, "result": f"started:{instance_id}"},
            )
            return instance_id

    def act_notify(self, message: str) -> int:
        with self._lock:
            count = self._publisher.publish(
                EventType.CONTEXT_CHANGE, self.service_id, value=message
            )
            self._log(
                EventKind.ACTION_TAKEN,
                {"action": "notify", "message": message, "deliveries": count},
            )
            return count


def deploy(
    pm: bpmn.ProcessModel,
    reg: CandidateRegistry,
    rules: list[AdaptationRule],
    criteria: RankingCriteria,
    broker: Broker,
    invoker: ComponentInvoker,
    service_id: str = "service",
    clock=None,
    aux: dict[str, DeployedService] | None = None,
) -> DeployedService:
    """Activate the best plan and register the rule-derived subscriptions."""
    violations = bpmn.validate(pm)
    if violations:
        raise ValidationError("process model invalid: " + "; ".join(violations))
    if "." in service_id or "*" in service_id or not service_id:
        raise ValidationError(f"service id {service_id!r} contains reserved characters")
    for rule in rules:
        rule.validate_against(pm)
    try:
        reg.validate_against(pm)
    except MissingCandidatesError as exc:
        raise DeploymentError(str(exc))

    topics = sorted(derive_subscriptions(rules, reg))
    for topic in topics:
        broker.subscribe(Subscription(subscriber_id=service_id, topic_pattern=topic))

    return DeployedService(
        service_id=service_id,
        process=pm,
        registry=reg,
        rules=rules,
        criteria=criteria,
        broker=broker,
        invoker=invoker,
        subscriptions=topics,
        clock=clock,
        aux=aux,
    )


def export_log_lines(events: list[ExecutionEvent]) -> str:
    """Line-delimited JSON records, one event per line, stable key order."""
    return "\n".join(
        json.dumps(e.to_record(), sort_keys=True, separators=(",", ":")) for e in events
    ) + ("\n" if events else "")
