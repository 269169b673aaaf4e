"""adapt-inproc: the alert-to-adaptation path inside one process.

Set-up deploys a generated service (6 tasks x 4 candidates, 4,096 plans)
with one recompose rule and one beforeTask rule per task on a broker that
also holds 500 bystander subscribers, and starts 100 instances that are
never run. One operation is one alert cycle: a monitor publishes a
ThreatLevelChange at or above the threshold on the component the active
plan binds to the next task in turn, the service drains its queue and
recomposes, and one new instance runs to completion on the new plan. The
latency runs from the publish to that completion. The cycle then publishes
the level back below the threshold, drains the service (no whole-process
rule takes it, so every live instance is evaluated) and drains the
bystanders that got the two alerts; ops_per_s counts the whole cycle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import inputs
import oracles
from threatflow import bpmn, composition, rules, runtime
from threatflow.bus import Broker, EventType, Publisher, Subscription

SERVICE_ID = "svc"
MONITOR_ID = "monitor-1"


@dataclass(frozen=True)
class Size:
    candidate_counts: tuple[int, ...] = (4, 4, 4, 4, 4, 4)
    bystanders: int = 500
    held_instances: int = 100
    ops_per_round: int = 252  # a multiple of the task count: every task flagged equally often
    min_rounds: int = 3


FULL = Size()
SMOKE = Size(candidate_counts=(3, 2, 2, 2), bystanders=40, held_instances=5, ops_per_round=12, min_rounds=2)


class EchoInvoker(runtime.ComponentInvoker):
    """Every component returns its own id, so a finished instance's
    variables show which component ran each task."""

    def invoke(self, component_id: str, operation_ref: str, inputs: dict) -> object:
        return component_id


class Workload:
    def __init__(self, seed: int, size: Size):
        rng = random.Random(f"adapt-inproc:{seed}")
        self.size = size
        self.spec = inputs.make_service(rng, list(size.candidate_counts), tag="a")
        self.rule_specs = inputs.make_rules(self.spec, task_scoped=True, other_types=False)
        self.xml = inputs.bpmn_text(self.spec)
        self.registry_text = inputs.registry_text(self.spec)
        self.rules_text = inputs.rules_text(self.rule_specs)
        self.criteria_text = inputs.criteria_text(self.spec)
        self.candidates = {t.id: [c.id for c in self.spec.candidates[t.id]] for t in self.spec.tasks}
        self.components = {
            c.id: (c.trust, c.qos, c.cost) for cs in self.spec.candidates.values() for c in cs
        }
        comps = [c for cs in self.candidates.values() for c in cs]
        self.bystanders = inputs.make_bystanders(rng, comps, size.bystanders)
        self.service_topics = oracles.derived_topics(self.rule_specs, self.candidates)
        self.table = dict(self.bystanders)
        self.table[SERVICE_ID] = tuple(sorted(self.service_topics))
        self.recipients = {
            f"{inputs.TLC}.{c}": oracles.recipients(self.table, f"{inputs.TLC}.{c}") for c in comps
        }
        self.high = [round(rng.uniform(inputs.THRESHOLD, 1.0), 3) for _ in range(size.ops_per_round)]
        self.low = [round(rng.uniform(0.0, inputs.THRESHOLD - 0.01), 3) for _ in range(size.ops_per_round)]

    def run_round(self, rec, index: int) -> None:
        size = self.size
        started = time.perf_counter()
        broker = Broker()
        for sid, patterns in self.bystanders.items():
            for pattern in patterns:
                broker.subscribe(Subscription(sid, pattern))
        svc = runtime.deploy(
            bpmn.parse_bpmn(self.xml),
            composition.load_registry(self.registry_text),
            rules.load_rules(self.rules_text),
            composition.load_criteria(self.criteria_text),
            broker,
            EchoInvoker(),
            service_id=SERVICE_ID,
        )
        for k in range(size.held_instances):
            svc.start_instance({inputs.REQUIRED_INPUT: f"held-{k}"}, run=False)
        monitor = Publisher(broker, MONITOR_ID)
        rec.setup_done(started)

        rec.check(svc.subscriptions == sorted(self.service_topics),
                  lambda: f"service subscribed {svc.subscriptions[:4]}..., expected the derived topics")
        rec.check(len(svc.plans) == self.spec.plan_count(),
                  lambda: f"{len(svc.plans)} plans, expected {self.spec.plan_count()}")
        self._check_plan(rec, svc, flagged=set())
        if rec.tracing:
            rec.sample("bus.subscribers_held", len(self.table))

        tasks = self.spec.tasks
        seq = 0
        for k in range(size.ops_per_round):
            rec.begin_op()
            task = tasks[k % len(tasks)]
            threat = task.threats[0]
            old_plan = svc.active_plan_id
            flagged = svc.active_plan().binding_for(task.id)
            topic = f"{inputs.TLC}.{flagged}"
            expected = self.recipients[topic]

            t0 = time.perf_counter()
            delivered = monitor.publish(EventType.THREAT_LEVEL_CHANGE, flagged,
                                        probability=self.high[k], threat_id=threat)
            if rec.tracing:
                rec.sample("bus.queue_depth", broker.pending(SERVICE_ID))
            svc.drain_notifications()
            iid = svc.start_instance({inputs.REQUIRED_INPUT: f"op-{k}"})
            t1 = time.perf_counter()
            delivered_low = monitor.publish(EventType.THREAT_LEVEL_CHANGE, flagged,
                                            probability=self.low[k], threat_id=threat)
            svc.drain_notifications()
            polled = {}
            for sid in expected:
                if sid == SERVICE_ID:
                    continue
                got = []
                while (n := broker.poll(sid)) is not None:
                    got.append(n)
                polled[sid] = got
            t2 = time.perf_counter()

            rec.latencies_ms.append((t1 - t0) * 1e3)
            rec.busy_s += t2 - t0
            rec.completed += 1
            rec.attempted += 1
            seq += 2

            rec.check(delivered == len(expected) and delivered_low == len(expected),
                      lambda: f"publish on {topic} reached {delivered}/{delivered_low}, expected {len(expected)}")
            want = [(MONITOR_ID, seq - 1, topic), (MONITOR_ID, seq, topic)]
            for sid, got in polled.items():
                rec.check([(n.publisher_id, n.seq, n.topic) for n in got] == want,
                          lambda: f"{sid} got {[(n.publisher_id, n.seq) for n in got]}, expected {want}")
            rec.check(svc.active_plan_id != old_plan, lambda: f"alert on {flagged} left plan {old_plan}")
            plan = self._check_plan(rec, svc, flagged={flagged})
            inst = svc.instances[iid]
            rec.check(inst.outcome is runtime.Outcome.COMPLETED and inst.plan_id == svc.active_plan_id,
                      lambda: f"instance {iid} ended {inst.outcome} on {inst.plan_id}")
            ran = {t.id: inst.report.get(t.output_var) for t in tasks} if inst.report else {}
            rec.check(ran == plan, lambda: f"instance {iid} ran {ran}, the plan binds {plan}")

        for sid in self.bystanders:
            rec.check(broker.pending(sid) == 0 and broker.drops(sid) == 0,
                      lambda: f"bystander {sid} holds {broker.pending(sid)} stray notifications")
        rec.check(len(svc.live_instances()) == size.held_instances,
                  lambda: f"{len(svc.live_instances())} live instances, expected {size.held_instances}")
        if rec.tracing:
            rec.sample("runtime.instances_retained", len(svc.instances))
            rec.sample("runtime.event_log_len",
                       len(svc.event_log) + sum(len(i.event_log) for i in svc.instances.values()))

    def _check_plan(self, rec, svc, flagged: set[str]) -> dict[str, str]:
        plan = svc.active_plan()
        chosen = dict(plan.bindings)
        rec.check_all(oracles.check_chosen_plan(
            chosen, self.candidates, self.components, self.spec.weights, flagged, plan.rank_score))
        return chosen
