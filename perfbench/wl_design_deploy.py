"""design-deploy: design time, from a designer's text inputs to a deployed
service, on one long-lived broker that already holds 500 bystanders.

One operation loads the demo requirements document, transforms it into a
process skeleton that carries every threat, checks conformity, imports the
skeleton's threats into an in-memory repository, parses a generated model
(10 tasks, a fork/join and threat boundaries; 7,776 plans), deploys it,
round-trips it through serialize and parse, and undeploys it by
unsubscribing every derived topic. The checks between deploy and the round
trip are left out of the latency. Publish and token steps do not run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

import inputs
import oracles
from threatflow import bpmn, composition, repo, rules, runtime, scenario, srs
from threatflow.bus import Broker, Subscription, SubscriptionHandle


@dataclass(frozen=True)
class Size:
    candidate_counts: tuple[int, ...] = (3, 3, 3, 3, 3, 2, 2, 2, 2, 2)
    variants: int = 4
    bystanders: int = 500
    ops_per_round: int = 4
    min_rounds: int = 3


FULL = Size()
SMOKE = Size(candidate_counts=(3, 2, 2, 2, 2), variants=2, bystanders=40, ops_per_round=2, min_rounds=2)


@dataclass(frozen=True)
class Variant:
    spec: inputs.ServiceSpec
    rule_specs: list
    xml: str
    registry_text: str
    rules_text: str
    criteria_text: str
    candidates: dict
    components: dict
    topics: set


class NoInvoker(runtime.ComponentInvoker):
    """Nothing runs at design time; an invocation is a fault of the benchmark."""


class Workload:
    def __init__(self, seed: int, size: Size):
        rng = random.Random(f"design-deploy:{seed}")
        self.size = size
        self.srs_text = (scenario.FIXTURES_DIR / "demo.srs").read_text(encoding="utf-8")
        self.srs_record = json.loads(self.srs_text)
        chosen, mapping = inputs.make_selection(rng, self.srs_record)
        self.selection = srs.ThreatSelection(chosen=chosen, task_mapping=mapping)
        self.missing = oracles.missing_threats(self.srs_record, chosen, mapping)
        self.carried = oracles.carried_threats(chosen, mapping)
        self.variants = [self._variant(rng, f"d{v}") for v in range(size.variants)]
        comps = [c for v in self.variants for cs in v.candidates.values() for c in cs]
        self.bystanders = inputs.make_bystanders(rng, comps[: size.bystanders // 20], size.bystanders)

    def _variant(self, rng: random.Random, tag: str) -> Variant:
        spec = inputs.make_service(rng, list(self.size.candidate_counts), tag=tag)
        rule_specs = inputs.make_rules(spec, task_scoped=False, other_types=True)
        candidates = {t.id: [c.id for c in spec.candidates[t.id]] for t in spec.tasks}
        return Variant(
            spec=spec,
            rule_specs=rule_specs,
            xml=inputs.bpmn_text(spec),
            registry_text=inputs.registry_text(spec),
            rules_text=inputs.rules_text(rule_specs),
            criteria_text=inputs.criteria_text(spec),
            candidates=candidates,
            components={c.id: (c.trust, c.qos, c.cost) for cs in spec.candidates.values() for c in cs},
            topics=oracles.derived_topics(rule_specs, candidates),
        )

    def run_round(self, rec, index: int) -> None:
        started = time.perf_counter()
        broker = Broker()
        for sid, patterns in self.bystanders.items():
            for pattern in patterns:
                broker.subscribe(Subscription(sid, pattern))
        loaded = [
            (composition.load_registry(v.registry_text), rules.load_rules(v.rules_text),
             composition.load_criteria(v.criteria_text))
            for v in self.variants
        ]
        invoker = NoInvoker()
        rec.setup_done(started)

        for k in range(self.size.ops_per_round):
            rec.begin_op()
            v = self.variants[k % len(self.variants)]
            registry, rule_list, criteria = loaded[k % len(loaded)]
            service_id = f"svc-{index}-{k}"

            t0 = time.perf_counter()
            doc = srs.load_srs(self.srs_text)
            skeleton = srs.transform_to_skeleton(doc, self.selection).model
            report = srs.check_conformity(skeleton, doc)
            added = repo.Repository().import_from_model(skeleton)
            pm = bpmn.parse_bpmn(v.xml)
            svc = runtime.deploy(pm, registry, rule_list, criteria, broker, invoker, service_id=service_id)
            t1 = time.perf_counter()
            subscribed = [t for t in v.topics if broker.has_subscription(service_id, t)]
            t2 = time.perf_counter()
            again = bpmn.parse_bpmn(bpmn.serialize(pm))
            for topic in svc.subscriptions:
                broker.unsubscribe(SubscriptionHandle(service_id, topic, broker))
            t3 = time.perf_counter()

            rec.latencies_ms.append(((t1 - t0) + (t3 - t2)) * 1e3)
            rec.busy_s += (t1 - t0) + (t3 - t2)
            rec.completed += 1
            rec.attempted += 1

            rec.check(report.missing_threat_ids == self.missing == set(),
                      lambda: f"conformity reports {sorted(report.missing_threat_ids)} missing")
            rec.check(len(added) == len(self.carried) and set(added) == self.carried,
                      lambda: f"repository import added {added}, expected {sorted(self.carried)}")
            for label, model in (("parsed", pm), ("round-tripped", again)):
                rec.check_all(f"{label} model: {p}" for p in oracles.model_problems(
                    model, v.spec.process_id, inputs.expected_nodes(v.spec),
                    inputs.expected_flows(v.spec), inputs.expected_errors(v.spec)))
            rec.check(len(svc.plans) == v.spec.plan_count(),
                      lambda: f"{len(svc.plans)} plans, expected {v.spec.plan_count()}")
            plan = svc.active_plan()
            rec.check_all(oracles.check_chosen_plan(
                dict(plan.bindings), v.candidates, v.components, v.spec.weights, set(), plan.rank_score))
            rec.check(svc.subscriptions == sorted(v.topics) and len(subscribed) == len(v.topics),
                      lambda: f"{service_id} subscribed {len(subscribed)} of {len(v.topics)} derived topics")
            left = [t for t in v.topics if broker.has_subscription(service_id, t)]
            rec.check(not left, lambda: f"{service_id} still subscribed to {left[:3]} after undeploy")
            lost = [(sid, p) for sid, ps in self.bystanders.items() for p in ps
                    if not broker.has_subscription(sid, p)]
            rec.check(not lost, lambda: f"bystanders lost {lost[:3]}")
        if rec.tracing:
            rec.sample("bus.subscribers_held", len(self.bystanders))
