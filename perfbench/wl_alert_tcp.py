"""alert-tcp: the alert path over the TCP bus on loopback.

Set-up starts a BusServer, connects a monitor BusClient that publishes and
an observer BusClient subscribed to every threat alert, and deploys the
demo bundle's service on the server's broker, where it drains its queue in
process. One operation runs from sending a PUB with a high alert on the
active map provider until the monitor has its ACKCOUNT, the observer has
the MSG and the service has switched to the other provider. A low alert
on the same provider follows (untimed), so the next high alert switches
back. Every `resend_every` operations the monitor sends the last high
alert again with the same (publisher, seq), as a monitor does after an
ACK timeout; the bus promises at-most-once delivery, so a re-send that is
delivered again is a failed operation. Re-sends have no latency sample.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

import inputs
import oracles
from threatflow import runtime, scenario
from threatflow.bus import BusClient, BusServer, EventType, Notification, Payload, topic_for

MONITOR_ID = "monitor-1"
OBSERVER_ID = "observer"
OBSERVER_PATTERN = f"{inputs.TLC}.*"
SERVICE_ID = "airport-report"
MAP_TASK = "task-map"
THREAT = "T-DDOS-COMP"
RECEIVE_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Size:
    ops_per_round: int = 2000
    resend_every: int = 50
    min_rounds: int = 3


FULL = Size()
SMOKE = Size(ops_per_round=20, resend_every=5, min_rounds=2)


class Workload:
    def __init__(self, seed: int, size: Size):
        rng = random.Random(f"alert-tcp:{seed}")
        self.size = size
        bundle = scenario.DEMO_BUNDLE_DIR
        registry = json.loads((bundle / "components.registry").read_text(encoding="utf-8"))["tasks"]
        weights = json.loads((bundle / "ranking.criteria").read_text(encoding="utf-8"))
        self.weights = (weights["wTrust"], weights["wQos"], weights["wCost"])
        self.candidates = {task: [c["id"] for c in comps] for task, comps in registry.items()}
        self.components = {
            c["id"]: (c["trustworthiness"], c["latencyScore"], c.get("cost", 0.0))
            for comps in registry.values() for c in comps
        }
        rules = json.loads((bundle / "adaptation.rules").read_text(encoding="utf-8"))
        self.table = {
            OBSERVER_ID: (OBSERVER_PATTERN,),
            SERVICE_ID: tuple(sorted(
                f"{inputs.TLC}.{c}" for r in rules for c in self.candidates[r["subjectTaskId"]]
            )),
        }
        self.high = [round(rng.uniform(inputs.THRESHOLD, 1.0), 3) for _ in range(size.ops_per_round)]
        self.low = [round(rng.uniform(0.0, inputs.THRESHOLD - 0.01), 3) for _ in range(size.ops_per_round)]

    def run_round(self, rec, index: int) -> None:
        """A fresh bus for every round. On the one CPU the bus threads run
        the ACKCOUNT and the MSG path in either order, a fast and a slow
        one, in a mix that a set of threads tends to keep; new threads every
        round average the mix out within a run."""
        started = time.perf_counter()
        bundle = scenario.load_bundle(scenario.DEMO_BUNDLE_DIR)
        server = BusServer().start()
        clients = []
        try:
            clients.append(BusClient("127.0.0.1", server.port))
            clients.append(BusClient("127.0.0.1", server.port))
            monitor, observer = clients
            observer.subscribe(OBSERVER_ID, OBSERVER_PATTERN)
            svc = runtime.deploy(
                bundle.process, bundle.registry, list(bundle.rules), bundle.criteria, server.broker,
                scenario.MockInvoker(scenario.load_fixtures(), bundle.mocks), service_id=SERVICE_ID,
            )
            # SUB has no reply; the first PUB must not overtake it
            while not server.broker.has_subscription(OBSERVER_ID, OBSERVER_PATTERN):
                time.sleep(0.0001)
            rec.setup_done(started)
            self._ops(rec, monitor, observer, svc)
        finally:
            for client in clients:
                client.close()
            server.stop()

    def _ops(self, rec, monitor, observer, svc) -> None:
        size = self.size
        rec.check(svc.subscriptions == list(self.table[SERVICE_ID]),
                  lambda: f"service subscribed {svc.subscriptions}, expected {self.table[SERVICE_ID]}")
        if rec.tracing:
            rec.sample("bus.subscribers_held", len(self.table))
        seq = 0
        for k in range(size.ops_per_round):
            rec.begin_op()
            old_plan = svc.active_plan_id
            flagged = svc.active_plan().binding_for(MAP_TASK)
            high = self._alert(flagged, self.high[k], seq + 1)
            low = self._alert(flagged, self.low[k], seq + 2)
            seq += 2

            t0 = time.perf_counter()
            high_trip = self._round_trip(rec, monitor, observer, svc, high)
            t1 = time.perf_counter()
            plan_after = svc.active_plan_id
            if (k + 1) % size.resend_every == 0:
                again = monitor.publish(high)
                rec.attempted += 1
                expected = len(oracles.recipients(self.table, high.topic))
                rec.check(again in (0, expected), lambda: f"re-send reached {again}, expected 0 or {expected}")
                if again > 0:
                    rec.failed += 1
                    dup = observer.receive(timeout=RECEIVE_TIMEOUT_S)
                    rec.check(dup is not None and dup.seq == high.seq,
                              lambda: f"re-sent MSG {dup}, expected seq {high.seq}")
                    svc.drain_notifications()
                    if rec.tracing:
                        rec.sample("bus.resend_redelivered", 1)
            t_low = time.perf_counter()
            low_trip = self._round_trip(rec, monitor, observer, svc, low)
            t2 = time.perf_counter()
            rec.latencies_ms.append((t1 - t0) * 1e3)
            rec.busy_s += (t1 - t0) + (t2 - t_low)
            rec.completed += 1
            rec.attempted += 1

            for sent, (delivered, got) in ((high, high_trip), (low, low_trip)):
                expected = len(oracles.recipients(self.table, sent.topic))
                rec.check(delivered == expected, lambda: f"PUB on {sent.topic} reached {delivered}, expected {expected}")
                rec.check(got is not None and (got.publisher_id, got.seq, got.topic) == (MONITOR_ID, sent.seq, sent.topic),
                          lambda: f"observer got {got}, expected seq {sent.seq} on {sent.topic}")
            rec.check(plan_after != old_plan, lambda: f"alert on {flagged} left plan {old_plan}")
            rec.check(svc.active_plan_id == plan_after,
                      lambda: f"low alert on {flagged} moved the plan to {svc.active_plan_id}")
            plan = svc.active_plan()
            rec.check_all(oracles.check_chosen_plan(
                dict(plan.bindings), self.candidates, self.components, self.weights, {flagged}, plan.rank_score))
        if rec.tracing:
            rec.sample("runtime.instances_retained", len(svc.instances))
            rec.sample("runtime.event_log_len", len(svc.event_log))

    @staticmethod
    def _round_trip(rec, monitor, observer, svc, n: Notification):
        """PUB until ACKCOUNT, then the observer's MSG, then the service's drain."""
        t0 = time.perf_counter()
        delivered = monitor.publish(n)
        t_ack = time.perf_counter()
        msg = observer.receive(timeout=RECEIVE_TIMEOUT_S)
        t_msg = time.perf_counter()
        if rec.tracing:
            rec.sample("bus.queue_depth", svc.broker.pending(SERVICE_ID))
            rec.sample("bus.ack_ms", (t_ack - t0) * 1e3)
            rec.sample("bus.msg_ms", (t_msg - t0) * 1e3)
        svc.drain_notifications()
        return delivered, msg

    @staticmethod
    def _alert(component: str, probability: float, seq: int) -> Notification:
        return Notification(
            type=EventType.THREAT_LEVEL_CHANGE,
            topic=topic_for(EventType.THREAT_LEVEL_CHANGE, component),
            subject_component_id=component,
            payload=Payload(probability=probability),
            timestamp=time.time(),
            seq=seq,
            publisher_id=MONITOR_ID,
            threat_id=THREAT,
        )
