#!/usr/bin/env python3
"""The benchmark's own tests: the oracles on hand-worked cases, and a smoke
run of every workload, untraced and traced, with all of its checks at a
small operation count. Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import inputs  # noqa: E402
import oracles  # noqa: E402
from harness import Recorder  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

# the demo bundle's registry and weights, copied here by hand
DEMO_CANDIDATES = {
    "task-geocode": ["geo-1"], "task-weather": ["weather-1"], "task-obs": ["obs-1"],
    "task-map": ["mapA", "mapB"], "task-report": ["report-1"],
}
DEMO_COMPONENTS = {
    "geo-1": (0.9, 0.8, 1.0), "weather-1": (0.85, 0.75, 1.0), "obs-1": (0.8, 0.7, 0.5),
    "mapA": (0.9, 0.8, 2.0), "mapB": (0.8, 0.85, 2.5), "report-1": (0.9, 0.9, 0.5),
}
DEMO_WEIGHTS = (0.6, 0.3, 0.1)


def demo_plan(map_id: str) -> dict[str, str]:
    return {t: (map_id if t == "task-map" else c[0]) for t, c in DEMO_CANDIDATES.items()}


class RankingOracle(unittest.TestCase):
    def test_demo_scores_by_hand(self):
        # mean costs are 1.0 (mapA) and 1.1 (mapB), so maxMeanCost = 1.1;
        # mapA: 0.6*0.87 + 0.3*0.79 - 0.1*(1.0/1.1) = 0.668090...
        # mapB: 0.6*0.85 + 0.3*0.80 - 0.1*(1.1/1.1) = 0.65
        mmc = oracles.max_mean_cost(DEMO_CANDIDATES, DEMO_COMPONENTS)
        self.assertAlmostEqual(mmc, 1.1, places=12)
        self.assertAlmostEqual(oracles.plan_score(demo_plan("mapA"), DEMO_COMPONENTS, DEMO_WEIGHTS, mmc),
                               0.522 + 0.237 - 0.1 / 1.1, places=12)
        self.assertAlmostEqual(oracles.plan_score(demo_plan("mapB"), DEMO_COMPONENTS, DEMO_WEIGHTS, mmc),
                               0.65, places=12)

    def test_demo_best_plan_avoids_the_flagged_map(self):
        best, _ = oracles.best_plan(DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, set())
        self.assertEqual(best, demo_plan("mapA"))
        best, score = oracles.best_plan(DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, {"mapA"})
        self.assertEqual(best, demo_plan("mapB"))
        self.assertAlmostEqual(score, 0.65, places=12)

    def test_check_chosen_plan(self):
        check = oracles.check_chosen_plan
        self.assertEqual(check(demo_plan("mapB"), DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, {"mapA"}), [])
        self.assertTrue(check(demo_plan("mapA"), DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, {"mapA"}))
        self.assertTrue(check(demo_plan("mapB"), DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, set()))
        self.assertTrue(check(demo_plan("mapB"), DEMO_CANDIDATES, DEMO_COMPONENTS, DEMO_WEIGHTS, {"mapA"},
                              reported_score=0.65 + 1e-6))

    def test_ties_within_tolerance_are_accepted(self):
        components = dict(DEMO_COMPONENTS, mapB=DEMO_COMPONENTS["mapA"])
        for map_id in ("mapA", "mapB"):
            self.assertEqual(oracles.check_chosen_plan(
                demo_plan(map_id), DEMO_CANDIDATES, components, DEMO_WEIGHTS, set()), [])

    def test_per_task_choice_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            candidates = {f"t{i}": [f"t{i}c{j}" for j in range(rng.randint(1, 4))] for i in range(rng.randint(1, 4))}
            components = {c: (rng.random(), rng.random(), rng.choice((0.0, rng.uniform(0, 5))))
                          for cs in candidates.values() for c in cs}
            weights = (rng.random(), rng.random(), rng.random() + 0.01)
            flagged = {cs[0] for cs in candidates.values() if len(cs) > 1 and rng.random() < 0.5}
            mmc = oracles.max_mean_cost(candidates, components)
            plans = [dict(zip(candidates, combo)) for combo in itertools.product(*candidates.values())]
            self.assertAlmostEqual(mmc, max(sum(components[c][2] for c in p.values()) / len(p) for p in plans))
            allowed = [p for p in plans if not flagged & set(p.values())]
            top = max(oracles.plan_score(p, components, weights, mmc) for p in allowed)
            _, score = oracles.best_plan(candidates, components, weights, flagged)
            self.assertAlmostEqual(score, top, places=12)


class DeliveryOracle(unittest.TestCase):
    def test_pattern_matches(self):
        m = oracles.pattern_matches
        self.assertTrue(m("threat-level-change.mapA", "threat-level-change.mapA"))
        self.assertFalse(m("threat-level-change.mapA", "threat-level-change.mapB"))
        self.assertTrue(m("threat-level-change.*", "threat-level-change.mapB"))
        self.assertFalse(m("threat-level-change.*", "context-change.mapB"))
        self.assertFalse(m("threat-level-change.*", "threat-level-change.a.b"))

    def test_one_copy_per_subscriber(self):
        table = {
            "s1": ("threat-level-change.mapA", "threat-level-change.*"),
            "s2": ("threat-level-change.*",),
            "s3": ("threat-level-change.mapB",),
            "s4": ("context-change.*",),
        }
        self.assertEqual(oracles.recipients(table, "threat-level-change.mapA"), {"s1", "s2"})
        self.assertEqual(oracles.recipients(table, "threat-level-change.mapB"), {"s1", "s2", "s3"})
        self.assertEqual(oracles.recipients(table, "context-change.svc"), {"s4"})


class TopicAndConformityOracles(unittest.TestCase):
    def test_derived_topics_rule_by_candidate(self):
        rules = [
            inputs.RuleSpec("r1", "threat-level-change", "task-map", "T-DDOS-COMP", "wholeProcess", None, "recompose"),
            inputs.RuleSpec("r2", "trustworthiness-change", "task-geocode", None, "wholeProcess", None, "stop"),
            inputs.RuleSpec("r3", "threat-level-change", "task-map", "T-OTHER", "beforeTask", "task-map", "notify"),
        ]
        self.assertEqual(oracles.derived_topics(rules, DEMO_CANDIDATES), {
            "threat-level-change.mapA", "threat-level-change.mapB", "trustworthiness-change.geo-1",
        })

    def test_missing_threats(self):
        record = {"threats": [{"threatId": "T1", "targetRef": "a"}, {"threatId": "T2", "targetRef": "b"},
                              {"threatId": "T3", "targetRef": "c"}]}
        chosen = frozenset({("T1", "a"), ("T2", "b")})
        mapping = (("a", "Task a"), ("c", "Task c"))
        self.assertEqual(oracles.missing_threats(record, chosen, mapping), {"T2", "T3"})
        self.assertEqual(oracles.carried_threats(chosen, mapping), {"T1"})

    def test_generated_model_reads_back_as_its_spec(self):
        from threatflow import bpmn

        spec = inputs.make_service(random.Random(3), [3, 2, 2, 2, 2], tag="x")
        pm = bpmn.parse_bpmn(inputs.bpmn_text(spec))
        self.assertEqual(oracles.model_problems(pm, spec.process_id, inputs.expected_nodes(spec),
                                                inputs.expected_flows(spec), inputs.expected_errors(spec)), [])
        nodes = inputs.expected_nodes(spec) - {("EndEvent", "end")}
        self.assertTrue(oracles.model_problems(pm, spec.process_id, nodes,
                                               inputs.expected_flows(spec), inputs.expected_errors(spec)))


class BenchmarkFile(unittest.TestCase):
    def test_lists_what_the_code_reports(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.MODULES))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], list(PER_LAYER))
        rec = Recorder(False)
        rec.latencies_ms, rec.busy_s, rec.completed = [1.0, 2.0], 1.0, 2
        rec.setup_s, rec.setup_rss_mb, rec.peak_rss_mb = [0.1], 1.0, 2.0
        reported = [(name, m["unit"]) for name, m in rec.end_to_end().items()]
        self.assertEqual(sorted(reported), sorted((m["name"], m["unit"]) for m in doc["end_to_end"]))


class Smoke(unittest.TestCase):
    """Every workload at a small size, with every check it makes."""

    def run_workload(self, name: str, tracing: bool) -> Recorder:
        import importlib

        module = importlib.import_module(run.MODULES[name])
        rec = Recorder(tracing)
        tracer = Tracer(rec) if tracing else None
        run.measure(module.Workload(11, module.SMOKE), 0.0, rec, tracer)
        self.assertEqual(rec.problems, [])
        self.assertEqual(rec.rounds, module.SMOKE.min_rounds)
        if tracer is not None:
            metrics = tracer.metrics(tracer.summary())
            self.assertEqual(list(metrics), [name for name, _ in PER_LAYER])
            json.dumps(metrics)
        else:
            metrics = rec.end_to_end()
            self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)
        return rec

    def test_adapt_inproc(self):
        for tracing in (False, True):
            rec = self.run_workload("adapt-inproc", tracing)
            self.assertEqual(rec.failed, 0)

    def test_alert_tcp(self):
        import wl_alert_tcp

        size = wl_alert_tcp.SMOKE
        resends = size.ops_per_round // size.resend_every * size.min_rounds
        for tracing in (False, True):
            rec = self.run_workload("alert-tcp", tracing)
            self.assertEqual(rec.attempted, size.ops_per_round * size.min_rounds + resends)
            self.assertLessEqual(rec.failed, resends)

    def test_design_deploy(self):
        for tracing in (False, True):
            rec = self.run_workload("design-deploy", tracing)
            self.assertEqual(rec.failed, 0)

    def test_tracing_restores_the_program(self):
        from threatflow import bus, rules, runtime

        before = (runtime.evaluate, bus.Broker.publish, bus.Notification.from_record)
        tracer = Tracer(Recorder(True))
        tracer.install()
        self.assertIsNot(runtime.evaluate, rules.evaluate)
        tracer.uninstall()
        self.assertEqual((runtime.evaluate, bus.Broker.publish, bus.Notification.from_record), before)


if __name__ == "__main__":
    unittest.main()
