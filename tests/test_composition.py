import itertools
import json
import math
import random
import tracemalloc

import pytest

from threatflow import bpmn, composition
from threatflow.composition import (
    CandidateRegistry,
    ComponentDescriptor,
    RankingCriteria,
    ThreatState,
    generate_plans,
    rank_plans,
    verify_plan,
)
from threatflow.errors import (
    EmptyInputError,
    MissingCandidatesError,
    PlanCountExceededError,
    ValidationError,
)
from threatflow.rules import (
    Action,
    ActionKind,
    AdaptationRule,
    Comparator,
    Predicate,
)
from threatflow.bus import EventType

from _generators import random_process, random_registry


def two_task_model():
    return bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="start"),
            bpmn.ServiceTask(id="t1", operation_ref="op1"),
            bpmn.ServiceTask(id="t2", operation_ref="op2"),
            bpmn.EndEvent(id="end"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="start", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="t2"),
            bpmn.SequenceFlow(id="f3", from_node="t2", to_node="end"),
        ),
    )


def comp(cid, op, trust=0.5, qos=0.5, cost=1.0):
    return ComponentDescriptor(
        id=cid, provider="prov", operation_ref=op,
        trustworthiness=trust, latency_score=qos, cost=cost,
    )


def registry_for(pm, counts):
    entries = tuple(
        (t.id, tuple(comp(f"{t.id}-c{j}", t.operation_ref) for j in range(1, counts[t.id] + 1)))
        for t in pm.service_tasks()
    )
    return CandidateRegistry(entries=entries)


def test_plan_count_is_product_of_candidate_counts():
    pm = two_task_model()
    plans = generate_plans(pm, registry_for(pm, {"t1": 2, "t2": 3}))
    assert len(plans) == 6
    assert len({p.plan_id for p in plans}) == 6


def test_plan_ids_concatenate_bindings_in_document_order():
    pm = two_task_model()
    plans = generate_plans(pm, registry_for(pm, {"t1": 1, "t2": 1}))
    assert plans[0].plan_id == "t1-c1+t2-c1"
    assert plans[0].bindings == (("t1", "t1-c1"), ("t2", "t2-c1"))


def test_uncovered_task_raises_missing_candidates():
    pm = two_task_model()
    reg = CandidateRegistry(entries=(("t1", (comp("c1", "op1"),)),))
    with pytest.raises(MissingCandidatesError):
        generate_plans(pm, reg)


def test_operation_ref_mismatch_rejected():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("c1", "WRONG-OP"),)),
            ("t2", (comp("c2", "op2"),)),
        )
    )
    with pytest.raises(ValidationError):
        generate_plans(pm, reg)


def test_ceiling_enforced_before_materialization():
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 3, "t2": 3})
    with pytest.raises(PlanCountExceededError):
        generate_plans(pm, reg, ceiling=8)


def test_rank_orders_by_score_then_plan_id():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("good", "op1", trust=0.9, qos=0.9, cost=1.0),
                    comp("bad", "op1", trust=0.1, qos=0.1, cost=1.0))),
            ("t2", (comp("only", "op2", trust=0.5, qos=0.5, cost=1.0),)),
        )
    )
    ranked = rank_plans(generate_plans(pm, reg), RankingCriteria(1.0, 1.0, 1.0), reg)
    assert [p.plan_id for p in ranked] == ["good+only", "bad+only"]
    assert ranked[0].rank_score > ranked[1].rank_score


def test_rank_score_matches_formula():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("a", "op1", trust=0.8, qos=0.6, cost=2.0),)),
            ("t2", (comp("b", "op2", trust=0.4, qos=1.0, cost=4.0),)),
        )
    )
    criteria = RankingCriteria(w_trust=0.6, w_qos=0.3, w_cost=0.1)
    ranked = rank_plans(generate_plans(pm, reg), criteria, reg)
    # single plan: norm cost is meanCost / maxMeanCost = 1
    expected = (0.6 * 0.6 + 0.3 * 0.8 - 0.1 * 1.0) / 1.0
    assert ranked[0].rank_score == pytest.approx(expected)


def test_equal_scores_tie_break_on_plan_id():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("zz", "op1"), comp("aa", "op1"))),
            ("t2", (comp("mm", "op2"),)),
        )
    )
    ranked = rank_plans(generate_plans(pm, reg), RankingCriteria(1.0, 1.0, 1.0), reg)
    assert [p.plan_id for p in ranked] == ["aa+mm", "zz+mm"]


def test_rank_empty_input_rejected():
    reg = CandidateRegistry()
    with pytest.raises(EmptyInputError):
        rank_plans([], RankingCriteria(1.0, 1.0, 1.0), reg)


def test_zero_cost_everywhere_avoids_division():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("a", "op1", cost=0.0),)),
            ("t2", (comp("b", "op2", cost=0.0),)),
        )
    )
    ranked = rank_plans(generate_plans(pm, reg), RankingCriteria(1.0, 1.0, 1.0), reg)
    assert ranked[0].rank_score == pytest.approx((0.5 + 0.5) / 3)


def tlc_rule(rule_id="r1", task="t1", threat="T-DOS", comparator=Comparator.GE, threshold=0.5):
    return AdaptationRule(
        rule_id=rule_id,
        event_type=EventType.THREAT_LEVEL_CHANGE,
        subject_task_id=task,
        action=Action(kind=ActionKind.RECOMPOSE),
        threat_id=threat,
        predicate=Predicate(comparator=comparator, threshold=threshold),
    )


def test_verify_fails_only_when_predicate_satisfied_for_bound_component():
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 2, "t2": 1})
    plans = generate_plans(pm, reg)
    rule = tlc_rule()
    flagged = plans[0].binding_for("t1")
    levels = {(flagged, "T-DOS"): 0.8}
    verdicts = [verify_plan(p, pm, [rule], levels) for p in plans]
    assert [v.passed for v in verdicts] == [False, True]
    assert flagged in verdicts[0].reasons[0]


def test_verify_threshold_boundary_inclusive_for_ge():
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 1, "t2": 1})
    plan = generate_plans(pm, reg)[0]
    at_boundary = {("t1-c1", "T-DOS"): 0.5}
    assert not verify_plan(plan, pm, [tlc_rule(comparator=Comparator.GE)], at_boundary).passed
    assert verify_plan(plan, pm, [tlc_rule(comparator=Comparator.GT)], at_boundary).passed


def test_verify_ignores_other_threats_and_unbound_tasks():
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 1, "t2": 1})
    plan = generate_plans(pm, reg)[0]
    rule = tlc_rule()
    assert verify_plan(plan, pm, [rule], {("t1-c1", "T-OTHER"): 0.9}).passed
    assert verify_plan(plan, pm, [tlc_rule(task="t-ghost")], {("t1-c1", "T-DOS"): 0.9}).passed


def test_threat_state_keeps_latest_and_ignores_stale():
    state = ThreatState(["T-DOS"])
    assert state.update("c1", "T-DOS", 0.4, timestamp=10.0)
    assert not state.update("c1", "T-DOS", 0.9, timestamp=5.0)  # older, ignored
    assert state.level("c1", "T-DOS") == 0.4
    assert state.update("c1", "T-DOS", 0.7, timestamp=11.0)
    assert not state.update("c1", "T-NEW", 0.9, timestamp=12.0)  # an id it was not built with
    assert state.snapshot() == {("c1", "T-DOS"): 0.7}
    assert state.unknown_threats == 1


def test_registry_file_roundtrip():
    pm = random_process(random.Random(3))
    reg = random_registry(random.Random(3), pm)
    again = composition.load_registry(composition.dump_registry(reg))
    assert again == reg


def test_criteria_file_roundtrip_and_validation():
    criteria = composition.load_criteria(json.dumps({"wTrust": 0.6, "wQos": 0.3, "wCost": 0.1}))
    assert (criteria.w_trust, criteria.w_qos, criteria.w_cost) == (0.6, 0.3, 0.1)
    assert composition.load_criteria(composition.dump_criteria(criteria)) == criteria
    with pytest.raises(ValidationError):
        RankingCriteria(0.0, 0.0, 0.0).validate()
    with pytest.raises(ValidationError):
        RankingCriteria(-1.0, 1.0, 1.0).validate()


def test_generated_plan_sets_match_brute_force():
    rng = random.Random(99)
    for _ in range(25):
        pm = random_process(rng)
        reg = random_registry(rng, pm)
        tasks = [n for n in bpmn.document_order(pm) if isinstance(n, bpmn.ServiceTask)]
        expected = {
            tuple((t.id, c.id) for t, c in zip(tasks, combo))
            for combo in itertools.product(*(reg.candidates(t.id) for t in tasks))
        }
        assert {p.bindings for p in generate_plans(pm, reg)} == expected


def three_task_model():
    return bpmn.ProcessModel(
        id="p3",
        nodes=(
            bpmn.StartEvent(id="start"),
            bpmn.ServiceTask(id="t1", operation_ref="op1"),
            bpmn.ServiceTask(id="t2", operation_ref="op2"),
            bpmn.ServiceTask(id="t3", operation_ref="op3"),
            bpmn.EndEvent(id="end"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="start", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="t2"),
            bpmn.SequenceFlow(id="f3", from_node="t2", to_node="t3"),
            bpmn.SequenceFlow(id="f4", from_node="t3", to_node="end"),
        ),
    )


def test_three_task_counts_multiply_to_six():
    pm = three_task_model()
    plans = generate_plans(pm, registry_for(pm, {"t1": 2, "t2": 3, "t3": 1}))
    assert len(plans) == 6


def test_trust_dominates_when_only_trust_is_weighted():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("steady", "op1", trust=0.6), comp("solid", "op1", trust=0.9))),
            ("t2", (comp("only", "op2", trust=0.7),)),
        )
    )
    trust_only = RankingCriteria(w_trust=1.0, w_qos=0.0, w_cost=0.0)
    ranked = rank_plans(generate_plans(pm, reg), trust_only, reg)
    assert ranked[0].binding_for("t1") == "solid"
    assert ranked[0].rank_score > ranked[1].rank_score


def test_mixed_weight_ranking_matches_score_recompute():
    pm = two_task_model()
    rng = random.Random(33)
    reg = CandidateRegistry(
        entries=(
            ("t1", tuple(
                comp(f"a{j}", "op1", trust=rng.random(), qos=rng.random(), cost=rng.uniform(0.1, 5))
                for j in range(3)
            )),
            ("t2", tuple(
                comp(f"b{j}", "op2", trust=rng.random(), qos=rng.random(), cost=rng.uniform(0.1, 5))
                for j in range(2)
            )),
        )
    )
    crit = RankingCriteria(w_trust=0.5, w_qos=0.3, w_cost=0.2)
    plans = generate_plans(pm, reg)
    assert len(plans) == 6
    by_id = {c.id: c for _, cands in reg.entries for c in cands}

    def mean(xs):
        return sum(xs) / len(xs)

    mean_costs = {
        p.plan_id: mean([by_id[c].cost for _, c in p.bindings]) for p in plans
    }
    top_cost = max(mean_costs.values())
    expected = {}
    for p in plans:
        comps = [by_id[c] for _, c in p.bindings]
        score = (
            crit.w_trust * mean([c.trustworthiness for c in comps])
            + crit.w_qos * mean([c.latency_score for c in comps])
            - crit.w_cost * mean_costs[p.plan_id] / top_cost
        ) / (crit.w_trust + crit.w_qos + crit.w_cost)
        expected[p.plan_id] = score
    order = sorted(plans, key=lambda p: (-expected[p.plan_id], p.plan_id))
    ranked = rank_plans(plans, crit, reg)
    assert [r.plan_id for r in ranked] == [p.plan_id for p in order]
    for r in ranked:
        assert r.rank_score == pytest.approx(expected[r.plan_id])


def test_verify_passes_everything_on_empty_threat_state():
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 2, "t2": 1})
    rule = AdaptationRule(
        rule_id="r1",
        event_type=EventType.THREAT_LEVEL_CHANGE,
        subject_task_id="t1",
        action=Action(kind=ActionKind.RECOMPOSE),
        threat_id="T-DOS",
        predicate=Predicate(comparator=Comparator.GE, threshold=0.5),
    )
    for plan in generate_plans(pm, reg):
        assert verify_plan(plan, pm, [rule], {}).passed


@pytest.mark.parametrize("bad_id", ["a+b", "a.b", "mapA*", "map A", "map\tA"])
def test_component_ids_with_plan_or_topic_syntax_rejected(bad_id):
    with pytest.raises(ValidationError):
        CandidateRegistry(entries=(("t1", (comp(bad_id, "op1"),)),))


def test_shared_component_id_needs_one_descriptor():
    shared = ComponentDescriptor(
        id="shared", provider="prov", operation_ref="", trustworthiness=0.5, latency_score=0.5
    )
    CandidateRegistry(entries=(("t1", (shared,)), ("t2", (shared,)))).validate()
    other = ComponentDescriptor(
        id="shared", provider="prov", operation_ref="", trustworthiness=0.9, latency_score=0.5
    )
    with pytest.raises(ValidationError):
        CandidateRegistry(entries=(("t1", (shared,)), ("t2", (other,)))).validate()


def test_select_plan_skips_flagged_and_failing_candidates():
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("best", "op1", trust=0.9), comp("next", "op1", trust=0.7),
                    comp("last", "op1", trust=0.1))),
            ("t2", (comp("only", "op2"),)),
        )
    )
    rule = AdaptationRule(
        rule_id="r1",
        event_type=EventType.THREAT_LEVEL_CHANGE,
        subject_task_id="t1",
        action=Action(kind=ActionKind.RECOMPOSE),
        threat_id="T-DOS",
        predicate=Predicate(comparator=Comparator.GE, threshold=0.5),
    )
    table = composition.candidate_table(pm, reg, RankingCriteria(1.0, 1.0, 1.0), [rule])
    assert composition.select_plan(table, {}, ()).plan_id == "best+only"
    levels = {("next", "T-DOS"): 0.8}
    assert composition.select_plan(table, levels, {"best"}).plan_id == "last+only"
    assert composition.select_plan(table, levels, {"best", "last"}) is None


def test_select_plan_rescores_candidates_that_tie_up_to_rounding():
    # b and a score the same one-task value in exact arithmetic (0.3 + 0.0 vs
    # 0.2 + 0.1); only the whole-plan formula tells which plan ranks first
    pm = two_task_model()
    reg = CandidateRegistry(
        entries=(
            ("t1", (comp("b", "op1", trust=0.3, qos=0.0, cost=0.1),
                    comp("a", "op1", trust=0.2, qos=0.1, cost=0.1))),
            ("t2", (comp("c", "op2", trust=0.7, qos=0.6, cost=0.1),)),
        )
    )
    crit = RankingCriteria(0.1, 0.1, 0.0)
    best = rank_plans(generate_plans(pm, reg), crit, reg)[0]
    chosen = composition.select_plan(composition.candidate_table(pm, reg, crit, []), {}, ())
    assert best.plan_id == "b+c"
    assert (chosen.plan_id, chosen.rank_score) == (best.plan_id, best.rank_score)


def chain_model(n):
    tasks = tuple(bpmn.ServiceTask(id=f"t{k}", operation_ref="op") for k in range(n))
    order = ["start", *(t.id for t in tasks), "end"]
    return bpmn.ProcessModel(
        id="chain",
        nodes=(bpmn.StartEvent(id="start"), *tasks, bpmn.EndEvent(id="end")),
        flows=tuple(bpmn.SequenceFlow(id=f"f{k}", from_node=a, to_node=b)
                    for k, (a, b) in enumerate(zip(order, order[1:]))),
    )


def mirror_registry(pm):
    # 'm3' sorts before 'm3!' but 'm3!+' before 'm3+': which mirror the planId
    # tie-break keeps depends on whether the task ends the planId
    return CandidateRegistry(entries=tuple(
        (t.id, (comp(f"m{k}", "op", 0.6, 0.4, 0.5), comp(f"m{k}!", "op", 0.6, 0.4, 0.5)))
        for k, t in enumerate(pm.service_tasks())
    ))


@pytest.mark.parametrize("excluded", [(), ("m0!", "m9", "m4")])
def test_select_plan_over_mirror_pairs_matches_the_ranked_plans(excluded):
    pm = chain_model(10)
    reg = mirror_registry(pm)
    crit = RankingCriteria(1.0, 0.5, 0.2)
    oracle = next(p for p in rank_plans(generate_plans(pm, reg), crit, reg)
                  if not p.component_ids() & set(excluded))
    chosen = composition.select_plan(composition.candidate_table(pm, reg, crit, []), {}, excluded)
    assert (chosen.plan_id, chosen.bindings, chosen.rank_score) == (
        oracle.plan_id, oracle.bindings, oracle.rank_score,
    )
    if not excluded:
        assert chosen.plan_id == "+".join([f"m{k}!" for k in range(9)] + ["m9"])



def test_mean_adds_left_to_right_on_every_python():
    # sum() of floats is compensated from Python 3.12 on and gives 1.0 here
    assert composition._mean([0.1] * 10) == 0.9999999999999999 / 10
    assert str(composition._mean([-0.0])) == "0.0" and composition._mean([]) == 0.0


def _registry_text(**fields):
    component = {"id": "c1", "operationRef": "op1", "trustworthiness": 0.5, "latencyScore": 0.5}
    return json.dumps({"tasks": {"t1": [dict(component, **fields)]}})


@pytest.mark.parametrize("load, text", [
    (composition.load_registry, "[]"),
    (composition.load_registry, _registry_text(id=5)),
    (composition.load_registry, _registry_text(trustworthiness="high")),
    (composition.load_criteria, "[]"),
    (composition.load_criteria, json.dumps({"wTrust": "high", "wQos": 0.3, "wCost": 0.1})),
], ids=["registry-list", "registry-id-5", "registry-trust-text", "criteria-list", "criteria-weight-text"])
def test_malformed_registry_and_criteria_raise_validation_error(load, text):
    with pytest.raises(ValidationError):
        load(text)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_costs_and_weights_must_be_finite(bad):
    with pytest.raises(ValidationError, match="cost"):
        composition.load_registry(_registry_text(cost=bad))
    for weight in ("wTrust", "wQos", "wCost"):
        weights = dict({"wTrust": 0.6, "wQos": 0.3, "wCost": 0.1}, **{weight: bad})
        with pytest.raises(ValidationError, match="finite"):
            composition.load_criteria(json.dumps(weights))


def test_weights_whose_sum_overflows_are_refused():
    # each weight is finite, but (wT + wQ) + wC is inf, and every score would be nan
    with pytest.raises(ValidationError, match="finite sum"):
        RankingCriteria(1e308, 1e308, 0.0)
    with pytest.raises(ValidationError, match="finite sum"):
        composition.load_criteria(json.dumps({"wTrust": 0.0, "wQos": 1e308, "wCost": 1e308}))
    pm = two_task_model()
    reg = registry_for(pm, {"t1": 2, "t2": 1})
    ranked = rank_plans(generate_plans(pm, reg), RankingCriteria(1.7e308, 0.0, 9e306), reg)
    assert not any(math.isnan(p.rank_score) for p in ranked)


def test_costs_whose_mean_overflows_are_refused():
    # each cost is finite, but the mean cost of a1+a2 overflows, and inf/inf is nan
    pm = two_task_model()
    reg = CandidateRegistry(entries=(
        ("t1", (comp("a1", "op1", cost=1e308),)),
        ("t2", (comp("a2", "op2", cost=1e308),)),
    ))
    with pytest.raises(ValidationError, match="overflows"):
        rank_plans(generate_plans(pm, reg), RankingCriteria(1.0, 1.0, 1.0), reg)


def test_rank_plans_refuses_hand_built_plans_whose_mean_cost_overflows():
    # no generate_plans, so no validate_against: rank_plans checks its own scale
    reg = CandidateRegistry(entries=(
        ("t1", (comp("a1", "op1", cost=1e308),)),
        ("t2", (comp("a2", "op2", cost=1e308),)),
    ))
    plans = [composition.CompositionPlan("a1+a2", (("t1", "a1"), ("t2", "a2")))]
    with pytest.raises(ValidationError, match="the mean of the per-task maximum costs overflows"):
        rank_plans(plans, RankingCriteria(1, 1, 1), reg)


def test_costs_just_below_the_overflow_rank_and_select_without_nan():
    pm = two_task_model()
    reg = CandidateRegistry(entries=(
        ("t1", (comp("a1", "op1", cost=1e308), comp("b1", "op1", cost=0.0))),
        ("t2", (comp("a2", "op2", cost=7e307),)),
    ))
    crit = RankingCriteria(1.0, 1.0, 1.0)
    ranked = rank_plans(generate_plans(pm, reg), crit, reg)
    assert not any(math.isnan(p.rank_score) for p in ranked)
    chosen = composition.select_plan(composition.candidate_table(pm, reg, crit, []), {}, ())
    assert ranked[0].plan_id == "b1+a2"
    assert (chosen.plan_id, chosen.rank_score) == (ranked[0].plan_id, ranked[0].rank_score)


def test_ranked_listing_shares_one_pair_per_candidate_and_stays_small():
    # 10 tasks with 3, 3, 3, 3, 3, 2, 2, 2, 2, 2 candidates: 3**5 * 2**5 = 7,776 plans
    pm = chain_model(10)
    rnd = random.Random(10)
    reg = CandidateRegistry(entries=tuple(
        (t.id, tuple(comp(f"{t.id}-c{j}", "op", rnd.random(), rnd.random(), rnd.random())
                     for j in range(3 if k < 5 else 2)))
        for k, t in enumerate(pm.service_tasks())
    ))
    crit = RankingCriteria(0.6, 0.3, 0.1)
    plans = generate_plans(pm, reg)
    for k, t in enumerate(pm.service_tasks()):
        assert len({id(p.bindings[k]) for p in plans}) == len(reg.candidates(t.id))
    # the first two plans differ only in their last binding
    assert all(a is b for a, b in zip(plans[0].bindings[:-1], plans[1].bindings))
    by_id = {p.plan_id: p for p in plans}
    ranked = rank_plans(plans, crit, reg)
    assert all(p.bindings is by_id[p.plan_id].bindings for p in ranked)
    del plans, by_id, ranked

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ranked = rank_plans(generate_plans(pm, reg), crit, reg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ranked) == 7776
    assert peak / len(ranked) < 800
