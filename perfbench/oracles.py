"""Independent oracles: what the program's outputs must be, computed here
from the benchmark's own inputs and never from the program's code."""

from __future__ import annotations

import dataclasses
from enum import Enum

TIE_TOLERANCE = 1e-9


# --- ranking -------------------------------------------------------------------------

def plan_score(binding: dict[str, str], components: dict[str, tuple[float, float, float]],
               weights: tuple[float, float, float], max_mean_cost: float) -> float:
    """(wT*meanTrust + wQ*meanQos - wC*meanCost/maxMeanCost) / (wT+wQ+wC);
    components maps id -> (trust, qos, cost)."""
    w_trust, w_qos, w_cost = weights
    picked = [components[c] for c in binding.values()]
    n = len(picked)
    mean_trust = sum(p[0] for p in picked) / n
    mean_qos = sum(p[1] for p in picked) / n
    mean_cost = sum(p[2] for p in picked) / n
    norm_cost = mean_cost / max_mean_cost if max_mean_cost > 0 else 0.0
    return (w_trust * mean_trust + w_qos * mean_qos - w_cost * norm_cost) / (w_trust + w_qos + w_cost)


def max_mean_cost(candidates: dict[str, list[str]], components: dict[str, tuple[float, float, float]]) -> float:
    """The highest mean cost over the whole plan space: the mean of each
    task's costliest candidate, since the mean splits per task."""
    return sum(max(components[c][2] for c in comps) for comps in candidates.values()) / len(candidates)


def best_plan(candidates: dict[str, list[str]], components: dict[str, tuple[float, float, float]],
              weights: tuple[float, float, float], flagged: set[str]) -> tuple[dict[str, str], float]:
    """The best-scoring binding that avoids every flagged component, and its
    score. The score is a sum of per-task terms over a constant divisor, so
    the best plan takes each task's best allowed candidate on its own."""
    w_trust, w_qos, w_cost = weights
    mmc = max_mean_cost(candidates, components)

    def term(c: str) -> float:
        trust, qos, cost = components[c]
        return w_trust * trust + w_qos * qos - (w_cost * cost / mmc if mmc > 0 else 0.0)

    binding = {}
    for task, comps in candidates.items():
        allowed = [c for c in comps if c not in flagged]
        if not allowed:
            raise ValueError(f"every candidate of {task} is flagged")
        binding[task] = max(allowed, key=term)
    return binding, plan_score(binding, components, weights, mmc)


def check_chosen_plan(chosen: dict[str, str], candidates: dict[str, list[str]],
                      components: dict[str, tuple[float, float, float]],
                      weights: tuple[float, float, float], flagged: set[str],
                      reported_score: float | None = None) -> list[str]:
    """Problems with a chosen binding: it must bind one candidate per task,
    avoid the flagged components and score within TIE_TOLERANCE of the best
    plan that does. A score the program reports must match the formula."""
    problems = []
    if set(chosen) != set(candidates):
        return [f"plan binds tasks {sorted(chosen)}, expected {sorted(candidates)}"]
    for task, comp in chosen.items():
        if comp not in candidates[task]:
            problems.append(f"{comp} is not a candidate of {task}")
    hit = flagged & set(chosen.values())
    if hit:
        problems.append(f"plan binds flagged component(s) {sorted(hit)}")
    if problems:
        return problems
    mmc = max_mean_cost(candidates, components)
    score = plan_score(chosen, components, weights, mmc)
    _, best = best_plan(candidates, components, weights, flagged)
    if score < best - TIE_TOLERANCE:
        problems.append(f"plan scores {score!r}, the best allowed plan scores {best!r}")
    if reported_score is not None and abs(reported_score - score) > TIE_TOLERANCE:
        problems.append(f"program scores the plan {reported_score!r}, the formula gives {score!r}")
    return problems


# --- subscriptions and delivery ---------------------------------------------------------

def pattern_matches(pattern: str, topic: str) -> bool:
    """'<type>.<subject>' matches itself; '<type>.*' matches any one subject."""
    p_type, _, p_subject = pattern.partition(".")
    t_type, _, t_subject = topic.partition(".")
    if p_subject == "*":
        return p_type == t_type and t_subject != "" and "." not in t_subject
    return pattern == topic


def recipients(table: dict[str, tuple[str, ...]], topic: str) -> set[str]:
    """Subscriber ids that get one copy of a publish on topic."""
    return {sid for sid, patterns in table.items() if any(pattern_matches(p, topic) for p in patterns)}


def derived_topics(rules, candidates: dict[str, list[str]]) -> set[str]:
    """One topic per rule and per candidate of the rule's subject task."""
    return {f"{r.event_kebab}.{c}" for r in rules for c in candidates[r.subject_task]}


# --- requirements -------------------------------------------------------------------------

def missing_threats(srs_record: dict, chosen: frozenset, mapping: tuple) -> set[str]:
    """Threat ids of the document that no mapped, chosen pair carries."""
    mapped = {ref for ref, _ in mapping}
    carried = {threat for threat, target in chosen if target in mapped}
    return {t["threatId"] for t in srs_record["threats"]} - carried


def carried_threats(chosen: frozenset, mapping: tuple) -> set[str]:
    mapped = {ref for ref, _ in mapping}
    return {threat for threat, target in chosen if target in mapped}


# --- process models -------------------------------------------------------------------------

def _plain(value):
    return value.value if isinstance(value, Enum) else value


def canonical(item) -> tuple:
    """A model element as (class name, field values...), enums by value."""
    return (type(item).__name__,) + tuple(
        _plain(getattr(item, f.name)) for f in dataclasses.fields(item)
    )


def model_problems(pm, process_id: str, nodes: set[tuple], flows: set[tuple], errors: set[tuple]) -> list[str]:
    """Differences between a parsed model and the spec it was written from."""
    problems = []
    if pm.id != process_id:
        problems.append(f"process id {pm.id!r}, expected {process_id!r}")
    for label, got, want in (
        ("node", {canonical(n) for n in pm.nodes}, nodes),
        ("flow", {canonical(f) for f in pm.flows}, flows),
        ("error", {canonical(e) for e in pm.errors}, errors),
    ):
        if len(got) != len(want) or got != want:
            problems.append(
                f"{label}s differ: missing {sorted(want - got)[:3]}, unexpected {sorted(got - want)[:3]}"
            )
    return problems
