"""Command-line entry point: repository, model tooling, transformation,
planning, broker, and the end-to-end demo.

Every module error maps to its own nonzero exit code with a one-line
diagnostic on stderr; --json switches tabular output to line-delimited
JSON records. A malformed input exits 2 or 5 (see README), never 1, which
is kept for a command's negative result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bpmn, bus, composition, repo, rules, runtime, scenario, srs
from .errors import (
    BusError,
    ConflictError,
    DanglingReferenceError,
    DeploymentError,
    DerivationError,
    EmptyInputError,
    EvaluationError,
    MissingCandidatesError,
    NotFoundError,
    ParseError,
    PlanCountExceededError,
    ThreatflowError,
    UnsupportedConstructError,
    ValidationError,
    parse_json,
    read_text,
    reading,
)

EXIT_CODES = {
    ValidationError: 2,
    NotFoundError: 3,
    ConflictError: 4,
    ParseError: 5,
    UnsupportedConstructError: 6,
    DanglingReferenceError: 7,
    MissingCandidatesError: 8,
    PlanCountExceededError: 9,
    EmptyInputError: 10,
    DerivationError: 11,
    EvaluationError: 12,
    DeploymentError: 13,
    BusError: 14,
}


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def record(self, record_kind: str, fields: dict | None = None, **extra) -> None:
        if self.as_json:
            payload = {"record": record_kind}
            payload.update(fields or {})
            payload.update(extra)
            print(json.dumps(payload, sort_keys=True))

    def text(self, line: str = "") -> None:
        if not self.as_json:
            print(line)

    def always(self, line: str) -> None:
        print(line)


def _parse_vars(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--var expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name] = value
    return out


# --- repo group -----------------------------------------------------------------

def _cmd_repo(args, out: _Output) -> int:
    store = repo.Repository(args.repo)
    if args.repo_cmd == "serve":
        server = repo.make_server(store, host=args.host, port=args.port)
        out.always(f"threat repository listening on http://{args.host}:{server.server_port}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        return 0
    if args.repo_cmd == "add":
        doc = parse_json(read_text(args.file, f"no such file: {args.file}"), f"threat file {args.file}")
        with reading("threat file"):
            records = doc["threats"] if "threats" in doc else [doc]
            added = [store.put_threat(repo.Threat.from_record(r), replace=args.replace) for r in records]
            for rec in doc.get("countermeasures", []):
                store.put_countermeasure(repo.Countermeasure.from_record(rec))
        out.text(f"stored {len(added)} threat(s): {', '.join(added)}")
        out.record("added", ids=added)
        return 0
    if args.repo_cmd == "get":
        threat = store.get_threat(args.id)
        out.text(json.dumps(threat.to_record(), indent=2, sort_keys=True))
        out.record("threat", **threat.to_record())
        return 0
    if args.repo_cmd == "search":
        query = repo.ThreatQuery(
            name_substring=args.name,
            threat_class=repo.ThreatClass(args.klass) if args.klass else None,
            domain=args.domain,
        )
        hits = store.search(query)
        for t in hits:
            out.text(f"{t.id}  [{t.threat_class.value}]  {t.name}")
            out.record("threat", **t.to_record())
        out.text(f"{len(hits)} match(es)")
        return 0
    if args.repo_cmd == "countermeasures":
        cms = store.list_countermeasures(args.id)
        for cm in cms:
            out.text(f"{cm.id}  rank={cm.rank_score:<4}  [{cm.format.value}]  {cm.title}")
            out.record("countermeasure", **cm.to_record())
        out.text(f"{len(cms)} countermeasure(s)")
        return 0
    if args.repo_cmd == "import":
        added = store.import_from_model(bpmn.parse_bpmn(read_text(args.file, f"no such file: {args.file}")))
        out.text(f"imported {len(added)} new threat stub(s): {', '.join(added) or '-'}")
        out.record("imported", ids=added)
        return 0
    raise ValidationError(f"unknown repo command {args.repo_cmd!r}")


# --- model group ----------------------------------------------------------------

def _cmd_model(args, out: _Output) -> int:
    text = read_text(args.file, f"no such file: {args.file}")
    if args.model_cmd == "validate":
        pm = bpmn.parse_bpmn(text)  # parse validates; reaching here means clean
        out.text(f"process {pm.id!r}: valid ({len(pm.nodes)} nodes, {len(pm.flows)} flows)")
        out.record("valid", process=pm.id, nodes=len(pm.nodes), flows=len(pm.flows))
        return 0
    if args.model_cmd == "threats":
        pm = bpmn.parse_bpmn(text)
        refs = sorted(bpmn.list_threat_refs(pm))
        for task_id, threat_id in refs:
            out.text(f"{threat_id}  on task {task_id}")
            out.record("threatRef", taskId=task_id, threatId=threat_id)
        out.text(f"{len(refs)} threat reference(s)")
        return 0
    if args.model_cmd == "roundtrip":
        first = bpmn.parse_bpmn(text)
        second = bpmn.parse_bpmn(bpmn.serialize(first))
        diffs = bpmn.structural_diff(first, second)
        for d in diffs:
            out.always(d)
        if diffs:
            return 1
        out.text(f"round-trip clean for process {first.id!r}")
        out.record("roundtrip", process=first.id, clean=True)
        return 0
    raise ValidationError(f"unknown model command {args.model_cmd!r}")


# --- transform group -------------------------------------------------------------

def _cmd_transform(args, out: _Output) -> int:
    if args.transform_cmd == "srs2bpmn":
        doc = srs.load_srs(read_text(args.file, f"no such file: {args.file}"))
        mapping = []
        for entry in args.map or []:
            if "=" not in entry:
                raise ValidationError(f"--map expects ref=TaskName, got {entry!r}")
            ref, task_name = entry.split("=", 1)
            mapping.append((ref, task_name))
        chosen = set()
        for entry in args.select or []:
            if "@" not in entry:
                raise ValidationError(f"--select expects threatId@targetRef, got {entry!r}")
            threat_id, target = entry.split("@", 1)
            chosen.add((threat_id, target))
        sel = srs.ThreatSelection(chosen=frozenset(chosen), task_mapping=tuple(mapping))
        result = srs.transform_to_skeleton(doc, sel)
        xml = bpmn.serialize(result.model)
        if args.out:
            Path(args.out).write_text(xml, encoding="utf-8")
            out.text(f"wrote skeleton to {args.out}")
        else:
            out.text(xml.rstrip("\n"))
        for w in result.warnings:
            out.always(f"warning: {w}")
        out.record(
            "skeleton",
            tasks=len(result.model.service_tasks()),
            boundaries=len(result.model.boundary_events()),
            warnings=list(result.warnings),
        )
        return 0
    if args.transform_cmd == "conform":
        pm = bpmn.parse_bpmn(read_text(args.model, f"no such file: {args.model}"))
        doc = srs.load_srs(read_text(args.srs, f"no such file: {args.srs}"))
        report = srs.check_conformity(pm, doc)
        for threat_id in sorted(report.missing_threat_ids):
            out.always(f"missing: {threat_id}")
        for note in report.notes:
            out.text(f"note: {note}")
        out.record(
            "conformity",
            missing=sorted(report.missing_threat_ids),
            notes=list(report.notes),
        )
        if report.missing_threat_ids:
            return 1
        out.text("conforms: every SRS threat ID is carried by the model")
        return 0
    raise ValidationError(f"unknown transform command {args.transform_cmd!r}")


# --- plan group -------------------------------------------------------------------

def _load_bundle_parts(bundle_dir: str):
    bundle = scenario.load_bundle(bundle_dir)
    return bundle.process, bundle.registry, list(bundle.rules), bundle.criteria


def _cmd_plan(args, out: _Output) -> int:
    pm, reg, rule_list, criteria = _load_bundle_parts(args.bundle)
    plans = composition.generate_plans(pm, reg)
    if args.plan_cmd == "list":
        for p in plans:
            out.text(p.plan_id)
            out.record("plan", planId=p.plan_id, bindings=dict(p.bindings))
        out.text(f"{len(plans)} plan(s)")
        return 0
    ranked = composition.rank_plans(plans, criteria, reg)
    if args.plan_cmd == "rank":
        for i, p in enumerate(ranked, start=1):
            out.text(f"{i:>2}. {p.plan_id}  score={p.rank_score:.4f}")
            out.record("rankedPlan", position=i, planId=p.plan_id, score=p.rank_score)
        return 0
    if args.plan_cmd == "verify":
        levels: dict[tuple[str, str], float] = {}
        for entry in args.threat or []:
            parts = entry.split(":")
            if len(parts) != 3:
                raise ValidationError(f"--threat expects component:threatId:probability, got {entry!r}")
            with reading("--threat"):
                probability = float(parts[2])
            if not 0.0 <= probability <= 1.0:  # NaN fails the comparison too
                raise ValidationError(f"--threat probability {parts[2]!r} outside [0,1]")
            levels[(parts[0], parts[1])] = probability
        failures = 0
        for p in ranked:
            verdict = composition.verify_plan(p, pm, rule_list, levels)
            status = "pass" if verdict.passed else "FAIL"
            out.text(f"{status}  {p.plan_id}")
            for reason in verdict.reasons:
                out.text(f"      {reason}")
            out.record("verdict", planId=p.plan_id, passed=verdict.passed, reasons=list(verdict.reasons))
            failures += 0 if verdict.passed else 1
        out.text(f"{failures} failing plan(s) of {len(ranked)}")
        return 0
    raise ValidationError(f"unknown plan command {args.plan_cmd!r}")


# --- bus group ---------------------------------------------------------------------

def _cmd_bus(args, out: _Output) -> int:
    if args.bus_cmd == "serve":
        server = bus.BusServer(host=args.host, port=args.port).start()
        out.always(f"notification bus listening on {args.host}:{server.port}")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            server.stop()
        return 0
    if args.bus_cmd == "publish":
        segments = args.topic.split(".")
        if len(segments) != 2:
            raise ValidationError(f"topic {args.topic!r} must be '<event-type>.<subject>'")
        event_type = bus.event_type_for_kebab(segments[0])
        n = bus.Notification(
            type=event_type,
            topic=args.topic,
            subject_component_id=segments[1],
            payload=bus.Payload(probability=args.probability, value=args.value),
            timestamp=time.time(),
            seq=args.seq,
            publisher_id=args.publisher_id,
            threat_id=args.threat_id,
        )
        client = bus.BusClient(args.host, args.port)
        try:
            count = client.publish(n)
        finally:
            client.close()
        out.text(f"delivered to {count} subscriber(s)")
        out.record("published", topic=args.topic, deliveries=count)
        return 0
    raise ValidationError(f"unknown bus command {args.bus_cmd!r}")


# --- run group ---------------------------------------------------------------------

def _deploy_bundle(bundle_dir, service_id: str, clock=None):
    bundle = scenario.load_bundle(bundle_dir)
    invoker = scenario.MockInvoker(scenario.load_fixtures(), bundle.mocks, clock=clock)
    return scenario.deploy_bundle(bundle, bus.Broker(), invoker, service_id, clock)


def _cmd_run(args, out: _Output) -> int:
    if args.run_cmd == "deploy":
        svc = _deploy_bundle(args.bundle, args.service)
        plans = svc.plans
        out.text(f"deployed service {svc.service_id!r} ({len(plans)} plans)")
        for p in plans:
            marker = "*" if p.plan_id == svc.active_plan_id else " "
            out.text(f"  {marker} {p.plan_id}  score={p.rank_score:.4f}")
        for topic in svc.subscriptions:
            out.text(f"  subscribed: {topic}")
        out.record(
            "deployed",
            service=svc.service_id,
            plans=[p.plan_id for p in plans],
            activePlan=svc.active_plan_id,
            subscriptions=svc.subscriptions,
        )
        return 0
    if args.run_cmd == "start":
        svc = _deploy_bundle(args.bundle, args.service)
        variables = _parse_vars(args.var or [])
        instance_id = svc.start_instance(variables)
        inst = svc.instances[instance_id]
        out.text(f"instance {instance_id}: {inst.outcome.value}")
        if inst.outcome is runtime.Outcome.COMPLETED and "report" in (inst.report or {}):
            report = inst.report["report"]
            out.text(json.dumps(report.to_record(), indent=2, sort_keys=True))
        if inst.error:
            out.always(f"error: {inst.error}")
        out.record(
            "instance",
            id=instance_id,
            outcome=inst.outcome.value,
            error=inst.error,
        )
        return 0 if inst.outcome is runtime.Outcome.COMPLETED else 1
    if args.run_cmd == "demo":
        result = scenario.run_demo(
            seed=args.seed, iata=args.iata, bundle_dir=args.bundle or None
        )
        if out.as_json:
            for report in result.reports:
                out.record("report", report.to_record())
            for event in result.service.merged_log():
                out.record("event", event.to_record())
        else:
            out.text(scenario.render_demo_text(result).rstrip("\n"))
        return 0
    raise ValidationError(f"unknown run command {args.run_cmd!r}")


# --- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatflow",
        description="Threat-aware composite services: model threats once, "
        "carry their IDs into BPMN, adapt the running service when they escalate.",
    )
    parser.add_argument("--json", action="store_true", help="line-delimited JSON output")
    sub = parser.add_subparsers(dest="group", required=True)

    p_repo = sub.add_parser("repo", help="threat repository")
    repo_sub = p_repo.add_subparsers(dest="repo_cmd", required=True)
    for name in ("serve", "add", "get", "search", "countermeasures", "import"):
        sp = repo_sub.add_parser(name)
        sp.add_argument("--repo", required=True, help="repository JSON file")
        if name == "serve":
            sp.add_argument("--host", default="127.0.0.1")
            sp.add_argument("--port", type=int, default=8400)
        elif name == "add":
            sp.add_argument("--file", required=True, help="threat record or full document")
            sp.add_argument("--replace", action="store_true")
        elif name in ("get", "countermeasures"):
            sp.add_argument("id")
        elif name == "search":
            sp.add_argument("--name")
            sp.add_argument("--class", dest="klass", choices=["business", "operational"])
            sp.add_argument("--domain")
        elif name == "import":
            sp.add_argument("--file", required=True, help="BPMN file to import threat refs from")

    p_model = sub.add_parser("model", help="BPMN model tooling")
    model_sub = p_model.add_subparsers(dest="model_cmd", required=True)
    for name in ("validate", "threats", "roundtrip"):
        sp = model_sub.add_parser(name)
        sp.add_argument("file")

    p_tf = sub.add_parser("transform", help="SRS transformation and conformity")
    tf_sub = p_tf.add_subparsers(dest="transform_cmd", required=True)
    sp = tf_sub.add_parser("srs2bpmn")
    sp.add_argument("file")
    sp.add_argument("--map", action="append", help="ref=TaskName (repeatable, in task order)")
    sp.add_argument("--select", action="append", help="threatId@targetRef (repeatable)")
    sp.add_argument("--out", help="write skeleton XML here instead of stdout")
    sp = tf_sub.add_parser("conform")
    sp.add_argument("model")
    sp.add_argument("srs")

    p_plan = sub.add_parser("plan", help="composition plans")
    plan_sub = p_plan.add_subparsers(dest="plan_cmd", required=True)
    for name in ("list", "rank", "verify"):
        sp = plan_sub.add_parser(name)
        sp.add_argument("--bundle", required=True)
        if name == "verify":
            sp.add_argument(
                "--threat", action="append",
                help="component:threatId:probability (repeatable)",
            )

    p_bus = sub.add_parser("bus", help="notification bus")
    bus_sub = p_bus.add_subparsers(dest="bus_cmd", required=True)
    sp = bus_sub.add_parser("serve")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8500)
    sp = bus_sub.add_parser("publish")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8500)
    sp.add_argument("--topic", required=True)
    sp.add_argument("--probability", type=float)
    sp.add_argument("--value")
    sp.add_argument("--threat-id")
    sp.add_argument("--publisher-id", default="cli")
    sp.add_argument("--seq", type=int, default=time.time_ns())  # the broker drops a seq at or below its last one

    p_run = sub.add_parser("run", help="service runtime")
    run_sub = p_run.add_subparsers(dest="run_cmd", required=True)
    sp = run_sub.add_parser("deploy")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--service", default="airport-report")
    sp = run_sub.add_parser("start")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--service", default="airport-report")
    sp.add_argument("--var", action="append", help="name=value (repeatable)")
    sp = run_sub.add_parser("demo")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--iata", default="FCO")
    sp.add_argument("--bundle", default=None)

    return parser


_GROUP_HANDLERS = {
    "repo": _cmd_repo,
    "model": _cmd_model,
    "transform": _cmd_transform,
    "plan": _cmd_plan,
    "bus": _cmd_bus,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(as_json=args.json)
    try:
        return _GROUP_HANDLERS[args.group](args, out)
    except ThreatflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
