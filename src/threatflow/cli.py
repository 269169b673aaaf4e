"""Command-line entry point: repository, model tooling, transformation,
planning, broker, and the end-to-end demo.

Each sub-command is declared once, in build_parser, with the function that
runs it. An error exits with the code its class carries
(errors.ThreatflowError.exit_code) and a one-line diagnostic on stderr;
--json switches tabular output to line-delimited JSON records. A malformed
input exits 2 or 5 (see README), never 1, which is kept for a command's
negative result. A closed stdout exits 141, as a shell reports SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import bpmn, bus, composition, repo, runtime, scenario, srs
from .errors import ThreatflowError, ValidationError, parse_json, read_text, reading


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

def _repo_serve(args, out: _Output) -> int:
    store = repo.Repository(args.repo)
    server = repo.make_server(store, host=args.host, port=args.port)
    out.always(f"threat repository listening on http://{args.host}:{server.server_port}")
    sys.stdout.flush()  # a caller reading the port waits on this line
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _repo_add(args, out: _Output) -> int:
    store = repo.Repository(args.repo)
    doc = parse_json(read_text(args.file, f"no such file: {args.file}"), f"threat file {args.file}")
    with reading("threat file"):
        records = doc["threats"] if "threats" in doc else [doc]
        added = [store.put_threat(repo.Threat.from_record(r), replace=args.replace) for r in records]
        for rec in doc.get("countermeasures", []):
            store.put_countermeasure(repo.Countermeasure.from_record(rec))
    out.text(f"stored {len(added)} threat(s): {', '.join(added)}")
    out.record("added", ids=added)
    return 0


def _repo_get(args, out: _Output) -> int:
    threat = repo.Repository(args.repo).get_threat(args.id)
    out.text(json.dumps(threat.to_record(), indent=2, sort_keys=True))
    out.record("threat", **threat.to_record())
    return 0


def _repo_search(args, out: _Output) -> int:
    store = repo.Repository(args.repo)
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


def _repo_countermeasures(args, out: _Output) -> int:
    cms = repo.Repository(args.repo).list_countermeasures(args.id)
    for cm in cms:
        out.text(f"{cm.id}  rank={cm.rank_score:<4}  [{cm.format.value}]  {cm.title}")
        out.record("countermeasure", **cm.to_record())
    out.text(f"{len(cms)} countermeasure(s)")
    return 0


def _repo_import(args, out: _Output) -> int:
    store = repo.Repository(args.repo)
    added = store.import_from_model(bpmn.parse_bpmn(read_text(args.file, f"no such file: {args.file}")))
    out.text(f"imported {len(added)} new threat stub(s): {', '.join(added) or '-'}")
    out.record("imported", ids=added)
    return 0


# --- model group ----------------------------------------------------------------

def _model(args) -> bpmn.ProcessModel:
    return bpmn.parse_bpmn(read_text(args.file, f"no such file: {args.file}"))


def _model_validate(args, out: _Output) -> int:
    pm = _model(args)  # parse validates; reaching here means clean
    out.text(f"process {pm.id!r}: valid ({len(pm.nodes)} nodes, {len(pm.flows)} flows)")
    out.record("valid", process=pm.id, nodes=len(pm.nodes), flows=len(pm.flows))
    return 0


def _model_threats(args, out: _Output) -> int:
    refs = sorted(bpmn.list_threat_refs(_model(args)))
    for task_id, threat_id in refs:
        out.text(f"{threat_id}  on task {task_id}")
        out.record("threatRef", taskId=task_id, threatId=threat_id)
    out.text(f"{len(refs)} threat reference(s)")
    return 0


def _model_roundtrip(args, out: _Output) -> int:
    first = _model(args)
    second = bpmn.parse_bpmn(bpmn.serialize(first))
    diffs = bpmn.structural_diff(first, second)
    for d in diffs:
        out.always(d)
    if diffs:
        return 1
    out.text(f"round-trip clean for process {first.id!r}")
    out.record("roundtrip", process=first.id, clean=True)
    return 0


# --- transform group -------------------------------------------------------------

def _transform_srs2bpmn(args, out: _Output) -> int:
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


def _transform_conform(args, out: _Output) -> int:
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


# --- plan group -------------------------------------------------------------------

def _plans(args) -> tuple[scenario.Bundle, list[composition.CompositionPlan]]:
    bundle = scenario.load_bundle(args.bundle)
    return bundle, composition.generate_plans(bundle.process, bundle.registry)


def _ranked_plans(args) -> tuple[scenario.Bundle, list[composition.CompositionPlan]]:
    bundle, plans = _plans(args)
    return bundle, composition.rank_plans(plans, bundle.criteria, bundle.registry)


def _plan_list(args, out: _Output) -> int:
    _, plans = _plans(args)
    for p in plans:
        out.text(p.plan_id)
        out.record("plan", planId=p.plan_id, bindings=dict(p.bindings))
    out.text(f"{len(plans)} plan(s)")
    return 0


def _plan_rank(args, out: _Output) -> int:
    _, ranked = _ranked_plans(args)
    for i, p in enumerate(ranked, start=1):
        out.text(f"{i:>2}. {p.plan_id}  score={p.rank_score:.4f}")
        out.record("rankedPlan", position=i, planId=p.plan_id, score=p.rank_score)
    return 0


def _plan_verify(args, out: _Output) -> int:
    bundle, ranked = _ranked_plans(args)  # the plan-count ceiling fails before --threat is read
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
        verdict = composition.verify_plan(p, bundle.process, bundle.rules, levels)
        status = "pass" if verdict.passed else "FAIL"
        out.text(f"{status}  {p.plan_id}")
        for reason in verdict.reasons:
            out.text(f"      {reason}")
        out.record("verdict", planId=p.plan_id, passed=verdict.passed, reasons=list(verdict.reasons))
        failures += 0 if verdict.passed else 1
    out.text(f"{failures} failing plan(s) of {len(ranked)}")
    return 0


# --- bus group ---------------------------------------------------------------------

def _bus_serve(args, out: _Output) -> int:
    server = bus.BusServer(host=args.host, port=args.port).start()
    out.always(f"notification bus listening on {args.host}:{server.port}")
    sys.stdout.flush()  # a caller reading the port waits on this line
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return 0


def _bus_publish(args, out: _Output) -> int:
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


# --- run group ---------------------------------------------------------------------

def _deploy_bundle(bundle_dir, service_id: str, clock=None):
    bundle = scenario.load_bundle(bundle_dir)
    invoker = scenario.MockInvoker(scenario.load_fixtures(), bundle.mocks, clock=clock)
    return scenario.deploy_bundle(bundle, bus.Broker(), invoker, service_id, clock)


def _run_deploy(args, out: _Output) -> int:
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


def _run_start(args, out: _Output) -> int:
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


def _run_demo(args, out: _Output) -> int:
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


# --- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser of every sub-command; each one's `handler` default runs it."""
    parser = argparse.ArgumentParser(
        prog="threatflow",
        description="Threat-aware composite services: model threats once, "
        "carry their IDs into BPMN, adapt the running service when they escalate.",
    )
    parser.add_argument("--json", action="store_true", help="line-delimited JSON output")
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name: str, summary: str):
        return groups.add_parser(name, help=summary).add_subparsers(dest=f"{name}_cmd", required=True)

    def command(commands, name: str, handler) -> argparse.ArgumentParser:
        sp = commands.add_parser(name)
        sp.set_defaults(handler=handler)
        return sp

    repo_cmds = group("repo", "threat repository")

    def repo_command(name: str, handler) -> argparse.ArgumentParser:
        sp = command(repo_cmds, name, handler)
        sp.add_argument("--repo", required=True, help="repository JSON file")
        return sp

    sp = repo_command("serve", _repo_serve)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8400)
    sp = repo_command("add", _repo_add)
    sp.add_argument("--file", required=True, help="threat record or full document")
    sp.add_argument("--replace", action="store_true")
    repo_command("get", _repo_get).add_argument("id")
    sp = repo_command("search", _repo_search)
    sp.add_argument("--name")
    sp.add_argument("--class", dest="klass", choices=["business", "operational"])
    sp.add_argument("--domain")
    repo_command("countermeasures", _repo_countermeasures).add_argument("id")
    repo_command("import", _repo_import).add_argument(
        "--file", required=True, help="BPMN file to import threat refs from"
    )

    model_cmds = group("model", "BPMN model tooling")
    command(model_cmds, "validate", _model_validate).add_argument("file")
    command(model_cmds, "threats", _model_threats).add_argument("file")
    command(model_cmds, "roundtrip", _model_roundtrip).add_argument("file")

    transform_cmds = group("transform", "SRS transformation and conformity")
    sp = command(transform_cmds, "srs2bpmn", _transform_srs2bpmn)
    sp.add_argument("file")
    sp.add_argument("--map", action="append", help="ref=TaskName (repeatable, in task order)")
    sp.add_argument("--select", action="append", help="threatId@targetRef (repeatable)")
    sp.add_argument("--out", help="write skeleton XML here instead of stdout")
    sp = command(transform_cmds, "conform", _transform_conform)
    sp.add_argument("model")
    sp.add_argument("srs")

    plan_cmds = group("plan", "composition plans")
    command(plan_cmds, "list", _plan_list).add_argument("--bundle", required=True)
    command(plan_cmds, "rank", _plan_rank).add_argument("--bundle", required=True)
    sp = command(plan_cmds, "verify", _plan_verify)
    sp.add_argument("--bundle", required=True)
    sp.add_argument(
        "--threat", action="append",
        help="component:threatId:probability (repeatable)",
    )

    bus_cmds = group("bus", "notification bus")
    sp = command(bus_cmds, "serve", _bus_serve)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8500)
    sp = command(bus_cmds, "publish", _bus_publish)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8500)
    sp.add_argument("--topic", required=True)
    sp.add_argument("--probability", type=float)
    sp.add_argument("--value")
    sp.add_argument("--threat-id")
    sp.add_argument("--publisher-id", default="cli")
    sp.add_argument("--seq", type=int, default=time.time_ns())  # the broker drops a seq at or below its last one

    run_cmds = group("run", "service runtime")
    sp = command(run_cmds, "deploy", _run_deploy)
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--service", default="airport-report")
    sp = command(run_cmds, "start", _run_start)
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--service", default="airport-report")
    sp.add_argument("--var", action="append", help="name=value (repeatable)")
    sp = command(run_cmds, "demo", _run_demo)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--iata", default="FCO")
    sp.add_argument("--bundle", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.handler(args, _Output(as_json=args.json))
        except ThreatflowError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = exc.exit_code
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # later writes, and the flush at exit, go nowhere (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code
