import argparse
import json
import os
import select
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from threatflow import bus, cli
from threatflow.scenario import DEMO_BUNDLE_DIR

FIXTURES = Path(__file__).parent.parent / "src" / "threatflow" / "fixtures"
BUNDLE = str(DEMO_BUNDLE_DIR)
PROCESS = str(DEMO_BUNDLE_DIR / "process.bpmn")


def run_cli(*argv):
    return cli.main(list(argv))


def test_model_validate_and_threats(capsys):
    assert run_cli("model", "validate", PROCESS) == 0
    assert run_cli("model", "threats", PROCESS) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "T-DDOS-COMP  on task task-map" in out


def test_model_roundtrip_demo_process(capsys):
    assert run_cli("model", "roundtrip", PROCESS) == 0
    assert "round-trip clean" in capsys.readouterr().out


def test_model_missing_file_exit_code():
    assert run_cli("model", "validate", "/no/such/file.bpmn") == 3


def test_model_malformed_xml_exit_code(tmp_path):
    bad = tmp_path / "bad.bpmn"
    bad.write_text("<definitions><oops")
    assert run_cli("model", "validate", str(bad)) == 5


def test_model_unsupported_construct_exit_code(tmp_path):
    doc = tmp_path / "unsupported.bpmn"
    doc.write_text(
        """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
          <process id="p"><startEvent id="s"/><userTask id="u"/><endEvent id="e"/>
          <sequenceFlow id="f1" sourceRef="s" targetRef="u"/>
          <sequenceFlow id="f2" sourceRef="u" targetRef="e"/></process>
        </definitions>"""
    )
    assert run_cli("model", "validate", str(doc)) == 6


def test_plan_list_and_rank(capsys):
    assert run_cli("plan", "list", "--bundle", BUNDLE) == 0
    out = capsys.readouterr().out
    assert "2 plan(s)" in out
    assert run_cli("plan", "rank", "--bundle", BUNDLE) == 0
    out = capsys.readouterr().out
    assert out.index("mapA") < out.index("mapB")  # mapA plan ranks first


def test_plan_verify_flags_threatened_component(capsys):
    code = run_cli(
        "plan", "verify", "--bundle", BUNDLE,
        "--threat", "mapA:T-DDOS-COMP:0.8",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" in out and "pass" in out
    assert "1 failing plan(s) of 2" in out


def test_plan_verify_bad_spec_exit_code():
    assert run_cli("plan", "verify", "--bundle", BUNDLE, "--threat", "nonsense") == 2


def test_json_mode_emits_machine_records(capsys):
    assert run_cli("--json", "plan", "rank", "--bundle", BUNDLE) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert [l["record"] for l in lines] == ["rankedPlan", "rankedPlan"]
    assert lines[0]["position"] == 1
    assert "mapA" in lines[0]["planId"]


def test_transform_conform_missing_threats_exit_1(tmp_path, capsys):
    srs_path = FIXTURES / "demo.srs"
    code = run_cli("transform", "conform", PROCESS, str(srs_path))
    assert code == 1
    out = capsys.readouterr().out
    assert "missing:" in out


def test_transform_srs2bpmn_produces_parseable_model(tmp_path, capsys):
    out_file = tmp_path / "skeleton.bpmn"
    code = run_cli(
        "transform", "srs2bpmn", str(FIXTURES / "demo.srs"),
        "--map", "tx-map=Deliver map",
        "--select", "T-UNAVAIL@tx-map",
        "--out", str(out_file),
    )
    assert code == 0
    assert run_cli("model", "validate", str(out_file)) == 0
    capsys.readouterr()
    assert run_cli("transform", "conform", str(out_file), str(FIXTURES / "demo.srs")) == 1
    out = capsys.readouterr().out
    assert "missing: T-AG-DOS" in out  # carried only T-UNAVAIL


def test_repo_commands_roundtrip(tmp_path, capsys):
    repo_path = str(tmp_path / "repo.json")
    record = tmp_path / "threat.json"
    record.write_text(json.dumps({
        "id": "T-CLI", "name": "CLI threat", "class": "operational",
        "domains": ["Testing"], "description": "",
    }))
    assert run_cli("repo", "add", "--repo", repo_path, "--file", str(record)) == 0
    assert run_cli("repo", "get", "T-CLI", "--repo", repo_path) == 0
    assert json.loads(capsys.readouterr().out.split("stored", 1)[0] or "{}") or True
    assert run_cli("repo", "search", "--repo", repo_path, "--name", "cli") == 0
    assert "1 match(es)" in capsys.readouterr().out
    assert run_cli("repo", "get", "T-GHOST", "--repo", repo_path) == 3
    assert run_cli("repo", "import", "--repo", repo_path, "--file", PROCESS) == 0
    assert "T-DDOS-COMP" in capsys.readouterr().out


def test_repo_add_conflict_exit_code(tmp_path):
    repo_path = str(tmp_path / "repo.json")
    record = tmp_path / "threat.json"
    record.write_text(json.dumps({"id": "T-CLI", "name": "One", "class": "operational"}))
    assert run_cli("repo", "add", "--repo", repo_path, "--file", str(record)) == 0
    record.write_text(json.dumps({"id": "T-CLI", "name": "Two", "class": "operational"}))
    assert run_cli("repo", "add", "--repo", repo_path, "--file", str(record)) == 4
    assert run_cli("repo", "add", "--repo", repo_path, "--file", str(record), "--replace") == 0


def test_run_deploy_and_start(capsys):
    assert run_cli("run", "deploy", "--bundle", BUNDLE) == 0
    out = capsys.readouterr().out
    assert "2 plans" in out
    assert "subscribed: threat-level-change.mapA" in out
    assert run_cli("run", "start", "--bundle", BUNDLE, "--var", "iata=OSL") == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert '"iata": "OSL"' in out


def test_run_start_unknown_airport_exit_code():
    assert run_cli("run", "start", "--bundle", BUNDLE, "--var", "iata=QQQ") == 3


def test_run_demo_text_and_json(capsys):
    assert run_cli("run", "demo", "--seed", "7") == 0
    text = capsys.readouterr().out
    assert "injected: T-DDOS-COMP on mapA" in text
    assert run_cli("--json", "run", "demo", "--seed", "7") == 0
    records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    kinds = {r["record"] for r in records}
    assert kinds == {"report", "event"}
    assert sum(1 for r in records if r["record"] == "report") == 2


@pytest.mark.parametrize("flags, golden", [([], "demo_transcript.txt"), (["--json"], "demo_transcript.jsonl")],
                         ids=["text", "json"])
def test_demo_transcript_matches_the_golden_file(flags, golden):
    proc = subprocess.run(
        [sys.executable, "-m", "threatflow", *flags, "run", "demo"],
        capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (Path(__file__).parent / "fixtures" / golden).read_bytes()


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "threatflow", "plan", "list", "--bundle", BUNDLE],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "2 plan(s)" in proc.stdout


def test_conform_clean_on_fully_selected_skeleton(tmp_path, capsys):
    out_file = tmp_path / "skeleton.bpmn"
    code = run_cli(
        "transform", "srs2bpmn", str(FIXTURES / "demo.srs"),
        "--map", "tx-map=Deliver map",
        "--map", "a-swim=Reach access point",
        "--map", "g-located=Locate airport",
        "--select", "T-UNAVAIL@tx-map",
        "--select", "T-AG-DOS@a-swim",
        "--select", "T-FALSE-COORDS@g-located",
        "--out", str(out_file),
    )
    assert code == 0
    capsys.readouterr()
    assert run_cli("transform", "conform", str(out_file), str(FIXTURES / "demo.srs")) == 0
    assert "missing" not in capsys.readouterr().out


def test_demo_json_is_deterministic_modulo_timestamps(capsys):
    def one_run():
        assert run_cli("--json", "run", "demo", "--seed", "7") == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        for rec in lines:
            rec.pop("at", None)
        return lines

    assert one_run() == one_run()


def test_repeated_bus_publish_reaches_the_subscriber_each_time(capsys):
    server = bus.BusServer().start()
    try:
        server.broker.subscribe(bus.Subscription("sre", "threat-level-change.*"))
        for _ in range(2):
            assert run_cli("bus", "publish", "--port", str(server.port),
                           "--topic", "threat-level-change.mapA",
                           "--probability", "0.9", "--threat-id", "T-DOS") == 0
        assert capsys.readouterr().out.count("delivered to 1 subscriber(s)") == 2
        assert server.broker.pending("sre") == 2
    finally:
        server.stop()



def _bundle_with(tmp_path, name, content: bytes) -> str:
    bundle = tmp_path / "bundle"
    shutil.copytree(DEMO_BUNDLE_DIR, bundle)
    (bundle / name).write_bytes(content)
    return str(bundle)


def _file_with(tmp_path, name, content: bytes) -> str:
    (tmp_path / name).write_bytes(content)
    return str(tmp_path / name)


MALFORMED_INPUTS = {
    "criteria-weight-text": (2, lambda tmp: [
        "plan", "rank", "--bundle",
        _bundle_with(tmp, "ranking.criteria", b'{"wTrust": "high", "wQos": 0.3, "wCost": 0.1}'),
    ]),
    "model-not-utf8": (5, lambda tmp: [
        "model", "validate", _file_with(tmp, "p.bpmn", Path(PROCESS).read_bytes() + b"\xff"),
    ]),
    "bundle-not-utf8": (5, lambda tmp: [
        "plan", "rank", "--bundle",
        _bundle_with(tmp, "components.registry", (DEMO_BUNDLE_DIR / "components.registry").read_bytes() + b"\xff"),
    ]),
    "repo-add-truncated": (5, lambda tmp: [
        "repo", "add", "--repo", str(tmp / "repo.json"),
        "--file", _file_with(tmp, "t.json", b'{"id": "T-X", "class"'),
    ]),
    "verify-probability-text": (2, lambda tmp: [
        "plan", "verify", "--bundle", BUNDLE, "--threat", "mapA:T-DDOS-COMP:high",
    ]),
    "verify-probability-nan": (2, lambda tmp: [
        "plan", "verify", "--bundle", BUNDLE, "--threat", "mapA:T-DDOS-COMP:nan",
    ]),
    "verify-probability-above-one": (2, lambda tmp: [
        "plan", "verify", "--bundle", BUNDLE, "--threat", "mapA:T-DDOS-COMP:7",
    ]),
    "repo-add-links-string": (2, lambda tmp: [
        "repo", "add", "--repo", str(tmp / "repo.json"),
        "--file", _file_with(tmp, "t.json", b'{"id": "T-X", "class": "business", "links": "http://x"}'),
    ]),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_with_its_code_and_a_one_line_diagnostic(tmp_path, case):
    code, argv = MALFORMED_INPUTS[case]
    proc = subprocess.run(
        [sys.executable, "-m", "threatflow", *argv(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


# --- exact output pins: stdout, stderr and exit code, as text and as --json ---------

SKIPPED = "threat 'T-AG-DOS' targets 'a-swim' which is not mapped to a task; skipped"
UNHANDLED = "component 'geo-1' failed with unhandled error 'T-BOOM'"


def _repo_with_countermeasures(tmp):
    path = tmp / "repo.json"
    path.write_text(json.dumps({
        "threats": [{"id": "T-X", "name": "X threat", "class": "business"}],
        "countermeasures": [
            {"id": "cm-2", "threatId": "T-X", "title": "Second", "rankScore": 0.4},
            {"id": "cm-1", "threatId": "T-X", "title": "First", "format": "link", "rankScore": 0.9},
        ],
    }))
    return str(path)


def _failing_bundle(tmp):
    mocks = json.loads((DEMO_BUNDLE_DIR / "mocks.json").read_text())
    mocks["components"]["geo-1"]["behavior"] = {"kind": "failWithError", "errorId": "T-BOOM"}
    return _bundle_with(tmp, "mocks.json", json.dumps(mocks).encode())


def _bundle_over_the_plan_ceiling(tmp):
    registry = json.loads((DEMO_BUNDLE_DIR / "components.registry").read_text())
    for task, candidates in registry["tasks"].items():  # 7 ** 5 plans
        registry["tasks"][task] = [dict(candidates[0], id=f"{task}-{k}") for k in range(7)]
    return _bundle_with(tmp, "components.registry", json.dumps(registry).encode())


def _rename_on_serialize(monkeypatch):
    real = cli.bpmn.serialize
    monkeypatch.setattr(cli.bpmn, "serialize", lambda pm: real(replace(pm, name="renamed")))


# name: (argv, setup, exit code, text stdout, --json stdout, stderr)
PINS = {
    "repo-add-countermeasures": (
        lambda tmp: ["repo", "add", "--repo", str(tmp / "repo.json"), "--file", _file_with(tmp, "doc.json", json.dumps({
            "threats": [{"id": "T-X", "name": "X threat", "class": "business"}],
            "countermeasures": [{"id": "cm-1", "threatId": "T-X", "title": "First", "rankScore": 0.9}],
        }).encode())],
        None, 0,
        "stored 1 threat(s): T-X\n",
        '{"ids": ["T-X"], "record": "added"}\n',
        "",
    ),
    "repo-countermeasures": (
        lambda tmp: ["repo", "countermeasures", "T-X", "--repo", _repo_with_countermeasures(tmp)],
        None, 0,
        "cm-1  rank=0.9   [link]  First\ncm-2  rank=0.4   [text]  Second\n2 countermeasure(s)\n",
        '{"description": "", "format": "link", "id": "cm-1", "rankScore": 0.9, "record": "countermeasure",'
        ' "threatId": "T-X", "title": "First"}\n'
        '{"description": "", "format": "text", "id": "cm-2", "rankScore": 0.4, "record": "countermeasure",'
        ' "threatId": "T-X", "title": "Second"}\n',
        "",
    ),
    "model-roundtrip-diff": (
        lambda tmp: ["model", "roundtrip", PROCESS],
        _rename_on_serialize, 1,
        "process name 'Airport report' != 'renamed'\n",
        "process name 'Airport report' != 'renamed'\n",
        "",
    ),
    "srs2bpmn-stdout-warning": (
        lambda tmp: ["transform", "srs2bpmn", str(FIXTURES / "demo.srs"),
                     "--map", "tx-map=Deliver map", "--select", "T-AG-DOS@a-swim"],
        None, 0,
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" xmlns:ext="urn:x-threatflow:bpmn"'
        ' targetNamespace="urn:x-threatflow:process">\n'
        '  <process id="skeleton" isExecutable="true">\n'
        '    <startEvent id="start" />\n'
        '    <serviceTask id="task-tx-map" name="Deliver map" />\n'
        '    <endEvent id="end" />\n'
        '    <sequenceFlow id="flow-1" sourceRef="start" targetRef="task-tx-map" />\n'
        '    <sequenceFlow id="flow-2" sourceRef="task-tx-map" targetRef="end" />\n'
        "  </process>\n"
        "</definitions>\n"
        f"warning: {SKIPPED}\n",
        f"warning: {SKIPPED}\n"
        + json.dumps({"boundaries": 0, "record": "skeleton", "tasks": 1, "warnings": [SKIPPED]}) + "\n",
        "",
    ),
    "var-malformed": (
        lambda tmp: ["run", "start", "--bundle", BUNDLE, "--var", "iata"],
        None, 2, "", "", "ValidationError: --var expects name=value, got 'iata'\n",
    ),
    "map-malformed": (
        lambda tmp: ["transform", "srs2bpmn", str(FIXTURES / "demo.srs"), "--map", "tx-map"],
        None, 2, "", "", "ValidationError: --map expects ref=TaskName, got 'tx-map'\n",
    ),
    "select-malformed": (
        lambda tmp: ["transform", "srs2bpmn", str(FIXTURES / "demo.srs"), "--select", "T-AG-DOS"],
        None, 2, "", "", "ValidationError: --select expects threatId@targetRef, got 'T-AG-DOS'\n",
    ),
    "publish-three-segments": (
        lambda tmp: ["bus", "publish", "--topic", "a.b.c"],
        None, 2, "", "", "ValidationError: topic 'a.b.c' must be '<event-type>.<subject>'\n",
    ),
    "publish-malformed-before-connecting": (
        lambda tmp: ["bus", "publish", "--topic", "threat-level-change.mapA", "--probability", "1.5",
                     "--threat-id", "T-X"],
        None, 2, "", "", "ValidationError: probability 1.5 outside [0,1]\n",
    ),
    "run-start-failing-instance": (
        lambda tmp: ["run", "start", "--bundle", _failing_bundle(tmp), "--var", "iata=OSL"],
        None, 1,
        f"instance i1: failed\nerror: {UNHANDLED}\n",
        f"error: {UNHANDLED}\n"
        + json.dumps({"error": UNHANDLED, "id": "i1", "outcome": "failed", "record": "instance"}) + "\n",
        "",
    ),
    "verify-ceiling-before-threat": (
        lambda tmp: ["plan", "verify", "--bundle", _bundle_over_the_plan_ceiling(tmp), "--threat", "nonsense"],
        None, 9, "", "",
        "PlanCountExceededError: 16807 plans exceed the ceiling of 10000\n",
    ),
}


@pytest.mark.parametrize("case", PINS)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_command_output_is_pinned(tmp_path, monkeypatch, capsys, case, as_json):
    argv, setup, code, text, records, err = PINS[case]
    if setup is not None:
        setup(monkeypatch)
    assert run_cli(*(["--json"] if as_json else []), *argv(tmp_path)) == code
    assert capsys.readouterr() == (records if as_json else text, err)


def test_every_command_is_declared_with_a_handler():
    groups = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {}
    for group, group_parser in groups.choices.items():
        sub = next(a for a in group_parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, command_parser in sub.choices.items():
            commands[f"{group} {name}"] = command_parser.get_default("handler")
    assert len(commands) == 19
    assert all(callable(handler) for handler in commands.values()), commands


@pytest.mark.parametrize("argv, banner", [
    (["repo", "serve", "--port", "0"], "threat repository listening on http://127.0.0.1:"),
    (["bus", "serve", "--port", "0"], "notification bus listening on 127.0.0.1:"),
], ids=["repo", "bus"])
def test_serve_prints_its_listening_line(tmp_path, argv, banner):
    if argv[0] == "repo":
        argv = argv + ["--repo", str(tmp_path / "repo.json")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout on a pipe is block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "threatflow", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        line = proc.stdout.readline() if ready else ""
    finally:
        proc.terminate()
        proc.communicate(timeout=30)
    assert line.startswith(banner) and int(line[len(banner):].rstrip("/\n")) > 0, line


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)  # the empty string leaves stdout buffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "threatflow", "--json", "run", "demo"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
