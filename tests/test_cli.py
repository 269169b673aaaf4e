import json
import shutil
import subprocess
import sys
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
