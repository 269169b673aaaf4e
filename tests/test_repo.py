import json
import threading
import urllib.error
import urllib.request

import pytest

from threatflow import bpmn, repo
from threatflow.errors import ConflictError, NotFoundError, ParseError, ValidationError


def sample_threat(tid="T-DOS", name="Denial of service", cls=repo.ThreatClass.OPERATIONAL):
    return repo.Threat(
        id=tid,
        name=name,
        threat_class=cls,
        domains=frozenset({"Air Traffic Management"}),
        description="Flood a component with traffic.",
    )


def test_put_and_get_roundtrip(tmp_path):
    store = repo.Repository(tmp_path / "repo.json")
    store.put_threat(sample_threat())
    got = store.get_threat("T-DOS")
    assert got.name == "Denial of service"
    assert got.threat_class is repo.ThreatClass.OPERATIONAL


def test_put_persists_across_instances(tmp_path):
    path = tmp_path / "repo.json"
    repo.Repository(path).put_threat(sample_threat())
    assert repo.Repository(path).get_threat("T-DOS").id == "T-DOS"


def test_identical_reput_is_idempotent_conflicting_is_rejected(tmp_path):
    store = repo.Repository(tmp_path / "repo.json")
    t = sample_threat()
    store.put_threat(t)
    store.put_threat(t)  # same content, no error
    changed = repo.Threat(
        id=t.id, name="Different", threat_class=t.threat_class, domains=t.domains
    )
    with pytest.raises(ConflictError):
        store.put_threat(changed)
    store.put_threat(changed, replace=True)
    assert store.get_threat("T-DOS").name == "Different"


def test_get_unknown_and_empty_id():
    store = repo.Repository()
    with pytest.raises(NotFoundError):
        store.get_threat("T-NOPE")
    with pytest.raises(ValidationError):
        store.get_threat("")


def test_search_filters_and_orders():
    store = repo.Repository()
    store.put_threat(sample_threat("T-B", "Bravo threat"))
    store.put_threat(sample_threat("T-A", "Alpha threat"))
    store.put_threat(sample_threat("T-C", "Gamma", cls=repo.ThreatClass.BUSINESS))
    all_hits = store.search(repo.ThreatQuery())
    assert [t.name for t in all_hits] == ["Alpha threat", "Bravo threat", "Gamma"]
    assert [t.id for t in store.search(repo.ThreatQuery(name_substring="ALPHA"))] == ["T-A"]
    assert [t.id for t in store.search(repo.ThreatQuery(threat_class=repo.ThreatClass.BUSINESS))] == ["T-C"]
    assert store.search(repo.ThreatQuery(domain="No Such Domain")) == []


def test_countermeasures_ordered_by_rank_then_id(tmp_path):
    store = repo.Repository(tmp_path / "repo.json")
    store.put_threat(sample_threat())
    for cid, rank in (("cm-low", 0.2), ("cm-b", 0.9), ("cm-a", 0.9)):
        store.put_countermeasure(
            repo.Countermeasure(
                id=cid, threat_id="T-DOS", title=cid, description="",
                format=repo.CountermeasureFormat.TEXT, rank_score=rank,
            )
        )
    assert [c.id for c in store.list_countermeasures("T-DOS")] == ["cm-a", "cm-b", "cm-low"]
    with pytest.raises(NotFoundError):
        store.put_countermeasure(
            repo.Countermeasure(
                id="cm-x", threat_id="T-GHOST", title="x", description="",
                format=repo.CountermeasureFormat.TEXT, rank_score=0.5,
            )
        )


def test_import_from_model_creates_stubs_once():
    store = repo.Repository()
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="s"),
            bpmn.ServiceTask(id="t1"),
            bpmn.EndEvent(id="e"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="s", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="e"),
        ),
    )
    pm = bpmn.attach_threat(pm, "t1", "T-NEW")
    assert store.import_from_model(pm) == ["T-NEW"]
    assert store.import_from_model(pm) == []  # already known
    stub = store.get_threat("T-NEW")
    assert stub.threat_class is repo.ThreatClass.OPERATIONAL
    assert stub.name == "T-NEW"


def test_audit_reports_dangling_related():
    store = repo.Repository()
    t = repo.Threat(
        id="T-A", name="A", threat_class=repo.ThreatClass.OPERATIONAL,
        domains=frozenset(), related=("T-MISSING",),
    )
    store.put_threat(t)
    findings = store.audit()
    assert any("T-MISSING" in f for f in findings)
    assert len(store) == 1  # audit never mutates


def test_threat_record_roundtrip_uses_class_key():
    t = sample_threat()
    rec = t.to_record()
    assert rec["class"] == "operational"
    assert repo.Threat.from_record(rec) == t


@pytest.fixture()
def http_repo(tmp_path):
    store = repo.Repository(tmp_path / "repo.json")
    store.put_threat(sample_threat())
    server = repo.make_server(store)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    yield store, f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as r:
        return r.status, json.loads(r.read())


def test_http_get_search_and_countermeasures(http_repo):
    store, base = http_repo
    status, body = _get(f"{base}/threats/T-DOS")
    assert (status, body["id"]) == (200, "T-DOS")
    status, body = _get(f"{base}/threats?name=denial")
    assert [t["id"] for t in body] == ["T-DOS"]
    status, body = _get(f"{base}/threats/T-DOS/countermeasures")
    assert (status, body) == (200, [])


def test_http_unknown_threat_is_404(http_repo):
    _, base = http_repo
    with pytest.raises(urllib.error.HTTPError) as exc:
        _get(f"{base}/threats/T-GHOST")
    exc.value.close()  # the error response holds the connection open
    assert exc.value.code == 404


def test_http_put_mismatched_id_is_400(http_repo):
    _, base = http_repo
    body = json.dumps({"id": "T-OTHER", "name": "x", "class": "operational"}).encode()
    req = urllib.request.Request(
        f"{base}/threats/T-DOS", data=body, method="PUT",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=5)
    exc.value.close()  # the error response holds the connection open
    assert exc.value.code == 400


def test_http_put_conflict_is_409(http_repo):
    store, base = http_repo
    body = json.dumps({"id": "T-DOS", "name": "Changed", "class": "operational"}).encode()
    req = urllib.request.Request(f"{base}/threats/T-DOS", data=body, method="PUT")
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=5)
    exc.value.close()  # the error response holds the connection open
    assert exc.value.code == 409


def test_http_import_bpmn(http_repo):
    store, base = http_repo
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="s"),
            bpmn.ServiceTask(id="t1"),
            bpmn.EndEvent(id="e"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="s", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="e"),
        ),
    )
    pm = bpmn.attach_threat(pm, "t1", "T-IMPORTED")
    req = urllib.request.Request(
        f"{base}/import", data=bpmn.serialize(pm).encode(), method="POST"
    )
    with urllib.request.urlopen(req, timeout=5) as r:
        assert json.loads(r.read()) == {"added": ["T-IMPORTED"]}
    assert store.get_threat("T-IMPORTED").id == "T-IMPORTED"


@pytest.mark.parametrize("method, path, body, headers", [
    ("PUT", "/threats/T-X", b'{"id": "T-X\xff", "class": "business"}', {}),
    ("PUT", "/threats/T-X", b"[1]", {}),
    ("PUT", "/threats/T-X", b'{"id": "T-X", "class": "business", "domains": 5}', {}),
    ("PUT", "/threats/T-X", b'{"id": "T-X", "class": "business", "domains": "ATM"}', {}),
    ("POST", "/import", b"<definitions \xff/>", {}),
    ("PUT", "/threats/T-X", b"{}", {"Content-Length": "abc"}),
], ids=["put-not-utf8", "put-list", "put-domains-int", "put-domains-string", "import-not-utf8",
        "content-length-text"])
def test_http_malformed_request_is_400(http_repo, method, path, body, headers):
    _, base = http_repo
    req = urllib.request.Request(f"{base}{path}", data=body, method=method, headers=headers)
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=5)
    exc.value.close()  # the error response holds the connection open
    assert exc.value.code == 400


@pytest.mark.parametrize("make, rec", [
    (repo.Threat.from_record, [1]),
    (repo.Threat.from_record, {"id": "T-X", "class": "business", "domains": 5}),
    (repo.Threat.from_record, {"id": 5, "class": "business"}),
    (repo.Threat.from_record, {"id": "T-X", "class": "business", "domains": "ATM"}),
    (repo.Threat.from_record, {"id": "T-X", "class": "business", "links": "http://x"}),
    (repo.Threat.from_record, {"id": "T-X", "class": "business", "related": "T-Y"}),
    (repo.Threat.from_record, {"id": "T-X", "class": "business", "links": ["http://x", 5]}),
    (repo.Countermeasure.from_record, {"id": "cm", "threatId": "T-X", "rankScore": [1]}),
], ids=["threat-list", "threat-domains-int", "threat-id-int", "threat-domains-string", "threat-links-string",
        "threat-related-string", "threat-links-int-item", "countermeasure-rank-list"])
def test_malformed_records_raise_validation_error(make, rec):
    with pytest.raises(ValidationError):
        make(rec)


@pytest.mark.parametrize("content, error", [
    (b"[]", ValidationError),
    (b'{"threats": [{"id": "T-X", "class": "business"}]}\xff', ParseError),
], ids=["list", "not-utf8"])
def test_malformed_repository_file_raises(tmp_path, content, error):
    path = tmp_path / "repo.json"
    path.write_bytes(content)
    with pytest.raises(error):
        repo.Repository(path)


def test_put_threat_with_empty_id_is_rejected():
    with pytest.raises(ValidationError):
        repo.Repository().put_threat(sample_threat(tid=""))


def test_search_empty_substring_matches_everything():
    store = repo.Repository()
    store.put_threat(sample_threat("T-A", "Alpha"))
    store.put_threat(sample_threat("T-B", "Bravo"))
    assert len(store.search(repo.ThreatQuery(name_substring=""))) == 2


def test_bundled_catalogue_search_by_domain():
    from threatflow.scenario import FIXTURES_DIR

    store = repo.Repository()
    doc = json.loads((FIXTURES_DIR / "threats.json").read_text())
    for rec in doc["threats"]:
        store.put_threat(repo.Threat.from_record(rec))
    names = {t.name for t in store.search(repo.ThreatQuery(domain="Air Traffic Management"))}
    assert "A/G SWIM Access Point Denial of Service" in names
    assert "Gain access to server" in names
    got = store.get_threat("T-AG-DOS")
    assert got.name == "A/G SWIM Access Point Denial of Service"
    assert got.threat_class is repo.ThreatClass.OPERATIONAL


def test_class_filter_matches_linear_scan_oracle():
    store = repo.Repository()
    seeded = []
    for i in range(10):
        cls = repo.ThreatClass.BUSINESS if i % 3 == 0 else repo.ThreatClass.OPERATIONAL
        t = sample_threat(f"T-{i:02d}", f"Threat number {i}", cls)
        seeded.append(t)
        store.put_threat(t)
    oracle = sorted(
        (t for t in seeded if t.threat_class is repo.ThreatClass.BUSINESS),
        key=lambda t: (t.name, t.id),
    )
    assert store.search(repo.ThreatQuery(threat_class=repo.ThreatClass.BUSINESS)) == oracle


def test_countermeasure_ties_match_sort_oracle():
    store = repo.Repository()
    store.put_threat(sample_threat())
    scores = {"cm-f": 0.9, "cm-a": 0.7, "cm-e": 0.7, "cm-b": 0.4, "cm-d": 0.4, "cm-c": 0.1}
    cms = [
        repo.Countermeasure(id=cid, threat_id="T-DOS", title=f"Mitigation {cid}", rank_score=s)
        for cid, s in scores.items()
    ]
    for cm in cms:
        store.put_countermeasure(cm)
    oracle = sorted(cms, key=lambda cm: (-cm.rank_score, cm.id))
    assert store.list_countermeasures("T-DOS") == oracle
    assert [cm.id for cm in oracle] == ["cm-f", "cm-a", "cm-e", "cm-b", "cm-d", "cm-c"]


def test_import_adds_exactly_the_unknown_refs(tmp_path):
    store = repo.Repository(tmp_path / "repo.json")
    store.put_threat(sample_threat("T-KNOWN", "Already catalogued"))
    pm = bpmn.ProcessModel(
        id="p",
        nodes=(
            bpmn.StartEvent(id="s"),
            bpmn.ServiceTask(id="t1"),
            bpmn.ServiceTask(id="t2"),
            bpmn.EndEvent(id="e"),
        ),
        flows=(
            bpmn.SequenceFlow(id="f1", from_node="s", to_node="t1"),
            bpmn.SequenceFlow(id="f2", from_node="t1", to_node="t2"),
            bpmn.SequenceFlow(id="f3", from_node="t2", to_node="e"),
        ),
    )
    for task, ref in [("t1", "T-KNOWN"), ("t1", "T-NEW-1"), ("t2", "T-NEW-2")]:
        pm = bpmn.attach_threat(pm, task, ref)
    model_refs = {ref for _, ref in bpmn.list_threat_refs(pm)}
    known_before = {t.id for t in store.all_threats()}
    added = store.import_from_model(pm)
    assert set(added) == model_refs - known_before == {"T-NEW-1", "T-NEW-2"}
    assert store.get_threat("T-NEW-1").name == "T-NEW-1"  # stub carries id as name
