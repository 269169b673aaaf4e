import json

import pytest

from threatflow import bpmn, srs
from threatflow.errors import DanglingReferenceError, ParseError, ValidationError

SAMPLE = {
    "actors": [{"id": "a-pilot", "name": "Pilot"}, {"id": "a-provider", "name": "Provider"}],
    "goals": [
        {"id": "g-report", "name": "Airport report", "ownerActor": "a-pilot", "delegatedTo": "a-provider"},
        {"id": "g-located", "name": "Airport located", "ownerActor": "a-provider"},
    ],
    "transmissions": [
        {"id": "tx-map", "documentName": "Airport map", "fromActor": "a-provider", "toActor": "a-pilot"}
    ],
    "threats": [
        {"threatId": "T-DOS", "name": "Denial of service", "targetRef": "tx-map"},
        {"threatId": "T-SPOOF", "name": "False coordinates", "targetRef": "g-located"},
    ],
    "commitments": [{"id": "c-1", "text": "Provider commits to deliver", "relatedRef": "g-report"}],
}


def sample_doc():
    return srs.load_srs(json.dumps(SAMPLE))


def test_load_dump_roundtrip():
    doc = sample_doc()
    assert srs.load_srs(srs.dump_srs(doc)) == doc


def test_empty_text_is_empty_document():
    doc = srs.load_srs("")
    assert doc == srs.SrsDocument()
    assert doc.threat_ids() == set()


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as exc:
        srs.load_srs("{not json")
    assert exc.value.position == (1, 2)


@pytest.mark.parametrize("raw, error", [
    (dict(SAMPLE, goals=[{"id": "g-1", "ownerActor": ["a-pilot"]}]), ParseError),
    (dict(SAMPLE, threats=[{"threatId": ["T-X"], "targetRef": "tx-map"}]), ValidationError),
], ids=["owner-list", "threat-id-list"])
def test_malformed_srs_records_raise_threatflow_errors(raw, error):
    with pytest.raises(error):
        srs.load_srs(json.dumps(raw))


def test_dangling_threat_target_rejected():
    raw = dict(SAMPLE, threats=[{"threatId": "T-X", "targetRef": "nowhere"}])
    with pytest.raises(DanglingReferenceError):
        srs.load_srs(json.dumps(raw))


def test_dangling_delegation_rejected():
    raw = dict(SAMPLE, goals=[{"id": "g-1", "ownerActor": "a-pilot", "delegatedTo": "a-ghost"}])
    with pytest.raises(DanglingReferenceError):
        srs.load_srs(json.dumps(raw))


def test_selection_must_reference_existing_pairs():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-DOS", "g-located")}),  # wrong target for T-DOS
        task_mapping=(("g-located", "Locate airport"),),
    )
    with pytest.raises(ValidationError):
        srs.validate_selection(doc, sel)


def test_mapping_rejects_duplicates_and_empty_names():
    doc = sample_doc()
    with pytest.raises(ValidationError):
        srs.validate_selection(
            doc,
            srs.ThreatSelection(task_mapping=(("tx-map", "A"), ("tx-map", "B"))),
        )
    with pytest.raises(ValidationError):
        srs.validate_selection(doc, srs.ThreatSelection(task_mapping=(("tx-map", ""),)))


def test_transform_builds_linear_skeleton_in_mapping_order():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-DOS", "tx-map"), ("T-SPOOF", "g-located")}),
        task_mapping=(("g-located", "Locate airport"), ("tx-map", "Deliver map")),
    )
    result = srs.transform_to_skeleton(doc, sel)
    pm = result.model
    assert result.warnings == ()
    assert [t.id for t in pm.service_tasks()] == ["task-g-located", "task-tx-map"]
    order = [n.id for n in bpmn.document_order(pm) if isinstance(n, bpmn.ServiceTask)]
    assert order == ["task-g-located", "task-tx-map"]
    assert bpmn.list_threat_refs(pm) == {
        ("task-tx-map", "T-DOS"),
        ("task-g-located", "T-SPOOF"),
    }
    assert bpmn.validate(pm) == []


def test_transform_warns_on_unmapped_chosen_threat():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-DOS", "tx-map"), ("T-SPOOF", "g-located")}),
        task_mapping=(("tx-map", "Deliver map"),),  # g-located not mapped
    )
    result = srs.transform_to_skeleton(doc, sel)
    assert len(result.warnings) == 1
    assert "T-SPOOF" in result.warnings[0]
    assert bpmn.list_threat_refs(result.model) == {("task-tx-map", "T-DOS")}


def test_conformity_reports_exact_id_differences():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-DOS", "tx-map")}),
        task_mapping=(("tx-map", "Deliver map"),),
    )
    pm = srs.transform_to_skeleton(doc, sel).model
    report = srs.check_conformity(pm, doc)
    assert report.missing_threat_ids == frozenset({"T-SPOOF"})
    assert report.notes  # the ID-only matching caveat accompanies any miss


def test_conformity_clean_when_all_threats_carried():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-DOS", "tx-map"), ("T-SPOOF", "g-located")}),
        task_mapping=(("g-located", "Locate airport"), ("tx-map", "Deliver map")),
    )
    pm = srs.transform_to_skeleton(doc, sel).model
    report = srs.check_conformity(pm, doc)
    assert report.missing_threat_ids == frozenset()
    assert report.notes == ()


def test_conformity_caveat_mentions_id_matching():
    report = srs.check_conformity(
        bpmn.ProcessModel(id="p"), srs.load_srs(json.dumps(SAMPLE))
    )
    assert report.missing_threat_ids == {"T-DOS", "T-SPOOF"}
    assert any("ID" in n or "id" in n for n in report.notes)


def test_bundled_requirements_document_shape():
    from threatflow.scenario import FIXTURES_DIR

    doc = srs.load_srs((FIXTURES_DIR / "demo.srs").read_text())
    assert len(doc.actors) == 3
    assert doc.threat_ids() >= {"T-UNAVAIL", "T-AG-DOS", "T-FALSE-COORDS"}
    names = {t.name for t in doc.threats}
    assert "Unavailable component" in names


def test_bundled_unavailable_threat_lands_on_map_task():
    from threatflow.scenario import FIXTURES_DIR

    doc = srs.load_srs((FIXTURES_DIR / "demo.srs").read_text())
    sel = srs.ThreatSelection(
        chosen=frozenset({("T-UNAVAIL", "tx-map")}),
        task_mapping=(("tx-map", "Map plotting"),),
    )
    result = srs.transform_to_skeleton(doc, sel)
    task = next(t for t in result.model.service_tasks() if t.name == "Map plotting")
    assert bpmn.list_threat_refs(result.model) == {(task.id, "T-UNAVAIL")}


def test_empty_selection_yields_tasks_without_boundaries():
    doc = sample_doc()
    sel = srs.ThreatSelection(
        chosen=frozenset(),
        task_mapping=(("g-located", "Locate airport"), ("tx-map", "Deliver map")),
    )
    result = srs.transform_to_skeleton(doc, sel)
    assert result.warnings == ()
    assert len(list(result.model.service_tasks())) == 2
    assert bpmn.list_threat_refs(result.model) == set()


def test_three_threats_with_two_mapped_targets():
    raw = dict(
        SAMPLE,
        threats=SAMPLE["threats"]
        + [{"threatId": "T-LEAK", "name": "Report leak", "targetRef": "g-report"}],
    )
    doc = srs.load_srs(json.dumps(raw))
    sel = srs.ThreatSelection(
        chosen=frozenset(
            {("T-DOS", "tx-map"), ("T-SPOOF", "g-located"), ("T-LEAK", "g-report")}
        ),
        task_mapping=(("tx-map", "Deliver map"), ("g-located", "Locate airport")),
    )
    result = srs.transform_to_skeleton(doc, sel)
    assert len(bpmn.list_threat_refs(result.model)) == 2
    assert len(result.warnings) == 1 and "T-LEAK" in result.warnings[0]
