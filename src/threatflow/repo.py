"""Centralised threat repository: one source of truth for threat IDs.

Backed by a single human-readable JSON document on disk, loaded fully into
memory with write-through on every mutation. Safe for concurrent readers;
mutations serialize through one lock. Records are immutable snapshots.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass, replace
from enum import Enum
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from . import bpmn
from .errors import ConflictError, NotFoundError, ParseError, ValidationError, parse_json, read_text, reading

log = logging.getLogger(__name__)


class ThreatClass(Enum):
    BUSINESS = "business"
    OPERATIONAL = "operational"


class CountermeasureFormat(Enum):
    TEXT = "text"
    LINK = "link"
    SERVICE_REF = "service-ref"


def _strings(rec: dict, key: str) -> list[str]:
    """rec[key] (empty when absent) if it is a list of strings; a string is
    refused rather than split into its characters."""
    value = rec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key} must be a list of strings, got {value!r}")
    return value


@dataclass(frozen=True)
class Threat:
    id: str
    name: str
    threat_class: ThreatClass
    domains: frozenset[str] = frozenset()
    description: str = ""
    links: tuple[str, ...] = ()
    related: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.id or self.id.isspace():
            raise ValidationError("threat id is empty")
        if not isinstance(self.threat_class, ThreatClass):
            raise ValidationError(f"threat class {self.threat_class!r} is not a valid class")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "class": self.threat_class.value,
            "domains": sorted(self.domains),
            "description": self.description,
            "links": list(self.links),
            "related": list(self.related),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Threat":
        with reading("threat"):
            t = cls(
                id=rec["id"],
                name=rec.get("name", ""),
                threat_class=ThreatClass(rec["class"]),
                domains=frozenset(_strings(rec, "domains")),
                description=rec.get("description", ""),
                links=tuple(_strings(rec, "links")),
                related=tuple(_strings(rec, "related")),
            )
            t.validate()
        return t


@dataclass(frozen=True)
class Countermeasure:
    id: str
    threat_id: str
    title: str
    description: str = ""
    format: CountermeasureFormat = CountermeasureFormat.TEXT
    rank_score: float = 0.0

    def validate(self) -> None:
        if not self.id:
            raise ValidationError("countermeasure id is empty")
        if not 0.0 <= self.rank_score <= 1.0:
            raise ValidationError(f"rankScore {self.rank_score} outside [0,1]")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "threatId": self.threat_id,
            "title": self.title,
            "description": self.description,
            "format": self.format.value,
            "rankScore": self.rank_score,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Countermeasure":
        with reading("countermeasure"):
            cm = cls(
                id=rec["id"],
                threat_id=rec["threatId"],
                title=rec.get("title", ""),
                description=rec.get("description", ""),
                format=CountermeasureFormat(rec.get("format", "text")),
                rank_score=float(rec.get("rankScore", 0.0)),
            )
            cm.validate()
        return cm


@dataclass(frozen=True)
class ThreatQuery:
    name_substring: str | None = None
    threat_class: ThreatClass | None = None
    domain: str | None = None


class Repository:
    """In-process threat store; pass a path to persist write-through."""

    def __init__(self, path: str | os.PathLike | None = None):
        self._lock = threading.RLock()
        self._threats: dict[str, Threat] = {}
        self._countermeasures: dict[str, Countermeasure] = {}
        self._path = os.fspath(path) if path is not None else None
        if self._path and os.path.exists(self._path):
            self._load()

    # -- persistence

    def _load(self) -> None:
        doc = parse_json(read_text(self._path, f"no such file: {self._path}"), f"repository file {self._path}")
        with reading("repository"):
            for rec in doc.get("threats", []):
                t = Threat.from_record(rec)
                self._threats[t.id] = t
            for rec in doc.get("countermeasures", []):
                cm = Countermeasure.from_record(rec)
                self._countermeasures[cm.id] = cm

    def _save(self) -> None:
        if self._path is None:
            return
        doc = {
            "threats": [t.to_record() for t in sorted(self._threats.values(), key=lambda t: t.id)],
            "countermeasures": [
                cm.to_record()
                for cm in sorted(self._countermeasures.values(), key=lambda c: (c.threat_id, c.id))
            ],
        }
        directory = os.path.dirname(os.path.abspath(self._path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self._path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- operations

    def put_threat(self, t: Threat, replace: bool = False) -> str:
        t.validate()
        with self._lock:
            existing = self._threats.get(t.id)
            if existing is not None and not replace and existing != t:
                raise ConflictError(
                    f"threat {t.id!r} already exists with a different payload; "
                    "pass replace to overwrite"
                )
            self._threats[t.id] = t
            self._save()
        return t.id

    def get_threat(self, threat_id: str) -> Threat:
        if not threat_id:
            raise ValidationError("threat id is empty")
        with self._lock:
            t = self._threats.get(threat_id)
        if t is None:
            raise NotFoundError(f"no threat {threat_id!r}")
        return t

    def search(self, q: ThreatQuery) -> list[Threat]:
        """All threats matching every present field, ordered by (name, id)."""
        needle = q.name_substring.lower() if q.name_substring is not None else None
        with self._lock:
            threats = list(self._threats.values())
        hits = []
        for t in threats:
            if needle is not None and needle not in t.name.lower():
                continue
            if q.threat_class is not None and t.threat_class is not q.threat_class:
                continue
            if q.domain is not None and q.domain not in t.domains:
                continue
            hits.append(t)
        return sorted(hits, key=lambda t: (t.name, t.id))

    def put_countermeasure(self, cm: Countermeasure) -> str:
        cm.validate()
        with self._lock:
            if cm.threat_id not in self._threats:
                raise NotFoundError(f"countermeasure {cm.id!r} mitigates unknown threat {cm.threat_id!r}")
            self._countermeasures[cm.id] = cm
            self._save()
        return cm.id

    def list_countermeasures(self, threat_id: str) -> list[Countermeasure]:
        """Ranked best-first; ties break on countermeasure id."""
        self.get_threat(threat_id)  # not-found propagates
        with self._lock:
            cms = [cm for cm in self._countermeasures.values() if cm.threat_id == threat_id]
        return sorted(cms, key=lambda cm: (-cm.rank_score, cm.id))

    def import_from_model(self, pm: bpmn.ProcessModel) -> list[str]:
        """Create stub threats for unknown errorRef values; returns new IDs."""
        refs = sorted({threat_id for _, threat_id in bpmn.list_threat_refs(pm)})
        added = []
        with self._lock:
            for threat_id in refs:
                if threat_id in self._threats:
                    continue
                self._threats[threat_id] = Threat(
                    id=threat_id, name=threat_id, threat_class=ThreatClass.OPERATIONAL
                )
                added.append(threat_id)
            if added:
                self._save()
        return added

    def audit(self) -> list[str]:
        """Report dangling related links without touching the store."""
        findings = []
        with self._lock:
            for t in sorted(self._threats.values(), key=lambda t: t.id):
                for ref in t.related:
                    if ref not in self._threats:
                        findings.append(f"threat {t.id!r} relates to unknown id {ref!r}")
        return findings

    def all_threats(self) -> list[Threat]:
        with self._lock:
            return sorted(self._threats.values(), key=lambda t: t.id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._threats)


# --- HTTP front-end -----------------------------------------------------------

_HTTP_STATUS = {
    ValidationError: 400,
    ParseError: 400,
    NotFoundError: 404,
    ConflictError: 409,
}


class _RepoHandler(BaseHTTPRequestHandler):
    repo: Repository  # set by make_server

    def log_message(self, fmt, *args):  # route into logging, not stderr
        log.debug("repo http: " + fmt, *args)

    def _reply(self, status: int, body: dict | list) -> None:
        data = json.dumps(body, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _fail(self, exc: Exception) -> None:
        status = _HTTP_STATUS.get(type(exc), 500)
        self._reply(status, {"error": type(exc).__name__, "message": str(exc)})

    def _body(self) -> str:
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            raise ValidationError(f"Content-Length {length!r} is not a non-negative integer")
        try:
            return self.rfile.read(int(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"request body is not UTF-8 text: {exc}") from None

    def do_GET(self):
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.strip("/").split("/") if p]
        try:
            if parts == ["threats"]:
                qs = parse_qs(url.query)
                with reading("query"):
                    q = ThreatQuery(
                        name_substring=qs["name"][0] if "name" in qs else None,
                        threat_class=ThreatClass(qs["class"][0]) if "class" in qs else None,
                        domain=qs["domain"][0] if "domain" in qs else None,
                    )
                self._reply(200, [t.to_record() for t in self.repo.search(q)])
            elif len(parts) == 2 and parts[0] == "threats":
                self._reply(200, self.repo.get_threat(parts[1]).to_record())
            elif len(parts) == 3 and parts[0] == "threats" and parts[2] == "countermeasures":
                cms = self.repo.list_countermeasures(parts[1])
                self._reply(200, [cm.to_record() for cm in cms])
            else:
                self._reply(404, {"error": "NotFoundError", "message": f"no route {url.path}"})
        except Exception as exc:  # noqa: BLE001 - all errors become HTTP replies
            self._fail(exc)

    def do_PUT(self):
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.strip("/").split("/") if p]
        try:
            if len(parts) == 2 and parts[0] == "threats":
                t = Threat.from_record(parse_json(self._body(), "request body"))
                if t.id != parts[1]:
                    raise ValidationError(f"body id {t.id!r} does not match route id {parts[1]!r}")
                qs = parse_qs(url.query)
                replace_flag = qs.get("replace", ["false"])[0].lower() == "true"
                self._reply(200, {"id": self.repo.put_threat(t, replace=replace_flag)})
            else:
                self._reply(404, {"error": "NotFoundError", "message": f"no route {url.path}"})
        except Exception as exc:  # noqa: BLE001
            self._fail(exc)

    def do_POST(self):
        url = urlparse(self.path)
        try:
            if url.path.rstrip("/") == "/import":
                pm = bpmn.parse_bpmn(self._body())
                self._reply(200, {"added": self.repo.import_from_model(pm)})
            else:
                self._reply(404, {"error": "NotFoundError", "message": f"no route {url.path}"})
        except Exception as exc:  # noqa: BLE001
            self._fail(exc)


def make_server(repo: Repository, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """HTTP front-end exposing the repository routes; caller owns the thread."""
    handler = type("BoundRepoHandler", (_RepoHandler,), {"repo": repo})
    return ThreadingHTTPServer((host, port), handler)
