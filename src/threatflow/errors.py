"""Shared exception hierarchy, and how outside input becomes an error.

Each error class carries how it surfaces: `exit_code` is the CLI's exit
status for it and `http_status` the repository routes' reply; a class that
sets neither inherits 1 and 500 from ThreatflowError. Outside input is read
through `read_text`, `parse_json` and `reading`, so malformed input raises
one of these errors, never a bare Python one.
"""

import json
import os


class ThreatflowError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1
    http_status = 500


class ValidationError(ThreatflowError):
    """An input violates a declared invariant."""
    exit_code = 2
    http_status = 400


class NotFoundError(ThreatflowError):
    """A referenced record or node does not exist."""
    exit_code = 3
    http_status = 404


class ConflictError(ThreatflowError):
    """A write conflicts with existing state (duplicate id, duplicate pair)."""
    exit_code = 4
    http_status = 409


class ParseError(ThreatflowError):
    """A document could not be parsed."""
    exit_code = 5
    http_status = 400

    def __init__(self, message: str, position: tuple[int, int] | None = None):
        if position is not None:
            message = f"{message} (line {position[0]}, column {position[1]})"
        super().__init__(message)
        self.position = position


class UnsupportedConstructError(ThreatflowError):
    """A document uses elements outside the supported subset."""
    exit_code = 6

    def __init__(self, elements: list[str]):
        self.elements = sorted(set(elements))
        super().__init__("unsupported elements: " + ", ".join(self.elements))


class DanglingReferenceError(ThreatflowError):
    """A document contains a cross-reference that does not resolve."""
    exit_code = 7


class MissingCandidatesError(ThreatflowError):
    """A service task has no registered component candidates."""
    exit_code = 8


class PlanCountExceededError(ThreatflowError):
    """Exhaustive plan enumeration would exceed the configured ceiling."""
    exit_code = 9


class EmptyInputError(ThreatflowError):
    """An operation that requires a non-empty input received an empty one."""
    exit_code = 10


class DerivationError(ThreatflowError):
    """Subscription derivation failed for a rule."""
    exit_code = 11


class EvaluationError(ThreatflowError):
    """A rule could not be evaluated: the position lacks its scope task."""
    exit_code = 12


class DeploymentError(ThreatflowError):
    """A service could not be deployed."""
    exit_code = 13


class BusError(ThreatflowError):
    """The notification bus rejected a request or is unreachable."""
    exit_code = 14


class ComponentFault(ThreatflowError):
    """A component invocation failed, carrying the error id it raised.

    The runtime matches error_id against boundary event errorRef values.
    """

    def __init__(self, error_id: str, message: str = ""):
        super().__init__(message or f"component fault: {error_id}")
        self.error_id = error_id


def blank(threat_id: str | None) -> bool:
    """None, empty or whitespace only: no threat id, in every layer."""
    return not threat_id or threat_id.isspace()


def read_text(path: str | os.PathLike, what: str) -> str:
    """The UTF-8 text of the file at `path`. A missing file raises
    NotFoundError(what); bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError):
        raise NotFoundError(what) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)} is not UTF-8 text: {exc}") from None


def parse_json(text: str, what: str):
    """The JSON value in `text`; malformed JSON raises ParseError naming
    `what` and the line and column where decoding failed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what}: {exc.msg}", (exc.lineno, exc.colno)) from None


class reading:
    """Context manager around building and validating one `what` record from
    decoded JSON: a missing key, or a field of the wrong type or value, raises
    `error` instead. A class, not a generator: it runs once per wire record."""

    def __init__(self, what: str, error: type[ThreatflowError] = ValidationError):
        self.what = what
        self.error = error

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, KeyError):
            raise self.error(f"{self.what} record missing field {exc}") from exc
        if isinstance(exc, (TypeError, ValueError, AttributeError, OverflowError)):
            raise self.error(f"malformed {self.what} record: {exc}") from exc
