"""Topic-based publish-subscribe bus for monitoring alerts.

The broker delivers notifications at most once per live subscriber, keeps
per-publisher FIFO order, and never blocks a publisher on a slow consumer:
each subscriber owns a bounded queue whose overflow drops the oldest entry
and bumps a drop counter (best-effort delivery, no retransmission). Its
subscriptions are indexed by pattern, so a publish costs O(matches).

At most once means per (publisher, seq): the broker drops a notification at
or below the highest seq it accepted from that publisher id, so a publisher
id that restarts its seq on a live broker is dropped until it passes it.

The same broker core runs in-process or behind a TCP server speaking
newline-delimited UTF-8 JSON records with op in {SUB, UNSUB, PUB, MSG,
ACKCOUNT}.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import BusError, ValidationError

log = logging.getLogger(__name__)

DEFAULT_QUEUE_CAPACITY = 4096


class EventType(Enum):
    THREAT_LEVEL_CHANGE = "ThreatLevelChange"
    TRUSTWORTHINESS_CHANGE = "TrustworthinessChange"
    CONTRACT_VIOLATION = "ContractViolation"
    SECURITY_PROPERTY_CHANGE = "SecurityPropertyChange"
    CONTEXT_CHANGE = "ContextChange"
    COMPONENT_CHANGE = "ComponentChange"

    @cached_property
    def kebab(self) -> str:
        """Lower-kebab spelling used as the first topic segment."""
        out = []
        for i, ch in enumerate(self.value):
            if ch.isupper() and i > 0:
                out.append("-")
            out.append(ch.lower())
        return "".join(out)


_KEBAB_TO_TYPE = {t.kebab: t for t in EventType}


def event_type_for_kebab(segment: str) -> EventType:
    try:
        return _KEBAB_TO_TYPE[segment]
    except KeyError:
        raise ValidationError(f"unknown event type segment {segment!r}")


def topic_for(event_type: EventType, subject_id: str) -> str:
    return f"{event_type.kebab}.{subject_id}"


@dataclass(frozen=True)
class Payload:
    probability: float | None = None
    value: str | None = None


@dataclass(frozen=True)
class Notification:
    type: EventType
    topic: str
    subject_component_id: str
    payload: Payload
    timestamp: float
    seq: int
    publisher_id: str
    threat_id: str | None = None

    def validate(self) -> None:
        if not self.subject_component_id:
            raise ValidationError("notification subjectComponentId is empty")
        if "*" in self.subject_component_id or "." in self.subject_component_id:
            raise ValidationError(
                f"subjectComponentId {self.subject_component_id!r} contains reserved characters"
            )
        if not self.publisher_id:
            raise ValidationError("notification publisherId is empty")
        expected = topic_for(self.type, self.subject_component_id)
        if self.topic != expected:
            raise ValidationError(
                f"topic {self.topic!r} inconsistent with type/subject (expected {expected!r})"
            )
        if self.payload.probability is not None and not 0.0 <= self.payload.probability <= 1.0:
            raise ValidationError(f"probability {self.payload.probability} outside [0,1]")
        if self.type is EventType.THREAT_LEVEL_CHANGE:
            if not self.threat_id:
                raise ValidationError("ThreatLevelChange notification without threatId")
            if self.payload.probability is None:
                raise ValidationError("ThreatLevelChange notification without probability")
        if self.seq < 0:
            raise ValidationError(f"seq {self.seq} is negative")

    def to_record(self) -> dict:
        rec = {
            "type": self.type.value,
            "topic": self.topic,
            "subjectComponentId": self.subject_component_id,
            "payload": {},
            "timestamp": self.timestamp,
            "seq": self.seq,
            "publisherId": self.publisher_id,
        }
        if self.payload.probability is not None:
            rec["payload"]["probability"] = self.payload.probability
        if self.payload.value is not None:
            rec["payload"]["value"] = self.payload.value
        if self.threat_id is not None:
            rec["threatId"] = self.threat_id
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Notification":
        try:
            etype = EventType(rec["type"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"unknown notification type in record: {exc}")
        payload = rec.get("payload") or {}
        try:
            n = cls(
                type=etype,
                topic=rec["topic"],
                subject_component_id=rec["subjectComponentId"],
                payload=Payload(
                    probability=payload.get("probability"),
                    value=payload.get("value"),
                ),
                timestamp=float(rec["timestamp"]),
                seq=int(rec["seq"]),
                publisher_id=rec["publisherId"],
                threat_id=rec.get("threatId"),
            )
        except KeyError as exc:
            raise ValidationError(f"notification record missing field {exc}")
        n.validate()
        return n


@dataclass(frozen=True)
class Subscription:
    subscriber_id: str
    topic_pattern: str


def validate_pattern(pattern: str) -> None:
    """Accept an exact topic or an '<event-type>.*' trailing wildcard."""
    if not pattern or pattern.isspace():
        raise ValidationError("empty topic pattern")
    segments = pattern.split(".")
    if len(segments) < 2 or any(not s for s in segments):
        raise ValidationError(f"pattern {pattern!r} must be '<event-type>.<subject>'")
    head, tail = segments[0], segments[1:]
    if "*" in head or any("*" in s for s in tail[:-1]):
        raise ValidationError(f"pattern {pattern!r}: '*' is only valid as the trailing segment")
    if tail[-1] != "*" and "*" in tail[-1]:
        raise ValidationError(f"pattern {pattern!r}: partial wildcards are not supported")
    if tail[-1] == "*" and len(tail) != 1:
        raise ValidationError(f"pattern {pattern!r}: wildcard must follow the event-type segment")


def topic_matches(pattern: str, topic: str) -> bool:
    """The reference that tests hold the broker's pattern index to."""
    if pattern == topic:
        return True
    if pattern.endswith(".*"):
        prefix = pattern[:-1]  # keep the dot
        rest = topic[len(prefix):]
        return topic.startswith(prefix) and rest != "" and "." not in rest
    return False


class _SubscriberQueue:
    """Bounded FIFO handoff between the broker and one subscriber."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: deque[Notification] = deque()
        self._cond = threading.Condition()
        self.drops = 0

    def offer(self, n: Notification) -> None:
        with self._cond:
            if len(self._items) >= self.capacity:
                self._items.popleft()
                self.drops += 1
            self._items.append(n)
            self._cond.notify()

    def poll(self, timeout: float | None = 0.0) -> Notification | None:
        with self._cond:
            if not self._items and timeout:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


@dataclass(frozen=True)
class SubscriptionHandle:
    subscriber_id: str
    topic_pattern: str
    _broker: "Broker" = field(repr=False, compare=False)

    def poll(self, timeout: float | None = 0.0) -> Notification | None:
        return self._broker.poll(self.subscriber_id, timeout)


class Broker:
    """In-process broker core; all contracts hold under concurrent use."""

    def __init__(self, queue_capacity: int = DEFAULT_QUEUE_CAPACITY):
        self._lock = threading.Lock()
        self._subscribers: dict[str, set[str]] = {}  # topic pattern -> subscriber ids
        self._queues: dict[str, _SubscriberQueue] = {}
        self._last_seq: dict[str, int] = {}  # publisher id -> highest seq accepted
        self._queue_capacity = queue_capacity

    def subscribe(self, sub: Subscription) -> SubscriptionHandle:
        validate_pattern(sub.topic_pattern)
        if not sub.subscriber_id:
            raise ValidationError("empty subscriberId")
        with self._lock:
            self._subscribers.setdefault(sub.topic_pattern, set()).add(sub.subscriber_id)  # idempotent
            if sub.subscriber_id not in self._queues:
                self._queues[sub.subscriber_id] = _SubscriberQueue(self._queue_capacity)
        return SubscriptionHandle(sub.subscriber_id, sub.topic_pattern, self)

    def unsubscribe(self, handle: SubscriptionHandle) -> None:
        with self._lock:
            sids = self._subscribers.get(handle.topic_pattern)
            if not sids or handle.subscriber_id not in sids:
                log.warning(
                    "unsubscribe for unknown handle (%s, %s) ignored",
                    handle.subscriber_id, handle.topic_pattern,
                )
                return
            sids.discard(handle.subscriber_id)
            if not sids:
                del self._subscribers[handle.topic_pattern]
            # the queue stays drainable: in-flight items may still be consumed

    def publish(self, n: Notification) -> int:
        """Deliveries made: 0 for a seq at or below its publisher's last one."""
        n.validate()
        with self._lock:
            if n.seq <= self._last_seq.get(n.publisher_id, -1):
                return 0
            self._last_seq[n.publisher_id] = n.seq
            # subjects hold no '.' or '*' and patterns are exact or '<head>.*', so only
            # n.topic and '<type>.*' can match; a subscriber holding both gets n once
            matched = self._subscribers.get(n.topic, set()) | self._subscribers.get(f"{n.type.kebab}.*", set())
            for sid in matched:
                self._queues[sid].offer(n)
        return len(matched)

    def poll(self, subscriber_id: str, timeout: float | None = 0.0) -> Notification | None:
        with self._lock:
            queue = self._queues.get(subscriber_id)
        if queue is None:
            return None
        return queue.poll(timeout)

    def pending(self, subscriber_id: str) -> int:
        with self._lock:
            queue = self._queues.get(subscriber_id)
        return len(queue) if queue is not None else 0

    def drops(self, subscriber_id: str) -> int:
        with self._lock:
            queue = self._queues.get(subscriber_id)
        return queue.drops if queue is not None else 0

    def has_subscription(self, subscriber_id: str, pattern: str) -> bool:
        with self._lock:
            return subscriber_id in self._subscribers.get(pattern, ())


class Publisher:
    """Assigns increasing seq numbers on behalf of one publisher identity."""

    def __init__(self, broker: Broker, publisher_id: str, clock=None):
        self._broker = broker
        self.publisher_id = publisher_id
        self._clock = clock or time.monotonic
        self._seq = 0
        self._lock = threading.Lock()

    def next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def publish(
        self,
        event_type: EventType,
        subject_component_id: str,
        probability: float | None = None,
        value: str | None = None,
        threat_id: str | None = None,
        timestamp: float | None = None,
    ) -> int:
        n = Notification(
            type=event_type,
            topic=topic_for(event_type, subject_component_id),
            subject_component_id=subject_component_id,
            payload=Payload(probability=probability, value=value),
            timestamp=self._clock() if timestamp is None else timestamp,
            seq=self.next_seq(),
            publisher_id=self.publisher_id,
            threat_id=threat_id,
        )
        return self._broker.publish(n)


# --- wire protocol -----------------------------------------------------------

def encode_record(rec: dict) -> str:
    """Canonical one-line encoding: sorted keys, no whitespace."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def decode_record(line: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BusError(f"malformed wire record: {exc}")
    if not isinstance(rec, dict) or "op" not in rec:
        raise BusError("wire record is not an object with an 'op' field")
    return rec


class BusServer:
    """TCP front-end over a Broker; one reader thread per connection plus one
    pump per subscriber id draining its queue onto the connection."""

    def __init__(self, broker: Broker | None = None, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker or Broker()
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()

    @property
    def port(self) -> int:
        if self._sock is None:
            raise BusError("server not started")
        return self._sock.getsockname()[1]

    def start(self) -> "BusServer":
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self._host, self._port))
        self._sock.listen(16)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
            try:
                self._sock.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        handles: list[SubscriptionHandle] = []
        pumps: set[str] = set()
        conn_open = threading.Event()
        conn_open.set()

        def send(rec: dict) -> None:
            data = (encode_record(rec) + "\n").encode("utf-8")
            with write_lock:
                conn.sendall(data)

        try:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = decode_record(line)
                    self._handle_record(rec, send, handles, pumps, conn_open)
                except (BusError, ValidationError) as exc:
                    try:
                        send({"op": "ACKCOUNT", "count": -1, "error": str(exc)})
                    except OSError:
                        return
        except OSError:
            pass
        finally:
            conn_open.clear()
            for h in handles:
                self.broker.unsubscribe(h)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_record(self, rec, send, handles, pumps, conn_open) -> None:
        op = rec["op"]
        if op == "SUB":
            sub = Subscription(rec.get("subscriberId", ""), rec.get("topicPattern", ""))
            handle = self.broker.subscribe(sub)
            handles.append(handle)
            if sub.subscriber_id not in pumps:
                pumps.add(sub.subscriber_id)
                threading.Thread(
                    target=self._pump_for, args=(sub.subscriber_id, send, conn_open), daemon=True
                ).start()
        elif op == "UNSUB":
            handle = SubscriptionHandle(
                rec.get("subscriberId", ""), rec.get("topicPattern", ""), self.broker
            )
            self.broker.unsubscribe(handle)
        elif op == "PUB":
            n = Notification.from_record(rec)
            count = self.broker.publish(n)
            send({"op": "ACKCOUNT", "count": count})
        else:
            raise BusError(f"unknown op {op!r}")

    def _pump_for(self, subscriber_id: str, send, conn_open) -> None:
        while conn_open.is_set() and not self._stopping.is_set():
            n = self.broker.poll(subscriber_id, timeout=0.05)
            if n is None:
                continue
            rec = n.to_record()
            rec["op"] = "MSG"
            try:
                send(rec)
            except OSError:
                return


class BusClient:
    """Line-protocol client. Received MSG records queue up for receive();
    ACKCOUNT replies pair with the publish() that triggered them."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise BusError(f"cannot reach bus at {host}:{port}: {exc}")
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._write_lock = threading.Lock()
        self._acks: deque[dict] = deque()
        self._msgs: deque[Notification] = deque()
        self._cond = threading.Condition()
        self._closed = threading.Event()
        self._reader_thread = threading.Thread(target=self._read_loop, daemon=True)
        self._reader_thread.start()

    def _send(self, rec: dict) -> None:
        data = (encode_record(rec) + "\n").encode("utf-8")
        with self._write_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise BusError(f"bus connection lost: {exc}")

    def _read_loop(self) -> None:
        try:
            for line in self._reader:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                with self._cond:
                    if rec.get("op") == "MSG":
                        try:
                            self._msgs.append(Notification.from_record(rec))
                        except ValidationError as exc:
                            log.warning("dropping malformed MSG from broker: %s", exc)
                    else:
                        self._acks.append(rec)
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            self._closed.set()
            with self._cond:
                self._cond.notify_all()

    def subscribe(self, subscriber_id: str, topic_pattern: str) -> None:
        if not subscriber_id:  # else the server's error reply pairs with the next publish()
            raise ValidationError("empty subscriberId")
        validate_pattern(topic_pattern)
        self._send({"op": "SUB", "subscriberId": subscriber_id, "topicPattern": topic_pattern})

    def unsubscribe(self, subscriber_id: str, topic_pattern: str) -> None:
        self._send({"op": "UNSUB", "subscriberId": subscriber_id, "topicPattern": topic_pattern})

    def publish(self, n: Notification) -> int:
        n.validate()
        rec = n.to_record()
        rec["op"] = "PUB"
        self._send(rec)
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._acks or self._closed.is_set(), timeout=self._timeout
            )
            if not ok or (not self._acks and self._closed.is_set()):
                raise BusError("no ACKCOUNT reply from broker")
            ack = self._acks.popleft()
        if ack.get("count", -1) < 0:
            raise BusError(ack.get("error", "publish rejected"))
        return ack["count"]

    def receive(self, timeout: float = 0.0) -> Notification | None:
        with self._cond:
            if not self._msgs and timeout:
                self._cond.wait_for(lambda: self._msgs or self._closed.is_set(), timeout=timeout)
            if self._msgs:
                return self._msgs.popleft()
            return None

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # ends the reader, whose file keeps the socket open
        try:
            self._sock.close()
        except OSError:
            pass
