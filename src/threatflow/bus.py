"""Topic-based publish-subscribe bus for monitoring alerts.

The broker delivers notifications at most once per live subscriber, keeps
per-publisher FIFO order, and never blocks a publisher on a slow consumer:
each subscriber id owns a bounded queue, or shares its TCP connection's;
overflow drops and counts the oldest entry (best-effort, no retransmission).
Subscriptions are indexed by pattern, so a publish costs O(matches).

At most once means per (publisher, seq): the broker drops a notification at
or below the highest seq it accepted from that publisher id, so a publisher
id that restarts its seq on a live broker is dropped until it passes it.

The same broker core runs in-process or behind a TCP server speaking
newline-delimited UTF-8 JSON records with op in {SUB, UNSUB, PUB, MSG,
ACKCOUNT}. A connection costs one reader thread and, once it SUBs, one
writer, however many ids it holds; the newest SUB of an id takes it over.
A malformed record gets an error ACKCOUNT and leaves the connection up.

A queue's offer, and a poll that finds an item or does not wait, take no
lock; a poll takes one only to wait. Offers to one queue are serialized by
their caller: the broker offers under its lock, a client from its reader.
A queue's drop count is exact while nothing polls it at the same moment,
and may then include one delivered record, never fewer. `BusClient.drops`
counts what a client's full inbox dropped. A client's socket has no read
timeout once connected, so an idle client keeps its reader.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
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
        for name, value in (
            ("topic", self.topic),
            ("subjectComponentId", self.subject_component_id),
            ("publisherId", self.publisher_id),
        ):
            if not isinstance(value, str):
                raise ValidationError(f"notification {name} {value!r} is not a string")
        for name, value in (("threatId", self.threat_id), ("payload value", self.payload.value)):
            if value is not None and not isinstance(value, str):
                raise ValidationError(f"notification {name} {value!r} is not a string")
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
        """Any record that is not a valid notification raises ValidationError,
        whatever type a field has."""
        try:
            etype = EventType(rec["type"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"unknown notification type in record: {exc}")
        try:
            payload = rec.get("payload") or {}
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
            n.validate()
        except KeyError as exc:
            raise ValidationError(f"notification record missing field {exc}")
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ValidationError(f"malformed notification record: {exc}")
        return n


@dataclass(frozen=True)
class Subscription:
    subscriber_id: str
    topic_pattern: str


# exactly the patterns the step-by-step checks below accept
_VALID_PATTERN = re.compile(r"[^.*]+(?:\.[^.*]+)+|[^.*]+\.\*")


def validate_pattern(pattern: str) -> None:
    """Accept an exact topic or an '<event-type>.*' trailing wildcard."""
    if _VALID_PATTERN.fullmatch(pattern):
        return
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
    """Bounded FIFO handoff between the broker and one subscriber, or between
    a client's reader and its caller.

    An offer or a poll that need not wait takes no lock: the deque's append
    and popleft are atomic, and an append to a full deque drops its oldest
    item. Offers to one queue must be serialized by their caller (the broker
    offers under its lock, a client from its one reader thread), so the
    fullness check before an append sees no other offer. `drops` is exact
    while no poll runs at the same moment; a poll that takes the oldest item
    of a full queue during an offer may add that delivered item to it, so it
    never under-counts.

    No wake-up is lost: a poller that must wait raises `_waiting` under the
    lock before its last look for an item, and holds the lock until `wait`
    releases it. An offer appends before it reads `_waiting`. So either that
    look finds the item, or the offer sees `_waiting` raised and notifies
    under the lock, which it gets only once the poller waits."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)  # notifications, or a client's ACKCOUNT records
        # an RLock: a Condition over a plain Lock costs several times as much
        # to build, and a broker builds one queue per subscriber id
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._waiting = 0  # pollers inside the waiting loop of poll
        self._closed = False
        self.drops = 0

    def offer(self, item) -> None:
        if len(self._items) == self.capacity:
            self.drops += 1  # the append drops the oldest item
        self._items.append(item)
        if self._waiting:
            with self._lock:
                self._cond.notify()

    def _take(self):
        """Oldest item, or None; another poller may take the last one first."""
        if self._items:
            try:
                return self._items.popleft()
            except IndexError:
                pass
        return None

    def poll(self, timeout: float | None = 0.0):
        """Oldest item, or None; waits up to `timeout` s, or for an item or
        close() if None. A waiting poll that another poller beats to an item
        waits on, so poll(None) returns None only after close()."""
        item = self._take()
        if item is not None or timeout == 0:
            return item
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._waiting += 1
            try:
                while (item := self._take()) is None and not self._closed:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        break
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1
        return item

    def close(self) -> None:
        """Wake every poll(None); what is queued stays drainable."""
        with self._lock:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
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
        self._held: dict[str, set[str]] = {}  # subscriber id -> patterns it holds, while any
        self._last_seq: dict[str, int] = {}  # publisher id -> highest seq accepted
        self.queue_capacity = queue_capacity

    def subscribe(self, sub: Subscription, queue: _SubscriberQueue | None = None) -> SubscriptionHandle:
        """A given `queue` becomes the id's queue, taking the id over from any other."""
        validate_pattern(sub.topic_pattern)
        if not sub.subscriber_id:
            raise ValidationError("empty subscriberId")
        with self._lock:
            sids = self._subscribers.setdefault(sub.topic_pattern, set())
            sids.add(sub.subscriber_id)  # idempotent
            self._held.setdefault(sub.subscriber_id, set()).add(sub.topic_pattern)
            if queue is not None:
                self._queues[sub.subscriber_id] = queue
            elif sub.subscriber_id not in self._queues:
                self._queues[sub.subscriber_id] = _SubscriberQueue(self.queue_capacity)
        return SubscriptionHandle(sub.subscriber_id, sub.topic_pattern, self)

    def unsubscribe(self, handle: SubscriptionHandle) -> None:
        """Once the id holds no pattern, its entry goes if its queue is empty."""
        with self._lock:
            sids = self._subscribers.get(handle.topic_pattern)
            if not sids or handle.subscriber_id not in sids:
                log.warning(
                    "unsubscribe for unknown handle (%s, %s) ignored",
                    handle.subscriber_id, handle.topic_pattern,
                )
                return
            self._drop(handle.subscriber_id, handle.topic_pattern)
            held = self._held[handle.subscriber_id]
            held.discard(handle.topic_pattern)
            if not held:  # forget the id, unless its queue holds items still to be drained
                del self._held[handle.subscriber_id]
                if not len(self._queues[handle.subscriber_id]):
                    del self._queues[handle.subscriber_id]

    def release(self, subscriber_id: str, queue: _SubscriberQueue) -> None:
        """Drop the id's patterns and queue entry if `queue` still serves it."""
        with self._lock:
            if self._queues.get(subscriber_id) is queue:
                del self._queues[subscriber_id]
                for pattern in self._held.pop(subscriber_id, ()):
                    self._drop(subscriber_id, pattern)

    def _drop(self, subscriber_id: str, pattern: str) -> None:
        """Take the id off the pattern's entry, and the entry once empty; under _lock."""
        sids = self._subscribers[pattern]
        sids.discard(subscriber_id)
        if not sids:
            del self._subscribers[pattern]

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
            for sid in matched:  # under the lock, which serializes offers to a queue
                self._queues[sid].offer(n)
        return len(matched)

    def poll(self, subscriber_id: str, timeout: float | None = 0.0) -> Notification | None:
        """The id's oldest item. Handing out the last item of an id that holds
        no pattern any more forgets the id."""
        queue = self._queues.get(subscriber_id)  # one dict read: no lock needed
        if queue is None:
            return None
        n = queue.poll(timeout)
        # unsubscribe takes the id out of _held before it reads the queue's length,
        # so whichever of the two runs last sees the queue empty and forgets the id
        if n is not None and subscriber_id not in self._held:
            with self._lock:
                if subscriber_id not in self._held and self._queues.get(subscriber_id) is queue and not len(queue):
                    del self._queues[subscriber_id]
        return n

    def pending(self, subscriber_id: str) -> int:
        queue = self._queues.get(subscriber_id)
        return len(queue) if queue is not None else 0

    def drops(self, subscriber_id: str) -> int:
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


def decode_record(line: str | bytes) -> dict:
    """One wire record; bytes must be UTF-8."""
    try:
        rec = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BusError(f"malformed wire record: {exc}")
    if not isinstance(rec, dict) or "op" not in rec:
        raise BusError("wire record is not an object with an 'op' field")
    return rec


class BusServer:
    """TCP front-end over a Broker. Each connection has a reader thread and,
    from its first SUB, a writer draining the connection's outbox as MSG
    records. The outbox is the queue of every id SUBbed there, so they share
    its drop-oldest bound. A disconnect or `stop()` releases the connection's
    ids, except those a newer SUB on another connection took over."""

    def __init__(self, broker: Broker | None = None, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker or Broker()
        self._host = host
        self._port = port
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._conns_lock = threading.Lock()
        self._conns: set[socket.socket] = set()

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
            self._sock.close()
        with self._conns_lock:
            for conn in self._conns:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)  # ends its reader, which tears the connection down

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._conns_lock:
                if self._stopping.is_set():  # stop() has already shut the open ones
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        outbox = _SubscriberQueue(self.broker.queue_capacity)
        held: set[str] = set()  # subscriber ids SUBbed on this connection
        writer: threading.Thread | None = None

        def send(rec: dict) -> None:
            data = (encode_record(rec) + "\n").encode("utf-8")
            with write_lock:
                conn.sendall(data)

        def write_loop() -> None:
            with contextlib.suppress(OSError):  # the connection is gone
                while (n := outbox.poll(None)) is not None:
                    rec = n.to_record()
                    rec["op"] = "MSG"
                    send(rec)

        try:
            with conn.makefile("rb") as reader:  # decode_record decodes each line
                for line in reader:
                    if line.isspace():
                        continue
                    try:
                        rec = decode_record(line)
                        self._handle_record(rec, send, outbox, held)
                    except (BusError, ValidationError) as exc:
                        send({"op": "ACKCOUNT", "count": -1, "error": str(exc)})
                    if held and writer is None:  # a publish-only connection keeps one thread
                        writer = threading.Thread(target=write_loop, daemon=True)
                        writer.start()
        except OSError:
            pass
        finally:
            for sid in held:
                self.broker.release(sid, outbox)
            outbox.close()
            with self._conns_lock:
                self._conns.discard(conn)
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)  # fails a send the writer is blocked in
            if writer is not None:
                writer.join()
            conn.close()

    def _handle_record(self, rec, send, outbox, held) -> None:
        op = rec["op"]
        if op == "SUB":
            sub = Subscription(*_subscription_fields(rec))
            self.broker.subscribe(sub, outbox)
            held.add(sub.subscriber_id)
        elif op == "UNSUB":
            self.broker.unsubscribe(SubscriptionHandle(*_subscription_fields(rec), self.broker))
        elif op == "PUB":
            n = Notification.from_record(rec)
            count = self.broker.publish(n)
            send({"op": "ACKCOUNT", "count": count})
        else:
            raise BusError(f"unknown op {op!r}")


def _subscription_fields(rec: dict) -> tuple[str, str]:
    """A SUB or UNSUB record's (subscriberId, topicPattern), each a string."""
    sid, pattern = rec.get("subscriberId", ""), rec.get("topicPattern", "")
    if not isinstance(sid, str) or not isinstance(pattern, str):
        raise ValidationError(f"{rec['op']} subscriberId and topicPattern must be strings")
    return sid, pattern


class BusClient:
    """Line-protocol client. Received MSG records queue up for receive() and
    ACKCOUNT replies pair FIFO with the publish() that triggered them, each in
    a bounded queue like a broker's: a full inbox drops its oldest record, and
    `drops` counts them. The socket has no read timeout once connected, so an
    idle client keeps its reader."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise BusError(f"cannot reach bus at {host}:{port}: {exc}")
        # the timeout bounds the connect; kept on the socket, it would end the
        # reader after `timeout` s of silence. publish() bounds its own wait.
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._acks = _SubscriberQueue(DEFAULT_QUEUE_CAPACITY)
        self._msgs = _SubscriberQueue(DEFAULT_QUEUE_CAPACITY)
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
                if line.isspace():
                    continue
                try:
                    rec = decode_record(line)
                except BusError as exc:
                    log.warning("dropping wire record: %s", exc)
                    continue
                if rec.get("op") == "MSG":
                    try:
                        self._msgs.offer(Notification.from_record(rec))
                    except ValidationError as exc:
                        log.warning("dropping malformed MSG from broker: %s", exc)
                else:
                    self._acks.offer(rec)
        except (OSError, ValueError):
            pass
        finally:
            self._reader.close()
            self._acks.close()  # wakes any publish() or receive() still waiting
            self._msgs.close()

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
        ack = self._acks.poll(self._timeout)
        if ack is None:
            raise BusError("no ACKCOUNT reply from broker")
        if ack.get("count", -1) < 0:
            raise BusError(ack.get("error", "publish rejected"))
        return ack["count"]

    def receive(self, timeout: float = 0.0) -> Notification | None:
        return self._msgs.poll(timeout)

    @property
    def drops(self) -> int:
        """MSG records the full inbox has dropped, as Broker.drops counts them."""
        return self._msgs.drops

    def close(self) -> None:
        """Shut the socket and wait for the reader thread, which closes its
        file, the last reference holding the socket open."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # ends the reader
        with contextlib.suppress(OSError):
            self._sock.close()
        self._reader_thread.join(self._timeout)
