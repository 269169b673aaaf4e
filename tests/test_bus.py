import json
import socket
import threading
import time
from pathlib import Path

import pytest

from threatflow import bus
from threatflow.bus import (
    Broker,
    BusClient,
    BusServer,
    EventType,
    Notification,
    Payload,
    Publisher,
    Subscription,
    topic_matches,
    validate_pattern,
)
from threatflow.errors import BusError, ValidationError

TRANSCRIPT = Path(__file__).parent.parent / "src" / "threatflow" / "fixtures" / "wire_transcript.json"


def notification(subject="mapA", seq=1, publisher="monitor-1", probability=0.8, ts=1000.0):
    return Notification(
        type=EventType.THREAT_LEVEL_CHANGE,
        topic=f"threat-level-change.{subject}",
        subject_component_id=subject,
        payload=Payload(probability=probability),
        timestamp=ts,
        seq=seq,
        publisher_id=publisher,
        threat_id="T-DOS",
    )


def test_topic_pattern_rules():
    validate_pattern("threat-level-change.mapA")
    validate_pattern("threat-level-change.*")
    for bad in ("", "nodots", "*.mapA", "threat-level-change.ma*", "a.b.*", "a..b"):
        with pytest.raises(ValidationError):
            validate_pattern(bad)


def test_topic_matching_semantics():
    assert topic_matches("threat-level-change.mapA", "threat-level-change.mapA")
    assert topic_matches("threat-level-change.*", "threat-level-change.mapA")
    assert not topic_matches("threat-level-change.*", "context-change.mapA")
    assert not topic_matches("threat-level-change.mapA", "threat-level-change.mapB")
    assert not topic_matches("threat-level-change.*", "threat-level-change.")


def test_event_type_kebab_mapping():
    assert EventType.THREAT_LEVEL_CHANGE.kebab == "threat-level-change"
    assert EventType.THREAT_LEVEL_CHANGE.kebab is EventType.THREAT_LEVEL_CHANGE.kebab  # built once
    assert bus.event_type_for_kebab("context-change") is EventType.CONTEXT_CHANGE
    with pytest.raises(ValidationError):
        bus.event_type_for_kebab("no-such-event")


def test_publish_delivers_once_per_subscriber():
    broker = Broker()
    broker.subscribe(Subscription("s1", "threat-level-change.mapA"))
    broker.subscribe(Subscription("s1", "threat-level-change.*"))  # overlapping
    broker.subscribe(Subscription("s2", "threat-level-change.*"))
    count = broker.publish(notification())
    assert count == 2  # one delivery per subscriber, not per pattern
    assert broker.poll("s1").seq == 1
    assert broker.poll("s1") is None
    assert broker.poll("s2").seq == 1


def test_subscribe_is_idempotent_unsubscribe_unknown_is_tolerated():
    broker = Broker()
    h1 = broker.subscribe(Subscription("s1", "threat-level-change.*"))
    h2 = broker.subscribe(Subscription("s1", "threat-level-change.*"))
    assert h1.topic_pattern == h2.topic_pattern
    broker.unsubscribe(h1)
    broker.unsubscribe(h1)  # second time only warns
    assert broker.publish(notification()) == 0


def test_repeated_or_older_seq_is_not_delivered_again():
    broker = Broker()
    broker.subscribe(Subscription("s1", "threat-level-change.*"))
    n = notification(seq=5)
    assert broker.publish(n) == 1
    assert broker.publish(n) == 0
    assert broker.pending("s1") == 1
    assert broker.publish(notification(seq=4)) == 0
    assert broker.publish(notification(seq=5, publisher="monitor-2")) == 1  # one watermark per publisher
    assert broker.publish(notification(seq=6)) == 1
    got = [broker.poll("s1") for _ in range(4)]
    assert [(g.publisher_id, g.seq) for g in got[:3]] == [("monitor-1", 5), ("monitor-2", 5), ("monitor-1", 6)]
    assert got[3] is None


def test_no_delivery_without_matching_subscription():
    broker = Broker()
    broker.subscribe(Subscription("s1", "context-change.*"))
    assert broker.publish(notification()) == 0
    assert broker.poll("s1") is None


def test_bounded_queue_drops_oldest():
    broker = Broker(queue_capacity=3)
    broker.subscribe(Subscription("s1", "threat-level-change.*"))
    for seq in range(1, 6):
        broker.publish(notification(seq=seq, ts=1000.0 + seq))
    got = []
    while (n := broker.poll("s1")) is not None:
        got.append(n.seq)
    assert got == [3, 4, 5]  # oldest two dropped
    assert broker.drops("s1") == 2


def test_poll_timeout_blocks_until_delivery():
    broker = Broker()
    broker.subscribe(Subscription("s1", "threat-level-change.*"))

    def later():
        time.sleep(0.05)
        broker.publish(notification())

    threading.Thread(target=later).start()
    start = time.monotonic()
    n = broker.poll("s1", timeout=2.0)
    assert n is not None
    assert time.monotonic() - start < 1.5


def test_publisher_autoincrements_seq():
    broker = Broker()
    broker.subscribe(Subscription("s1", "threat-level-change.*"))
    pub = Publisher(broker, "monitor-1", clock=lambda: 42.0)
    pub.publish(EventType.THREAT_LEVEL_CHANGE, "mapA", probability=0.5, threat_id="T-DOS")
    pub.publish(EventType.THREAT_LEVEL_CHANGE, "mapA", probability=0.6, threat_id="T-DOS")
    first, second = broker.poll("s1"), broker.poll("s1")
    assert (first.seq, second.seq) == (1, 2)
    assert first.timestamp == 42.0


def test_record_roundtrip_drops_null_payload_fields():
    n = notification()
    rec = n.to_record()
    assert rec["payload"] == {"probability": 0.8}
    assert Notification.from_record(json.loads(json.dumps(rec))) == n


def test_server_client_roundtrip():
    server = BusServer().start()
    try:
        sub = BusClient("127.0.0.1", server.port)
        sub.subscribe("sre-1", "threat-level-change.*")
        deadline = time.monotonic() + 2
        while not server.broker.has_subscription("sre-1", "threat-level-change.*"):
            assert time.monotonic() < deadline, "subscription never registered"
            time.sleep(0.01)
        pub = BusClient("127.0.0.1", server.port)
        assert pub.publish(notification()) == 1
        got = sub.receive(timeout=2.0)
        assert got == notification()
        sub.close()
        pub.close()
    finally:
        server.stop()


def test_server_rejects_malformed_publish():
    server = BusServer().start()
    try:
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        raw.sendall(b'{"op":"PUB","topic":"bad"}\n')
        reply = json.loads(raw.makefile().readline())
        assert reply["op"] == "ACKCOUNT"
        assert reply["count"] == -1
        assert "error" in reply
        raw.close()
    finally:
        server.stop()


def test_client_refuses_unreachable_server():
    with pytest.raises(BusError):
        BusClient("127.0.0.1", 1)  # port 1: nothing listens there


def test_wire_transcript_replay():
    """The protocol fixture freezes exact bytes for one subscribe/publish
    exchange; the live server must reproduce them."""
    transcript = json.loads(TRANSCRIPT.read_text())
    server = BusServer().start()
    try:
        sub_sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        for line in transcript["subscriberSends"]:
            sub_sock.sendall(line.encode() + b"\n")
        deadline = time.monotonic() + 2
        while not server.broker.has_subscription("sre-1", "threat-level-change.mapA"):
            assert time.monotonic() < deadline, "SUB line was not applied"
            time.sleep(0.01)

        pub_sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        pub_file = pub_sock.makefile("r", encoding="utf-8", newline="\n")
        for line in transcript["publisherSends"]:
            pub_sock.sendall(line.encode() + b"\n")
        got_acks = [pub_file.readline().rstrip("\n") for _ in transcript["publisherReceives"]]
        assert got_acks == transcript["publisherReceives"]

        sub_file = sub_sock.makefile("r", encoding="utf-8", newline="\n")
        got_msgs = [sub_file.readline().rstrip("\n") for _ in transcript["subscriberReceives"]]
        assert got_msgs == transcript["subscriberReceives"]
        sub_sock.close()
        pub_sock.close()
    finally:
        server.stop()


def test_hundred_publishes_arrive_in_seq_order():
    broker = Broker()
    broker.subscribe(Subscription(subscriber_id="sre", topic_pattern="threat-level-change.*"))
    pub = Publisher(broker, "monitor-1", clock=iter(range(1000, 2000)).__next__)
    for i in range(100):
        pub.publish(
            EventType.THREAT_LEVEL_CHANGE,
            subject_component_id="mapA",
            probability=0.5,
            threat_id="T-DOS",
        )
    got = []
    while True:
        n = broker.poll("sre")
        if n is None:
            break
        got.append(n)
    assert [n.seq for n in got] == list(range(1, 101))
    assert broker.drops("sre") == 0


def test_wildcard_subscriber_sees_every_subject():
    broker = Broker()
    broker.subscribe(Subscription(subscriber_id="sre", topic_pattern="threat-level-change.*"))
    broker.publish(notification(subject="mapA", seq=1))
    broker.publish(notification(subject="mapB", seq=2))
    subjects = [broker.poll("sre").subject_component_id for _ in range(2)]
    assert subjects == ["mapA", "mapB"]


def test_unsubscribing_one_pattern_keeps_the_other():
    broker = Broker()
    keep = broker.subscribe(Subscription(subscriber_id="sre", topic_pattern="threat-level-change.mapA"))
    drop = broker.subscribe(Subscription(subscriber_id="sre", topic_pattern="threat-level-change.mapB"))
    broker.unsubscribe(drop)
    assert broker.publish(notification(subject="mapB", seq=1)) == 0
    assert broker.publish(notification(subject="mapA", seq=2)) == 1
    assert broker.poll("sre").subject_component_id == "mapA"
    assert broker.has_subscription("sre", "threat-level-change.mapA")
    assert not broker.has_subscription("sre", "threat-level-change.mapB")


class FakeBusServer:
    """Single-connection stand-in for BusServer: records every record it
    receives and answers each with the records `reply` returns for it."""

    def __init__(self, reply):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.received = []
        self._reply = reply
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn, conn.makefile("r", encoding="utf-8", newline="\n") as lines:
            for line in lines:
                rec = json.loads(line)
                self.received.append(rec)
                for out in self._reply(rec):
                    conn.sendall((json.dumps(out) + "\n").encode())

    def close(self):
        self._listener.close()
        self._thread.join(timeout=2)


def test_client_rejects_empty_subscriber_id_before_sending():
    def reply(rec):
        if rec["op"] == "SUB" and not rec["subscriberId"]:
            return [{"op": "ACKCOUNT", "count": -1, "error": "empty subscriberId"}]
        return [{"op": "ACKCOUNT", "count": 3}] if rec["op"] == "PUB" else []

    server = FakeBusServer(reply)
    client = BusClient("127.0.0.1", server.port, timeout=2.0)
    try:
        with pytest.raises(ValidationError):
            client.subscribe("", "threat-level-change.*")
        assert client.publish(notification()) == 3
        assert [rec["op"] for rec in server.received] == ["PUB"]
    finally:
        client.close()
        server.close()


def test_client_reader_survives_malformed_msg():
    good = notification(seq=7).to_record()
    good["op"] = "MSG"
    bad = dict(good, type="NoSuchEvent")

    def reply(rec):
        return [bad, good, {"op": "ACKCOUNT", "count": 1}] if rec["op"] == "PUB" else []

    server = FakeBusServer(reply)
    client = BusClient("127.0.0.1", server.port, timeout=2.0)
    try:
        assert client.publish(notification(seq=1)) == 1
        assert client.publish(notification(seq=2)) == 1
        assert client.receive(timeout=2.0) == notification(seq=7)
        assert client.receive(timeout=2.0) == notification(seq=7)
        assert client.receive() is None
    finally:
        client.close()
        server.close()


def test_close_and_stop_end_the_bus_threads():
    server = BusServer().start()
    client = BusClient("127.0.0.1", server.port)
    client.subscribe("sre-1", "threat-level-change.*")
    assert client.publish(notification()) == 1
    client.close()
    client._reader_thread.join(timeout=2)
    assert not client._reader_thread.is_alive()
    server.stop()
    server._accept_thread.join(timeout=2)
    assert not server._accept_thread.is_alive()
