import json
import logging
import socket
import sys
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
                for out in self._reply(rec):  # bytes go out as they are
                    conn.sendall(out if isinstance(out, bytes) else (json.dumps(out) + "\n").encode())

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


def test_client_inbox_keeps_the_newest_records_like_a_broker_queue():
    burst = b"".join(
        (json.dumps(dict(notification(seq=seq).to_record(), op="MSG")) + "\n").encode()
        for seq in range(1, 5001)
    )

    def reply(rec):
        return [burst, {"op": "ACKCOUNT", "count": 1}] if rec["op"] == "PUB" else []

    server = FakeBusServer(reply)
    client = BusClient("127.0.0.1", server.port, timeout=5.0)
    try:
        assert client.publish(notification()) == 1  # the reader has queued the burst before the ack
        got = []
        while (n := client.receive()) is not None:
            got.append(n.seq)
        assert got == list(range(5001 - bus.DEFAULT_QUEUE_CAPACITY, 5001))
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


def wait_until(condition, what, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def threads_since(before, *clients):
    """Threads started after the `before` snapshot, less the clients' readers."""
    readers = {c._reader_thread for c in clients}
    return [t for t in threading.enumerate() if t not in before and t not in readers]


def join_all(threads):
    for t in threads:
        t.join(timeout=2)
    assert [t for t in threads if t.is_alive()] == []


def test_poll_none_waits_for_an_item_or_close():
    queue = bus._SubscriberQueue(4)
    for later, expected in ((lambda: queue.offer(notification()), notification()), (queue.close, None)):
        t = threading.Thread(target=lambda: (time.sleep(0.05), later()))
        t.start()
        assert queue.poll(None) == expected
        join_all([t])
    assert queue.poll() is None


def test_idle_connection_with_200_ids_runs_three_server_threads():
    before = set(threading.enumerate())
    server = BusServer().start()
    client = BusClient("127.0.0.1", server.port)
    pub = None
    try:
        for i in range(200):
            client.subscribe(f"sre-{i}", "threat-level-change.*")
        wait_until(lambda: server.broker.has_subscription("sre-199", "threat-level-change.*"),
                   "the last SUB was never applied")
        assert len(threads_since(before, client)) == 3  # accept, reader, writer
        pub = BusClient("127.0.0.1", server.port)
        assert pub.publish(notification()) == 200
        got = [client.receive(timeout=2.0) for _ in range(200)]
        assert got == [notification()] * 200
    finally:
        for c in (client, pub):
            if c is not None:
                c.close()
        server.stop()


def test_stop_ends_every_connection_thread_with_clients_still_open():
    before = set(threading.enumerate())
    server = BusServer().start()
    clients = [BusClient("127.0.0.1", server.port) for _ in range(3)]
    try:
        for i, client in enumerate(clients):
            client.subscribe(f"sre-{i}", "threat-level-change.*")
        wait_until(lambda: server.broker.has_subscription("sre-1", "threat-level-change.*")
                   and server.broker.has_subscription("sre-2", "threat-level-change.*"),
                   "a SUB was never applied")
        assert clients[0].publish(notification()) == 3
        for client in clients:
            assert client.receive(timeout=2.0) == notification()
        server_threads = threads_since(before, *clients)
        assert len(server_threads) == 7  # accept, then a reader and a writer per connection
        server.stop()
        join_all(server_threads)
        assert server.broker.publish(notification(seq=2)) == 0  # every id was released
    finally:
        for client in clients:
            client.close()
        server.stop()


def test_tcp_unsub_or_repeated_sub_then_disconnect_logs_no_warning(caplog):
    server = BusServer().start()
    try:
        before = set(threading.enumerate())
        client = BusClient("127.0.0.1", server.port)
        client.subscribe("sre-1", "threat-level-change.*")
        client.subscribe("sre-1", "threat-level-change.*")
        client.subscribe("sre-2", "threat-level-change.*")
        client.unsubscribe("sre-2", "threat-level-change.*")
        assert client.publish(notification()) == 1  # the reply follows every record before it
        assert client.receive(timeout=2.0) == notification()
        with caplog.at_level(logging.WARNING, logger="threatflow.bus"):
            client.close()
            join_all(threads_since(before))
        assert caplog.records == []
        assert server.broker.publish(notification(seq=2)) == 0
    finally:
        server.stop()


def test_newer_connection_takes_a_subscriber_id_over():
    server = BusServer().start()
    old, new, pub = (BusClient("127.0.0.1", server.port) for _ in range(3))
    try:
        old.subscribe("sre-1", "threat-level-change.*")
        wait_until(lambda: server.broker.has_subscription("sre-1", "threat-level-change.*"),
                   "the older SUB was never applied")
        new.subscribe("sre-1", "threat-level-change.mapA")
        wait_until(lambda: server.broker.has_subscription("sre-1", "threat-level-change.mapA"),
                   "the newer SUB was never applied")
        for seq in range(1, 21):
            assert pub.publish(notification(seq=seq)) == 1
        assert [new.receive(timeout=2.0).seq for _ in range(20)] == list(range(1, 21))
        assert old.receive(timeout=0.1) is None
        old.close()
        wait_until(lambda: len(server._conns) == 2, "the older connection was never torn down")
        assert server.broker.has_subscription("sre-1", "threat-level-change.*")
        assert server.broker.has_subscription("sre-1", "threat-level-change.mapA")
        assert pub.publish(notification(seq=21)) == 1
        assert new.receive(timeout=2.0).seq == 21
    finally:
        for client in (old, new, pub):
            client.close()
        server.stop()


def test_tcp_churn_leaves_no_broker_entries():
    server = BusServer().start()
    try:
        before = set(threading.enumerate())
        for i in range(50):
            client = BusClient("127.0.0.1", server.port)
            client.subscribe(f"churn-{i}", "threat-level-change.*")
            client.close()
        join_all(threads_since(before))
        assert [sid for sid in server.broker._queues if sid.startswith("churn-")] == []
        assert server.broker.publish(notification()) == 0
    finally:
        server.stop()


def test_concurrent_publishers_reach_a_shared_outbox_in_order():
    server = BusServer().start()
    sub = BusClient("127.0.0.1", server.port)
    pubs = [BusClient("127.0.0.1", server.port) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for sid in ("sre-1", "sre-2"):
            sub.subscribe(sid, "threat-level-change.*")
        wait_until(lambda: server.broker.has_subscription("sre-2", "threat-level-change.*"),
                   "the last SUB was never applied")

        counts = []

        def publish_all(client, publisher):
            for seq in range(1, 51):
                counts.append(client.publish(notification(seq=seq, publisher=publisher)))

        workers = [threading.Thread(target=publish_all, args=(c, f"monitor-{i}")) for i, c in enumerate(pubs)]
        for t in workers:
            t.start()
        join_all(workers)
        assert counts == [2] * 200
        got = [sub.receive(timeout=2.0) for _ in range(400)]
        assert None not in got and sub.receive(timeout=0.05) is None
        for i in range(4):
            seqs = [n.seq for n in got if n.publisher_id == f"monitor-{i}"]
            assert seqs == [seq for seq in range(1, 51) for _ in range(2)]  # one copy per id, FIFO
    finally:
        sys.setswitchinterval(interval)
        for client in (sub, *pubs):
            client.close()
        server.stop()


def test_poll_wakes_on_an_offer_made_while_it_waits():
    queue = bus._SubscriberQueue(4)
    got = []
    t = threading.Thread(target=lambda: got.append(queue.poll(timeout=5)))
    started = time.monotonic()
    t.start()
    wait_until(lambda: queue._waiting == 1, "the poller never began waiting")
    queue.offer(notification())
    join_all([t])
    assert got == [notification()]
    assert time.monotonic() - started < 2.0  # woken by the offer, not by the 5 s timeout
    assert queue._waiting == 0


def test_offer_to_a_full_queue_with_a_waiting_poller_drops_the_oldest():
    queue = bus._SubscriberQueue(2)
    got = []
    t = threading.Thread(target=lambda: got.append(queue.poll(timeout=5)))
    t.start()
    wait_until(lambda: queue._waiting == 1, "the poller never began waiting")
    with queue._lock:  # the woken poller cannot take an item until all three are offered
        for seq in (1, 2, 3):
            queue.offer(notification(seq=seq))
        assert queue._waiting == 1
        assert queue.drops == 1 and len(queue) == 2
    join_all([t])
    assert [n.seq for n in got] == [2]
    assert queue.poll().seq == 3 and queue.poll() is None
    assert queue.drops == 1


def _malformed(field, value):
    rec = notification(seq=1).to_record()
    rec["op"] = "PUB"
    if field in ("probability", "value"):
        rec["payload"][field] = value
    else:
        rec[field] = value
    return rec


@pytest.mark.parametrize("bad", [
    _malformed("seq", "x"),
    _malformed("seq", float("inf")),
    _malformed("payload", "x"),
    _malformed("probability", "hi"),
    _malformed("value", {"a": 1}),
    _malformed("subjectComponentId", 7),
    _malformed("publisherId", [1]),
    _malformed("threatId", [1]),
    {"op": "SUB", "subscriberId": "sre-2", "topicPattern": 7},
    b'{"op": "PUB", "publisherId": "\xff"}\n',
], ids=["seq", "seq-infinite", "payload", "probability", "value", "subject", "publisher",
        "threat", "topic-pattern", "not-utf8"])
def test_malformed_record_gets_an_error_reply_and_keeps_the_connection(bad, monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    server = BusServer().start()
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    lines = raw.makefile("r", encoding="utf-8", newline="\n")
    before = set(threading.enumerate())
    try:
        raw.sendall(b'{"op":"SUB","subscriberId":"sre-1","topicPattern":"threat-level-change.*"}\n')
        wait_until(lambda: server.broker.has_subscription("sre-1", "threat-level-change.*"),
                   "the SUB was never applied")
        raw.sendall(bad if isinstance(bad, bytes) else (json.dumps(bad) + "\n").encode())
        reply = json.loads(lines.readline())
        assert (reply["op"], reply["count"]) == ("ACKCOUNT", -1) and reply["error"]
        good = notification(seq=2).to_record()
        good["op"] = "PUB"
        raw.sendall((json.dumps(good) + "\n").encode())
        replies = [json.loads(lines.readline()) for _ in range(2)]  # the ACKCOUNT and sre-1's MSG
        assert {"op": "ACKCOUNT", "count": 1} in replies
    finally:
        lines.close()
        raw.close()
        server.stop()
    join_all(threads_since(before))
    assert raised == []


def test_client_reader_skips_a_record_it_cannot_decode(monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)

    def reply(rec):
        if rec["op"] != "PUB":
            return []
        return [b'{"op": "ACKCOUNT", "count": 1\n', b'"\xff"\n', [1, 2], "x", {"count": 1},
                {"op": "ACKCOUNT", "count": 1}]

    server = FakeBusServer(reply)
    client = BusClient("127.0.0.1", server.port, timeout=2.0)
    try:
        assert client.publish(notification(seq=1)) == 1
        assert client.publish(notification(seq=2)) == 1
    finally:
        client.close()
        server.close()
    assert raised == []


def test_close_releases_the_reader_file_and_ends_its_thread():
    server = BusServer().start()
    client = BusClient("127.0.0.1", server.port)
    try:
        assert client.publish(notification()) == 0
        client.close()
        assert client._reader.closed
        assert not client._reader_thread.is_alive()
    finally:
        server.stop()


def test_unsubscribe_churn_forgets_every_id():
    broker = Broker()
    for i in range(1000):
        broker.unsubscribe(broker.subscribe(Subscription(f"id-{i}", f"threat-level-change.c{i}")))
    assert broker._queues == {} and broker._subscribers == {}
    for pattern in ("threat-level-change.mapA", "threat-level-change.*"):
        broker.subscribe(Subscription("twice", pattern))
        broker.subscribe(Subscription("twice", pattern))  # idempotent: one pattern held, not two
    broker.unsubscribe(bus.SubscriptionHandle("twice", "threat-level-change.mapA", broker))
    assert "twice" in broker._queues
    broker.unsubscribe(bus.SubscriptionHandle("twice", "threat-level-change.*", broker))
    assert broker._queues == {}


def test_unsubscribing_the_last_pattern_keeps_pending_items_drainable():
    broker = Broker()
    handle = broker.subscribe(Subscription("sre", "threat-level-change.mapA"))
    assert broker.publish(notification(seq=1)) == 1
    broker.unsubscribe(handle)
    assert broker.publish(notification(seq=2)) == 0
    assert broker.poll("sre").seq == 1 and broker.poll("sre") is None
    broker.subscribe(Subscription("sre", "threat-level-change.mapA"))
    assert broker.publish(notification(seq=3)) == 1 and broker.poll("sre").seq == 3


def test_release_touches_only_the_patterns_the_id_holds():
    class NoScan(dict):
        def _scan(self, *args):
            raise AssertionError("release scanned the whole pattern index")

        items = keys = values = __iter__ = _scan

    broker = Broker()
    for i in range(200):
        broker.subscribe(Subscription(f"bystander-{i}", f"threat-level-change.c{i}"))
    outbox = bus._SubscriberQueue(8)
    for pattern in ("threat-level-change.mapA", "threat-level-change.*", "threat-level-change.c7"):
        broker.subscribe(Subscription("conn", pattern), queue=outbox)
    broker._subscribers = NoScan(broker._subscribers)
    broker.release("conn", outbox)
    assert not broker.has_subscription("conn", "threat-level-change.c7")
    assert broker.has_subscription("bystander-7", "threat-level-change.c7")
    assert "threat-level-change.mapA" not in broker._subscribers
    assert "conn" not in broker._queues and "conn" not in broker._held
    assert broker.publish(notification(subject="c7")) == 1


def test_draining_an_unsubscribed_id_forgets_it():
    broker = Broker()
    for i in range(1000):
        handle = broker.subscribe(Subscription(f"id-{i}", "threat-level-change.mapA"))
        assert broker.publish(notification(seq=i + 1)) == 1
        broker.unsubscribe(handle)
        assert broker.poll(f"id-{i}").seq == i + 1
        assert broker.poll(f"id-{i}") is None
    assert broker._queues == {} and broker._held == {} and broker._subscribers == {}


def test_idle_clients_keep_their_readers_past_the_connect_timeout():
    server = BusServer().start()
    monitor = BusClient("127.0.0.1", server.port, timeout=0.3)
    observer = BusClient("127.0.0.1", server.port, timeout=0.3)
    try:
        observer.subscribe("sre-1", "threat-level-change.*")
        wait_until(lambda: server.broker.has_subscription("sre-1", "threat-level-change.*"),
                   "subscription never registered")
        time.sleep(0.6)  # both sockets stay silent for twice their timeout
        assert monitor.publish(notification()) == 1
        assert observer.receive(timeout=2.0) == notification()
        assert monitor._reader_thread.is_alive() and observer._reader_thread.is_alive()
    finally:
        monitor.close()
        observer.close()
        server.stop()


def test_client_drops_counts_what_a_full_inbox_dropped():
    burst = b"".join(
        (json.dumps(dict(notification(seq=seq).to_record(), op="MSG")) + "\n").encode()
        for seq in range(1, 5001)
    )
    server = FakeBusServer(lambda rec: [burst, {"op": "ACKCOUNT", "count": 1}] if rec["op"] == "PUB" else [])
    client = BusClient("127.0.0.1", server.port, timeout=5.0)
    try:
        assert client.drops == 0
        assert client.publish(notification()) == 1  # the reader has queued the burst before the ack
        assert client.drops == 5000 - bus.DEFAULT_QUEUE_CAPACITY
        assert client.receive().seq == 5001 - bus.DEFAULT_QUEUE_CAPACITY
    finally:
        client.close()
        server.close()


def test_lock_free_queue_under_racing_pollers_duplicates_and_reorders_nothing():
    queue = bus._SubscriberQueue(8)
    offered = 200_000
    offers_done, closing = threading.Event(), threading.Event()
    waiting_got, instant_got, none_before_close = [], [], []

    def offer_all():
        for i in range(offered):
            queue.offer(i)
        offers_done.set()

    def poll_waiting():
        while (item := queue.poll(None)) is not None:
            waiting_got.append(item)
        none_before_close.append(not closing.is_set())

    def poll_instant():
        while not offers_done.is_set():
            if (item := queue.poll(0.0)) is not None:
                instant_got.append(item)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=f) for f in (poll_waiting, poll_instant, offer_all)]
        for t in threads:
            t.start()
        for t in threads[1:]:
            t.join(timeout=60)
        closing.set()
        queue.close()
        join_all(threads[:1])
    finally:
        sys.setswitchinterval(interval)
    assert [t for t in threads if t.is_alive()] == []
    assert none_before_close == [False]  # poll(None) gave None once, and only after close()
    for got in (waiting_got, instant_got):
        assert all(a < b for a, b in zip(got, got[1:]))  # FIFO for each poller
    assert not set(waiting_got) & set(instant_got)
    received, remaining = len(waiting_got) + len(instant_got), len(queue)
    assert received + remaining <= offered <= received + remaining + queue.drops
    assert queue._waiting == 0


class CountingLock:
    """A reentrant lock that counts its acquires."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquires = 0

    def acquire(self, *args):
        self.acquires += 1
        return self._lock.acquire(*args)

    def release(self):
        self._lock.release()

    def _is_owned(self):
        return self._lock._is_owned()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


def test_offer_and_poll_that_need_not_wait_take_no_lock():
    broker = Broker()
    broker.subscribe(Subscription("sre", "threat-level-change.mapA"))
    queue = broker._queues["sre"]
    queue._lock = CountingLock()
    queue._cond = threading.Condition(queue._lock)
    broker._lock = CountingLock()
    queue.offer(notification(seq=1))
    queue.offer(notification(seq=2))
    assert queue.poll(0.0).seq == 1
    assert broker.poll("sre").seq == 2
    assert broker.pending("sre") == 0 and broker.drops("sre") == 0
    assert (queue._lock.acquires, broker._lock.acquires) == (0, 0)
    assert queue.poll(0.01) is None  # only a poll that waits takes the queue's lock
    assert queue._lock.acquires > 0
