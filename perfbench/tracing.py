"""The traced run: spans around the program's public functions.

Tracing replaces a name where the calling module looks it up (a module
attribute such as `threatflow.runtime.evaluate`, or a method on a class),
records one span per call, and puts the original back when the run ends.
A span has a name, a start, an end, a parent span and the id of the
benchmark operation it ran under. Spans are kept in memory, per thread, in
flat arrays; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
from array import array

from harness import quantile

# (module path, attribute path, span name); the attribute is looked up where
# the caller finds it, so e.g. rank_plans is replaced in threatflow.runtime
TRACE_POINTS = (
    ("threatflow.bus", "Broker.publish", "bus.publish"),
    ("threatflow.bus", "Broker.subscribe", "bus.subscribe"),
    ("threatflow.bus", "Broker.unsubscribe", "bus.unsubscribe"),
    ("threatflow.bus", "encode_record", "bus.codec"),
    ("threatflow.bus", "decode_record", "bus.codec"),
    ("threatflow.bus", "Notification.from_record", "bus.codec"),
    ("threatflow.runtime", "evaluate", "rules.evaluate"),
    ("threatflow.runtime", "derive_subscriptions", "rules.derive"),
    ("threatflow.runtime", "generate_plans", "composition.generate"),
    ("threatflow.runtime", "rank_plans", "composition.rank"),
    ("threatflow.runtime", "verify_plan", "composition.verify"),
    ("threatflow.runtime", "deploy", "runtime.deploy"),
    ("threatflow.runtime", "DeployedService.on_notification", "runtime.on_notification"),
    ("threatflow.runtime", "DeployedService.act_recompose", "runtime.act_recompose"),
    ("threatflow.runtime", "DeployedService.run_instance", "runtime.run_instance"),
    ("threatflow.bpmn", "parse_bpmn", "bpmn.parse"),
    ("threatflow.bpmn", "validate", "bpmn.validate"),
    ("threatflow.bpmn", "serialize", "bpmn.serialize"),
    ("threatflow.srs", "transform_to_skeleton", "srs.transform"),
    ("threatflow.srs", "check_conformity", "srs.conformity"),
    ("threatflow.repo", "Repository.import_from_model", "repo.import"),
)

# every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = (
    ("bus.publish_us", "us"), ("bus.match_ratio", "ratio"), ("bus.subscribe_us", "us"),
    ("bus.unsubscribe_us", "us"), ("bus.queue_high_water", "count"), ("bus.ack_ms", "ms"),
    ("bus.msg_ms", "ms"), ("bus.msg_p99_ms", "ms"), ("bus.codec_us", "us"),
    ("bus.resend_redelivered", "count"),
    ("rules.evaluate_us", "us"), ("rules.evaluate_calls_per_alert", "count"), ("rules.match_ratio", "ratio"),
    ("rules.derive_ms", "ms"), ("rules.topics_derived", "count"),
    ("composition.generate_ms", "ms"), ("composition.rank_ms", "ms"),
    ("composition.plans_materialized", "count"), ("composition.verify_calls_per_deploy", "count"),
    ("composition.verify_calls_per_recompose", "count"), ("composition.verify_us", "us"),
    ("runtime.on_notification_us", "us"), ("runtime.act_recompose_ms", "ms"),
    ("runtime.plans_skipped_per_recompose", "count"), ("runtime.instances_scanned_per_alert", "count"),
    ("runtime.live_ratio", "ratio"), ("runtime.run_instance_us", "us"), ("runtime.steps_per_instance", "count"),
    ("runtime.instances_retained", "count"), ("runtime.event_log_len", "count"),
    ("bpmn.parse_ms", "ms"), ("bpmn.validate_ms", "ms"), ("bpmn.serialize_ms", "ms"),
    ("srs.transform_ms", "ms"), ("srs.conformity_ms", "ms"), ("repo.import_ms", "ms"),
)

SPANS_WRITTEN_OPS = 50  # spans of set-ups (op 0) and of the first operations go to the file


class _Buffer:
    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the trace points; `rec` supplies the current operation id
    and receives the samples that the hooks take."""

    def __init__(self, rec):
        self.rec = rec
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}
        self._counts_lock = threading.Lock()  # publish hooks run on bus server threads

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def count(self, key: str, amount: float = 1) -> None:
        with self._counts_lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, span: str, after):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        clock = time.perf_counter
        rec = self.rec

        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.op.append(rec.op_id)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        hooks = self._hooks()
        for module_path, attr_path, span in TRACE_POINTS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr]
            after = hooks.get(attr_path)
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, span, after))
            else:
                replacement = self._wrap(original, span, after)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hooks: counts taken where the work happens, after the span has closed

    def _hooks(self) -> dict:
        rec = self.rec

        def published(args, deliveries):
            self.count("publishes")
            self.count("deliveries", deliveries)

        def evaluated(args, matched):
            self.count("evaluate_true", bool(matched))

        def recomposed(args, result):
            svc = args[0]
            if result.switched:
                rank = next(i for i, p in enumerate(svc.plans) if p.plan_id == result.new_plan_id)
                rec.sample("runtime.plans_skipped_per_recompose", rank)

        def notified(args, actions):
            svc = args[0]
            instances = list(svc.instances.values())
            live = sum(1 for i in instances if i.outcome.value == "inProgress")
            rec.sample("runtime.instances_scanned_per_alert", len(instances))
            if instances:
                rec.sample("runtime.live_ratio", live / len(instances))

        return {
            "Broker.publish": published,
            "evaluate": evaluated,
            "DeployedService.act_recompose": recomposed,
            "DeployedService.on_notification": notified,
            "generate_plans": lambda args, plans: rec.sample("composition.plans_materialized", len(plans)),
            "derive_subscriptions": lambda args, topics: rec.sample("rules.topics_derived", len(topics)),
            "DeployedService.run_instance": lambda args, inst: rec.sample("runtime.steps_per_instance", inst.steps),
        }

    # -- reading the spans

    def _spans(self):
        """Each thread's buffer, its span count, and per span the time that
        its child spans cover."""
        for buf in list(self._buffers):
            n = len(buf.end)
            child = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child[p] += buf.end[i] - buf.start[i]
            yield buf, n, child

    def _ancestor(self, buf: _Buffer, i: int, names: set[int]) -> int:
        p = buf.parent[i]
        while p >= 0 and buf.name[p] not in names:
            p = buf.parent[p]
        return buf.name[p] if p >= 0 else -1

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self durations, and the
        grouping counts the per-layer metrics need."""
        ids = {name: i for i, name in enumerate(self.names)}
        durations: dict[str, list[float]] = {name: [] for name in self.names}
        self_total: dict[str, float] = dict.fromkeys(self.names, 0.0)
        under: dict[tuple[str, str], int] = {}
        groups = {ids[n] for n in ("runtime.deploy", "runtime.act_recompose", "runtime.on_notification") if n in ids}
        for buf, n, child in self._spans():
            for i in range(n):
                name = self.names[buf.name[i]]
                dur = buf.end[i] - buf.start[i]
                durations[name].append(dur)
                self_total[name] += dur - child[i]
                if name in ("composition.verify", "rules.evaluate"):
                    anc = self._ancestor(buf, i, groups)
                    if anc >= 0:
                        key = (name, self.names[anc])
                        under[key] = under.get(key, 0) + 1
        return {"durations": durations, "self_total": self_total, "under": under}

    def metrics(self, summary: dict) -> dict[str, dict]:
        rec = self.rec
        dur = summary["durations"]
        under = summary["under"]

        def per_call(name: str, scale: float) -> float:
            """Mean inclusive duration of one call: busy time over calls."""
            values = dur.get(name) or []
            return sum(values) / len(values) * scale if values else 0.0

        def samples(name: str) -> list[float]:
            return rec.layer.get(name, [])

        def sample_median(name: str) -> float:
            values = samples(name)
            return statistics.median(values) if values else 0.0

        def per(key: tuple[str, str], calls_of: str) -> float:
            calls = len(dur.get(calls_of) or [])
            return under.get(key, 0) / calls if calls else 0.0

        publishes = self.counts.get("publishes", 0)
        held = sample_median("bus.subscribers_held")
        evaluations = len(dur.get("rules.evaluate") or [])
        msg = samples("bus.msg_ms")
        values = {
            "bus.publish_us": per_call("bus.publish", 1e6),
            "bus.match_ratio": self.counts.get("deliveries", 0) / (publishes * held) if publishes and held else 0.0,
            "bus.subscribe_us": per_call("bus.subscribe", 1e6),
            "bus.unsubscribe_us": per_call("bus.unsubscribe", 1e6),
            "bus.queue_high_water": max(samples("bus.queue_depth"), default=0),
            "bus.ack_ms": sample_median("bus.ack_ms"),
            "bus.msg_ms": sample_median("bus.msg_ms"),
            "bus.msg_p99_ms": quantile(msg, 99) if msg else 0.0,
            "bus.codec_us": per_call("bus.codec", 1e6),
            "bus.resend_redelivered": sum(samples("bus.resend_redelivered")),
            "rules.evaluate_us": per_call("rules.evaluate", 1e6),
            "rules.evaluate_calls_per_alert": per(("rules.evaluate", "runtime.on_notification"), "runtime.on_notification"),
            "rules.match_ratio": self.counts.get("evaluate_true", 0) / evaluations if evaluations else 0.0,
            "rules.derive_ms": per_call("rules.derive", 1e3),
            "rules.topics_derived": sample_median("rules.topics_derived"),
            "composition.generate_ms": per_call("composition.generate", 1e3),
            "composition.rank_ms": per_call("composition.rank", 1e3),
            "composition.plans_materialized": sample_median("composition.plans_materialized"),
            "composition.verify_calls_per_deploy": per(("composition.verify", "runtime.deploy"), "runtime.deploy"),
            "composition.verify_calls_per_recompose": per(("composition.verify", "runtime.act_recompose"), "runtime.act_recompose"),
            "composition.verify_us": per_call("composition.verify", 1e6),
            "runtime.on_notification_us": per_call("runtime.on_notification", 1e6),
            "runtime.act_recompose_ms": per_call("runtime.act_recompose", 1e3),
            "runtime.plans_skipped_per_recompose": sample_median("runtime.plans_skipped_per_recompose"),
            "runtime.instances_scanned_per_alert": sample_median("runtime.instances_scanned_per_alert"),
            "runtime.live_ratio": sample_median("runtime.live_ratio"),
            "runtime.run_instance_us": per_call("runtime.run_instance", 1e6),
            "runtime.steps_per_instance": sample_median("runtime.steps_per_instance"),
            "runtime.instances_retained": sample_median("runtime.instances_retained"),
            "runtime.event_log_len": sample_median("runtime.event_log_len"),
            "bpmn.parse_ms": per_call("bpmn.parse", 1e3),
            "bpmn.validate_ms": per_call("bpmn.validate", 1e3),
            "bpmn.serialize_ms": per_call("bpmn.serialize", 1e3),
            "srs.transform_ms": per_call("srs.transform", 1e3),
            "srs.conformity_ms": per_call("srs.conformity", 1e3),
            "repo.import_ms": per_call("repo.import", 1e3),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path, summary: dict) -> None:
        """The span summary, and the spans of set-ups and of the first
        SPANS_WRITTEN_OPS operations, as JSON."""
        spans = []
        for buf, n, child in self._spans():
            for i in range(n):
                if buf.op[i] > SPANS_WRITTEN_OPS:
                    continue
                spans.append({
                    "thread": buf.thread_name, "index": i, "name": self.names[buf.name[i]],
                    "start": buf.start[i], "end": buf.end[i], "parent": buf.parent[i],
                    "op": buf.op[i], "self": buf.end[i] - buf.start[i] - child[i],
                })
        doc = {
            "by_name": {
                name: {
                    "calls": len(values),
                    "total_s": sum(values),
                    "self_s": summary["self_total"][name],
                }
                for name, values in summary["durations"].items()
            },
            "spans_written_ops": SPANS_WRITTEN_OPS,
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
