"""Per-layer metrics from the traced server's spans.

Only spans that start inside the timed window count.  A span's self
time is its duration minus the durations of its child spans (children
nest fully: they run on the caller's thread, inside the call).  Every
ratio is printed with its base: ``<span>.calls`` for per-call figures
and ``harness.timed_ops`` for per-op figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from harness import Op
from launcher import TARGETS

#: (metric, unit, span, statistic); statistics:
#:   per_call_ms / per_call_us  total duration ÷ calls
#:   per_op_us                  total duration ÷ timed ops
#:   self_per_op_ms             self time ÷ timed ops
#:   calls_per_op               calls ÷ timed ops
#:   value_per_call             span value (see launcher.TARGETS) ÷ calls
#:   value_per_op               span value ÷ timed ops
#:   us_per_value               total duration ÷ span value
LAYER_METRICS = [
    ("server.encode_response.us_per_op", "us", "server.encode_response", "per_op_us"),
    ("server.encode_response.bytes_per_op", "B", "server.encode_response", "value_per_op"),
    ("engine.execute.requests_per_call", "requests", "engine.execute", "value_per_call"),
    ("engine.execute.self_ms_per_op", "ms", "engine.execute", "self_per_op_ms"),
    ("protocol.spec_key.us_per_op", "us", "protocol.spec_key", "per_op_us"),
    ("protocol.witness_set_from_spec.calls_per_op", "calls/op",
     "protocol.witness_set_from_spec", "calls_per_op"),
    ("protocol.witness_set_from_spec.ms_per_call", "ms",
     "protocol.witness_set_from_spec", "per_call_ms"),
    ("protocol.WitnessSetCache.get.hit_ratio", "ratio",
     "protocol.WitnessSetCache.get", "value_per_call"),
    ("protocol.execute_group.self_ms_per_op", "ms", "protocol.execute_group",
     "self_per_op_ms"),
    ("protocol.draw_samples_coalesced.requests_per_call", "requests",
     "protocol.draw_samples_coalesced", "value_per_call"),
    ("serialization.nfa_from_json.us_per_call", "us", "serialization.nfa_from_json",
     "per_call_us"),
    ("serialization.nfa_from_json.calls_per_op", "calls/op",
     "serialization.nfa_from_json", "calls_per_op"),
    ("fingerprint.fingerprint_source.ms_per_call", "ms",
     "fingerprint.fingerprint_source", "per_call_ms"),
    ("fingerprint.fingerprint_source.calls_per_op", "calls/op",
     "fingerprint.fingerprint_source", "calls_per_op"),
    ("store.get.ms_per_call", "ms", "store.get", "per_call_ms"),
    ("store.get.hit_ratio", "ratio", "store.get", "value_per_call"),
    ("store.put.ms_per_call", "ms", "store.put", "per_call_ms"),
    ("store.get_meta.ms_per_call", "ms", "store.get_meta", "per_call_ms"),
    ("store.put_meta.ms_per_call", "ms", "store.put_meta", "per_call_ms"),
    ("snapshot.kernel_to_bytes.ms_per_call", "ms", "snapshot.kernel_to_bytes",
     "per_call_ms"),
    ("snapshot.kernel_to_bytes.bytes_per_call", "B", "snapshot.kernel_to_bytes",
     "value_per_call"),
    ("snapshot.kernel_from_mmap.ms_per_call", "ms", "snapshot.kernel_from_mmap",
     "per_call_ms"),
    ("plan.lower_plan.ms_per_call", "ms", "plan.lower_plan", "per_call_ms"),
    ("plan.lower_plan.explored_states_per_call", "states", "plan.lower_plan",
     "value_per_call"),
    ("kernel.from_unrolled.ms_per_call", "ms", "kernel.from_unrolled", "per_call_ms"),
    ("kernel.backward_counts.ms_per_call", "ms", "kernel.backward_counts",
     "per_call_ms"),
    ("kernel.sample_batch.us_per_word", "us", "kernel.sample_batch", "us_per_value"),
    ("kernel.sample_batch.words_per_call", "words", "kernel.sample_batch",
     "value_per_call"),
    ("enumeration.algorithm1_page.us_per_item", "us", "enumeration.algorithm1_page",
     "us_per_value"),
    ("enumeration.algorithm1_page.items_per_call", "items",
     "enumeration.algorithm1_page", "value_per_call"),
]

#: Every wrapped function, by span name.
SPANS = [name for _, _, name, _, _ in TARGETS]

HARNESS_METRICS = [
    ("server.outside_engine_ms_p50", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("harness.gen_lag_p50_ms", "ms"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("harness.trace_overhead_p50", "ratio"),
    ("harness.timed_ops", "count"),
    ("error_rate", "fraction"),
]


def all_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in print order."""
    return (
        [(name, unit) for name, unit, _, _ in LAYER_METRICS]
        + [(f"{span}.calls", "count") for span in SPANS]
        + HARNESS_METRICS
    )


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[list[Any]], ops: list[Op], window: tuple[int, int]
) -> dict[str, float]:
    """The span-derived metrics, over ``ops`` (the traced pass's timed,
    completed requests) and the spans that start inside ``window``."""
    start, end = window
    child_ns = [0] * len(spans)
    for name, s, e, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += e - s
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    value: dict[str, float] = defaultdict(float)
    engine_ns: dict[Any, int] = defaultdict(int)
    for index, (name, s, e, _, ids, v) in enumerate(spans):
        if not start <= s <= end:
            continue
        calls[name] += 1
        total[name] += e - s
        self_ns[name] += e - s - child_ns[index]
        value[name] += v
        if name == "engine.execute":
            for request_id in ids or ():
                engine_ns[request_id] += e - s
    n_ops = len(ops)
    out: dict[str, float] = {}
    for metric, _, span, stat in LAYER_METRICS:
        out[metric] = {
            "per_call_ms": _div(total[span], calls[span]) / 1e6,
            "per_call_us": _div(total[span], calls[span]) / 1e3,
            "per_op_us": _div(total[span], n_ops) / 1e3,
            "self_per_op_ms": _div(self_ns[span], n_ops) / 1e6,
            "calls_per_op": _div(calls[span], n_ops),
            "value_per_call": _div(value[span], calls[span]),
            "value_per_op": _div(value[span], n_ops),
            "us_per_value": _div(total[span], value[span]) / 1e3,
        }[stat]
    for span in SPANS:
        out[f"{span}.calls"] = float(calls[span])
    outside = sorted(
        (op.done_ns - op.send_ns - engine_ns[op.request["id"]]) / 1e6 for op in ops
    )
    out["server.outside_engine_ms_p50"] = outside[len(outside) // 2] if outside else 0.0
    out["harness.timed_ops"] = float(n_ops)
    return out
