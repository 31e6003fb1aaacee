"""End-to-end benchmark of the witness service (``repro serve``).

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts the real server (``repro serve --port 0 --store <fresh
dir>``, every other flag at its CLI default) through
``perfbench/launcher.py``, drives it from this one thread over at most
two TCP connections, checks every answer (see ``checks.py``) and prints
one ``<workload> <metric> = <value> <unit>`` line per metric, a run
record, and finally one JSON result line.

``--trace 0`` measures the end-to-end metrics: set-up is repeated
``SETUPS`` times (spawn + warm-up, median reported) and the last server
serves the timed window.  ``--trace 1`` serves the same requests twice,
untraced and then traced (the launcher wraps the layer functions), and
reports the per-layer metrics of the traced window, the traced ÷
untraced latency ratio, and fails if the two passes' replies differ on
the checked subset.

Workloads (inputs depend only on ``--seed``; see ``workloads.py``):
``hot_sample`` (open loop, resident kernels), ``cold_count`` (closed
loop, never-seen specs, empty store), ``store_churn`` (closed loop,
every request restores from the store) and ``enum_stream`` (closed
loop, streamed enumeration resumed by cursor).

End-to-end metrics (gated in ``BENCHMARK.json``): ``setup_s`` (spawn
to the end of the warm-up requests, median of the set-ups);
``ops_per_s`` (completed requests per second of the window; a stream
is one op); ``latency_p50_ms`` (from when a request was due: its send
time in a closed loop, its scheduled time in the open loop; a stream
until its last chunk); ``items_per_s`` (result items per second:
sampled or enumerated witnesses, one per ``count`` answer);
``first_item_ms`` (median from sending a request to its first reply
line); ``server_cpu_ms_per_op`` (server user+sys CPU over the window
from ``/proc/<pid>/stat``, per completed op); ``server_peak_rss_mb``
(server ``VmHWM`` after the window).  On the open-loop ``hot_sample``,
``ops_per_s`` and ``items_per_s`` follow the seeded offered rate: they
only show that the server keeps up, and ``latency_p50_ms`` and
``server_cpu_ms_per_op`` carry its performance.  ``latency_p90_ms`` and
``latency_p99_ms`` (nearest rank; the record gives their sample counts)
and ``error_rate`` (failed ÷ attempted: an ``ok: false`` reply, a wrong
answer or no reply within ``REPLY_TIMEOUT_S``) are printed too.

Exit codes: 0 valid run, 1 an answer was wrong (result line printed,
``correct`` false), 2 usage or missing program, 3 the open-loop
generator ran late beyond ``MAX_GEN_LAG_MS`` (invalid, not slow).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Checker, canonical, subset_ids  # noqa: E402
from harness import (  # noqa: E402
    ROOT, Op, Server, closed_loop, now_ns, open_loop, warm_up,
)
from layers import all_names, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, encode  # noqa: E402

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5

#: An open-loop run whose generator sent its median (99th-percentile)
#: request later than this after its due time is invalid: latency counts
#: from the due time, so generator lag would read as server latency.
#: 0.5 ms is under 7% of ``hot_sample``'s ~7 ms median latency; 15 ms is
#: about its 99th-percentile latency.
MAX_GEN_LAG_MS = {50: 0.5, 99: 15.0}

#: Gated end-to-end metrics (``--trace 0``).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("items_per_s", "witnesses/s"),
    ("first_item_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_peak_rss_mb", "MB"),
]

#: Printed with every run but not gated: on a small shared machine their
#: run-to-run spread is wider than any useful regression bound.  A
#: traced run reports them (from its untraced pass) with the layers.
TAILS = [("latency_p90_ms", "ms"), ("latency_p99_ms", "ms")]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


@dataclass
class Pass:
    setup_s: list[float] = field(default_factory=list)
    warmup: list[Op] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    cpu_ms: float = 0.0
    peak_rss_mb: float = 0.0
    kernel_backend: str = "unknown"
    spans: list[list[Any]] = field(default_factory=list)

    @property
    def done(self) -> list[Op]:
        return [op for op in self.ops if op.ok]

    @property
    def window(self) -> tuple[int, int]:
        done = [op for op in self.ops if op.done_ns]
        return min(op.due_ns for op in self.ops), max(op.done_ns for op in done)


def prepare_store(wl: Workload, work: Path) -> Path | None:
    """store_churn: fill a store once, through a server of its own."""
    if not wl.prepare:
        return None
    store = work / "churn-store"
    server = Server(store, work / "prepare.log")
    try:
        server.wait_ready()
        conn = server.connect()
        try:
            conn.sock.sendall(b"".join(encode(r) for r in wl.prepare))
            for _ in wl.prepare:
                reply = json.loads(conn.read_line(120.0))
                if not reply.get("ok"):
                    raise RuntimeError(f"store preparation failed: {reply}")
        finally:
            conn.close()
    finally:
        server.stop()
    return store


def run_pass(
    wl: Workload,
    work: Path,
    label: str,
    setups: int,
    seconds: float,
    store: Path | None,
    traced: bool = False,
    backward_delay_ms: float = 0.0,
) -> Pass:
    result = Pass()
    trace_out = work / f"{label}-spans.json" if traced else None
    server = None
    for i in range(setups):
        if server is not None:
            server.stop()
        started = now_ns()
        server = Server(
            store if store is not None else work / f"{label}-store-{i}",
            work / f"{label}-server-{i}.log",
            trace_out=trace_out if i == setups - 1 else None,
            backward_delay_ms=backward_delay_ms,
        )
        try:
            server.wait_ready()
            cursors: dict[str, Any] = {}
            result.warmup = warm_up(server, wl, cursors)
        except BaseException:
            server.stop()
            raise
        result.setup_s.append((now_ns() - started) / 1e9)
    assert server is not None
    try:
        cpu_before = server.cpu_ms()
        if wl.rate is not None:
            result.ops = open_loop(server, wl)
        else:
            result.ops = closed_loop(server, wl, seconds, cursors)
        result.cpu_ms = server.cpu_ms() - cpu_before
        result.peak_rss_mb = server.peak_rss_mb()
        conn = server.connect()
        try:
            described = conn.request(
                {"id": "describe", "op": "describe", "spec": wl.warmup[0]["spec"]}
            )
            result.kernel_backend = described["result"]["kernel_backend"]
        finally:
            conn.close()
    finally:
        server.stop()
    if trace_out is not None:
        result.spans = json.loads(trace_out.read_text())["spans"]
    return result


def end_to_end(p: Pass) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics (tails included) and how each tail was taken."""
    done = p.done
    start, end = p.window
    window_s = (end - start) / 1e9
    latency = [(op.done_ns - op.due_ns) / 1e6 for op in done]
    items = 0
    for op in done:
        for reply in op.replies:
            result = reply.get("chunk", reply.get("result"))
            items += len(result) if isinstance(result, list) else 1
    metrics = {
        "setup_s": statistics.median(p.setup_s),
        "ops_per_s": len(done) / window_s,
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "latency_p99_ms": percentile(latency, 99),
        "items_per_s": items / window_s,
        "first_item_ms": statistics.median((op.first_ns - op.send_ns) / 1e6 for op in done),
        "server_cpu_ms_per_op": p.cpu_ms / len(done),
        "server_peak_rss_mb": p.peak_rss_mb,
    }
    tails = {
        name: {"percentile": q, "method": "nearest-rank", "samples": len(latency),
               "samples_beyond": len(latency) - int(max(1, -(-len(latency) * q // 100)))}
        for name, q in (("latency_p50_ms", 50), ("latency_p90_ms", 90),
                        ("latency_p99_ms", 99))
    }
    return metrics, tails


def gen_lag_ms(p: Pass, q: float) -> float:
    return percentile([(op.send_ns - op.due_ns) / 1e6 for op in p.ops], q)


def check_pass(checker: Checker, wl: Workload, p: Pass) -> set[Any]:
    subset = subset_ids(p.ops, wl.name, wl.seed)
    checker.check(p.ops, subset, p.warmup)
    return subset


def _comparable(op: Op) -> str:
    """A reply minus ``coalesced`` (how many requests shared the kernel
    pass — a timing fact, not part of the answer)."""
    return canonical([
        {key: value for key, value in reply.items() if key != "coalesced"}
        for reply in op.replies
    ])


def compare_passes(a: Pass, b: Pass, subset: set[Any]) -> None:
    """Fail the ops of ``b`` in ``subset`` whose replies differ from ``a``'s."""
    by_id = {op.request["id"]: op for op in a.ops if op.ok}
    for op in b.ops:
        other = by_id.get(op.request["id"])
        if op.request["id"] in subset and op.ok and other is not None:
            if _comparable(op) != _comparable(other):
                op.ok = False
                op.error = "traced reply differs from the untraced reply"


def run_record(wl: Workload, args: argparse.Namespace, passes: dict[str, Pass],
               tails: dict[str, Any]) -> dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rate_per_s": wl.rate,
        "loop": "open" if wl.rate is not None else "closed",
        "connections": wl.connections,
        "ops": {
            label: {"attempted": len(p.ops), "completed": len(p.done),
                    "warmup": len(p.warmup), "setups": len(p.setup_s)}
            for label, p in passes.items()
        },
        "tails": tails,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": next(iter(passes.values())).kernel_backend,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sensitivity self-test only (selftest.py): sleep this long in every
    # backward_counts call that builds the table.
    parser.add_argument("--backward-delay-ms", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A traced run serves the requests twice (untraced, then traced) in
    # half the window each, so it measures as long as an untraced run.
    window = args.seconds / 2 if args.trace else args.seconds
    wl = WORKLOADS[args.workload](args.seed, window)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{wl.name}-{wl.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    delay = args.backward_delay_ms
    try:
        store = prepare_store(wl, work)
        passes = {"untraced": run_pass(wl, work, "untraced", 1 if args.trace else SETUPS,
                                       window, store, backward_delay_ms=delay)}
        if args.trace:
            passes["traced"] = run_pass(wl, work, "traced", 1, window, store,
                                        traced=True, backward_delay_ms=delay)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    checker = Checker()
    subsets = {label: check_pass(checker, wl, p) for label, p in passes.items()}
    if args.trace:
        compare_passes(passes["untraced"], passes["traced"], subsets["traced"])
    all_ops = [op for p in passes.values() for op in p.ops]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if not op.ok)
    for op in all_ops:
        if not op.ok:
            print(f"failed request {op.request['id']!r}: {op.error}", file=sys.stderr)
    if any(not p.done for p in passes.values()):
        print("perfbench: no timed request was answered correctly", file=sys.stderr)
        return 1

    metrics, tails = end_to_end(passes["untraced"])
    names = END_TO_END
    if args.trace:
        traced = passes["traced"]
        overhead = end_to_end(traced)[0]["latency_p50_ms"] / metrics["latency_p50_ms"]
        metrics = dict(
            layer_metrics(traced.spans, traced.done, traced.window),
            **{name: metrics[name] for name, _ in TAILS},
        )
        metrics["harness.trace_overhead_p50"] = overhead
        names = all_names()
    lag = {q: max(gen_lag_ms(p, q) for p in passes.values()) for q in MAX_GEN_LAG_MS}
    metrics["error_rate"] = failed / attempted
    for q, value in lag.items():
        metrics[f"harness.gen_lag_p{q}_ms"] = value
    extra = TAILS + [("error_rate", "fraction")]
    extra += [(f"harness.gen_lag_p{q}_ms", "ms") for q in MAX_GEN_LAG_MS]
    for name, unit in names + [m for m in extra if m not in names]:
        print(f"{wl.name} {name} = {metrics[name]:.6g} {unit}")
    record = run_record(wl, args, passes, tails)
    print("record " + json.dumps(record, sort_keys=True))
    late = [q for q, bound in MAX_GEN_LAG_MS.items() if lag[q] > bound]
    if wl.rate is not None and late:
        for q in late:
            print(f"invalid run: generator p{q} lag {lag[q]:.3f} ms"
                  f" > {MAX_GEN_LAG_MS[q]} ms", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
