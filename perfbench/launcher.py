"""Start ``repro serve`` through the repro CLI, optionally traced.

Usage::

    python3 perfbench/launcher.py [--trace-out FILE] [--backward-delay-ms MS] \
        -- serve --port 0 --store DIR

Without options this is exactly ``python -m repro serve ...`` run from
the checkout's ``src/``.  ``--trace-out`` wraps the public functions
listed in :data:`TARGETS` before serving (rebinding each name in every
loaded module that imported it) and writes the recorded spans to FILE
when the server shuts down.  ``--backward-delay-ms`` adds a fixed sleep
to every ``CompiledDAG.backward_counts`` call that builds the table
(memoized reads are left alone); the sensitivity self-test uses it.

A span is ``[name, start_ns, end_ns, parent, ids, value]``: ``parent``
is the index of the enclosing span on the same thread (``-1`` for
none), ``ids`` the request ids the call served (``None`` when the call
does not see them; analysis inherits them from the parent), and
``value`` a per-target count (see :data:`TARGETS`).  Times come from
``time.perf_counter_ns``, CLOCK_MONOTONIC on Linux, the clock the load
generator uses too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def _ids_of(requests: Any) -> list[Any]:
    return [r.get("id") for r in requests if isinstance(r, dict)]


def _lowered_states(kernel: Any) -> int:
    stats = getattr(kernel, "lowering", None)
    return stats.explored_states if stats is not None else 0


# (module, attribute path, span name, ids(args), value(args, result, before))
# ``before`` is what the target's ``pre`` hook read before the call.
TARGETS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("repro.service.server", "encode_response", "server.encode_response",
     lambda a: [a[0].get("id")], lambda a, r, b: len(r)),
    ("repro.service.engine", "Engine.execute", "engine.execute",
     lambda a: _ids_of(a[1]), lambda a, r, b: len(a[1])),
    ("repro.service.protocol", "spec_key", "protocol.spec_key", None, None),
    ("repro.service.protocol", "witness_set_from_spec",
     "protocol.witness_set_from_spec", None, None),
    ("repro.service.protocol", "WitnessSetCache.get", "protocol.WitnessSetCache.get",
     None, lambda a, r, b: a[0].hits - b),
    ("repro.service.protocol", "execute_group", "protocol.execute_group",
     lambda a: _ids_of(a[1]), lambda a, r, b: len(a[1])),
    ("repro.service.protocol", "draw_samples_coalesced",
     "protocol.draw_samples_coalesced", None, lambda a, r, b: len(a[1])),
    ("repro.automata.serialization", "nfa_from_json", "serialization.nfa_from_json",
     None, None),
    ("repro.service.fingerprint", "fingerprint_source",
     "fingerprint.fingerprint_source", None, None),
    ("repro.service.store", "KernelStore.get", "store.get",
     None, lambda a, r, b: int(r is not None)),
    ("repro.service.store", "KernelStore.put", "store.put", None, None),
    ("repro.service.store", "KernelStore.get_meta", "store.get_meta", None, None),
    ("repro.service.store", "KernelStore.put_meta", "store.put_meta", None, None),
    ("repro.service.snapshot", "kernel_to_bytes", "snapshot.kernel_to_bytes",
     None, lambda a, r, b: len(r)),
    ("repro.service.snapshot", "kernel_from_mmap", "snapshot.kernel_from_mmap",
     None, None),
    ("repro.core.plan", "lower_plan", "plan.lower_plan",
     None, lambda a, r, b: _lowered_states(r)),
    ("repro.core.kernel", "CompiledDAG.from_unrolled", "kernel.from_unrolled",
     None, None),
    ("repro.core.kernel", "CompiledDAG.backward_counts", "kernel.backward_counts",
     None, None),
    ("repro.core.kernel", "CompiledDAG.sample_batch", "kernel.sample_batch",
     None, lambda a, r, b: len(r)),
    ("repro.core.enumeration", "algorithm1_page", "enumeration.algorithm1_page",
     None, lambda a, r, b: len(r[0])),
]

#: Targets whose value needs a reading taken before the call.
_PRE: dict[str, Callable[[tuple], Any]] = {
    "protocol.WitnessSetCache.get": lambda a: a[0].hits,
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(
        self,
        name: str,
        fn: Callable,
        ids_of: Callable | None,
        value_of: Callable | None,
    ) -> Callable:
        pre = _PRE.get(name)
        local = self._local
        spans = self.spans
        lock = self._lock
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append([name, 0, 0, stack[-1] if stack else -1, None, 0])
            span = spans[index]
            before = pre(args) if pre is not None else None
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if ids_of is not None:
                span[4] = ids_of(args)
            if value_of is not None:
                span[5] = value_of(args, result, before)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def _delayed(fn: Callable, delay_s: float) -> Callable:
    @functools.wraps(fn)
    def delayed(*args: Any, **kwargs: Any) -> Any:
        time.sleep(delay_s)
        return fn(*args, **kwargs)

    return delayed


def _when_building(build: Callable, read: Callable) -> Callable:
    """``backward_counts`` that calls ``build`` only while the table is
    not built yet: the memoized read on every sample is a dict lookup,
    not the layer's work, so it is neither delayed nor a span."""

    @functools.wraps(read)
    def backward_counts(self: Any) -> Any:
        return (build if self._backward is None else read)(self)

    return backward_counts


def _rebind(owner: Any, attr: str, original: Any, replacement: Any) -> None:
    """Install ``replacement`` on ``owner`` and at every module-level name
    bound to ``original`` (``from module import name`` copies)."""
    setattr(owner, attr, replacement)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer: Tracer | None, backward_delay_ms: float = 0.0) -> None:
    """Wrap the targets: all of them when tracing, and
    ``backward_counts`` alone for a delay without tracing."""
    import repro.cli  # noqa: F401  (loads the serving stack before rebinding)

    for module_name, path, name, ids_of, value_of in TARGETS:
        is_backward = name == "kernel.backward_counts"
        if tracer is None and not (is_backward and backward_delay_ms > 0):
            continue
        module = importlib.import_module(module_name)
        owner: Any = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = fn
        if is_backward and backward_delay_ms > 0:
            wrapped = _delayed(wrapped, backward_delay_ms / 1000.0)
        if tracer is not None:
            wrapped = tracer.wrap(name, wrapped, ids_of, value_of)
        if is_backward:
            wrapped = _when_building(wrapped, fn)
        _rebind(owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped)


def main(argv: list[str]) -> int:
    trace_out = None
    delay_ms = 0.0
    while argv and argv[0] != "--":
        flag = argv.pop(0)
        if flag == "--trace-out":
            trace_out = argv.pop(0)
        elif flag == "--backward-delay-ms":
            delay_ms = float(argv.pop(0))
        else:
            print(f"launcher: unknown option {flag}", file=sys.stderr)
            return 2
    if argv:
        argv.pop(0)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if trace_out else None
    if tracer is not None or delay_ms > 0:
        install(tracer, delay_ms)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
