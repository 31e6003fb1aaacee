"""Seeded inputs for the four workloads.

Every spec and request is derived from the benchmark seed alone; the
server only ever sees the generated request lines.  The generators here
are the benchmark's own (not ``repro.automata.random_gen``), so a change
to the library cannot silently change the workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

#: ``repro serve`` default ``--max-resident``; store_churn cycles over
#: four times as many specs so every request misses the resident cache.
DEFAULT_MAX_RESIDENT = 64
CHURN_SPECS = 4 * DEFAULT_MAX_RESIDENT

HOT_RATE_PER_S = 120.0
ENUM_LIMIT = 3000


def encode(request: dict[str, Any]) -> bytes:
    return json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"


def dfa_word_count(doc: dict[str, Any], n: int) -> int:
    """Words of length ``n`` accepted by a ``repro.nfa`` document that is
    deterministic (one run per word, so runs = words)."""
    step: dict[Any, list[Any]] = {}
    for source, _symbol, target in doc["transitions"]:
        step.setdefault(source, []).append(target)
    finals = set(doc["finals"])
    counts = {state: 1 if state in finals else 0 for state in doc["states"]}
    for _ in range(n):
        counts = {
            state: sum(counts[target] for target in step.get(state, ()))
            for state in doc["states"]
        }
    return counts[doc["initial"]]


def random_dfa(rng: random.Random, states: int) -> dict[str, Any]:
    """A random complete DFA over ``ab`` (so a UFA) with 30% final states,
    as a ``repro.nfa`` JSON document.  Complete DFAs of one size compile
    to kernels of similar size, which keeps per-request cost, and so the
    run-to-run spread, narrow."""
    return {
        "format": "repro.nfa",
        "version": 1,
        "states": list(range(states)),
        "alphabet": ["a", "b"],
        "initial": 0,
        "finals": sorted(rng.sample(range(states), round(0.3 * states))),
        "transitions": [
            [source, symbol, rng.randrange(states)]
            for source in range(states)
            for symbol in "ab"
        ],
    }


def sampleable_dfa(rng: random.Random, states: int, n: int) -> dict[str, Any]:
    """:func:`random_dfa` with a nonempty length-``n`` language."""
    while True:
        doc = random_dfa(rng, states)
        if dfa_word_count(doc, n) > 0:
            return doc


def _mod_a_regex(modulus: int) -> str:
    """Words whose number of ``a`` is a multiple of ``modulus`` (unambiguous)."""
    return "(b|a" + "b*a" * (modulus - 1) + ")*"


def _suffix_regex(marker: str, offset: int) -> str:
    """``marker`` at a fixed distance from the end (unambiguous)."""
    return f"(a|b)*{marker}(a|b){{{offset}}}"


@dataclass
class Workload:
    name: str
    seed: int
    #: Requests answered before the window; set-up ends when they have.
    warmup: list[dict[str, Any]] = field(default_factory=list)
    #: Requests of the timed window, in order (closed loop: as many as
    #: the window allows; open loop: all whose due time is inside it).
    timed: list[dict[str, Any]] = field(default_factory=list)
    #: Open loop only: due offsets of ``timed`` from the window start (ns).
    due_ns: list[int] = field(default_factory=list)
    #: store_churn only: requests that fill the store before set-up.
    prepare: list[dict[str, Any]] = field(default_factory=list)
    connections: int = 1
    rate: float | None = None


def hot_sample(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"hot_sample/{seed}")
    specs = [
        {"kind": "nfa", "nfa": sampleable_dfa(rng, 80, 60), "n": 60},
        {"kind": "nfa", "nfa": sampleable_dfa(rng, 80, 60), "n": 60},
        {"kind": "regex", "pattern": _suffix_regex("a", rng.randrange(3, 13)),
         "alphabet": "ab", "n": 60},
        {"kind": "regex", "pattern": _mod_a_regex(rng.choice((2, 3))),
         "alphabet": "ab", "n": 60},
    ]
    wl = Workload("hot_sample", seed, connections=2, rate=HOT_RATE_PER_S)
    wl.warmup = [
        {"id": f"w{i}", "op": "sample", "spec": spec, "k": 1, "seed": i}
        for i, spec in enumerate(specs)
    ]
    due = 0.0
    horizon = seconds * 1e9
    while True:
        due += rng.expovariate(HOT_RATE_PER_S) * 1e9
        if due >= horizon:
            break
        i = len(wl.timed)
        wl.timed.append({
            "id": i, "op": "sample", "spec": specs[rng.randrange(4)], "k": 1,
            "seed": rng.randrange(2**31),
        })
        wl.due_ns.append(int(due))
    return wl


#: Intersection operands.  With these marker lengths, offsets and the
#: modulus 3, an intersection spec costs about what a 200-state DFA spec
#: does, so the two kinds overlap in latency and the median does not
#: fall into a gap between them.
MARKERS = tuple(
    format(i, f"0{width}b").replace("0", "a").replace("1", "b")
    for width in (3, 4)
    for i in range(2**width)
)
OFFSETS = range(32, 37)
LENGTHS = range(96, 105)


def cold_count(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"cold_count/{seed}")
    # Every request names a spec the server has never seen: DFAs are
    # fresh random draws, intersections come from a shuffled pool of
    # distinct (marker, offset, n) triples.
    pool = [(m, o, n) for m in MARKERS for o in OFFSETS for n in LENGTHS]
    rng.shuffle(pool)
    specs: list[dict[str, Any]] = []
    for marker, offset, n in pool:
        specs.append({"kind": "nfa", "nfa": random_dfa(rng, 200), "n": 100})
        specs.append({
            "kind": "intersection",
            "left": {"kind": "regex", "alphabet": "ab",
                     "pattern": _suffix_regex(marker, offset)},
            "right": {"kind": "regex", "alphabet": "ab", "pattern": _mod_a_regex(3)},
            "n": n,
        })
    wl = Workload("cold_count", seed)
    wl.warmup = [{"id": f"w{i}", "op": "count", "spec": spec}
                 for i, spec in enumerate(specs[:2])]
    wl.timed = [{"id": i, "op": "count", "spec": spec}
                for i, spec in enumerate(specs[2:])]
    return wl


def store_churn(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"store_churn/{seed}")
    specs = [
        {"kind": "nfa", "nfa": sampleable_dfa(rng, 80, 60), "n": 60}
        for _ in range(CHURN_SPECS)
    ]
    order = list(range(CHURN_SPECS))
    rng.shuffle(order)
    wl = Workload("store_churn", seed)
    wl.prepare = [
        {"id": f"p{i}", "op": "sample", "spec": spec, "k": 1, "seed": 0}
        for i, spec in enumerate(specs)
    ]
    # Warm up on the last four specs of the cycle: the window reaches
    # them again only after 252 others, far past the 64 resident slots.
    wl.warmup = [
        {"id": f"w{i}", "op": "sample", "spec": specs[j], "k": 16, "seed": j}
        for i, j in enumerate(order[-4:])
    ]
    wl.timed = [
        {"id": i, "op": "sample", "spec": specs[order[i % CHURN_SPECS]], "k": 16,
         "seed": rng.randrange(2**31)}
        for i in range(int(seconds * 500))
    ]
    return wl


def enum_stream(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"enum_stream/{seed}")
    specs = [
        {"kind": "regex", "pattern": "(a|b)*", "alphabet": "ab",
         "n": rng.randrange(62, 67)},
        {"kind": "regex", "pattern": "(a|bc)*", "alphabet": "abc",
         "n": rng.randrange(98, 103)},
        {"kind": "regex", "pattern": "(aa|b)*", "alphabet": "ab",
         "n": rng.randrange(98, 103)},
    ]
    rng.shuffle(specs)
    wl = Workload("enum_stream", seed)
    # The first request on each spec lowers it; the window then resumes
    # every spec from the cursor its previous request returned.
    wl.warmup = [
        {"id": f"w{i}", "op": "enumerate", "spec": spec, "stream": True,
         "limit": ENUM_LIMIT}
        for i, spec in enumerate(specs)
    ]
    wl.timed = [
        {"id": i, "op": "enumerate", "spec": specs[i % len(specs)], "stream": True,
         "limit": ENUM_LIMIT}
        for i in range(int(seconds * 100))
    ]
    return wl


WORKLOADS = {
    "hot_sample": hot_sample,
    "cold_count": cold_count,
    "store_churn": store_churn,
    "enum_stream": enum_stream,
}
