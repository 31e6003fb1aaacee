"""Output checks: every reply is validated, and a seeded subset is
re-derived in-process through the library and compared byte for byte.

* ``sample`` — the same ``WitnessSet`` draws with the request's seed
  (the substream contract makes them identical to the server's);
* ``count`` — the exact count, plus an independent path count for the
  deterministic ``nfa`` specs;
* ``enumerate`` — items are unique, of length ``n`` and match the
  regex; subset pages are re-walked from the same cursor with
  ``WitnessSet.enumerate_page`` and must give the same items and the
  same resume cursor.
"""

from __future__ import annotations

import json
import random
import re
import sys
from typing import Any

from harness import ROOT, Op
from workloads import dfa_word_count

#: Requests re-derived in-process per run.
SUBSET = {"hot_sample": 48, "cold_count": 8, "store_churn": 24, "enum_stream": 4}


def canonical(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False, sort_keys=True)


def subset_ids(ops: list[Op], workload: str, seed: int) -> set[Any]:
    ids = [op.request["id"] for op in ops if op.ok]
    rng = random.Random(f"check/{workload}/{seed}")
    return set(rng.sample(ids, min(SUBSET[workload], len(ids))))


class Checker:
    """Validates one pass's ops; a failed check marks the op failed."""

    def __init__(self) -> None:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from repro.service import protocol

        self.protocol = protocol
        self._sets: dict[str, Any] = {}

    def witness_set(self, spec: dict[str, Any]) -> Any:
        key = canonical(spec)
        if key not in self._sets:
            self._sets[key] = self.protocol.witness_set_from_spec(spec)
        return self._sets[key]

    def check(self, ops: list[Op], subset: set[Any], warmup: list[Op]) -> None:
        seen: dict[str, set[str]] = {}
        for op in warmup:
            self._collect_items(op, seen)
        for op in ops:
            if not op.ok:
                continue
            try:
                self._check_one(op, op.request["id"] in subset, seen)
            except CheckFailed as error:
                op.ok = False
                op.error = f"check failed: {error}"

    def _collect_items(self, op: Op, seen: dict[str, set[str]]) -> list[str]:
        items = [item for reply in op.replies for item in reply.get("chunk", [])]
        bucket = seen.setdefault(canonical(op.request["spec"]), set())
        before = len(bucket)
        bucket.update(items)
        _require(len(bucket) == before + len(items), "duplicate enumerated items")
        return items

    def _check_one(self, op: Op, deep: bool, seen: dict[str, set[str]]) -> None:
        request = op.request
        spec = request["spec"]
        replies = op.replies
        if request["op"] == "sample":
            result = replies[0]["result"]
            _require(len(result) == request["k"], "wrong number of samples")
            _require(all(len(w) == spec["n"] for w in result), "sample of wrong length")
            if deep:
                ws = self.witness_set(spec)
                expected = [
                    self.protocol.render_witness(w)
                    for w in self.protocol.draw_samples(ws, request["k"], request["seed"])
                ]
                _require(canonical(expected) == canonical(result), "samples differ")
        elif request["op"] == "count":
            result = replies[0]["result"]
            _require(isinstance(result, int) and result >= 0, "count is not a count")
            if deep:
                _require(self.witness_set(spec).count("exact") == result, "count differs")
                if spec["kind"] == "nfa":
                    _require(dfa_word_count(spec["nfa"], spec["n"]) == result,
                             "count differs from the path count")
        elif request["op"] == "enumerate":
            items = self._collect_items(op, seen)
            _require(len(items) == request["limit"], "short enumeration page")
            pattern = re.compile(spec["pattern"])
            _require(
                all(len(w) == spec["n"] and pattern.fullmatch(w) for w in items),
                "enumerated item outside the language",
            )
            if deep:
                ws = self.witness_set(spec)
                words, cursor = ws.enumerate_page(request["limit"], request.get("cursor"))
                expected = [self.protocol.render_witness(w) for w in words]
                _require(canonical(expected) == canonical(items), "page differs")
                _require(canonical(cursor) == canonical(replies[-1].get("cursor")),
                         "resume cursor differs")
        else:
            raise CheckFailed(f"unexpected op {request['op']}")


class CheckFailed(Exception):
    """A reply that is wrong or differs from the in-process answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
