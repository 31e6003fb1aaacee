"""Shared fixtures: canonical automata and seeded randomness.

Every test that needs randomness takes it from a fixture seeded per-test
(from the test's own name), so the suite is fully deterministic while
still exercising varied instances.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro import obs
from repro.automata.nfa import NFA


@pytest.fixture
def rng(request) -> random.Random:
    """A per-test deterministic RNG (seeded from the test's nodeid)."""
    return random.Random(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def even_zeros_dfa() -> NFA:
    """DFA over {0,1}: words with an even number of '0's.  |L_n| = 2^{n-1}."""
    return NFA(
        ["even", "odd"],
        ["0", "1"],
        [
            ("even", "0", "odd"),
            ("odd", "0", "even"),
            ("even", "1", "even"),
            ("odd", "1", "odd"),
        ],
        "even",
        ["even"],
    )


@pytest.fixture
def endswith_one_nfa() -> NFA:
    """Classic ambiguous NFA: words over {0,1} containing a '1'.

    The guess-the-position construction: |L_n| = 2^n - 1, but a word with
    k ones has k accepting runs.
    """
    return NFA(
        ["wait", "done"],
        ["0", "1"],
        [
            ("wait", "0", "wait"),
            ("wait", "1", "wait"),
            ("wait", "1", "done"),
            ("done", "0", "done"),
            ("done", "1", "done"),
        ],
        "wait",
        ["done"],
    )


@pytest.fixture
def abc_chain_nfa() -> NFA:
    """Unambiguous: the single word 'abc'."""
    return NFA.single_word(tuple("abc"), alphabet="abc")


class CounterDeltas:
    """Process-registry counter deltas since construction.

    Store and witness-cache events are counted per process, in the obs
    registry; a test reads what an operation counted as the change of a
    series around it: ``counts[metric_names.STORE_HITS]``.
    """

    def __init__(self) -> None:
        self._before = obs.metrics().snapshot()["counters"]

    def __getitem__(self, series: str) -> float:
        now = obs.metrics().snapshot()["counters"]
        return now.get(series, 0) - self._before.get(series, 0)


@pytest.fixture
def counts() -> CounterDeltas:
    """Registry counter deltas over the test body (see :class:`CounterDeltas`)."""
    return CounterDeltas()
