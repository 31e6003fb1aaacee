"""Unit tests for the enumerators (Algorithm 1 and the flashlight search)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.automata.nfa import NFA, word
from repro.automata.operations import words_of_length
from repro.automata.random_gen import ambiguity_blowup, random_nfa, random_ufa
from repro.automata.unambiguous import is_unambiguous
from repro.core.enumeration import (
    algorithm1_page,
    enumerate_words,
    enumerate_words_dag,
    enumerate_words_nfa,
    enumerate_words_ufa,
)
from repro.core.kernel import compile_nfa
from repro.core.plan import Product, as_plan, lower_plan
from repro.errors import AmbiguityError
from repro.papers.figures import figure1_nfa


class TestConstantDelayUfa:
    def test_complete_and_duplicate_free(self, even_zeros_dfa):
        for n in range(6):
            out = list(enumerate_words_ufa(even_zeros_dfa, n))
            assert len(out) == len(set(out))
            assert sorted(out) == words_of_length(even_zeros_dfa, n)

    def test_raises_on_ambiguous(self, endswith_one_nfa):
        with pytest.raises(AmbiguityError):
            list(enumerate_words_ufa(endswith_one_nfa, 3))

    def test_check_false_skips_verification(self, even_zeros_dfa):
        out = list(enumerate_words_ufa(even_zeros_dfa, 3, check=False))
        assert len(out) == 4

    def test_empty_language(self):
        assert list(enumerate_words_ufa(NFA.empty_language("01"), 3)) == []

    def test_zero_length_accepting(self, even_zeros_dfa):
        assert list(enumerate_words_ufa(even_zeros_dfa, 0)) == [()]

    def test_zero_length_rejecting(self):
        nfa = NFA.single_word(word("a"))
        assert list(enumerate_words_ufa(nfa.without_epsilon(), 0)) == []

    def test_paper_worked_example_order(self):
        """Section 5.3.1: the first outputs are aaa then aab."""
        out = list(enumerate_words_ufa(figure1_nfa(), 3))
        assert out[0] == word("aaa")
        assert out[1] == word("aab")
        assert len(out) == 6

    def test_random_ufas(self, rng):
        for _ in range(8):
            ufa = random_ufa(6, rng=rng)
            for n in (0, 3, 5):
                out = list(enumerate_words_ufa(ufa, n))
                assert len(out) == len(set(out))
                assert sorted(out) == words_of_length(ufa, n)

    def test_lazy_first_answers(self, even_zeros_dfa):
        """The generator yields without draining the whole language."""
        iterator = enumerate_words_ufa(even_zeros_dfa, 40)
        first = next(iterator)
        assert len(first) == 40


class TestPolyDelayNfa:
    def test_complete_and_duplicate_free(self, endswith_one_nfa):
        for n in range(6):
            out = list(enumerate_words_nfa(endswith_one_nfa, n))
            assert len(out) == len(set(out))
            assert sorted(out) == words_of_length(endswith_one_nfa, n)

    def test_ambiguity_never_duplicates(self):
        nfa = ambiguity_blowup(3)
        out = list(enumerate_words_nfa(nfa, 6))
        assert len(out) == len(set(out)) == 8

    def test_random_nfas(self, rng):
        for _ in range(8):
            nfa = random_nfa(6, density=1.8, rng=rng)
            for n in (0, 3, 5):
                out = list(enumerate_words_nfa(nfa, n))
                assert len(out) == len(set(out))
                assert sorted(out) == words_of_length(nfa, n)

    def test_empty(self):
        assert list(enumerate_words_nfa(NFA.empty_language("01"), 2)) == []

    def test_lexicographic_order(self, endswith_one_nfa):
        out = list(enumerate_words_nfa(endswith_one_nfa, 4))
        assert out == sorted(out)


class TestDispatch:
    def test_uses_constant_delay_for_ufa(self, even_zeros_dfa):
        out = list(enumerate_words(even_zeros_dfa, 4))
        assert sorted(out) == words_of_length(even_zeros_dfa, 4)

    def test_uses_poly_delay_for_nfa(self, endswith_one_nfa):
        out = list(enumerate_words(endswith_one_nfa, 4))
        assert sorted(out) == words_of_length(endswith_one_nfa, 4)

    def test_agreement_between_enumerators_on_ufa(self, rng):
        """On unambiguous inputs both enumerators list the same set."""
        for _ in range(5):
            ufa = random_ufa(5, rng=rng)
            a = sorted(enumerate_words_ufa(ufa, 4))
            b = sorted(enumerate_words_nfa(ufa, 4))
            assert a == b


def _full_replay_page(kernel, cursor, count):
    """Reference: a page of Algorithm 1 by the full-replay walker, which
    re-walks every word's whole path from the start vertex.  Takes only
    cursors it produced itself (no validation)."""
    words = []
    if kernel.is_empty:
        return words, None
    decisions = [list(entry) for entry in cursor or []]
    start = kernel.index_of(0, kernel.nfa.initial)
    while len(words) < count:
        word_out = []
        state = start
        replay = 0
        for t in range(kernel.n):
            starts = kernel._edge_start[t]
            base = starts[state]
            if replay < len(decisions) and decisions[replay][0] == t:
                index = decisions[replay][2]
                replay += 1
            else:
                index = 0
                if starts[state + 1] - base > 1:
                    decisions.append([t, state, 0])
                    replay = len(decisions)
            word_out.append(kernel.symbols[kernel._edge_symbol[t][base + index]])
            state = kernel._edge_dst[t][base + index]
        words.append(tuple(word_out))
        while decisions:
            t, vertex, index = decisions[-1]
            starts = kernel._edge_start[t]
            if index + 1 < starts[vertex + 1] - starts[vertex]:
                break
            decisions.pop()
        if not decisions:
            return words, None
        decisions[-1][2] += 1
    return words, decisions


def _oracle_sources():
    """Seeded unambiguous sources: random partial DFAs, random NFAs that
    happen to be unambiguous (nondeterministic, so one symbol may branch
    to several states), and one lazy product plan."""
    rng = random.Random(1515)
    sources = [
        random_ufa(rng.randrange(2, 7), alphabet="abc", rng=rng, ensure_nonempty_length=7)
        for _ in range(6)
    ]
    while len(sources) < 12:
        nfa = random_nfa(
            rng.randrange(4, 9), density=0.8, rng=rng, ensure_nonempty_length=7
        ).without_epsilon().trim()
        branching = any(
            len(nfa.successors(q, a)) > 1 for q in nfa.states for a in nfa.alphabet
        )
        if branching and is_unambiguous(nfa):
            sources.append(nfa)
    while True:
        product = Product(
            as_plan(random_ufa(3, completeness=0.95, rng=rng)),
            as_plan(random_ufa(4, completeness=0.95, rng=rng)),
        )
        if len(words_of_length(product.to_nfa(), 7)) >= 10:
            return sources + [product]


ORACLE_SOURCES = _oracle_sources()


def _oracle_kernel(source, n):
    if isinstance(source, Product):
        return lower_plan(source, n, trimmed=True), source.to_nfa()
    return compile_nfa(source, n, trimmed=True), source


class TestPagingOracle:
    """The incremental walker against the full-replay reference: every
    page's words and cursor agree, whatever the page size."""

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_pages_match_full_replay(self, n):
        for source in ORACLE_SOURCES:
            kernel, nfa = _oracle_kernel(source, n)
            language = words_of_length(nfa, n)
            # Bounded, so a walker that repeats words fails instead of hanging.
            full = list(itertools.islice(enumerate_words_dag(kernel), len(language) + 1))
            assert len(full) == len(set(full))
            assert sorted(full) == language
            assert algorithm1_page(kernel, None, 0) == _full_replay_page(kernel, None, 0)
            for size in (1, 2, 5, 1000):
                cursor, served = None, []
                for _ in range(len(full) + 1):
                    page = algorithm1_page(kernel, cursor, size)
                    assert page == _full_replay_page(kernel, cursor, size)
                    words, cursor = page
                    served += words
                    if cursor is None:
                        break
                    # A zero-item page hands the cursor back unchanged.
                    assert algorithm1_page(kernel, cursor, 0) == ([], cursor)
                assert cursor is None
                assert served == full

    def test_corrupt_cursors_rejected(self):
        checked = 0
        for source in ORACLE_SOURCES:
            kernel, nfa = _oracle_kernel(source, 7)
            cursor = None
            for _ in words_of_length(nfa, 7):
                _, cursor = algorithm1_page(kernel, cursor, 1)
                if not cursor:
                    break
                t, state, _ = cursor[-1]
                starts = kernel._edge_start[t]
                degree = starts[state + 1] - starts[state]
                corrupt = [
                    cursor[:-1] + [cursor[-1][:2]],  # truncated triple
                    cursor[:-1] + [[t, state, degree]],  # out of degree
                    cursor[:-1] + [[t, state, -1]],
                    cursor + [[kernel.n, 0, 0]],  # past the last layer
                ]
                if len(cursor) > 1:
                    corrupt.append(cursor[1:])  # gapped: first decision gone
                    corrupt.append(cursor[:-2] + cursor[-1:])  # gapped middle
                for bad in corrupt:
                    with pytest.raises(ValueError):
                        algorithm1_page(kernel, bad, 3)
                checked += 1
        assert checked > 50
