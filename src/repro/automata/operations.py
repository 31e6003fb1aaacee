"""Language algebra on NFAs: union, intersection, concatenation, star, ...

These constructions follow the textbook recipes with fresh-state labelling
that keeps results well-formed regardless of source state names: every
operation relabels operands into disjoint namespaces before combining.

The product (intersection) construction here is also the engine behind the
graph-database RPQ evaluation of Section 4.2 (product of a graph with a
query automaton).  Its lazy pair exploration, :func:`product_transitions`,
works over anything exposing the on-the-fly successor interface (concrete
:class:`NFA`\\ s or the symbolic plans of :mod:`repro.core.plan`).  The
unambiguity test (product of an automaton with itself) walks its pairs
on interned integers instead, in :mod:`repro.automata.unambiguous`.

Two construction styles coexist:

* the **eager** functions below keep their materialize-an-NFA API, but
  the binary products now *trim as they build* — the pair frontier is
  bounded by per-operand usefulness, so even the legacy path stops
  allocating the full cross product before ``trim()``;
* each combinator has a **plan-returning** sibling (``union_plan``,
  ``intersection_plan``, ...) that builds a symbolic
  :class:`~repro.core.plan.Plan` node instead, for callers that lower
  straight into the :class:`~repro.core.kernel.CompiledDAG` kernel and
  never want the intermediate automaton.
"""

from __future__ import annotations

from typing import Iterator

from repro.automata.dfa import determinize, minimize
from repro.automata.nfa import EPSILON, NFA


def _tagged(nfa: NFA, tag: object) -> NFA:
    """Relabel every state as ``(tag, state)`` to force disjointness."""
    transitions = [
        ((tag, source), symbol, (tag, target)) for source, symbol, target in nfa.transitions
    ]
    return NFA(
        [(tag, state) for state in nfa.states],
        nfa.alphabet,
        transitions,
        (tag, nfa.initial),
        [(tag, state) for state in nfa.finals],
    )


def union(left: NFA, right: NFA) -> NFA:
    """NFA accepting L(left) ∪ L(right) (fresh initial state, ε-fan-out)."""
    a = _tagged(left, 0)
    b = _tagged(right, 1)
    initial = ("u", 0)
    states = set(a.states) | set(b.states) | {initial}
    transitions = set(a.transitions) | set(b.transitions)
    transitions.add((initial, EPSILON, a.initial))
    transitions.add((initial, EPSILON, b.initial))
    return NFA(
        states,
        left.alphabet | right.alphabet,
        transitions,
        initial,
        set(a.finals) | set(b.finals),
    )


def concatenate(left: NFA, right: NFA) -> NFA:
    """NFA accepting L(left)·L(right) (ε-edges from left finals to right start)."""
    a = _tagged(left, 0)
    b = _tagged(right, 1)
    states = set(a.states) | set(b.states)
    transitions = set(a.transitions) | set(b.transitions)
    for final in a.finals:
        transitions.add((final, EPSILON, b.initial))
    return NFA(states, left.alphabet | right.alphabet, transitions, a.initial, b.finals)


def star(nfa: NFA) -> NFA:
    """NFA accepting L(nfa)* (Thompson star with a fresh initial/final state)."""
    a = _tagged(nfa, 0)
    hub = ("star", 0)
    states = set(a.states) | {hub}
    transitions = set(a.transitions)
    transitions.add((hub, EPSILON, a.initial))
    for final in a.finals:
        transitions.add((final, EPSILON, hub))
    return NFA(states, nfa.alphabet, transitions, hub, [hub])


def plus(nfa: NFA) -> NFA:
    """NFA accepting L(nfa)+ = L·L*."""
    return concatenate(nfa, star(nfa))


def optional(nfa: NFA) -> NFA:
    """NFA accepting L(nfa) ∪ {ε}."""
    a = _tagged(nfa, 0)
    hub = ("opt", 0)
    states = set(a.states) | {hub}
    transitions = set(a.transitions) | {(hub, EPSILON, a.initial)}
    return NFA(states, nfa.alphabet, transitions, hub, set(a.finals) | {hub})


def repeat(nfa: NFA, low: int, high: int | None) -> NFA:
    """NFA for L{low,high} (bounded repetition; ``high=None`` means ∞)."""
    if low < 0 or (high is not None and high < low):
        raise ValueError(f"invalid repetition bounds {{{low},{high}}}")
    result = NFA.only_empty_word(nfa.alphabet)
    for _ in range(low):
        result = concatenate(result, nfa)
    if high is None:
        return concatenate(result, star(nfa))
    tail = optional(nfa)
    for _ in range(high - low):
        result = concatenate(result, tail)
    return result


def product_transitions(
    a,
    b,
    a_keep: frozenset | None = None,
    b_keep: frozenset | None = None,
) -> Iterator[tuple]:
    """Lazily explore the synchronous product of two automaton sources.

    Yields ``((sa, sb), symbol, (ta, tb))`` transition triples by forward
    BFS from ``(a.initial, b.initial)``, expanding each pair exactly
    once.  ``a``/``b`` are anything exposing the on-the-fly successor
    interface — ``initial``, ``out_edges(state)`` and
    ``successors(state, symbol)`` — i.e. concrete :class:`NFA`\\ s or
    :class:`repro.core.plan.Plan` nodes.

    ``a_keep`` / ``b_keep`` bound the frontier: a successor pair is only
    expanded (or emitted) when each component lies in its keep-set.
    Passing the operands' co-reachable state sets turns the exploration
    into a trim-as-you-build product — pairs whose components cannot
    reach a final state are pruned *before* they are materialized, which
    is a necessary condition for product usefulness.

    This exploration backs the eager :func:`intersection`.
    """
    start = (a.initial, b.initial)
    seen = {start}
    stack = [start]
    while stack:
        state_a, state_b = stack.pop()
        for symbol, target_a in a.out_edges(state_a):
            if a_keep is not None and target_a not in a_keep:
                continue
            targets_b = b.successors(state_b, symbol)
            if not targets_b:
                continue
            for target_b in targets_b:
                if b_keep is not None and target_b not in b_keep:
                    continue
                pair = (target_a, target_b)
                yield (state_a, state_b), symbol, pair
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)


def intersection(left: NFA, right: NFA) -> NFA:
    """Product NFA accepting L(left) ∩ L(right).

    Operands are ε-eliminated first so the synchronous product is sound.
    The exploration trims as it builds: only pairs both of whose
    components are co-reachable in their operand are ever expanded, so
    the intermediate materialization is bounded by the useful-component
    pairs rather than the full cross product; the final ``trim()`` then
    removes the (now few) pairs that are not *jointly* useful.  The
    resulting automaton is identical to the classical
    explore-everything-then-trim construction.
    """
    a = left.without_epsilon()
    b = right.without_epsilon()
    alphabet = a.alphabet & b.alphabet
    initial = (a.initial, b.initial)
    states = {initial}
    transitions: list[tuple] = []
    for source, symbol, pair in product_transitions(
        a, b, a_keep=a.coreachable_states(), b_keep=b.coreachable_states()
    ):
        transitions.append((source, symbol, pair))
        states.add(pair)
    finals = {
        (state_a, state_b)
        for (state_a, state_b) in states
        if state_a in a.finals and state_b in b.finals
    }
    return NFA(states, alphabet, transitions, initial, finals).trim()


# ----------------------------------------------------------------------
# Plan-returning variants: symbolic nodes instead of materialized NFAs
# ----------------------------------------------------------------------


def intersection_plan(left, right):
    """L(left) ∩ L(right) as a lazy :class:`~repro.core.plan.Product` node.

    Nothing is materialized: the product states exist only while a
    lowering (:func:`repro.core.plan.lower_plan`) or a facade query
    (:meth:`repro.api.WitnessSet.from_plan`) walks them.  Operands may be
    NFAs, regex strings or other plans.
    """
    from repro.core.plan import Product

    return Product(left, right)


def union_plan(left, right):
    """L(left) ∪ L(right) as a lazy plan node (on-the-fly ε-fan-out)."""
    from repro.core.plan import Union

    return Union(left, right)


def concatenate_plan(left, right):
    """L(left)·L(right) as a lazy plan node (on-the-fly ε-bridge)."""
    from repro.core.plan import Concat

    return Concat(left, right)


def star_plan(operand):
    """L(operand)* as a lazy plan node (on-the-fly loop-back)."""
    from repro.core.plan import Star

    return Star(operand)


def relabel_plan(operand, mapping):
    """Symbol relabelling as a lazy plan node (per-edge mapping)."""
    from repro.core.plan import Relabel

    return Relabel(operand, mapping)


def difference(left: NFA, right: NFA) -> NFA:
    """NFA for L(left) \\ L(right), via right's complement DFA.

    Exponential in ``right`` (determinization) — test/ground-truth use only.
    """
    alphabet = left.alphabet | right.alphabet
    widened = NFA(
        right.states, alphabet, right.transitions, right.initial, right.finals
    )
    complement_dfa = determinize(widened).complement()
    return intersection(left, complement_dfa.to_nfa())


def reverse(nfa: NFA) -> NFA:
    """NFA for the reversal language L(nfa)^R.

    Flips every edge, makes the old initial state final, and fans a fresh
    initial state into the old finals by ε.
    """
    hub = ("rev", 0)
    serial = 0
    while hub in nfa.states:  # stay fresh under iterated reversal
        serial += 1
        hub = ("rev", serial)
    states = set(nfa.states) | {hub}
    transitions = {
        (target, symbol, source) for source, symbol, target in nfa.transitions
    }
    for final in nfa.finals:
        transitions.add((hub, EPSILON, final))
    return NFA(states, nfa.alphabet, transitions, hub, [nfa.initial])


def canonical_minimal_dfa(nfa: NFA) -> "object":
    """The minimal complete DFA of L(nfa), renumbered canonically.

    Convenience used by tests that compare languages structurally.
    """
    return minimize(determinize(nfa.without_epsilon()))


def words_of_length(nfa: NFA, length: int, limit: int | None = None) -> list[tuple]:
    """Brute-force: all length-``length`` words in L(nfa), lexicographic.

    Exponential in ``length``; ground truth for small instances.  Symbols
    are ordered by ``repr`` for determinism.  ``limit`` caps the output
    (useful to bail out early in property tests).
    """
    stripped = nfa.without_epsilon()
    symbols = sorted(stripped.alphabet, key=repr)
    results: list[tuple] = []

    def extend(prefix: tuple, states: frozenset) -> bool:
        """DFS over prefixes; returns False when the limit is hit."""
        if not states:
            return True
        if len(prefix) == length:
            if states & stripped.finals:
                results.append(prefix)
                if limit is not None and len(results) >= limit:
                    return False
            return True
        for symbol in symbols:
            nxt = set()
            for state in states:
                nxt |= stripped.successors(state, symbol)
            if nxt and not extend(prefix + (symbol,), frozenset(nxt)):
                return False
        return True

    extend((), frozenset({stripped.initial}))
    return results
