"""Unambiguity: testing, certification and measurement.

An NFA is *unambiguous* (a UFA) when every accepted word has exactly one
accepting run.  This is the defining property of the paper's MEM-UFA
problem, complete for ``RelationUL`` (Proposition 12): the exact counter,
the constant-delay enumerator and the exact uniform sampler of Section 5.3
are only correct on UFAs.

The test is the classical *self-product* criterion: build the product of
the (trimmed) automaton with itself; the automaton is ambiguous iff some
useful product state ``(p, q)`` with ``p ≠ q`` lies on an accepting product
path.  That runs in O(m²·|Σ|) — polynomial, as required for a class
membership check.

The check accepts either a concrete :class:`NFA` (ε-eliminated and
trimmed first) or any source exposing the on-the-fly successor
interface — in particular the symbolic plans of :mod:`repro.core.plan`,
whose states are never materialized beyond the ones the walk reaches.
It interns the source's reachable states to ints once and walks the
self-product on int-encoded unordered pairs, so no state object is
hashed per product edge (the eager
:func:`~repro.automata.operations.intersection` keeps the object-level
pair walk :func:`~repro.automata.operations.product_transitions`).

Also provided:

* :func:`ambiguity_counts` — for diagnostics and the Monte Carlo baseline:
  the number of accepting runs per accepted word length (max/total).
* :func:`disambiguate` — an equivalent UFA via determinization (worst-case
  exponential; DFAs are trivially unambiguous).  Used by tests to compare
  the UL pipeline against the NL pipeline on the same language.
"""

from __future__ import annotations

from repro.automata.dfa import determinize
from repro.automata.nfa import NFA
from repro.errors import AmbiguityError


def is_unambiguous(source) -> bool:
    """Decide unambiguity in O(m²·|Σ|) via the self-product construction.

    ``source`` is an :class:`NFA` — ε-eliminated and trimmed first, since
    ambiguity is a property of *useful* runs and dead branches must not
    trigger false positives — or any lazy automaton source (a
    :class:`repro.core.plan.Plan`), checked directly on the on-the-fly
    successor interface without materializing the operand.  Usefulness
    of a divergent pair is decided by the backward sweep below, so the
    explicit pre-trim is unnecessary for correctness (it only shrinks the
    NFA walk).

    The walk runs on integers: the source's reachable states are
    interned once (each state's ``out_edges`` read once) into per-symbol
    successor tuples, and product pairs are single ints.  The product of
    an automaton with itself is symmetric — ``(p, q) → (p', q')`` iff
    ``(q, p) → (q', p')`` — so reachability and co-reachability of
    ``(p, q)`` and ``(q, p)`` agree, and the walk keeps one unordered
    pair ``{p, q}`` per class.
    """
    if isinstance(source, NFA):
        source = source.without_epsilon().trim()
        if not source.finals:
            return True  # empty language: vacuously unambiguous

    # Intern the reachable states: successors[s] maps a symbol to the
    # tuple of target ids, each state's edges read once.
    initial = source.initial
    ids = {initial: 0}
    states = [initial]
    successors: list[dict] = []
    out_edges = source.out_edges
    for state in states:  # grows while it is walked: a BFS
        by_symbol: dict = {}
        for symbol, target in out_edges(state):
            j = ids.get(target)
            if j is None:
                j = ids[target] = len(states)
                states.append(target)
            by_symbol.setdefault(symbol, []).append(j)
        successors.append({a: tuple(ts) for a, ts in by_symbol.items()})
    m = len(states)

    # The self-product walk on unordered pairs p ≤ q, encoded p·m + q.
    seen = {0}
    stack = [0]
    divergent = False
    while stack:
        p, q = divmod(stack.pop(), m)
        succ_q = successors[q]
        for symbol, targets_p in successors[p].items():
            targets_q = succ_q.get(symbol)
            if targets_q is None:
                continue
            for x in targets_p:
                for y in targets_q:
                    pair = x * m + y if x <= y else y * m + x
                    if pair not in seen:
                        seen.add(pair)
                        stack.append(pair)
                        divergent = divergent or x != y
    if not divergent:
        return True

    # A divergent pair (p, q), p ≠ q, witnesses ambiguity iff both legs can
    # reach final states by the same word suffix — i.e. iff (p, q) can reach
    # a pair of finals in the product.  Sweep backward from the reached
    # final pairs through the reached pairs; on a UFA only diagonal pairs
    # are ever co-reachable, so the sweep stays small.
    predecessors: list[dict] = [{} for _ in states]
    for p, by_symbol in enumerate(successors):
        for symbol, targets_p in by_symbol.items():
            for x in targets_p:
                predecessors[x].setdefault(symbol, []).append(p)
    finals = source.finals
    final = [state in finals for state in states]
    frontier = [pair for pair in seen if final[pair // m] and final[pair % m]]
    coreachable = set(frontier)
    while frontier:
        x, y = divmod(frontier.pop(), m)
        if x != y:
            return False
        preds_y = predecessors[y]
        for symbol, preds_x in predecessors[x].items():
            for p in preds_x:
                for q in preds_y.get(symbol, ()):
                    pair = p * m + q if p <= q else q * m + p
                    if pair in seen and pair not in coreachable:
                        coreachable.add(pair)
                        frontier.append(pair)
    return True


def require_unambiguous(nfa: NFA, context: str = "this operation") -> NFA:
    """Raise :class:`AmbiguityError` unless ``nfa`` is unambiguous.

    Returns the ε-free trimmed automaton, which is what the Section 5.3
    algorithms consume.
    """
    stripped = nfa.without_epsilon().trim()
    if not is_unambiguous(stripped):
        raise AmbiguityError(
            f"{context} requires an unambiguous NFA, but the given automaton "
            "has a word with more than one accepting run; disambiguate() or "
            "use the RelationNL algorithms (FPRAS / PLVUG) instead"
        )
    return stripped


def disambiguate(nfa: NFA) -> NFA:
    """An equivalent unambiguous NFA, via subset construction.

    DFAs have at most one run per word, hence are unambiguous.  Worst-case
    exponential — this is the cost the RelationUL algorithms avoid *when
    the input is already unambiguous*; the paper's separation between the
    two classes is exactly that this step is infeasible in general.
    """
    return determinize(nfa.without_epsilon()).to_nfa().trim()


def ambiguity_counts(nfa: NFA, length: int) -> tuple[int, int, int]:
    """Measure ambiguity at word length ``length``.

    Returns ``(distinct_words, accepting_runs, max_runs_per_word)`` where
    ``accepting_runs`` counts accepting *paths* of length ``length`` and
    ``distinct_words`` counts accepted *words*.  Their ratio (and the max)
    quantifies the variance blow-up of the naive Monte Carlo estimator
    (Section 6.1): the estimator's relative variance scales with
    ``max_runs / min_runs`` across accepted words.

    Exponential in ``length`` for the word count (uses the brute-force
    enumerator); intended for diagnostics at small sizes.
    """
    from repro.automata.operations import words_of_length

    stripped = nfa.without_epsilon()
    accepted = words_of_length(stripped, length)
    run_counts = [stripped.count_accepting_runs(w) for w in accepted]
    return (
        len(accepted),
        sum(run_counts),
        max(run_counts, default=0),
    )
