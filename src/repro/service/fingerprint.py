"""Stable content fingerprints for automata and symbolic plans.

The :class:`~repro.service.store.KernelStore` is content-addressed: two
processes that compile the same instance must agree on its key without
talking to each other.  Python's builtin ``hash`` is randomized per
process and ``repr`` of sets is hash-ordered, so neither is usable.
This module canonicalizes an automaton / plan into a deterministic
JSON-able structure (states and symbols through the same tagged-atom
codec the serializers use; every set sorted by its canonical encoding)
and hashes that with SHA-256.

The fingerprint covers the *language source* only — not the witness
length ``n`` and not the trimmed/reachable mode; the store composes
those into the storage key, so one source shares a fingerprint across
all its compilations.

Sources that contain non-serializable states (arbitrary objects as NFA
states are legal) raise :class:`FingerprintError`; callers that use
fingerprints opportunistically (the facade's store wiring) catch it and
simply skip caching.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.automata.nfa import EPSILON, NFA
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.plan import Plan
    from repro.graphdb.graph import GraphDatabase
    from repro.spanners.eva import EVA

FINGERPRINT_VERSION = 1


class FingerprintError(ReproError):
    """The source contains values with no canonical serialization."""


def _canon_atom(value: Any) -> Any:
    """Canonical JSON-able form of a state/symbol (tagged, order-stable)."""
    if value is EPSILON:
        return ["ε"]
    if isinstance(value, tuple):
        return ["t", [_canon_atom(item) for item in value]]
    if isinstance(value, (frozenset, set)):
        encoded = [_canon_atom(item) for item in value]
        encoded.sort(key=_sort_key)
        return ["s", encoded]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, (str, int, float)) or value is None:
        return ["a", value]
    raise FingerprintError(
        f"cannot fingerprint {value!r}: states/symbols must be strings, "
        "numbers, tuples or frozensets thereof"
    )


# Prebuilt encoders: ``json.dumps`` builds one per call.  Canonical
# structures hold no cycles, so the circular-reference check is skipped.
#: ``json.dumps(item, sort_keys=True)``: the order of every sorted set.
_sort_key = json.JSONEncoder(sort_keys=True, check_circular=False).encode
#: The compact text :func:`fingerprint_source` hashes.
_canonical_text = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":"), check_circular=False
).encode


def _atom_keys() -> Callable[[Any], tuple[str, Any]]:
    """``value → (sort key, canonical atom)``, computed once per distinct
    int or str value (an automaton names each state in many transitions).

    Only exact ints and strs are memoized: ``1``, ``1.0`` and ``True``
    are equal dict keys but canonicalize differently.
    """
    memo: dict[int | str, tuple[str, Any]] = {}

    def keyed(value: Any) -> tuple[str, Any]:
        if type(value) is int or type(value) is str:
            hit = memo.get(value)
            if hit is None:
                # What _sort_key(["a", value]) returns, without the encoder.
                if type(value) is int:
                    text = str(value)
                else:
                    text = encode_basestring_ascii(value)
                hit = memo[value] = (f'["a", {text}]', ["a", value])
            return hit
        canon = _canon_atom(value)
        return _sort_key(canon), canon

    return keyed


def _sorted_atoms(
    values: Iterable[Any], keyed: Callable[[Any], tuple[str, Any]]
) -> list[Any]:
    """Canonical atoms of ``values``, sorted by their JSON text."""
    return [canon for _, canon in sorted(map(keyed, values), key=itemgetter(0))]


def _sorted_triples(
    triples: Iterable[tuple[Any, Any, Any]], keyed: Callable[[Any], tuple[str, Any]]
) -> list[Any]:
    """Canonical ``[atom, atom, atom]`` rows, sorted by their JSON text.

    A list's JSON text is its items' texts joined by ``", "`` inside
    brackets, so a row's sort key is assembled from its atoms' keys.
    """
    rows: list[tuple[str, list[Any]]] = []
    for a, b, c in triples:
        key_a, canon_a = keyed(a)
        key_b, canon_b = keyed(b)
        key_c, canon_c = keyed(c)
        rows.append((f"[{key_a}, {key_b}, {key_c}]", [canon_a, canon_b, canon_c]))
    rows.sort(key=itemgetter(0))
    return [canon for _, canon in rows]


def _canon_nfa(nfa: NFA) -> list[Any]:
    keyed = _atom_keys()
    return [
        "nfa",
        _sorted_atoms(nfa.states, keyed),
        _sorted_atoms(nfa.alphabet, keyed),
        _canon_atom(nfa.initial),
        _sorted_atoms(nfa.finals, keyed),
        _sorted_triples(nfa.transitions, keyed),
    ]


def _canon_graph(graph: GraphDatabase) -> list[Any]:
    keyed = _atom_keys()
    return [
        "graph",
        _sorted_atoms(graph.vertices, keyed),
        _sorted_triples(graph.edges, keyed),
    ]


def _canon_eva(eva: EVA) -> list[Any]:
    keyed = _atom_keys()
    return [
        "eva",
        _sorted_atoms(eva.states, keyed),
        _canon_atom(eva.initial),
        _sorted_atoms(eva.finals, keyed),
        _sorted_triples(((t.source, t.symbol, t.target) for t in eva.letter), keyed),
        _sorted_triples(((t.source, t.markers, t.target) for t in eva.variable), keyed),
        _sorted_atoms(eva.variables, keyed),
    ]


def _canon_plan(plan: Plan) -> list[Any]:
    # Imported here to avoid a module cycle (plan → kernel → snapshot).
    from repro.core.plan import (
        Atom,
        Concat,
        DocProduct,
        GraphProduct,
        Product,
        Relabel,
        Star,
        Union,
    )

    if isinstance(plan, Atom):
        return ["atom", _canon_nfa(plan.nfa)]
    if isinstance(plan, Product):
        return ["product", _canon_plan(plan.left), _canon_plan(plan.right)]
    if isinstance(plan, Union):
        return ["union", _canon_plan(plan.left), _canon_plan(plan.right)]
    if isinstance(plan, Concat):
        return ["concat", _canon_plan(plan.left), _canon_plan(plan.right)]
    if isinstance(plan, Star):
        return ["star", _canon_plan(plan.child)]
    if isinstance(plan, Relabel):
        mapping = sorted(
            ([_canon_atom(old), _canon_atom(new)] for old, new in plan.mapping.items()),
            key=_sort_key,
        )
        return ["relabel", _canon_plan(plan.child), mapping]
    if isinstance(plan, GraphProduct):
        return [
            "graphproduct",
            _canon_graph(plan.graph),
            _canon_nfa(plan.query),
            _canon_atom(plan.source),
            _canon_atom(plan.target),
        ]
    if isinstance(plan, DocProduct):
        return ["docproduct", _canon_eva(plan.eva), plan.document]
    payload = getattr(plan, "fingerprint_payload", None)
    if payload is not None:
        return ["custom", type(plan).__name__, payload()]
    raise FingerprintError(
        f"no canonical serialization for plan node {type(plan).__name__}; "
        "implement fingerprint_payload() to make it store-cacheable"
    )


def canonical_source(source: NFA | Plan) -> list[Any]:
    """The canonical JSON-able structure behind :func:`fingerprint_source`."""
    from repro.core.plan import Plan

    if isinstance(source, NFA):
        return _canon_nfa(source)
    if isinstance(source, Plan):
        return _canon_plan(source)
    raise FingerprintError(
        f"cannot fingerprint a {type(source).__name__}; expected an NFA or Plan"
    )


def fingerprint_source(source: NFA | Plan) -> str:
    """SHA-256 hex fingerprint of an automaton or plan, stable across
    processes, platforms and hash seeds.

    Structurally identical sources (same states, symbols, transitions —
    regardless of construction order) produce identical fingerprints;
    any semantic difference in the canonical structure changes it.
    """
    canonical = ["repro.fingerprint", FINGERPRINT_VERSION, canonical_source(source)]
    text = _canonical_text(canonical)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["FingerprintError", "canonical_source", "fingerprint_source", "FINGERPRINT_VERSION"]
