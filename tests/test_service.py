"""Tests for the serving subsystem: fingerprints, snapshots, the kernel
store, deterministic substreams, the engine and the JSON-lines server."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro import obs
from repro.api import WitnessSet
from repro.automata.nfa import NFA, word_str
from repro.automata.random_gen import random_nfa, random_ufa
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.core.plan import Product, as_plan, lower_plan
from repro.errors import InvalidAutomatonError
from repro.graphdb.rpq import Path
from repro.obs import names as metric_names
from repro.service import (
    Engine,
    FingerprintError,
    KernelStore,
    ServiceClient,
    SnapshotError,
    draw_samples,
    draw_samples_coalesced,
    fingerprint_source,
    kernel_from_bytes,
    kernel_to_bytes,
    serve_stdio,
    serve_tcp,
    spec_key,
    witness_set_from_spec,
)
from repro.service.protocol import render_witness
from repro.utils.rng import make_rng, spawn_seq, substreams

SEED = 20190621

#: 4^8000 has 4817 decimal digits: past Python's default 4300-digit
#: int-to-str limit, so its count cannot be encoded as JSON text.
HUGE_COUNT_SPEC = {
    "kind": "regex", "pattern": "(a|b|c|d)*", "alphabet": "abcd", "n": 8000
}
#: The limit first shipped in Python 3.10.7; before it such counts encode.
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreter has no int-to-str digit limit",
)

SPEC = {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab", "n": 10}
SPEC2 = {
    "kind": "intersection",
    "left": {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab"},
    "right": {"kind": "regex", "pattern": "(a|b)*aa(a|b)*", "alphabet": "ab"},
    "n": 10,
}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_structural_identity(self):
        a = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        b = NFA(a.states, a.alphabet, a.transitions, a.initial, a.finals)
        assert fingerprint_source(a) == fingerprint_source(b)

    def test_different_automata_differ(self):
        a = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        b = random_ufa(20, rng=SEED + 1, completeness=0.9, ensure_nonempty_length=8)
        assert fingerprint_source(a) != fingerprint_source(b)

    def test_plan_fingerprints(self):
        left, right = as_plan("(ab|ba)*"), as_plan("(a|b)*")
        product = Product(left, right)
        again = Product(as_plan("(ab|ba)*"), as_plan("(a|b)*"))
        assert fingerprint_source(product) == fingerprint_source(again)
        assert fingerprint_source(product) != fingerprint_source(left)
        # Operand order matters (products are not canonicalized across
        # commutation — two spellings are two plans).
        assert fingerprint_source(product) != fingerprint_source(
            Product(as_plan("(a|b)*"), as_plan("(ab|ba)*"))
        )

    def test_witness_set_fingerprint_cached(self):
        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        assert ws.fingerprint() == ws.fingerprint()
        assert ws.stats.hits.get("fingerprint", 0) >= 1

    def test_unserializable_state_raises(self):
        marker = object()
        nfa = NFA([marker], ["a"], [(marker, "a", marker)], marker, [marker])
        with pytest.raises(FingerprintError):
            fingerprint_source(nfa)

    def test_matches_reference_encoding(self):
        """The memoized sort keys order every set exactly as sorting by
        ``json.dumps(item, sort_keys=True)`` does, for every atom kind —
        including ``1`` / ``True`` / ``1.0``, which are equal as dict keys
        but canonicalize differently."""
        import hashlib

        from repro.service.fingerprint import _canon_atom

        def reference(nfa):
            def key(item):
                return json.dumps(item, sort_keys=True)

            def atoms(values):
                return sorted(map(_canon_atom, values), key=key)

            canonical = [
                "nfa",
                atoms(nfa.states),
                atoms(nfa.alphabet),
                _canon_atom(nfa.initial),
                atoms(nfa.finals),
                sorted(
                    (list(map(_canon_atom, row)) for row in nfa.transitions), key=key
                ),
            ]
            text = json.dumps(
                ["repro.fingerprint", 1, canonical],
                sort_keys=True,
                ensure_ascii=False,
                separators=(",", ":"),
            )
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        rng = random.Random(SEED)
        pool = [0, 1, True, 1.0, -3, 10**30, "1", "a", "é", "q\"\\", "\n", None,
                (1, "a"), (True,), (1,), frozenset({1, "x"}), ("a", ("b", 2))]
        for _ in range(200):
            states = rng.sample(pool, rng.randint(1, 7))
            symbols = rng.sample(["a", "b", 0, True, (1, 2), "é"], rng.randint(1, 3))
            transitions = {
                (rng.choice(states), rng.choice(symbols), rng.choice(states))
                for _ in range(rng.randint(0, 10))
            }
            finals = rng.sample(states, rng.randint(0, len(states)))
            nfa = NFA(states, symbols, transitions, states[0], finals)
            assert fingerprint_source(nfa) == reference(nfa)

    def test_stable_across_hash_seeds(self):
        """The store contract: the fingerprint must not depend on the
        process's hash randomization."""
        nfa = random_ufa(12, rng=SEED, completeness=0.9, ensure_nonempty_length=6)
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.automata.random_gen import random_ufa\n"
            "from repro.service import fingerprint_source\n"
            f"nfa = random_ufa(12, rng={SEED}, completeness=0.9, "
            "ensure_nonempty_length=6)\n"
            "print(fingerprint_source(nfa))\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout.strip())
        outputs.add(fingerprint_source(nfa))
        assert len(outputs) == 1


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def _assert_kernel_equivalent(kernel: CompiledDAG, restored: CompiledDAG):
    assert restored.n == kernel.n
    assert restored.trimmed == kernel.trimmed
    assert restored.symbols == kernel.symbols
    assert restored.total_runs == kernel.total_runs
    assert restored.vertex_count() == kernel.vertex_count()
    assert restored.edge_count() == kernel.edge_count()
    for t in range(kernel.n + 1):
        assert restored.layer_states(t) == kernel.layer_states(t)
        assert restored.final_indices(t) == kernel.final_indices(t)
    if kernel.total_runs:
        assert kernel.sample_batch(8, random.Random(3)) == restored.sample_batch(
            8, random.Random(3)
        )


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ufa_round_trip(self, seed):
        nfa = random_ufa(
            10 + seed * 3, rng=SEED + seed, completeness=0.85,
            ensure_nonempty_length=8,
        )
        kernel = compile_nfa(nfa.without_epsilon(), 8, trimmed=True)
        kernel.backward_counts()
        _assert_kernel_equivalent(kernel, kernel_from_bytes(kernel_to_bytes(kernel)))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nfa_reachable_round_trip(self, seed):
        nfa = random_nfa(
            8 + seed * 2, rng=SEED + seed, density=1.6, ensure_nonempty_length=6
        )
        kernel = compile_nfa(nfa.without_epsilon(), 6, trimmed=False)
        kernel.forward_counts()
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert restored.spectrum_counts() == kernel.spectrum_counts()
        _assert_kernel_equivalent(kernel, restored)

    def test_plan_kernel_round_trip_keeps_lowering(self):
        plan = Product(as_plan("(ab|ba)*"), as_plan("(a|b)*aa(a|b)*"))
        kernel = lower_plan(plan, 10, trimmed=True)
        kernel.backward_counts()
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        _assert_kernel_equivalent(kernel, restored)
        assert restored.lowering is not None
        assert restored.lowering.as_dict() == kernel.lowering.as_dict()

    def test_bignum_spill_round_trip(self):
        # (a|b)* at n=80 counts 2^80 ≫ 2^63: the backward table spills.
        ws = WitnessSet.from_regex("(a|b)*", 80, alphabet="ab", store=False)
        kernel = ws.kernel
        assert kernel.total_runs == 2**80
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert restored.total_runs == 2**80
        assert kernel.sample_batch(4, random.Random(1)) == restored.sample_batch(
            4, random.Random(1)
        )

    def test_seeded_sample_streams_identical(self):
        nfa = random_ufa(25, rng=SEED, completeness=0.9, ensure_nonempty_length=12)
        kernel = compile_nfa(nfa.without_epsilon(), 12, trimmed=True)
        restored = kernel_from_bytes(kernel_to_bytes(kernel))
        for seed in range(5):
            a, b = random.Random(seed), random.Random(seed)
            assert [kernel.sample_word(a) for _ in range(5)] == [
                restored.sample_word(b) for _ in range(5)
            ]

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_repeated_layers_restore_shared(self, trimmed):
        """Equal consecutive layers restore as one tuple and index map and
        a repeated layer pair as one set of CSR arrays; the restored
        kernel re-serializes to the same bytes."""
        shared_blocks = 0
        sources = [
            random_ufa(12, rng=SEED + seed, completeness=0.9).without_epsilon()
            for seed in range(6)
        ] + [
            random_nfa(7, rng=SEED + seed, density=1.4).without_epsilon()
            for seed in range(6)
        ] + [
            WitnessSet.from_regex("(ab|ba)*(a|bb)", 1, alphabet="ab").stripped,
            # Trimmed: layers {p} … {p}, {q}, {f}.  The blocks {p}→{p} and
            # {p}→{q} have the same sizes but not the same edges.
            NFA("pqf", "ab", [("p", "a", "p"), ("p", "b", "q"), ("q", "a", "f")], "p", "f"),
        ]
        for nfa in sources:
            kernel = compile_nfa(nfa, 20, trimmed)
            kernel.backward_counts()
            data = kernel_to_bytes(kernel)
            restored = kernel_from_bytes(data)
            assert kernel_to_bytes(restored) == data
            assert restored.nfa.finals == {
                kernel.layer_states(t)[i]
                for t in range(21)
                for i in kernel.final_indices(t)
            }
            for t in range(1, 21):
                same = restored._states[t] == restored._states[t - 1]
                assert (restored._states[t] is restored._states[t - 1]) == same
                assert (restored._index[t] is restored._index[t - 1]) == same
            for t in range(1, 20):
                if restored._edge_dst[t] is restored._edge_dst[t - 1]:
                    shared_blocks += 1
                    assert restored._edge_start[t] is restored._edge_start[t - 1]
                    assert restored._states[t + 1] is restored._states[t - 1]
        assert shared_blocks > 0

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            kernel_from_bytes(b"garbage that is not a snapshot")

    def test_truncated_rejected(self):
        nfa = random_ufa(10, rng=SEED, completeness=0.9, ensure_nonempty_length=6)
        data = kernel_to_bytes(compile_nfa(nfa.without_epsilon(), 6, trimmed=True))
        with pytest.raises(SnapshotError):
            kernel_from_bytes(data[: len(data) // 2])

    def test_tail_truncation_and_padding_rejected(self):
        """Losing (or gaining) whole 8-byte rows at the end must fail the
        restore, not produce a kernel that crashes later."""
        nfa = random_ufa(12, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        kernel = compile_nfa(nfa.without_epsilon(), 8, trimmed=True)
        kernel.backward_counts()
        data = kernel_to_bytes(kernel)
        for mutated in (data[:-8], data[:-16], data + b"\x00" * 8):
            with pytest.raises(SnapshotError):
                kernel_from_bytes(mutated)

    def test_extend_requires_resolver(self):
        nfa = random_ufa(10, rng=SEED, completeness=0.9, ensure_nonempty_length=8)
        stripped = nfa.without_epsilon()
        kernel = compile_nfa(stripped, 4, trimmed=False)
        blind = kernel_from_bytes(kernel_to_bytes(kernel))
        with pytest.raises(InvalidAutomatonError):
            blind.extend_to(6)
        resolved = kernel_from_bytes(
            kernel_to_bytes(kernel), source_resolver=lambda: stripped
        )
        resolved.extend_to(6)
        assert resolved.spectrum_counts() == compile_nfa(
            stripped, 6, trimmed=False
        ).spectrum_counts()


# ----------------------------------------------------------------------
# KernelStore
# ----------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return KernelStore(tmp_path / "kernels")


class TestKernelStore:
    def _kernel(self, seed=0, n=8):
        nfa = random_ufa(
            12, rng=SEED + seed, completeness=0.9, ensure_nonempty_length=n
        )
        kernel = compile_nfa(nfa.without_epsilon(), n, trimmed=True)
        kernel.backward_counts()
        return fingerprint_source(nfa), kernel

    def test_put_get_round_trip(self, store):
        fp, kernel = self._kernel()
        assert store.get(fp, 8, True) is None
        assert store.put(fp, 8, True, kernel)
        restored = store.get(fp, 8, True)
        assert restored is not None
        assert restored.total_runs == kernel.total_runs
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_keys_distinguish_mode_and_length(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        assert store.get(fp, 8, False) is None
        assert store.get(fp, 9, True) is None

    def test_corruption_recovery(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        path = store.path_for(fp, 8, True)
        path.write_bytes(b"RPROKRN1" + b"\x00" * 16)  # valid magic, garbage body
        assert store.get(fp, 8, True) is None
        assert store.stats.corrupt == 1
        assert not path.exists()  # quarantined
        # The store heals: a fresh put serves hits again.
        store.put(fp, 8, True, kernel)
        assert store.get(fp, 8, True) is not None

    def test_truncated_entry_recovery(self, store):
        fp, kernel = self._kernel()
        store.put(fp, 8, True, kernel)
        path = store.path_for(fp, 8, True)
        path.write_bytes(path.read_bytes()[:40])
        assert store.get(fp, 8, True) is None
        assert store.stats.corrupt == 1

    def test_lru_eviction(self, store):
        fp0, kernel0 = self._kernel(0)
        entry_size = len(kernel_to_bytes(kernel0))
        store.max_bytes = int(entry_size * 2.5)  # room for two entries
        store.put(fp0, 8, True, kernel0)
        fp1, kernel1 = self._kernel(1)
        store.put(fp1, 8, True, kernel1)
        assert store.stats.evictions == 0
        # Touch fp0 so fp1 becomes the LRU victim.
        os.utime(store.path_for(fp1, 8, True), (1, 1))
        assert store.get(fp0, 8, True) is not None
        fp2, kernel2 = self._kernel(2)
        store.put(fp2, 8, True, kernel2)
        assert store.stats.evictions >= 1
        assert store.get(fp1, 8, True) is None      # evicted
        assert store.get(fp0, 8, True) is not None  # kept (recently used)
        assert store.get(fp2, 8, True) is not None  # newest

    def test_orphaned_sidecars_evicted_with_their_snapshots(self, store):
        fp0, kernel0 = self._kernel(0)
        store.put_meta(fp0, {"unambiguous": True})
        store.put(fp0, 8, True, kernel0)
        # A budget that fits one snapshot: storing fp1 evicts fp0's
        # snapshot, and fp0's now-stranded sidecar goes with it.
        store.max_bytes = int(len(kernel_to_bytes(kernel0)) * 1.5)
        fp1, kernel1 = self._kernel(1)
        store.put(fp1, 8, True, kernel1)
        assert store.get(fp0, 8, True) is None
        assert store.get_meta(fp0) is None
        assert store.get(fp1, 8, True) is not None

    def test_meta_round_trip(self, store):
        store.put_meta("ab" * 32, {"unambiguous": True})
        store.put_meta("ab" * 32, {"other": 1})
        assert store.get_meta("ab" * 32) == {"unambiguous": True, "other": 1}
        assert store.get_meta("cd" * 32) is None

    def test_tolerates_entries_vanishing_under_it(self, store):
        """A sibling process's evictor may unlink entries (or whole
        fan-out dirs) between a listing and the stat/read that follows;
        every store operation must treat that as a miss, not a crash."""
        fingerprints = []
        for seed in range(4):
            fp, kernel = self._kernel(seed)
            store.put(fp, 8, True, kernel)
            store.put_meta(fp, {"unambiguous": True})
            fingerprints.append(fp)
        # Simulate the concurrent evictor: delete files behind the
        # store's back, including one whole fan-out directory.
        victims = store.entries()[:2]
        for path in victims:
            path.unlink()
        import shutil

        shutil.rmtree(store.path_for(fingerprints[0], 8, True).parent, ignore_errors=True)
        # Listing, sizing, reads and eviction scans all stay calm.
        assert isinstance(store.total_bytes(), int)
        store._evict_over_budget()
        for fp in fingerprints:
            store.get(fp, 8, True)  # hit or clean miss, never a crash
        fp_new, kernel_new = self._kernel(9)
        assert store.put(fp_new, 8, True, kernel_new)
        assert store.get(fp_new, 8, True) is not None

    def test_lru_scan_tolerates_race_on_stat(self, store, monkeypatch):
        """The exact race: an entry vanishes between the LRU scan's
        listing and its stat call."""
        from pathlib import Path

        fp, kernel = self._kernel(0)
        store.put(fp, 8, True, kernel)
        store.max_bytes = 1  # force an eviction pass on next put
        real_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self.suffix == ".kern" and os.path.exists(self):
                os.unlink(self)  # another process just evicted it
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        fp2, kernel2 = self._kernel(1)
        store.put(fp2, 8, True, kernel2)  # must not raise
        monkeypatch.setattr(Path, "stat", real_stat)
        assert isinstance(store.total_bytes(), int)


class TestWitnessSetStoreWiring:
    def test_warm_start_hits_store(self, store):
        nfa = random_ufa(30, rng=SEED, completeness=0.9, ensure_nonempty_length=16)
        cold = WitnessSet.from_nfa(nfa, 16, store=store)
        count = cold.count()
        samples = cold.sample_batch(5, rng=3, use_substreams=True)
        warm = WitnessSet.from_nfa(nfa, 16, store=store)
        assert warm.count() == count
        assert warm.sample_batch(5, rng=3, use_substreams=True) == samples
        assert store.stats.hits >= 1
        # The warm set never unrolled or lowered anything: its kernel
        # came from the snapshot (only a compiled kernel records its
        # unrolling pass), and the stripped automaton was never built.
        assert warm.kernel.exploration is None
        assert "stripped" not in warm._cache

    def test_ambiguity_certificate_persisted(self, store):
        nfa = random_ufa(20, rng=SEED, completeness=0.9, ensure_nonempty_length=10)
        assert WitnessSet.from_nfa(nfa, 10, store=store).is_unambiguous
        warm = WitnessSet.from_nfa(nfa, 10, store=store)
        assert warm.is_unambiguous
        assert "stripped" not in warm._cache  # certificate came from meta

    def test_plan_backed_sets_round_trip(self, store):
        # An unambiguous product, so count/sample run on the kernel
        # (ambiguous plans fall back to the subset counter, which never
        # compiles — nothing to persist).
        operands = ("(ab|ba)*", "(ab)*(a|b)?", 10)
        baseline = WitnessSet.from_intersection(*operands, store=False)
        assert baseline.is_unambiguous
        cold = WitnessSet.from_intersection(*operands, store=store)
        assert cold.count() == baseline.count()
        warm = WitnessSet.from_intersection(*operands, store=store)
        assert warm.count() == baseline.count()
        assert store.stats.hits >= 1
        assert warm.describe()["lowering"] is not None

    def test_unfingerprintable_source_opts_out(self, store):
        marker = object()
        nfa = NFA([marker], ["a"], [(marker, "a", marker)], marker, [marker])
        ws = WitnessSet.from_nfa(nfa, 4, store=store)
        assert ws.count() == 1  # still answers, just without persistence
        assert store.stats.stores == 0

    def test_backend_guard_verifies_restored_kernels(self, store):
        """A snapshot-restored kernel passes the kernel= guard for its
        own instance (fingerprint match) and is rejected for another."""
        from repro.errors import BackendError

        operands = ("(ab|ba)*", "(ab)*(a|b)?", 10)
        baseline = WitnessSet.from_intersection(*operands, store=False)
        WitnessSet.from_intersection(*operands, store=store).count()
        restored = WitnessSet.from_intersection(*operands, store=store).kernel
        assert restored.fingerprint is not None
        # A *different* witness set over the same instance accepts it...
        fresh = WitnessSet.from_intersection(*operands, store=False)
        assert fresh.count("exact", kernel=restored) == baseline.count()
        # ...and an unrelated witness set rejects it.
        other = WitnessSet.from_regex("(a|b)*", 10, alphabet="ab", store=False)
        with pytest.raises(BackendError):
            other.count("exact", kernel=restored)

    def test_spectrum_past_n_on_restored_kernel(self, store):
        nfa = random_ufa(15, rng=SEED, completeness=0.95, ensure_nonempty_length=12)
        cold = WitnessSet.from_nfa(nfa, 6, store=store)
        baseline = WitnessSet.from_nfa(nfa, 6, store=False)
        assert cold.spectrum() == baseline.spectrum()
        warm = WitnessSet.from_nfa(nfa, 6, store=store)
        # Extending past the snapshot resolves the source lazily.
        assert warm.spectrum(10) == baseline.spectrum(10)

    @pytest.mark.parametrize("plan_backed", [False, True], ids=["nfa", "plan"])
    def test_restored_set_freed_without_cyclic_gc(self, store, plan_backed):
        """A set whose kernels came from the store dies with its last
        reference: the restored kernel's source resolver holds the source,
        not the set, so no reference cycle waits for the cyclic GC."""

        def make(store):
            if plan_backed:
                return WitnessSet.from_intersection("(ab|ba)*", "(a|b)*", 6, store=store)
            return WitnessSet.from_regex("(ab|ba)*", 6, alphabet="ab", store=store)

        cold = make(store)
        cold.count()
        cold.spectrum()
        warm = make(store)
        kernel = warm.reachable_kernel
        assert kernel.exploration is None  # restored, not compiled
        assert warm.count() == cold.count()
        ref = weakref.ref(warm)
        gc.disable()
        try:
            del warm
            assert ref() is None
        finally:
            gc.enable()
        # The live restored kernel still resolves its source to extend.
        kernel.extend_to(10)
        spectrum = kernel.spectrum_counts()
        expected = make(False).spectrum(10)
        assert {length: spectrum[length] for length in range(11)} == expected


# ----------------------------------------------------------------------
# Deterministic substreams
# ----------------------------------------------------------------------


class TestSubstreams:
    def test_spawn_seq_deterministic_and_order_free(self):
        streams_a = [spawn_seq(make_rng(5), i) for i in (0, 1, 2)]
        streams_b = [spawn_seq(make_rng(5), i) for i in (2, 1, 0)][::-1]
        assert [g.random() for g in streams_a] == [g.random() for g in streams_b]

    def test_spawn_seq_does_not_advance_parent(self):
        parent = make_rng(5)
        before = parent.getstate()
        spawn_seq(parent, 3)
        assert parent.getstate() == before

    def test_distinct_indices_distinct_streams(self):
        parent = make_rng(5)
        values = {spawn_seq(parent, i).getrandbits(64) for i in range(32)}
        assert len(values) == 32

    def test_sample_batch_substreams_prefix_stable(self):
        """Draw i depends only on (seed, i): a longer batch extends a
        shorter one instead of reshuffling it."""
        ws = WitnessSet.from_regex("(ab|ba)*", 12, alphabet="ab", store=False)
        small = ws.sample_batch(3, rng=9, use_substreams=True)
        large = ws.sample_batch(7, rng=9, use_substreams=True)
        assert large[:3] == small

    def test_repeated_batches_on_live_rng_differ(self):
        """use_substreams with a shared generator must not replay the
        same batch (the parent is ticked once per call); an integer seed
        replays by design."""
        ws = WitnessSet.from_regex("(a|b)*", 16, alphabet="ab", store=False)
        shared_rng = make_rng(3)
        first = ws.sample_batch(4, rng=shared_rng, use_substreams=True)
        second = ws.sample_batch(4, rng=shared_rng, use_substreams=True)
        assert first != second
        assert ws.sample_batch(4, rng=3, use_substreams=True) == ws.sample_batch(
            4, rng=3, use_substreams=True
        )

    def test_coalesced_equals_separate(self):
        ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 11, alphabet="ab", store=False)
        requests = [(3, 7), (2, 8), (4, 7)]
        coalesced = draw_samples_coalesced(ws, requests)
        separate = [draw_samples(ws, k, seed) for k, seed in requests]
        assert coalesced == separate

    def test_ambiguous_route_coalesced_equals_separate(self):
        ws = WitnessSet.from_regex("(a|b)*a(a|b)*", 8, alphabet="ab", store=False)
        assert not ws.is_unambiguous
        requests = [(2, 1), (3, 2)]
        assert draw_samples_coalesced(ws, requests) == [
            draw_samples(ws, k, seed) for k, seed in requests
        ]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def _mixed_requests():
    return [
        {"id": 1, "op": "count", "spec": SPEC},
        {"id": 2, "op": "sample", "spec": SPEC, "k": 3, "seed": 7},
        {"id": 3, "op": "sample", "spec": SPEC, "k": 2, "seed": 8},
        {"id": 4, "op": "count", "spec": SPEC2},
        {"id": 5, "op": "sample_batch", "spec": SPEC2, "k": 4, "seed": 9},
        {"id": 6, "op": "spectrum", "spec": SPEC, "max_length": 6},
        {"id": 7, "op": "describe", "spec": SPEC2},
        {"id": 8, "op": "ping"},
    ]


def _results(responses):
    return {response["id"]: response.get("result") for response in responses}


class TestEngine:
    def test_in_process_execution(self):
        with Engine(workers=0) as engine:
            responses = engine.execute(_mixed_requests())
        assert all(response["ok"] for response in responses)
        results = _results(responses)
        assert results[1] == 32
        assert len(results[2]) == 3 and len(results[3]) == 2
        assert results[6][0] == [0, 1]

    def test_same_spec_samples_coalesce(self):
        with Engine(workers=0) as engine:
            responses = engine.execute(_mixed_requests())
        by_id = {response["id"]: response for response in responses}
        assert by_id[2].get("coalesced") == 2
        assert by_id[3].get("coalesced") == 2

    def test_multiworker_matches_in_process(self):
        requests = _mixed_requests()
        with Engine(workers=0) as local:
            base = _results(local.execute(requests))
        with Engine(workers=2) as pool:
            assert _results(pool.execute(requests)) == base
            # Affinity: repeating the batch lands specs on the same
            # workers, so every kernel is already resident.
            pool.execute(requests)
            aggregated = pool.stats()
            per_worker = pool.stats(per_worker=True)
        assert aggregated["hits"] > 0
        assert aggregated["hits"] == sum(entry["hits"] for entry in per_worker)
        assert aggregated["workers"] == 2 and aggregated["alive"] == 2

    def test_affinity_routing_is_deterministic(self):
        with Engine(workers=4) as engine:
            key = spec_key(SPEC)
            assert engine.route(key) == engine.route(key)
            engine.close()

    def test_error_isolation(self):
        requests = [
            {"id": 1, "op": "count", "spec": SPEC},
            {"id": 2, "op": "nonsense", "spec": SPEC},
            {"id": 3, "op": "count", "spec": {"kind": "bogus"}},
        ]
        with Engine(workers=0) as engine:
            responses = engine.execute(requests)
        assert responses[0]["ok"]
        assert not responses[1]["ok"] and not responses[2]["ok"]
        assert responses[2]["error_type"] == "ProtocolError"

    def test_duplicate_ids_across_clients_stay_positional(self):
        """Two clients may both say id 'c0' in one batch: responses are
        matched by batch position, never by the client-chosen id."""
        requests = [
            {"id": "c0", "op": "count", "spec": SPEC},
            {"id": "c0", "op": "count", "spec": SPEC2},
        ]
        for workers in (0, 2):
            with Engine(workers=workers) as engine:
                for _ in range(3):  # repeat: completion order varies
                    responses = engine.execute([dict(r) for r in requests])
                    assert [r["result"] for r in responses] == [32, 26]
                    assert all("__seq" not in r for r in responses)

    def test_dead_worker_fails_fast_instead_of_hanging(self):
        with Engine(workers=2) as engine:
            victim = engine.route(spec_key(SPEC))
            engine._processes[victim].terminate()
            engine._processes[victim].join(timeout=5)
            responses = engine.execute(
                [
                    {"id": 1, "op": "count", "spec": SPEC},
                    {"id": 2, "op": "count", "spec": SPEC2},
                ]
            )
        by_id = {response["id"]: response for response in responses}
        assert not by_id[1]["ok"] and by_id[1]["error_type"] == "EngineError"
        # The surviving worker keeps serving (unless SPEC2 shares the
        # dead worker's route, in which case it also fails fast).
        if engine.route(spec_key(SPEC2)) != victim:
            assert by_id[2]["ok"] and by_id[2]["result"] == 26

    def test_dead_worker_restarts_for_next_batch(self):
        with Engine(workers=2) as engine:
            victim = engine.route(spec_key(SPEC))
            engine._processes[victim].terminate()
            engine._processes[victim].join(timeout=5)
            first = engine.execute([{"id": 1, "op": "count", "spec": SPEC}])
            assert not first[0]["ok"]  # in-flight batch still fails fast
            # Failing the batch respawned the worker: the same spec
            # routes to the live replacement and answers again.
            second = engine.execute([{"id": 2, "op": "count", "spec": SPEC}])
            assert second[0]["ok"] and second[0]["result"] == 32

    def test_invalid_k_never_steals_sibling_witnesses(self):
        good = {"id": 2, "op": "sample", "spec": SPEC, "k": 2, "seed": 5}
        with Engine(workers=0) as engine:
            solo = engine.execute([dict(good)])[0]["result"]
            responses = engine.execute(
                [{"id": 1, "op": "sample", "spec": SPEC, "k": -1, "seed": 4}, good]
            )
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "ProtocolError"
        assert responses[1]["ok"] and responses[1]["result"] == solo

    def test_shared_store_across_workers(self, tmp_path):
        root = tmp_path / "kernels"
        requests = [{"id": 1, "op": "count", "spec": SPEC}]
        with Engine(workers=0, store_root=root) as engine:
            engine.execute(requests)
        assert KernelStore(root).entries()
        with Engine(workers=2, store_root=root) as pool:
            responses = pool.execute(requests)
        assert responses[0]["result"] == 32

    def test_execute_stream_pages_enumeration(self):
        """execute_stream yields paged chunk responses whose items
        concatenate to the full enumeration, for workers=0 and a pool."""
        expected = [render_witness(w) for w in witness_set_from_spec(SPEC).enumerate()]
        for workers in (0, 2):
            with Engine(workers=workers) as engine:
                chunks = list(
                    engine.execute_stream(
                        {"id": 1, "op": "enumerate", "spec": SPEC}, chunk_size=6
                    )
                )
            assert all(chunk["ok"] for chunk in chunks)
            items = [item for chunk in chunks for item in chunk["result"]["items"]]
            assert items == expected
            assert chunks[-1]["result"]["done"]
            assert all(len(c["result"]["items"]) <= 6 for c in chunks)

    def test_execute_stream_honours_limit(self):
        with Engine(workers=0) as engine:
            chunks = list(
                engine.execute_stream(
                    {"id": 1, "op": "enumerate", "spec": SPEC, "limit": 10},
                    chunk_size=4,
                )
            )
        items = [item for chunk in chunks for item in chunk["result"]["items"]]
        assert len(items) == 10

    def test_engine_honours_store_env_default(self, tmp_path, monkeypatch):
        root = tmp_path / "env-kernels"
        monkeypatch.setenv("REPRO_KERNEL_STORE", str(root))
        with Engine(workers=0) as engine:
            engine.execute([{"id": 1, "op": "count", "spec": SPEC}])
        assert KernelStore(root).entries(), "env-default store must persist kernels"
        with Engine(workers=0, store_root=False) as engine:
            assert engine.store_root is None  # explicit opt-out wins


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


class TestSpecs:
    def test_witness_set_from_spec_matches_facade(self):
        assert witness_set_from_spec(SPEC).count() == WitnessSet.from_regex(
            "(ab|ba)*", 10, alphabet="ab", store=False
        ).count()

    def test_spec_key_stable_under_field_order(self):
        shuffled = {"n": 10, "pattern": "(ab|ba)*", "kind": "regex", "alphabet": "ab"}
        assert spec_key(SPEC) == spec_key(shuffled)

    def test_dnf_spec(self):
        ws = witness_set_from_spec({"kind": "dnf", "formula": "x0 & !x1 | x2"})
        assert ws.count() == WitnessSet.from_dnf("x0 & !x1 | x2", store=False).count()

    def test_nfa_spec_round_trip(self):
        from repro.automata.serialization import nfa_to_json

        nfa = random_ufa(8, rng=SEED, completeness=0.9, ensure_nonempty_length=5)
        spec = {"kind": "nfa", "nfa": json.loads(nfa_to_json(nfa)), "n": 5}
        assert witness_set_from_spec(spec).count() == WitnessSet.from_nfa(
            nfa, 5, store=False
        ).count()


class _Symbol(str):
    """A ``str`` subclass symbol, as a decoding relation might produce."""


class _Bracketed(str):
    """A ``str`` subclass whose ``str()`` differs from its value."""

    def __str__(self):
        return f"[{str.__str__(self)}]"


def _reference_rendering(witness):
    """The two-pass rendering ``render_witness`` replaced."""
    if isinstance(witness, Path):
        labels = "".join(map(str, witness.label_word))
        hops = " → ".join(map(str, witness.vertices()))
        return f"{labels}  ({hops})"
    if isinstance(witness, tuple):
        return word_str(tuple(str(symbol) for symbol in witness))
    return str(witness)


class TestRenderWitness:
    @pytest.mark.parametrize(
        "witness",
        [
            ("a", "b", "b"),
            ("ab", "", "cde"),
            (0, 1, 10),
            ("a", 1, ("x", 2), None),
            (_Symbol("q"), "r", _Symbol("st")),
            ("a", _Bracketed("b")),
            (),
            frozenset({1}),
            42,
            "plain",
        ],
        ids=["chars", "multichar", "ints", "mixed", "str-subclass",
             "str-subclass-own-str", "empty", "frozenset", "int", "str"],
    )
    def test_matches_reference(self, witness):
        assert render_witness(witness) == _reference_rendering(witness)

    def test_path_witnesses(self):
        from repro.graphdb.graph import grid_graph

        ws = WitnessSet.from_rpq(grid_graph(3, 3), "(r|d)*", (0, 0), (2, 2), 4)
        paths = list(ws.enumerate())
        assert len(paths) == 6 and all(isinstance(p, Path) for p in paths)
        rendered = [render_witness(p) for p in paths]
        assert rendered == [_reference_rendering(p) for p in paths]
        assert "rrdd  ((0, 0) → (1, 0) → (2, 0) → (2, 1) → (2, 2))" in rendered


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


def _request_lines(requests):
    return "".join(json.dumps(request) + "\n" for request in requests)


class TestServeStdio:
    def test_round_trip(self):
        stdin = io.StringIO(
            _request_lines(
                [
                    {"id": 1, "op": "count", "spec": SPEC},
                    {"id": 2, "op": "sample", "spec": SPEC, "k": 2, "seed": 7},
                ]
            )
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        results = {response["id"]: response["result"] for response in responses}
        assert results[1] == 32 and len(results[2]) == 2

    def test_malformed_line_answers_error(self):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout)
        response = json.loads(stdout.getvalue().splitlines()[0])
        assert not response["ok"]

    def test_shutdown_stops_loop(self):
        stdin = io.StringIO(_request_lines([{"id": 1, "op": "shutdown"}]))
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout)
        assert json.loads(stdout.getvalue().splitlines()[0])["result"] == "bye"

    def test_oversized_line_answers_error_and_recovers(self):
        """The unbounded-buffering regression: a huge line gets a
        one-line JSON error and later requests still work."""
        stdin = io.StringIO(
            "x" * 5000 + "\n" + _request_lines([{"id": 1, "op": "count", "spec": SPEC}])
        )
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            serve_stdio(engine, stdin=stdin, stdout=stdout, max_line=1024)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert not responses[0]["ok"] and "too long" in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["result"] == 32

    def test_real_pipe_oversized_line_discards_bounded(self):
        """Over a real pipe the reader never buffers past max_line: the
        oversized line is discarded up to its newline (even when it
        spans many reads) and the stream stays usable."""
        read_fd, write_fd = os.pipe()
        payload = (
            b"y" * 4000
            + b" more of the same line\n"
            + _request_lines([{"id": 2, "op": "count", "spec": SPEC}]).encode()
            + _request_lines([{"id": 9, "op": "shutdown"}]).encode()
        )
        os.write(write_fd, payload)
        os.close(write_fd)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            with os.fdopen(read_fd, "r") as stdin:
                serve_stdio(engine, stdin=stdin, stdout=stdout, max_line=1024)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        too_long = [r for r in responses if "too long" in r.get("error", "")]
        assert len(too_long) == 1 and not too_long[0]["ok"]
        assert any(r.get("id") == 2 and r.get("result") == 32 for r in responses)

    def test_real_pipe_batches_and_coalesces(self):
        """Over an actual pipe (fd framing), a pipelined burst lands in
        one engine batch, so same-spec samples coalesce."""
        read_fd, write_fd = os.pipe()
        requests = [
            {"id": i, "op": "sample", "spec": SPEC, "k": 1, "seed": i}
            for i in range(4)
        ]
        payload = _request_lines(requests) + _request_lines(
            [{"id": 99, "op": "shutdown"}]
        )
        os.write(write_fd, payload.encode("utf-8"))
        os.close(write_fd)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            with os.fdopen(read_fd, "r") as stdin:
                assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        samples = [r for r in responses if isinstance(r.get("id"), int) and r["id"] < 4]
        assert len(samples) == 4 and all(r["ok"] for r in samples)
        assert all(r.get("coalesced") == 4 for r in samples)

    @needs_digit_limit
    def test_unencodable_response_gets_one_error_reply(self):
        """A count too long to encode gets one ``ok: false`` line with
        its id, and the loop goes on serving the next request."""
        read_fd, write_fd = os.pipe()
        payload = _request_lines(
            [
                {"id": "huge", "op": "count", "spec": HUGE_COUNT_SPEC},
                {"id": "next", "op": "count", "spec": SPEC},
            ]
        )
        os.write(write_fd, payload.encode("utf-8"))
        os.close(write_fd)
        stdout = io.StringIO()
        with Engine(workers=0) as engine:
            with os.fdopen(read_fd, "r") as stdin:
                assert serve_stdio(engine, stdin=stdin, stdout=stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["huge", "next"]
        assert not responses[0]["ok"]
        assert responses[0]["error_type"] == "ValueError"
        assert responses[1]["ok"] and responses[1]["result"] == 32


def _start_tcp_server(engine, **kwargs):
    from repro.service.server import start_tcp_server_thread

    return start_tcp_server_thread(engine, **kwargs)


class _GatedEngine(Engine):
    """An in-process engine whose first ``execute`` blocks until
    :attr:`release` is set; records the request ids of every batch."""

    def __init__(self):
        super().__init__(workers=0)
        self.batches: list = []
        self.busy = threading.Event()
        self.release = threading.Event()

    def execute(self, requests):
        self.batches.append([request.get("id") for request in requests])
        if len(self.batches) == 1:
            self.busy.set()
            assert self.release.wait(30), "test never released the engine"
        return super().execute(requests)


def _send_line(client, request):
    client.sock.sendall(json.dumps(request).encode() + b"\n")


def _wait_queued(depth):
    """Block until the server's request queue holds ``depth`` requests.

    Only valid while a :class:`_GatedEngine` is blocked: the pump is then
    stuck in ``execute``, so only enqueues move the queue-depth gauge."""
    gauge = obs.metrics().gauge(metric_names.SERVER_QUEUE_DEPTH)
    deadline = time.monotonic() + 10
    while gauge.value != depth:
        assert time.monotonic() < deadline, f"queue depth {gauge.value} != {depth}"
        time.sleep(0.001)


@pytest.fixture
def tcp_server():
    engine = Engine(workers=0)
    thread, (host, port) = _start_tcp_server(engine)
    yield host, port
    try:
        with ServiceClient(host, port, timeout=5) as client:
            client.shutdown()
    except OSError:
        pass
    thread.join(timeout=10)
    engine.close()


class _PipeSocket:
    """The socket calls :class:`ServiceClient` makes, over two pipes."""

    def __init__(self, write_fd, read_fd, timeout=30.0):
        self.write_fd, self.read_fd, self.timeout = write_fd, read_fd, timeout

    def sendall(self, data):
        view = memoryview(data)
        while view:
            view = view[os.write(self.write_fd, view):]

    def recv(self, size):
        ready, _, _ = select.select([self.read_fd], [], [], self.timeout)
        if not ready:
            raise TimeoutError("no reply from serve_stdio")
        return os.read(self.read_fd, size)

    def close(self):
        """EOF on the server's stdin."""
        if self.write_fd is not None:
            os.close(self.write_fd)
            self.write_fd = None


class _StdioClient(ServiceClient):
    """A :class:`ServiceClient` whose server is :func:`serve_stdio`,
    run in a thread with a pipe as stdin and a pipe as stdout."""

    def __init__(self, engine, **server_kwargs):
        stdin_read, stdin_write = os.pipe()
        stdout_read, stdout_write = os.pipe()
        self.sock = _PipeSocket(stdin_write, stdout_read)
        self._buffer = b""
        self._next_id = 0
        self.last_cursor = None
        self._stream_lines = {}
        self.stdio = (os.fdopen(stdin_read, "rb"), os.fdopen(stdout_write, "wb"))
        self.exit_codes = []

        def serve():
            self.exit_codes.append(serve_stdio(engine, *self.stdio, **server_kwargs))

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()

    def finish(self):
        """Close stdin; the server answers what it read and returns."""
        self.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "serve_stdio did not exit on EOF"
        assert self.exit_codes == [0]
        for handle in self.stdio:
            handle.close()
        os.close(self.sock.read_fd)


@pytest.fixture(params=["tcp", "stdio"])
def transport(request):
    """Connect one client to a fresh server over TCP or over stdio.

    Call it as ``transport(engine=None, **server_kwargs)``; the keyword
    arguments are those :func:`serve_tcp` and :func:`serve_stdio` share.
    """
    started = []

    def connect(engine=None, **server_kwargs):
        engine = engine if engine is not None else Engine(workers=0)
        if request.param == "stdio":
            client = _StdioClient(engine, **server_kwargs)
            started.append((engine, client.finish))
            return client
        thread, (host, port) = _start_tcp_server(engine, **server_kwargs)
        client = ServiceClient(host, port, timeout=30)

        def stop():
            client.close()
            with ServiceClient(host, port, timeout=5) as closer:
                closer.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive(), "serve_tcp did not exit on shutdown"

        started.append((engine, stop))
        return client

    yield connect
    for engine, stop in started:
        try:
            stop()
        finally:
            engine.close()


class TestServeTcp:
    def test_count_and_sample(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            assert client.result("count", SPEC) == 32
            samples = client.result("sample", SPEC, k=3, seed=7)
        with Engine(workers=0) as engine:
            local = engine.execute(
                [{"id": 0, "op": "sample", "spec": SPEC, "k": 3, "seed": 7}]
            )[0]["result"]
        assert samples == local

    def test_pipelined_batch_coalesces(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            responses = client.send(
                [
                    {"op": "sample", "spec": SPEC, "k": 2, "seed": 1},
                    {"op": "sample", "spec": SPEC, "k": 2, "seed": 2},
                    {"op": "count", "spec": SPEC},
                ]
            )
        assert all(response["ok"] for response in responses)
        # Both samples arrived in one socket write → one kernel pass.
        assert responses[0].get("coalesced") == 2

    def test_ping_and_stats(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            assert client.result("ping") == "pong"
            stats = client.result("stats")
            detailed = client.result("stats", per_worker=True)
        # Server-level stats aggregate every worker's counters plus the
        # pool-wide merged metrics snapshot.
        assert "served" in stats
        assert "workers" not in stats  # per-worker list is opt-in
        assert stats["engine"]["workers"] >= 1
        assert "counters" in stats["metrics"]
        assert all("resident" in worker for worker in detailed["workers"])

    def test_malformed_line_gets_error_response(self, tcp_server):
        import socket as socket_module

        host, port = tcp_server
        with socket_module.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile().readline())
        assert not response["ok"]


# ----------------------------------------------------------------------
# The async TCP server: concurrency, bounds, deadlines, streaming
# ----------------------------------------------------------------------


BIG_SPEC = {"kind": "regex", "pattern": "(a|b)*", "alphabet": "ab", "n": 40}


class TestAsyncServe:
    def test_32_concurrent_clients_with_isolation(self, tcp_server):
        """≥ 32 simultaneous connections, each with its own seeded
        requests; every response matches the in-process facade."""
        host, port = tcp_server
        outcomes: list = [None] * 32
        errors: list = []

        def client_main(index):
            try:
                with ServiceClient(host, port, timeout=30) as client:
                    count = client.result("count", SPEC)
                    samples = client.result("sample", SPEC, k=2, seed=index)
                    outcomes[index] = (count, samples)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append((index, error))

        threads = [
            threading.Thread(target=client_main, args=(i,)) for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert all(outcome is not None for outcome in outcomes)
        with Engine(workers=0) as local:
            for index, (count, samples) in enumerate(outcomes):
                assert count == 32
                expected = local.execute(
                    [{"id": 0, "op": "sample", "spec": SPEC, "k": 2, "seed": index}]
                )[0]["result"]
                assert samples == expected, f"client {index} diverged"

    def test_oversized_line_answers_one_error_and_resyncs(self, transport):
        """An endless line is answered with one JSON error at the
        max-line bound — the reader never buffers it — and discarded
        through its newline, so the same connection keeps serving."""
        client = transport(max_line=4096)
        client.sock.sendall(b"z" * 300_000)  # no newline, 73x the bound
        response = json.loads(client._read_line())
        assert not response["ok"]
        assert "too long" in response["error"]
        # The line ends here; the next reply is the count's, so the line
        # drew one error however many reads it spanned.
        client.sock.sendall(b"\n")
        _send_line(client, {"id": "after", "op": "count", "spec": SPEC})
        after = json.loads(client._read_line())
        assert after["id"] == "after" and after["result"] == 32

    def test_request_deadline_answers_timeout(self, transport):
        """A request whose deadline passes while it waits behind a busy
        engine is answered with a TimeoutError and never executes."""
        engine = _GatedEngine()
        client = transport(engine, request_timeout=0.0001)
        try:
            # A per-request override beats the server default: the
            # blocked first request keeps its 30 s budget.
            _send_line(
                client, {"id": "a", "op": "count", "spec": SPEC, "timeout_ms": 30_000}
            )
            assert engine.busy.wait(10)
            _send_line(client, {"id": "b", "op": "count", "spec": SPEC})
            _wait_queued(1)
            # "b" was enqueued before _wait_queued returned, so after
            # 1 ms its 0.1 ms deadline has passed, engine still busy.
            time.sleep(0.001)
            engine.release.set()
            replies = {}
            for _ in range(2):
                reply = json.loads(client._read_line())
                replies[reply["id"]] = reply
        finally:
            engine.release.set()
        assert replies["a"]["ok"] and replies["a"]["result"] == 32
        assert not replies["b"]["ok"]
        assert replies["b"]["error_type"] == "TimeoutError"
        assert engine.batches == [["a"]]

    def test_batch_while_busy(self):
        """An idle server executes a lone request at once; everything
        that arrives while that batch runs forms the next batch, across
        connections, and its same-spec samples share one kernel pass."""
        engine = _GatedEngine()
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port) as one, ServiceClient(host, port) as two:
                _send_line(one, {"id": "A", "op": "sample", "spec": SPEC, "seed": 0})
                assert engine.busy.wait(10)
                _send_line(one, {"id": "B", "op": "sample", "spec": SPEC, "seed": 1})
                _wait_queued(1)
                _send_line(two, {"id": "C", "op": "sample", "spec": SPEC, "seed": 2})
                _send_line(two, {"id": "D", "op": "sample", "spec": SPEC, "seed": 3})
                _wait_queued(3)
                engine.release.set()
                replies = [json.loads(one._read_line()) for _ in range(2)]
                replies += [json.loads(two._read_line()) for _ in range(2)]
                one.shutdown()
        finally:
            engine.release.set()
            thread.join(timeout=10)
            engine.close()
        assert engine.batches == [["A"], ["B", "C", "D"]]
        by_id = {reply["id"]: reply for reply in replies}
        assert all(reply["ok"] for reply in replies)
        assert [by_id[i].get("coalesced") for i in "BCD"] == [3, 3, 3]

    @needs_digit_limit
    def test_unencodable_response_gets_one_error_reply(self):
        """A count too long to encode is answered with exactly one
        ``ok: false`` line carrying the request id; the connection keeps
        serving."""
        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port, timeout=60) as client:
                response = client.request("count", HUGE_COUNT_SPEC)
                assert not response["ok"]
                assert response["error_type"] == "ValueError"
                assert client.result("count", SPEC) == 32
                client.shutdown()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_cross_connection_coalescing(self, tcp_server):
        """Same-spec sample bursts from *different* connections land in
        one engine batch (the old server only coalesced within one)."""
        host, port = tcp_server
        barrier = threading.Barrier(6)
        coalesced: list = []

        def one_client(seed):
            with ServiceClient(host, port, timeout=30) as client:
                barrier.wait(timeout=10)
                response = client.request("sample", SPEC, k=1, seed=seed)
                assert response["ok"]
                coalesced.append(response.get("coalesced", 1))

        threads = [threading.Thread(target=one_client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(coalesced) == 6
        # At least one batch merged requests from distinct connections.
        assert max(coalesced) >= 2, coalesced

    def test_streamed_enumeration_pages_through(self, transport):
        """The chunk lines of a stream are the pages of
        ``Engine.execute_stream``, and together the whole enumeration."""
        client = transport()
        with Engine(workers=0) as engine:
            pages = [
                page["result"]
                for page in engine.execute_stream(
                    {"id": 0, "op": "enumerate", "spec": SPEC}, chunk_size=5
                )
            ]
        request = {"id": "s", "op": "enumerate", "spec": SPEC, "stream": True}
        _send_line(client, dict(request, chunk_size=5))
        chunks = [json.loads(client._read_line()) for _ in pages]
        assert [(c["chunk"], c["cursor"], c["done"]) for c in chunks] == [
            (p["items"], p["cursor"], p["done"]) for p in pages
        ]
        ws = witness_set_from_spec(SPEC)
        expected = [render_witness(w) for w in ws.enumerate()]
        assert list(client.enumerate(SPEC, chunk_size=5)) == expected

    def test_streamed_enumeration_never_materializes(self, tcp_server):
        """First witnesses of a 2^40-word set arrive immediately; the
        abandoned stream is cancelled and the connection stays usable."""
        host, port = tcp_server
        with ServiceClient(host, port, timeout=30) as client:
            stream = client.enumerate(BIG_SPEC, chunk_size=20)
            first = [next(stream) for _ in range(50)]
            stream.close()  # sends cancel; residual chunks are skipped
            assert len(set(first)) == 50
            assert all(len(w) == 40 for w in first)
            # Same connection keeps serving after the abandoned stream.
            assert client.result("count", SPEC) == 32
            assert list(client.enumerate(SPEC, limit=7, chunk_size=3)) == [
                w for w in list(client.enumerate(SPEC, chunk_size=50))[:7]
            ]

    def test_stream_resumes_from_cursor(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            full = list(client.enumerate(SPEC, chunk_size=4))
            stream = client.enumerate(SPEC, chunk_size=4)
            head = [next(stream) for _ in range(4)]  # exactly one chunk
            cursor = client.last_cursor
            stream.close()
            assert cursor is not None
            tail = list(client.enumerate(SPEC, chunk_size=4, cursor=cursor))
        assert head + tail == full

    def test_paged_enumerate_request_response(self, tcp_server):
        """The non-streamed op: one request, one page, explicit cursor."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            page = client.result("enumerate", SPEC, chunk_size=10)
            assert len(page["items"]) == 10 and not page["done"]
            rest = client.result("enumerate", SPEC, cursor=page["cursor"])
            assert rest["done"] and len(page["items"]) + len(rest["items"]) == 32
            bogus = client.request("enumerate", SPEC, cursor=[[0, 0, 99]])
            assert not bogus["ok"] and bogus["error_type"] == "ProtocolError"

    def test_gapped_cursor_is_rejected_not_mispaged(self):
        """A cursor missing a decision triple at a branching vertex must
        raise, never replay wrong words (or loop forever server-side)."""
        from repro.core.enumeration import algorithm1_page

        ws = witness_set_from_spec(
            {"kind": "regex", "pattern": "(a|b)(a|b)", "alphabet": "ab", "n": 2}
        )
        with pytest.raises(ValueError):
            algorithm1_page(ws.kernel, [[1, 0, 1]], 10)
        with Engine(workers=0) as engine:
            response = engine.execute(
                [
                    {
                        "id": 1,
                        "op": "enumerate",
                        "spec": {
                            "kind": "regex",
                            "pattern": "(a|b)(a|b)",
                            "alphabet": "ab",
                            "n": 2,
                        },
                        "cursor": [[1, 0, 1]],
                    }
                ]
            )[0]
        assert not response["ok"] and response["error_type"] == "ProtocolError"

    def test_zero_chunk_size_is_rejected_not_spun(self):
        """chunk_size=0 would page empty chunks forever; it must be a
        protocol error on every route."""
        with Engine(workers=0) as engine:
            response = engine.execute(
                [{"id": 1, "op": "enumerate", "spec": SPEC, "chunk_size": 0}]
            )[0]
            assert not response["ok"] and response["error_type"] == "ProtocolError"
            chunks = list(
                engine.execute_stream(
                    {"id": 1, "op": "enumerate", "spec": SPEC}, chunk_size=0
                )
            )
        assert len(chunks) == 1 and not chunks[0]["ok"]

    def test_zero_chunk_stream_errors_cleanly_over_tcp(self, tcp_server):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            with pytest.raises(Exception) as excinfo:
                list(client.enumerate(SPEC, chunk_size=0))
            assert "chunk_size" in str(excinfo.value)
            assert client.result("count", SPEC) == 32  # connection survives

    def test_pump_survives_engine_exceptions(self):
        """An exploding batch is answered with error responses; the pump
        (and therefore the server) keeps serving the next batch."""

        class FlakyEngine(Engine):
            def __init__(self):
                super().__init__(workers=0)
                self.boom = True

            def execute(self, requests):
                if self.boom:
                    self.boom = False
                    raise RuntimeError("engine exploded")
                return super().execute(requests)

        engine = FlakyEngine()
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port) as client:
                first = client.request("count", SPEC)
                assert not first["ok"] and first["error_type"] == "RuntimeError"
                assert "engine exploded" in first["error"]
                # The pump survived: the very next request succeeds.
                assert client.result("count", SPEC) == 32
                client.shutdown()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_cancel_matches_every_stream_with_that_id(self, transport):
        """Two streams reusing one request id: cancel is answered and
        stops them both (the registry must not lose track of the
        survivor); each replies ``stream cancelled``."""
        client = transport()
        stream_request = {
            "id": "dup",
            "op": "enumerate",
            "spec": BIG_SPEC,
            "stream": True,
            "chunk_size": 5,
        }
        _send_line(client, stream_request)
        _send_line(client, stream_request)
        for _ in range(2):  # one chunk from each stream
            assert json.loads(client._read_line())["ok"]
        _send_line(client, {"id": "kill", "op": "cancel", "target": "dup"})
        acks, cancelled = [], []
        budget = 200  # lines, not seconds: both streams are fast
        while (len(cancelled) < 2 or not acks) and budget:
            response = json.loads(client._read_line())
            if response.get("id") == "kill":
                acks.append(response["result"])
            elif not response.get("ok"):
                cancelled.append(response)
            budget -= 1
        assert acks == ["cancelled"]
        assert len(cancelled) == 2, "both duplicate-id streams must be cancelled"
        for response in cancelled:
            assert response["id"] == "dup" and response["done"]
            assert response["error_type"] == "CancelledError"
            assert response["error"] == "stream cancelled"
        # And the connection still serves regular requests.
        _send_line(client, {"id": "after", "op": "count", "spec": SPEC})
        while True:
            response = json.loads(client._read_line())
            if response.get("id") == "after":
                assert response["ok"] and response["result"] == 32
                break

    def test_trace_timing_and_request_metrics(self, transport):
        """Both front ends time the server stages of a traced request
        and count it in the request metrics."""
        client = transport()
        registry = obs.metrics()
        requests = registry.counter(
            metric_names.SERVER_REQUESTS, labels={"op": "count"}
        )
        latency = registry.histogram(metric_names.REQUEST_SECONDS)
        counted, timed = requests.value, latency.count
        response = client.request("count", SPEC, trace=True)
        assert response["ok"] and response["result"] == 32
        timing = response["timing"]
        assert timing[metric_names.STAGE_PARSE] >= 0
        assert timing[metric_names.STAGE_COALESCE_WAIT] >= 0
        assert requests.value == counted + 1
        assert latency.count == timed + 1

    def test_paused_stream_survives_interleaved_requests(self, tcp_server):
        """Other requests on the same client while a stream generator is
        paused must not swallow the stream's in-flight chunks."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            expected = list(client.enumerate(SPEC, chunk_size=50))
            stream = client.enumerate(SPEC, chunk_size=4)
            head = [next(stream) for _ in range(2)]
            # Interleave: send() reads the socket and must buffer (not
            # drop) any stream chunks it encounters.
            assert client.result("count", SPEC) == 32
            rest = list(stream)
        assert head + rest == expected

    def test_slow_reader_does_not_stall_other_clients(self):
        """A client that stops reading its (large) response only stalls
        itself: response writes are detached from the batching pump."""
        import socket as socket_module
        import time as time_module

        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, write_timeout=5.0)
        try:
            slow = socket_module.create_connection((host, port), timeout=60)
            slow.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096)
            slow.sendall(
                json.dumps(
                    {"id": "s", "op": "sample", "spec": SPEC, "k": 40_000, "seed": 1}
                ).encode()
                + b"\n"
            )
            time_module.sleep(1.5)  # execution done; the write now stalls
            started = time_module.perf_counter()
            with ServiceClient(host, port) as quick:
                assert quick.result("ping") == "pong"
                assert quick.result("count", SPEC) == 32
            elapsed = time_module.perf_counter() - started
            assert elapsed < 2.0, (
                f"other clients stalled {elapsed:.1f}s behind a slow reader"
            )
            slow.close()
            with ServiceClient(host, port) as client:
                client.shutdown()
        finally:
            thread.join(timeout=15)
            engine.close()

    def test_limit_terminated_stream_is_resumable(self, tcp_server):
        """A --limit-bounded stream's final chunk carries the resume
        cursor; continuing from it completes the enumeration exactly."""
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            expected = list(client.enumerate(SPEC, chunk_size=50))
            first = list(client.enumerate(SPEC, limit=10, chunk_size=5))
            cursor = client.last_cursor
            assert len(first) == 10 and cursor is not None
            rest = list(client.enumerate(SPEC, cursor=cursor, chunk_size=50))
        assert first + rest == expected

    def test_connection_cap_refuses_politely(self):
        import socket as socket_module

        engine = Engine(workers=0)
        thread, (host, port) = _start_tcp_server(engine, max_connections=2)
        try:
            first = ServiceClient(host, port)
            second = ServiceClient(host, port)
            assert first.result("ping") == "pong"  # both fully admitted
            assert second.result("ping") == "pong"
            with socket_module.create_connection((host, port), timeout=10) as sock:
                response = json.loads(sock.makefile().readline())
            assert not response["ok"]
            assert "too many connections" in response["error"]
            first.close()
            second.shutdown()
            second.close()
        finally:
            thread.join(timeout=10)
            engine.close()

    def test_graceful_shutdown_drains_pending(self):
        """Requests executing or queued when shutdown arrives are answered."""
        engine = _GatedEngine()
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port) as client, ServiceClient(
                host, port
            ) as other:
                # Queue work behind a busy engine, then shut down.
                _send_line(other, {"id": "w0", "op": "count", "spec": SPEC})
                assert engine.busy.wait(10)
                _send_line(other, {"id": "w1", "op": "count", "spec": SPEC})
                _wait_queued(1)
                client.shutdown()
                engine.release.set()
                responses = [json.loads(other._read_line()) for _ in range(2)]
            assert sorted(r["id"] for r in responses) == ["w0", "w1"]
            assert all(r["ok"] and r["result"] == 32 for r in responses)
            assert engine.batches == [["w0"], ["w1"]]
        finally:
            engine.release.set()
            thread.join(timeout=15)
            assert not thread.is_alive(), "server did not drain and exit"
            engine.close()

    def test_streaming_with_worker_pool(self):
        """Chunks page through the multiprocess engine's affinity worker
        and stay byte-identical to the in-process enumeration."""
        engine = Engine(workers=2)
        thread, (host, port) = _start_tcp_server(engine)
        try:
            with ServiceClient(host, port, timeout=30) as client:
                streamed = list(client.enumerate(SPEC, chunk_size=7))
                client.shutdown()
            ws = witness_set_from_spec(SPEC)
            assert streamed == [render_witness(w) for w in ws.enumerate()]
        finally:
            thread.join(timeout=15)
            engine.close()
