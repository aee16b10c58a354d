"""Property-based equivalence tests: crypto fast paths vs reference oracles.

The crypto layer's speedups (binomial + noise-pool Paillier encryption, CRT
decryption, cached OPE descent) must be *invisible*: every fast path has a
scalar ``*_reference`` oracle — the seed implementation — and these tests
assert equivalence across random keys, messages (negative integers and
fixed-point reals included), adversarial OPE domains and the DET memo.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import det as det_module
from repro.crypto.det import DeterministicScheme
from repro.crypto.hom import PaillierKeyPair, PaillierScheme
from repro.crypto.keys import KeyChain, MasterKey
from repro.crypto.ope import OrderPreservingScheme


@pytest.fixture(scope="module")
def schemes(paillier_keypair, paillier_keypair_alt) -> list[PaillierScheme]:
    """Two independent random keys (session key pairs; no per-test keygen)."""
    return [PaillierScheme(paillier_keypair), PaillierScheme(paillier_keypair_alt)]


class TestPaillierDecryptEquivalence:
    """CRT decrypt ≡ L-function decrypt, on both ciphertext kinds."""

    @settings(max_examples=40, deadline=None)
    @given(message=st.integers(min_value=-(10**9), max_value=10**9))
    def test_crt_equals_l_function_on_raw_residues(self, schemes, message):
        for scheme in schemes:
            residue = message % scheme.public_key.n
            for ciphertext in (
                scheme.encrypt_raw(residue),
                scheme.encrypt_raw_reference(residue),
            ):
                assert (
                    scheme.decrypt_raw(ciphertext)
                    == scheme.decrypt_raw_reference(ciphertext)
                    == residue
                )

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.one_of(
            st.integers(min_value=-(10**9), max_value=10**9),
            st.floats(
                min_value=-(10**6), max_value=10**6, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_round_trip_negative_and_fixed_point(self, schemes, value):
        for scheme in schemes:
            ciphertext = scheme.encrypt(value)
            decrypted = scheme.decrypt(ciphertext)
            reference = scheme._decode(scheme.decrypt_raw_reference(ciphertext))
            assert decrypted == reference
            assert decrypted == pytest.approx(value, abs=1e-6)


class TestPaillierEncryptEquivalence:
    """Binomial ``(1 + m·n)`` ≡ ``pow(g, m, n²)`` under identical blinding."""

    @settings(max_examples=40, deadline=None)
    @given(message=st.integers(min_value=0, max_value=2**128))
    def test_binomial_equals_pow_with_fixed_noise(self, schemes, message):
        for scheme in schemes:
            public = scheme.public_key
            n, n_sq = public.n, public.n_squared
            residue = message % n
            noise = scheme.noise_pool.take()
            binomial = ((1 + residue * n) * noise) % n_sq
            pow_based = (pow(public.g, residue, n_sq) * noise) % n_sq
            assert binomial == pow_based

    @settings(max_examples=25, deadline=None)
    @given(
        value=st.one_of(
            st.integers(min_value=-(10**9), max_value=10**9),
            st.floats(
                min_value=-(10**6), max_value=10**6, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_fast_and_reference_ciphertexts_decrypt_identically(self, schemes, value):
        for scheme in schemes:
            encoded = scheme._encode(value)
            fast = scheme.encrypt(value)
            reference = scheme.encrypt_raw_reference(encoded)
            assert scheme.decrypt(fast) == scheme.decrypt(reference)
            assert scheme.decrypt_raw(reference) == scheme.decrypt_raw_reference(fast)


#: Adversarial OPE domains: tiny, asymmetric around zero, huge and offset —
#: the shapes where descent/cache bookkeeping errors would surface first.
_ADVERSARIAL_DOMAINS = [
    (0, 1),
    (-1, 1),
    (0, 2),
    (-7, 5),
    (0, 10_000),
    (-(2**31), 2**31 - 1),
    (2**40, 2**40 + 1000),
    (-(2**40), -(2**40) + 63),
]


def _ope_for(domain: tuple[int, int], label: str = "fast-paths") -> OrderPreservingScheme:
    keychain = KeyChain(MasterKey.from_passphrase(f"ope-{label}"))
    return OrderPreservingScheme(
        keychain.key_for("ope", str(domain[0]), str(domain[1])),
        domain_min=domain[0],
        domain_max=domain[1],
    )


class TestOpeCachedEqualsUncached:
    """Cached descent ≡ uncached descent: bits, monotonicity, injectivity."""

    @pytest.mark.parametrize("domain", _ADVERSARIAL_DOMAINS)
    def test_cached_matches_reference_across_domain(self, domain):
        ope = _ope_for(domain)
        lo, hi = domain
        step = max(1, (hi - lo) // 64)
        values = sorted({lo, hi, *range(lo, hi + 1, step)})
        cached = [ope.encrypt(v) for v in values]
        assert cached == [ope.encrypt_reference(v) for v in values]
        # Strict monotonicity + injectivity on the sampled (sorted) values.
        assert all(a < b for a, b in zip(cached, cached[1:]))
        assert [ope.decrypt(c) for c in cached] == values

    @pytest.mark.parametrize("domain", _ADVERSARIAL_DOMAINS)
    def test_batch_matches_reference_across_domain(self, domain):
        ope = _ope_for(domain, label="batch")
        lo, hi = domain
        step = max(1, (hi - lo) // 32)
        values = [hi, lo, *range(lo, hi + 1, step), lo, hi]  # unsorted + repeats
        assert ope.encrypt_many(values) == [ope.encrypt_reference(v) for v in values]

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        b=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_cached_order_and_equivalence_property(self, a, b):
        ope = _ope_for((-(2**31), 2**31 - 1), label="property")
        ca, cb = ope.encrypt_many([a, b])
        assert ca == ope.encrypt_reference(a)
        assert cb == ope.encrypt_reference(b)
        assert (ca < cb) == (a < b) and (ca == cb) == (a == b)

    def test_cache_statistics_track_reuse(self):
        ope = _ope_for((0, 2**20), label="stats")
        assert ope.cache_stats()["nodes"] == 0
        ope.encrypt(17)
        first = ope.cache_stats()
        assert first["misses"] == first["nodes"] > 0
        assert first["hits"] == 0
        ope.encrypt(17)  # identical descent: every node hits
        second = ope.cache_stats()
        assert second["hits"] == first["misses"]
        assert second["nodes"] == first["nodes"]
        ope.clear_cache()
        assert ope.cache_stats() == {
            "nodes": 0,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "evictions": 0,
        }

    def test_cache_eviction_bounds_memory(self):
        keychain = KeyChain(MasterKey.from_passphrase("ope-eviction"))
        ope = OrderPreservingScheme(
            keychain.key_for("bounded"), domain_min=0, domain_max=2**20, cache_max_nodes=50
        )
        reference = [ope.encrypt_reference(v) for v in range(0, 2**20, 2**13)]
        assert [ope.encrypt(v) for v in range(0, 2**20, 2**13)] == reference
        stats = ope.cache_stats()
        assert stats["evictions"] > 0
        assert stats["nodes"] <= 50


def _det(label: str = "det-memo") -> DeterministicScheme:
    return DeterministicScheme(KeyChain(MasterKey.from_passphrase(label)).key_for("det"))


def _identifier_reference(det: DeterministicScheme, name: str) -> str:
    """Identifier and value ciphertexts share their raw bytes."""
    return "enc_" + det.encrypt_reference(name).removeprefix("det:")


class TestDetMemoEqualsUncached:
    """Memoized DET ≡ the uncached SIV construction, across flushes and threads."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=12),
            ),
            max_size=12,
        )
    )
    def test_memoized_matches_reference(self, values):
        det = _det()
        expected = [det.encrypt_reference(value) for value in values]
        assert [det.encrypt(value) for value in values] == expected
        assert det.encrypt_many(values) == expected
        assert [det.decrypt(ciphertext) for ciphertext in expected] == values

    def test_identifiers_match_reference_across_flushes(self, monkeypatch):
        monkeypatch.setattr(det_module, "_MEMO_MAX_ENTRIES", 4)
        det = _det("det-flush")
        names = [f"column_{index % 11}" for index in range(40)]
        expected = [_identifier_reference(det, name) for name in names]
        assert [det.encrypt_identifier(name) for name in names] == expected
        assert [det.encrypt(name) for name in names] == [
            det.encrypt_reference(name) for name in names
        ]
        assert len(det._memo) <= 4
        assert [det.decrypt_identifier(ciphertext) for ciphertext in expected] == names

    def test_equal_sql_values_of_different_types_stay_distinct(self):
        det = _det()
        for _ in range(2):  # once filling the memo, once reading it
            ciphertexts = [det.encrypt(value) for value in (1, 1.0, True, "1")]
            assert len(set(ciphertexts)) == 4
            assert ciphertexts == [det.encrypt_reference(v) for v in (1, 1.0, True, "1")]

    def test_threads_sharing_an_instance_get_identical_ciphertexts(self, monkeypatch):
        monkeypatch.setattr(det_module, "_MEMO_MAX_ENTRIES", 8)
        det = _det("det-threads")
        values = [f"v{index % 23}" for index in range(600)]
        expected = [det.encrypt_reference(value) for value in values]
        workers = 4
        barrier = threading.Barrier(workers)
        results: list[list[str]] = [[] for _ in range(workers)]

        def hammer(slot: int) -> None:
            barrier.wait()
            order = values if slot % 2 == 0 else values[::-1]
            results[slot] = [det.encrypt(value) for value in order]

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in range(workers):
            assert results[slot] == (expected if slot % 2 == 0 else expected[::-1])
        # Racing flushes can overshoot the bound by at most one entry per thread.
        assert len(det._memo) <= 8 + workers
