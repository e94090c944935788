"""Tests for the KV-cache substrate: dense cache, tiered store, slot buffer.

The former standalone ``PagedKVCache`` (Quest's page-metadata layout) was
deleted in the kvcache consolidation — :mod:`repro.retrieval.quest` owns
that layout internally and is covered by the retrieval-policy tests; the
tiered store and slot buffer now live in :mod:`repro.kvcache.pool`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import MemoryTier
from repro.kvcache import (
    GpuSlotBuffer,
    LayerKVCache,
    ModelKVCache,
    TieredKVStore,
)


def _kv(n, heads=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((1, heads, n, dim)),
        rng.standard_normal((1, heads, n, dim)),
    )


class TestLayerKVCache:
    def test_append_and_len(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(5)
        cache.append(k, v)
        assert len(cache) == 5
        np.testing.assert_array_equal(cache.keys, k)

    def test_append_grows_capacity(self):
        cache = LayerKVCache(1, 2, 4, capacity=2)
        for i in range(10):
            k, v = _kv(3, seed=i)
            cache.append(k, v)
        assert len(cache) == 30

    def test_append_shape_mismatch_rejected(self):
        cache = LayerKVCache(1, 2, 4)
        with pytest.raises(ValueError):
            cache.append(np.zeros((1, 3, 2, 4)), np.zeros((1, 3, 2, 4)))

    def test_gather_1d(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(8)
        cache.append(k, v)
        ks, vs = cache.gather(np.array([1, 5]))
        np.testing.assert_array_equal(ks[0, :, 0], k[0, :, 1])
        np.testing.assert_array_equal(vs[0, :, 1], v[0, :, 5])

    def test_gather_head_level(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(8)
        cache.append(k, v)
        idx = np.array([[0, 1], [6, 7]])
        ks, _ = cache.gather(idx)
        np.testing.assert_array_equal(ks[0, 0, 0], k[0, 0, 0])
        np.testing.assert_array_equal(ks[0, 1, 1], k[0, 1, 7])

    def test_gather_out_of_range(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(3)
        cache.append(k, v)
        with pytest.raises(IndexError):
            cache.gather(np.array([3]))

    @staticmethod
    def _take_along_axis_reference(cache, indices):
        """The head-level gather as it was written before ``gather_into``
        took the 2-D form: index broadcast over head_dim."""
        idx = np.broadcast_to(
            indices[None, :, :, None],
            (cache.batch, cache.n_kv_heads, indices.shape[1], cache.head_dim),
        )
        return (
            np.take_along_axis(cache.keys, idx, axis=2),
            np.take_along_axis(cache.values, idx, axis=2),
        )

    def _assert_head_gather_matches_reference(self, cache, rng, width):
        indices = rng.integers(0, len(cache), size=(cache.n_kv_heads, width))
        k_ref, v_ref = self._take_along_axis_reference(cache, indices)
        k_out = np.empty(k_ref.shape[1:], dtype=cache.dtype)
        v_out = np.empty_like(k_out)
        cache.gather_into(indices, k_out, v_out)
        np.testing.assert_array_equal(k_out, k_ref[0])
        np.testing.assert_array_equal(v_out, v_ref[0])
        k_sel, v_sel = cache.gather(indices)
        np.testing.assert_array_equal(k_sel, k_ref)
        np.testing.assert_array_equal(v_sel, v_ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_head_level_gather_into_equals_take_along_axis(self, dtype):
        rng = np.random.default_rng(11)
        cache = LayerKVCache(1, 3, 4, capacity=4, dtype=dtype)
        for step in range(6):  # 4 -> 8 -> 16 -> 32: growth past capacity
            k, v = _kv(5, heads=3, seed=step)
            cache.append(k, v)
            self._assert_head_gather_matches_reference(cache, rng, width=7)
        cache.truncate(9)  # rows 9.. stay in storage but are out of range
        self._assert_head_gather_matches_reference(cache, rng, width=7)
        k, v = _kv(2, heads=3, seed=99)
        cache.append(k, v)  # overwrites the truncated rows
        self._assert_head_gather_matches_reference(cache, rng, width=11)

    def test_gather_into_1d_equals_gather(self):
        cache = LayerKVCache(1, 2, 4, capacity=2)
        k, v = _kv(9)
        cache.append(k, v)
        indices = np.array([8, 0, 3, 3])
        k_out = np.empty((2, 4, 4))
        v_out = np.empty_like(k_out)
        cache.gather_into(indices, k_out, v_out)
        np.testing.assert_array_equal(k_out, k[0][:, indices])
        np.testing.assert_array_equal(v_out, v[0][:, indices])
        k_sel, v_sel = cache.gather(indices)
        np.testing.assert_array_equal(k_sel[0], k_out)
        np.testing.assert_array_equal(v_sel[0], v_out)

    @pytest.mark.parametrize(
        "indices, error",
        [
            (np.array([-1]), IndexError),  # np.take alone would wrap this
            (np.array([0, 6]), IndexError),
            (np.array([[0, 1], [2, -6]]), IndexError),
            (np.array([[0, 1], [6, 2]]), IndexError),
            (np.array([[0, 1]]), ValueError),  # 1 row, cache has 2 kv heads
            (np.array([[0, 1], [1, 2], [2, 3]]), ValueError),
            (np.zeros((1, 2, 2), dtype=int), ValueError),
        ],
    )
    def test_bad_indices_raise_on_gather_and_gather_into(self, indices, error):
        cache = LayerKVCache(1, 2, 4, capacity=16)  # capacity > len: stale rows
        k, v = _kv(6)
        cache.append(k, v)
        with pytest.raises(error):
            cache.gather(indices)
        k_out = np.full((2, indices.shape[-1], 4), 7.0)
        v_out = k_out.copy()
        with pytest.raises(error):
            cache.gather_into(indices, k_out, v_out)
        assert (k_out == 7.0).all() and (v_out == 7.0).all()  # nothing landed

    def test_truncate(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(6)
        cache.append(k, v)
        cache.truncate(2)
        assert len(cache) == 2

    def test_nbytes(self):
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(10)
        cache.append(k, v)
        assert cache.nbytes() == 2 * 1 * 2 * 10 * 4 * 2

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_property_append_preserves_prefix(self, chunks):
        cache = LayerKVCache(1, 1, 2, capacity=1)
        all_k = []
        for i, n in enumerate(chunks):
            rng = np.random.default_rng(i)
            k = rng.standard_normal((1, 1, n, 2))
            cache.append(k, k)
            all_k.append(k)
        expected = np.concatenate(all_k, axis=2)
        np.testing.assert_array_equal(cache.keys, expected)


class TestModelKVCache:
    def test_seq_len_consistent(self):
        cache = ModelKVCache(3, 1, 2, 4)
        k, v = _kv(4)
        for layer in range(3):
            cache[layer].append(k, v)
        assert cache.seq_len == 4
        assert len(cache) == 3

    def test_nbytes_sums_layers(self):
        cache = ModelKVCache(2, 1, 2, 4)
        k, v = _kv(5)
        cache[0].append(k, v)
        cache[1].append(k, v)
        assert cache.nbytes() == 2 * cache[0].nbytes()


class TestTieredKVStore:
    def _store(self, n=16):
        store = TieredKVStore(n_kv_heads=2, head_dim=4)
        rng = np.random.default_rng(0)
        store.append(
            rng.standard_normal((2, n, 4)),
            rng.standard_normal((2, n, 4)),
            MemoryTier.CPU,
        )
        return store

    def test_fetch_charges_only_missing(self):
        store = self._store()
        moved1 = store.fetch_to_gpu(np.array([0, 1, 2]))
        assert moved1 == 3 * store.bytes_per_token
        moved2 = store.fetch_to_gpu(np.array([1, 2, 3]))
        assert moved2 == 1 * store.bytes_per_token

    def test_gather_requires_residency(self):
        store = self._store()
        with pytest.raises(RuntimeError):
            store.gather(np.array([0]))
        store.fetch_to_gpu(np.array([0]))
        k, v = store.gather(np.array([0]))
        assert k.shape == (2, 1, 4)

    def test_evict_frees_gpu(self):
        store = self._store()
        store.fetch_to_gpu(np.array([0, 1]))
        freed = store.evict_from_gpu(np.array([0]))
        assert freed == store.bytes_per_token
        assert store.gpu_resident == frozenset({1})

    def test_append_on_gpu_no_traffic(self):
        store = TieredKVStore(2, 4)
        store.append(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), MemoryTier.GPU)
        assert store.ledger.total_bytes == 0
        assert store.gpu_resident == frozenset({0, 1, 2})

    def test_append_on_cpu_charges_writeback(self):
        store = TieredKVStore(2, 4)
        store.append(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), MemoryTier.CPU)
        assert store.ledger.d2h_bytes == 3 * store.bytes_per_token

    def test_evict_all(self):
        store = self._store()
        store.fetch_to_gpu(np.arange(8))
        freed = store.evict_all()
        assert freed == 8 * store.bytes_per_token
        assert store.gpu_bytes() == 0

    def test_fetch_out_of_range(self):
        with pytest.raises(IndexError):
            self._store(4).fetch_to_gpu(np.array([10]))

    @given(st.lists(
        st.sets(st.integers(0, 15), min_size=1, max_size=10),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=30, deadline=None)
    def test_property_traffic_counts_unique_misses(self, selections):
        """Total h2d bytes == unique first-touches, under fetch-only workload."""
        store = self._store(16)
        seen = set()
        for sel in selections:
            store.fetch_to_gpu(np.array(sorted(sel)))
            seen |= sel
        assert store.ledger.h2d_bytes == len(seen) * store.bytes_per_token


class TestGpuSlotBuffer:
    def _fetch(self, token):
        k = np.full((2, 4), float(token))
        return k, -k

    def test_update_loads_and_evicts(self):
        buf = GpuSlotBuffer(budget=4, n_kv_heads=2, head_dim=4)
        loaded, evicted = buf.update(np.array([1, 2, 3]), self._fetch)
        assert (loaded, evicted) == (3, 0)
        loaded, evicted = buf.update(np.array([2, 3, 4]), self._fetch)
        assert (loaded, evicted) == (1, 1)
        assert buf.resident_tokens == frozenset({2, 3, 4})

    def test_gather_returns_payload(self):
        buf = GpuSlotBuffer(4, 2, 4)
        buf.update(np.array([7, 9]), self._fetch)
        k, v = buf.gather(np.array([9, 7]))
        assert k.shape == (2, 2, 4)
        np.testing.assert_array_equal(k[:, 0, :], np.full((2, 4), 9.0))
        np.testing.assert_array_equal(v[:, 1, :], np.full((2, 4), -7.0))

    def test_gather_missing_token(self):
        buf = GpuSlotBuffer(2, 2, 4)
        buf.update(np.array([0]), self._fetch)
        with pytest.raises(KeyError):
            buf.gather(np.array([5]))

    def test_over_budget_rejected(self):
        buf = GpuSlotBuffer(2, 2, 4)
        with pytest.raises(ValueError):
            buf.update(np.array([0, 1, 2]), self._fetch)

    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_residency_equals_selection(self, selections):
        """Invariant from DESIGN.md: after update, residents == S_now."""
        buf = GpuSlotBuffer(budget=8, n_kv_heads=1, head_dim=2)
        def fetch(t):
            return np.full((1, 2), float(t)), np.full((1, 2), float(t))

        for sel in selections:
            buf.update(np.array(sorted(sel)), fetch)
            assert buf.resident_tokens == frozenset(sel)
            k, _ = buf.gather(np.array(sorted(sel)))
            np.testing.assert_array_equal(
                k[0, :, 0], np.array(sorted(sel), dtype=float)
            )

    @given(
        st.sets(st.integers(0, 40), min_size=4, max_size=8),
        st.sets(st.integers(0, 40), min_size=4, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_fixed_budget_symmetric_diff(self, s_last, s_now):
        """|S_last| == |S_now| implies loads == evictions (Sec. 5.4)."""
        size = min(len(s_last), len(s_now))
        s_last = set(sorted(s_last)[:size])
        s_now = set(sorted(s_now)[:size])
        buf = GpuSlotBuffer(budget=8, n_kv_heads=1, head_dim=2)
        def fetch(t):
            return np.zeros((1, 2)), np.zeros((1, 2))

        buf.update(np.array(sorted(s_last)), fetch)
        loaded, evicted = buf.update(np.array(sorted(s_now)), fetch)
        assert loaded == len(s_now - s_last)
        assert evicted == len(s_last - s_now)
        assert loaded == evicted
