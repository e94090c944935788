"""Tests for the dense KV caches (:mod:`repro.kvcache.cache`).

The paged pool has its own suite in ``test_paged_pool.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import LayerKVCache, ModelKVCache


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

