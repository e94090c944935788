"""Tests for the dense KV caches (:mod:`repro.kvcache.cache`).

The paged pool has its own suite in ``test_paged_pool.py``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import LayerKVCache, ModelKVCache


def _kv(n, heads=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((1, heads, n, dim), dtype=np.float32),
        rng.standard_normal((1, heads, n, dim), dtype=np.float32),
    )


def _staging(out):
    """A float32 staging buffer for ``gather_into`` into ``out``."""
    return np.empty(out.shape, dtype=np.float32)


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
        shape = (1, 3, 2, 4)
        with pytest.raises(ValueError):
            cache.append(np.zeros(shape, np.float32), np.zeros(shape, np.float32))

    @pytest.mark.parametrize("side", ["k", "v"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_append_refuses_non_float32(self, side, dtype):
        """Storing a float64 row would round it silently: refused."""
        cache = LayerKVCache(1, 2, 4)
        k, v = _kv(3)
        if side == "k":
            k = k.astype(dtype)
        else:
            v = v.astype(dtype)
        with pytest.raises(TypeError, match="float32"):
            cache.append(k, v)
        assert len(cache) == 0

    def test_storage_is_float32_and_value_preserving(self):
        cache = LayerKVCache(1, 2, 4, capacity=2)
        k, v = _kv(5)
        cache.append(k, v)
        assert cache.keys.dtype == cache.values.dtype == np.float32
        assert cache.clone().keys.dtype == np.float32
        np.testing.assert_array_equal(cache.values, v)

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
        k_out = np.empty(k_ref.shape[1:])  # float64: gather_into upcasts
        v_out = np.empty_like(k_out)
        cache.gather_into(indices, k_out, v_out, _staging(k_out))
        np.testing.assert_array_equal(k_out, k_ref[0])
        np.testing.assert_array_equal(v_out, v_ref[0])
        k_sel, v_sel = cache.gather(indices)
        assert k_sel.dtype == v_sel.dtype == np.float32
        np.testing.assert_array_equal(k_sel, k_ref)
        np.testing.assert_array_equal(v_sel, v_ref)

    def test_head_level_gather_into_equals_take_along_axis(self):
        rng = np.random.default_rng(11)
        cache = LayerKVCache(1, 3, 4, capacity=4)
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
        cache.gather_into(indices, k_out, v_out, _staging(k_out))
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
            cache.gather_into(indices, k_out, v_out, _staging(k_out))
        assert (k_out == 7.0).all() and (v_out == 7.0).all()  # nothing landed

    def test_gather_into_reuses_one_staging_buffer(self):
        """Views of one float32 buffer stage gathers of every width and
        cache geometry without leaking rows between calls."""
        wide = LayerKVCache(1, 4, 8)
        narrow = LayerKVCache(1, 2, 4)
        for cache in (wide, narrow):
            k, v = _kv(40, heads=cache.n_kv_heads, dim=cache.head_dim)
            cache.append(k, v)
        buffer = np.empty(4 * 33 * 8, dtype=np.float32)
        for cache, width in ((narrow, 3), (wide, 33), (narrow, 5), (wide, 2)):
            indices = np.arange(width)[::-1]
            k_out = np.empty((cache.n_kv_heads, width, cache.head_dim))
            v_out = np.empty_like(k_out)
            staging = buffer[: k_out.size].reshape(k_out.shape)
            cache.gather_into(indices, k_out, v_out, staging)
            np.testing.assert_array_equal(k_out, cache.keys[0][:, indices])
            np.testing.assert_array_equal(v_out, cache.values[0][:, indices])

    def test_copy_kv_into_upcasts_the_visible_prefix(self):
        cache = LayerKVCache(1, 2, 4, capacity=2)
        k, v = _kv(7)
        cache.append(k, v)
        k_out = np.empty((2, 5, 4))
        v_out = np.empty_like(k_out)
        cache.copy_kv_into(k_out, v_out, limit=5)
        np.testing.assert_array_equal(k_out, k[0, :, :5])
        np.testing.assert_array_equal(v_out, v[0, :, :5])

    @pytest.mark.parametrize("limit", [4, 6])
    def test_copy_kv_into_limit_stays_within_valid_rows(self, limit):
        """After a rollback the stale rows are still in storage; a limit
        past the valid length must raise as a gather of them does, not
        copy them."""
        cache = LayerKVCache(1, 2, 4, capacity=16)
        k, v = _kv(6)
        cache.append(k, v)
        cache.truncate(3)
        k_out = np.full((2, limit, 4), 7.0)
        v_out = k_out.copy()
        with pytest.raises(IndexError):
            cache.copy_kv_into(k_out, v_out, limit=limit)
        with pytest.raises(IndexError):
            cache.gather_into(np.arange(limit), k_out, v_out, _staging(k_out))
        assert (k_out == 7.0).all() and (v_out == 7.0).all()
        empty = np.empty((2, 0, 4))
        with pytest.raises(IndexError):
            cache.copy_kv_into(empty, empty, limit=-1)

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

    def test_pickle_ships_the_valid_entries_not_the_capacity(self):
        """A pickled cache's size follows ``len``, not the doubled
        capacity, and the unpickled cache appends, gathers and truncates
        exactly as the original does."""
        cache = LayerKVCache(1, 4, 64)
        cache.append(*_kv(300, heads=4, dim=64))  # capacity 300
        cache.append(*_kv(10, heads=4, dim=64, seed=1))  # capacity 600
        sizes = {}
        for length in (310, 200, 20):
            cache.truncate(length)
            sizes[length] = len(pickle.dumps(cache))
            valid = cache.keys.nbytes + cache.values.nbytes
            assert valid < sizes[length] < valid + 2048
        assert sizes[20] * 10 < cache._k.nbytes + cache._v.nbytes  # capacity 600
        copy = pickle.loads(pickle.dumps(cache))
        assert len(copy) == 20 and copy._k.shape == cache._k.shape
        indices = np.array([[0, 5, 19], [1, 2, 3], [19, 0, 7], [4, 4, 4]])
        for side in (cache, copy):
            side.append(*_kv(700, heads=4, dim=64, seed=2))  # grows again
            side.truncate(650)
        np.testing.assert_array_equal(copy.keys, cache.keys)
        np.testing.assert_array_equal(copy.values, cache.values)
        for got, want in zip(copy.gather(indices), cache.gather(indices)):
            np.testing.assert_array_equal(got, want)
        assert copy._k.shape == cache._k.shape

    @given(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_property_append_preserves_prefix(self, chunks):
        cache = LayerKVCache(1, 1, 2, capacity=1)
        all_k = []
        for i, n in enumerate(chunks):
            rng = np.random.default_rng(i)
            k = rng.standard_normal((1, 1, n, 2), dtype=np.float32)
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

