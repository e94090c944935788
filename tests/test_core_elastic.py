"""Tests for elastic loading (paper Sec. 5.4), including set-algebra
invariants via hypothesis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elastic import ElasticKVLoader, ElasticTransferTracker
from repro.hardware.memory import MemoryTier
from repro.kvcache.pool import TieredKVStore


class TestTracker:
    def test_first_step_is_cold_load(self):
        tracker = ElasticTransferTracker(bytes_per_token=100)
        step = tracker.observe(np.array([1, 2, 3]))
        assert step.loaded_tokens == 3
        assert step.bytes_moved == 300
        assert step.evicted_tokens == 0

    def test_identical_selection_moves_nothing(self):
        tracker = ElasticTransferTracker(bytes_per_token=100)
        tracker.observe(np.array([1, 2, 3]))
        step = tracker.observe(np.array([3, 2, 1]))
        assert step.loaded_tokens == 0
        assert step.overlap_fraction == 1.0

    def test_partial_overlap_loads_difference(self):
        tracker = ElasticTransferTracker(bytes_per_token=10)
        tracker.observe(np.array([1, 2, 3, 4]))
        step = tracker.observe(np.array([3, 4, 5, 6]))
        assert step.loaded_tokens == 2
        assert step.evicted_tokens == 2
        assert step.overlap_fraction == 0.5

    def test_non_elastic_reloads_everything(self):
        tracker = ElasticTransferTracker(bytes_per_token=10, elastic=False)
        tracker.observe(np.array([1, 2, 3]))
        step = tracker.observe(np.array([1, 2, 3]))
        assert step.loaded_tokens == 3

    def test_two_dim_selection_flattened(self):
        tracker = ElasticTransferTracker(bytes_per_token=10)
        step = tracker.observe(np.array([[1, 2], [2, 3]]))
        assert step.selection_size == 3

    def test_reduction_vs_full_reload(self):
        elastic = ElasticTransferTracker(bytes_per_token=1)
        naive = ElasticTransferTracker(bytes_per_token=1, elastic=False)
        selections = [np.arange(i, i + 50) for i in range(20)]
        for sel in selections:
            elastic.observe(sel)
            naive.observe(sel)
        assert elastic.total_bytes < naive.total_bytes
        assert 0.0 < elastic.transfer_reduction_vs_full_reload() < 1.0
        assert naive.transfer_reduction_vs_full_reload() == 0.0

    def test_mean_overlap_excludes_cold_start(self):
        tracker = ElasticTransferTracker(bytes_per_token=1)
        tracker.observe(np.array([1, 2]))
        tracker.observe(np.array([1, 2]))
        assert tracker.mean_overlap == 1.0

    @staticmethod
    def _set_reference(selections, bytes_per_token, elastic):
        """The tracker as it was written with Python sets, step by step."""
        steps, last = [], None
        for selection in selections:
            now = {int(t) for t in np.asarray(selection).ravel()}
            overlap = 0.0 if last is None else len(now & last) / max(len(now), 1)
            if last is None or not elastic:
                loaded = len(now)
                evicted = 0 if last is None else len(last)
            else:
                loaded = len(now - last)
                evicted = len(last - now)
            steps.append(
                (loaded, evicted, loaded * bytes_per_token, overlap, len(now))
            )
            last = now
        return steps

    @pytest.mark.parametrize("elastic", [True, False])
    @pytest.mark.parametrize("shape", [(24,), (4, 24), (4, 0)])
    def test_equals_set_reference_on_random_streams(self, elastic, shape):
        """Duplicates inside a step, drifting windows and empty steps."""
        rng = np.random.default_rng(sum(shape) + elastic)
        selections = [
            rng.integers(3 * t, 3 * t + 60, size=shape) for t in range(40)
        ]
        tracker = ElasticTransferTracker(bytes_per_token=56, elastic=elastic)
        for selection in selections:
            tracker.observe(selection)
        got = [
            (
                s.loaded_tokens, s.evicted_tokens, s.bytes_moved,
                s.overlap_fraction, s.selection_size,
            )
            for s in tracker.steps
        ]
        want = self._set_reference(selections, 56, elastic)
        assert got == want
        assert tracker.total_bytes == sum(step[2] for step in want)
        assert tracker.mean_overlap == (
            float(np.mean([step[3] for step in want[1:]]))
        )
        full = sum(step[4] for step in want) * 56
        reduction = 0.0 if full == 0 else 1.0 - tracker.total_bytes / full
        assert tracker.transfer_reduction_vs_full_reload() == reduction

    @given(
        st.lists(
            st.sets(st.integers(0, 40), min_size=4, max_size=4),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fixed_budget_loads_equal_evictions(self, selections):
        """|S_last − S_now| == |S_now − S_last| under a fixed budget."""
        tracker = ElasticTransferTracker(bytes_per_token=1)
        for sel in selections:
            tracker.observe(np.array(sorted(sel)))
        for step in tracker.steps[1:]:
            assert step.loaded_tokens == step.evicted_tokens

    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bytes_conservation(self, selections):
        """Total bytes equal the sum of per-step loads times token size."""
        tracker = ElasticTransferTracker(bytes_per_token=7)
        for sel in selections:
            tracker.observe(np.array(sorted(sel)))
        assert tracker.total_bytes == 7 * sum(s.loaded_tokens for s in tracker.steps)


def _store(n_tokens: int, n_kv_heads: int = 2, head_dim: int = 4) -> TieredKVStore:
    store = TieredKVStore(n_kv_heads=n_kv_heads, head_dim=head_dim)
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((n_kv_heads, n_tokens, head_dim))
    values = rng.standard_normal((n_kv_heads, n_tokens, head_dim))
    store.append(keys, values, MemoryTier.CPU)
    return store


class TestLoader:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ElasticKVLoader([_store(8)], budget=0)

    def test_load_step_places_selection(self):
        store = _store(32)
        loader = ElasticKVLoader([store], budget=4)
        moved = loader.load_step(0, np.array([1, 5, 9, 13]))
        assert moved > 0
        assert loader.resident_tokens(0, 0) == frozenset({1, 5, 9, 13})

    def test_repeat_load_moves_nothing(self):
        store = _store(32)
        loader = ElasticKVLoader([store], budget=4)
        sel = np.array([1, 5, 9, 13])
        loader.load_step(0, sel)
        assert loader.load_step(0, sel) == 0

    def test_difference_only_transfer(self):
        store = _store(32)
        loader = ElasticKVLoader([store], budget=4)
        first = loader.load_step(0, np.array([1, 2, 3, 4]))
        second = loader.load_step(0, np.array([3, 4, 5, 6]))
        assert second == first // 2  # two of four tokens changed

    def test_gathered_payload_matches_store(self):
        store = _store(16)
        loader = ElasticKVLoader([store], budget=4)
        sel = np.array([2, 7, 11, 3])
        loader.load_step(0, sel)
        k, _ = loader.gather(0, 0, np.array([7, 11]))
        expected_k = store._keys[0, [7, 11]]
        np.testing.assert_allclose(np.squeeze(k), expected_k)

    def test_per_head_selection(self):
        store = _store(32)
        loader = ElasticKVLoader([store], budget=2)
        loader.load_step(0, np.array([[1, 2], [3, 4]]))
        assert loader.resident_tokens(0, 0) == frozenset({1, 2})
        assert loader.resident_tokens(0, 1) == frozenset({3, 4})

    def test_ledger_charged(self):
        store = _store(32)
        loader = ElasticKVLoader([store], budget=4)
        loader.load_step(0, np.array([0, 1, 2, 3]))
        assert store.ledger.total_bytes > 0
