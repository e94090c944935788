"""Tests for elastic loading (paper Sec. 5.4), including set-algebra
invariants via hypothesis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elastic import ElasticTransferTracker


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
        steps = [tracker.observe(selection) for selection in selections]
        got = [
            (
                s.loaded_tokens, s.evicted_tokens, s.bytes_moved,
                s.overlap_fraction, s.selection_size,
            )
            for s in steps
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
            st.one_of(
                st.lists(st.integers(0, 300), max_size=40),
                st.integers(1, 4).flatmap(
                    lambda heads: st.lists(
                        st.lists(
                            st.integers(0, 300), min_size=heads, max_size=heads
                        ),
                        max_size=12,
                    ).map(
                        lambda cols: np.array(cols, dtype=np.int64).reshape(
                            len(cols), heads
                        ).T
                    )
                ),
            ),
            max_size=10,
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_set_reference_on_generated_streams(self, selections, elastic):
        """Empty, 1-D and head-level (2-D) steps, duplicates included."""
        tracker = ElasticTransferTracker(bytes_per_token=7, elastic=elastic)
        steps = [tracker.observe(selection) for selection in selections]
        got = [
            (
                s.loaded_tokens, s.evicted_tokens, s.bytes_moved,
                s.overlap_fraction, s.selection_size,
            )
            for s in steps
        ]
        assert got == self._set_reference(selections, 7, elastic)

    def test_negative_position_rejected(self):
        tracker = ElasticTransferTracker(bytes_per_token=1)
        with pytest.raises(ValueError, match="negative"):
            tracker.observe(np.array([3, -1]))

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
        steps = [tracker.observe(np.array(sorted(sel))) for sel in selections]
        for step in steps[1:]:
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
        steps = [tracker.observe(np.array(sorted(sel))) for sel in selections]
        assert tracker.total_bytes == 7 * sum(s.loaded_tokens for s in steps)


class TestTrackerAccounting:
    def test_empty_tracker_reports_zero(self):
        tracker = ElasticTransferTracker(bytes_per_token=8)
        assert tracker.selected_tokens == 0
        assert tracker.total_bytes == 0
        assert tracker.mean_overlap == 0.0
        assert tracker.transfer_reduction_vs_full_reload() == 0.0

    def test_single_step_mean_overlap_is_zero(self):
        tracker = ElasticTransferTracker(bytes_per_token=8)
        tracker.observe(np.array([1, 2, 3]))
        assert tracker.mean_overlap == 0.0
        assert tracker.transfer_reduction_vs_full_reload() == 0.0

    @pytest.mark.parametrize("bytes_per_token", [1, 56, 4096])
    def test_bytes_scale_with_token_size(self, bytes_per_token):
        tracker = ElasticTransferTracker(bytes_per_token=bytes_per_token)
        tracker.observe(np.array([1, 2, 3, 4]))
        step = tracker.observe(np.array([3, 4, 5, 6]))
        assert step.bytes_moved == 2 * bytes_per_token
        assert tracker.total_bytes == 6 * bytes_per_token

    def test_non_elastic_evicts_whole_previous_selection(self):
        tracker = ElasticTransferTracker(bytes_per_token=10, elastic=False)
        tracker.observe(np.array([1, 2, 3]))
        step = tracker.observe(np.array([2, 3, 4, 5]))
        assert step.loaded_tokens == 4
        assert step.evicted_tokens == 3
        assert step.overlap_fraction == 0.5

    def test_shrinking_selection_evicts_without_loading(self):
        tracker = ElasticTransferTracker(bytes_per_token=10)
        tracker.observe(np.array([1, 2, 3, 4]))
        step = tracker.observe(np.array([2, 3]))
        assert (step.loaded_tokens, step.evicted_tokens) == (0, 2)
        assert step.bytes_moved == 0
        assert step.overlap_fraction == 1.0

    def test_growing_selection_loads_only_new_tokens(self):
        tracker = ElasticTransferTracker(bytes_per_token=10)
        tracker.observe(np.array([1, 2]))
        step = tracker.observe(np.array([1, 2, 7, 9]))
        assert (step.loaded_tokens, step.evicted_tokens) == (2, 0)
        assert step.bytes_moved == 20
        assert step.overlap_fraction == 0.5

    def test_empty_step_has_zero_overlap(self):
        tracker = ElasticTransferTracker(bytes_per_token=10)
        tracker.observe(np.array([1, 2]))
        step = tracker.observe(np.array([], dtype=np.int64))
        assert step.selection_size == 0
        assert step.overlap_fraction == 0.0
        assert (step.loaded_tokens, step.evicted_tokens) == (0, 2)

    def test_every_observe_adds_its_step_to_the_totals(self):
        tracker = ElasticTransferTracker(bytes_per_token=3)
        returned = [tracker.observe(np.arange(i, i + 4)) for i in range(5)]
        assert tracker.total_bytes == sum(s.bytes_moved for s in returned)
        assert tracker.selected_tokens == sum(s.selection_size for s in returned)
        assert tracker.mean_overlap == float(
            np.mean([s.overlap_fraction for s in returned[1:]])
        )

    def test_accepts_python_lists(self):
        tracker = ElasticTransferTracker(bytes_per_token=3)
        tracker.observe([5, 1, 5])
        step = tracker.observe([1, 2])
        assert step.selection_size == 2
        assert step.loaded_tokens == 1
        assert tracker.total_bytes == 3 * 3

    def test_head_union_charged_once(self):
        """A token selected by several heads costs one ``bytes_per_token``."""
        tracker = ElasticTransferTracker(bytes_per_token=10)
        step = tracker.observe(np.array([[1, 2], [2, 3], [3, 1]]))
        assert step.loaded_tokens == 3
        assert step.bytes_moved == 30

    def test_head_permutation_moves_nothing(self):
        """Heads swapping selections leave the union, and the charge, at 0."""
        tracker = ElasticTransferTracker(bytes_per_token=10)
        tracker.observe(np.array([[1, 2], [3, 4]]))
        step = tracker.observe(np.array([[3, 4], [1, 2]]))
        assert step.loaded_tokens == 0
        assert step.overlap_fraction == 1.0

    @given(
        st.lists(
            st.sets(st.integers(0, 40), min_size=0, max_size=10),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_loads_and_evictions_are_set_differences(self, selections):
        """loaded == |S_now − S_last| and evicted == |S_last − S_now|."""
        tracker = ElasticTransferTracker(bytes_per_token=1)
        last: set[int] = set()
        for sel in selections:
            step = tracker.observe(np.array(sorted(sel), dtype=np.int64))
            assert step.loaded_tokens == len(sel - last)
            assert step.evicted_tokens == len(last - sel)
            last = sel

    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=0, max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_resident_count_equals_current_selection(self, selections):
        """Loads minus evictions so far leave exactly |S_now| resident."""
        tracker = ElasticTransferTracker(bytes_per_token=1)
        resident = 0
        for sel in selections:
            step = tracker.observe(np.array(sorted(sel), dtype=np.int64))
            resident += step.loaded_tokens - step.evicted_tokens
            assert resident == len(sel)

    @given(
        st.lists(st.sets(st.integers(0, 30), max_size=4), min_size=1, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_growing_stream_loads_each_token_once(self, increments):
        """With nothing evicted, total loads count unique first touches."""
        tracker = ElasticTransferTracker(bytes_per_token=5)
        seen: set[int] = set()
        steps = []
        for inc in increments:
            seen |= inc
            steps.append(tracker.observe(np.array(sorted(seen), dtype=np.int64)))
        assert all(s.evicted_tokens == 0 for s in steps)
        assert tracker.total_bytes == 5 * len(seen)

    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_elastic_never_moves_more_than_full_reload(self, selections):
        elastic = ElasticTransferTracker(bytes_per_token=4)
        naive = ElasticTransferTracker(bytes_per_token=4, elastic=False)
        for sel in selections:
            elastic.observe(np.array(sorted(sel)))
            naive.observe(np.array(sorted(sel)))
        assert elastic.total_bytes <= naive.total_bytes
        assert 0.0 <= elastic.transfer_reduction_vs_full_reload() < 1.0

    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_non_elastic_bytes_equal_full_reload(self, selections):
        naive = ElasticTransferTracker(bytes_per_token=4, elastic=False)
        for sel in selections:
            naive.observe(np.array(sorted(sel)))
        assert naive.total_bytes == 4 * sum(len(sel) for sel in selections)
        assert naive.transfer_reduction_vs_full_reload() == 0.0

