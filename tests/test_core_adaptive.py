"""Tests for the adaptive memory manager — Algorithm 2 (paper Sec. 6.2.1)."""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveMemoryManager
from repro.core.memory_model import MemoryModel
from repro.hardware.spec import HardwareSpec
from repro.models.config import tiny_test_config
from repro.utils.units import GB


def make_manager(target_threshold: int = 400, requests: int = 1):
    """A manager whose first threshold lands near ``target_threshold``."""
    config = tiny_test_config(n_layers=4)
    hd = config.n_kv_heads * config.head_dim
    layers_eff = config.n_layers + 1 + config.group_size
    gpu_bytes = int(
        1.3 * config.parameter_bytes() + 4 * layers_eff * hd * target_threshold
    )
    spec = HardwareSpec(
        name="test", gpu_memory_bytes=gpu_bytes, cpu_memory_bytes=64 * GB,
        gpu_flops=1e12, gpu_bandwidth=1e11, pcie_bandwidth=1e9,
    )
    mm = MemoryModel(config, dlm_bytes=0, spec=spec, requests=requests, budget=64)
    return AdaptiveMemoryManager(mm)


class TestAdvance:
    def test_initial_state_all_on_gpu(self):
        manager = make_manager()
        assert manager.layers_on_cpu == 0
        assert manager.layers_on_gpu == manager.n_layers

    def test_short_sequence_triggers_nothing(self):
        manager = make_manager(target_threshold=10**6)
        assert manager.advance(128) == []

    def test_offloads_trailing_layers_first(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        events = manager.advance(thresholds[0] + 1)
        assert events
        assert events[0].layer == manager.n_layers - 1  # the last layer first

    def test_progressive_offload_as_length_grows(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        seen_layers = []
        for seq in range(1, max(thresholds) + 2):
            for event in manager.advance(seq):
                seen_layers.append(event.layer)
        # Layers leave in strictly descending order (L-1, L-2, ...).
        assert seen_layers == sorted(seen_layers, reverse=True)

    def test_advance_is_idempotent_at_fixed_length(self):
        manager = make_manager()
        seq = manager.thresholds()[0] + 1
        manager.advance(seq)
        assert manager.advance(seq) == []

    def test_required_offloads_matches_advance(self):
        manager = make_manager()
        seq = manager.thresholds()[1] + 1
        expected = manager.required_offloads(seq)
        manager.advance(seq)
        assert manager.layers_on_cpu == expected

    def test_never_offloads_beyond_all_layers(self):
        manager = make_manager()
        manager.advance(10**9)
        assert manager.layers_on_cpu == manager.n_layers

    @pytest.mark.parametrize("requests", [1, 2])
    def test_events_report_freed_bytes(self, requests):
        manager = make_manager(requests=requests)
        seq = manager.thresholds()[0] + 1
        events = manager.advance(seq)
        assert events
        per_layer = manager.memory_model.model.kv_bytes_per_token_layer()
        assert all(e.bytes_freed == per_layer * seq * requests for e in events)

    def test_freed_bytes_grow_with_length(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        first = manager.advance(thresholds[0])
        later = manager.advance(thresholds[1] + 5)
        assert first and later
        assert later[0].bytes_freed > first[-1].bytes_freed

    def test_event_records_triggering_length(self):
        manager = make_manager()
        seq = manager.thresholds()[0] + 3
        events = manager.advance(seq)
        assert events
        assert all(e.seq_len == seq for e in events)

    def test_multi_event_call_offloads_contiguous_trailing_layers(self):
        manager = make_manager()
        seq = manager.thresholds()[1] + 1
        events = manager.advance(seq)
        n = manager.required_offloads(seq)
        assert n >= 2
        last = manager.n_layers - 1
        assert [e.layer for e in events] == list(range(last, last - n, -1))

    def test_layers_on_gpu_counts_down_per_event(self):
        manager = make_manager()
        events = manager.advance(manager.thresholds()[1] + 1)
        assert manager.layers_on_gpu == manager.n_layers - len(events)
        # Layers leave last-first, so the layers still on the GPU after an
        # event are exactly those below the one it offloaded.
        assert events[-1].layer == manager.layers_on_gpu

    def test_events_accumulate_across_calls(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        first = manager.advance(thresholds[0])
        second = manager.advance(thresholds[1])
        assert first and second
        assert manager.events == first + second
        assert manager.layers_on_cpu == len(manager.events)

    def test_required_offloads_zero_below_first_threshold(self):
        manager = make_manager()
        assert manager.required_offloads(manager.thresholds()[0] - 1) == 0

    def test_required_offloads_saturates_at_all_layers(self):
        manager = make_manager()
        beyond = manager.capacity_tokens() + 1
        assert manager.required_offloads(beyond) == manager.n_layers
        assert manager.required_offloads(10**9) == manager.n_layers


class TestThresholds:
    def test_thresholds_returns_a_copy(self):
        manager = make_manager()
        before = manager.thresholds()
        manager.thresholds().clear()
        assert manager.thresholds() == before
        assert len(before) == manager.n_layers + 1

    def test_thresholds_grow_as_layers_leave(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        assert thresholds == sorted(thresholds)
        assert thresholds[0] < thresholds[-1]

    def test_capacity_is_all_offloaded_threshold(self):
        manager = make_manager()
        assert manager.capacity_tokens() == manager.thresholds()[manager.n_layers]

    def test_admits_up_to_capacity(self):
        manager = make_manager()
        capacity = manager.capacity_tokens()
        assert manager.admits(0)
        assert manager.admits(capacity)
        assert not manager.admits(capacity + 1)


class TestReset:
    def test_reset_returns_all_layers_to_gpu(self):
        manager = make_manager()
        manager.advance(10**9)
        manager.reset()
        assert manager.layers_on_cpu == 0
        assert manager.layers_on_gpu == manager.n_layers
        assert manager.events == []

    def test_reset_replays_same_offloads(self):
        manager = make_manager()
        thresholds = manager.thresholds()
        seq = thresholds[1] + 1
        first = manager.advance(seq)
        manager.reset()
        assert manager.thresholds() == thresholds
        assert manager.advance(seq) == first
