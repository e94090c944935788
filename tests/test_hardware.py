"""Tests for the hardware substrate: specs, timing, streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    CLOUD_A800,
    EDGE_RTX4060,
    EDGE_RTX4060_4GB,
    LatencyModel,
    OpCost,
    StreamOp,
    StreamSimulator,
)
from repro.utils import GB


class TestSpecs:
    def test_cloud_bigger_than_edge(self):
        assert CLOUD_A800.gpu_memory_bytes > EDGE_RTX4060.gpu_memory_bytes
        assert CLOUD_A800.gpu_flops > EDGE_RTX4060.gpu_flops

    def test_scaled_memory(self):
        assert EDGE_RTX4060_4GB.gpu_memory_bytes == 4 * GB
        assert EDGE_RTX4060_4GB.pcie_bandwidth == EDGE_RTX4060.pcie_bandwidth


class TestLatencyModel:
    def test_roofline_compute_bound(self):
        model = LatencyModel(CLOUD_A800)
        cost = OpCost(flops=1e12, gpu_bytes=1.0)
        assert model.op_seconds(cost) == pytest.approx(
            1e12 / CLOUD_A800.gpu_flops + CLOUD_A800.kernel_launch_overhead_s
        )

    def test_roofline_memory_bound(self):
        model = LatencyModel(CLOUD_A800)
        cost = OpCost(flops=1.0, gpu_bytes=1e9)
        assert model.op_seconds(cost) == pytest.approx(
            1e9 / CLOUD_A800.gpu_bandwidth + CLOUD_A800.kernel_launch_overhead_s
        )

    def test_transfer_scales_with_bytes(self):
        model = LatencyModel(EDGE_RTX4060)
        assert model.transfer_seconds(2e9) > model.transfer_seconds(1e9)
        assert model.transfer_seconds(0) == 0.0

    def test_decode_attention_bandwidth_bound_scales_with_kv(self):
        """The whole point of KV sparsity: decode attention time ~ kv_len."""
        model = LatencyModel(CLOUD_A800)
        short = model.op_seconds(model.attention_decode_cost(1, 32, 8, 128, 1024))
        long = model.op_seconds(model.attention_decode_cost(1, 32, 8, 128, 65536))
        assert long > 10 * short

    def test_op_cost_addition(self):
        total = OpCost(1.0, 2.0) + OpCost(3.0, 4.0, kernels=2)
        assert total.flops == 4.0
        assert total.gpu_bytes == 6.0
        assert total.kernels == 3


class TestStreamSimulator:
    def test_single_stream_serializes(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("compute", 1.0))
        sim.enqueue(StreamOp("compute", 2.0))
        assert sim.makespan() == pytest.approx(3.0)

    def test_two_streams_overlap(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("compute", 3.0))
        sim.enqueue(StreamOp("transfer", 2.0))
        assert sim.makespan() == pytest.approx(3.0)

    def test_event_dependency_serializes(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("transfer", 2.0, signals=("kv_ready",)))
        sim.enqueue(StreamOp("compute", 1.0, waits_for=("kv_ready",)))
        assert sim.makespan() == pytest.approx(3.0)

    def test_prefetch_pipeline_hides_transfer(self):
        """Figure 7(e): transfer for step i+1 overlaps compute of step i."""
        sim = StreamSimulator()
        sim.enqueue(StreamOp("transfer", 1.0, signals=("kv0",)))
        for step in range(4):
            sim.enqueue(
                StreamOp(
                    "compute", 2.0,
                    waits_for=(f"kv{step}",), signals=(f"done{step}",),
                )
            )
            sim.enqueue(StreamOp("transfer", 1.0, signals=(f"kv{step+1}",)))
        # 1s initial fill + 4 x 2s compute; transfers hidden.
        assert sim.makespan() == pytest.approx(9.0)

    def test_deadlock_detected(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("compute", 1.0, waits_for=("never",)))
        with pytest.raises(ValueError):
            sim.run()

    def test_negative_duration_rejected(self):
        sim = StreamSimulator()
        with pytest.raises(ValueError):
            sim.enqueue(StreamOp("compute", -1.0))

    def test_schedule_start_end_consistency(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("a", 1.5, signals=("x",)))
        sim.enqueue(StreamOp("b", 0.5, waits_for=("x",)))
        schedule = sim.run()
        for item in schedule:
            assert item.end_s == pytest.approx(item.start_s + item.op.duration_s)

    def test_clear(self):
        sim = StreamSimulator()
        sim.enqueue(StreamOp("a", 1.0))
        sim.clear()
        assert sim.makespan() == 0.0

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_property_makespan_bounds(self, durations):
        """Makespan >= longest stream occupancy; <= serial sum."""
        sim = StreamSimulator()
        for i, d in enumerate(durations):
            sim.enqueue(StreamOp(f"s{i % 3}", d))
        span = sim.makespan()
        busiest = max(sim.stream_busy_time(f"s{k}") for k in range(3))
        assert span >= busiest - 1e-9
        assert span <= sum(durations) + 1e-9
