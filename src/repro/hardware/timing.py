"""Analytic latency model for transformer inference on a :class:`HardwareSpec`.

Each op's latency is the max of its compute-bound and memory-bound times (the
roofline model) plus a kernel-launch constant. The decode phase of an LLM is
memory-bandwidth bound (every weight and every KV byte is read once per
token), which is exactly why KV sparsity translates into speedup; the model
captures that directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import HardwareSpec

BYTES_PER_VALUE = 2  # FP16 weights and KV cache, as in the paper (Sec. 6.2)


@dataclass(frozen=True)
class OpCost:
    """FLOPs and bytes moved for one logical GPU op."""

    flops: float
    gpu_bytes: float
    kernels: int = 1

    def __add__(self, other: "OpCost") -> "OpCost":
        return OpCost(
            flops=self.flops + other.flops,
            gpu_bytes=self.gpu_bytes + other.gpu_bytes,
            kernels=self.kernels + other.kernels,
        )


class LatencyModel:
    """Maps :class:`OpCost` and transfer sizes to seconds on a given spec."""

    def __init__(self, spec: HardwareSpec):
        self.spec = spec

    def op_seconds(self, cost: OpCost) -> float:
        """Roofline latency of an on-GPU op."""
        compute = cost.flops / self.spec.gpu_flops
        memory = cost.gpu_bytes / self.spec.gpu_bandwidth
        return max(compute, memory) + cost.kernels * self.spec.kernel_launch_overhead_s

    def transfer_seconds(self, n_bytes: float) -> float:
        """Host<->device transfer latency over PCIe."""
        if n_bytes <= 0:
            return 0.0
        return n_bytes / self.spec.pcie_bandwidth + self.spec.kernel_launch_overhead_s

    # ---- Transformer building blocks -------------------------------------

    def matmul_cost(self, m: int, k: int, n: int, batch: int = 1) -> OpCost:
        """GEMM of (m,k) x (k,n), repeated ``batch`` times."""
        flops = 2.0 * m * k * n * batch
        io = (m * k + k * n + m * n) * batch * BYTES_PER_VALUE
        return OpCost(flops=flops, gpu_bytes=io)

    def attention_decode_cost(
        self,
        batch: int,
        n_q_heads: int,
        n_kv_heads: int,
        head_dim: int,
        kv_len: int,
    ) -> OpCost:
        """One decode-step attention over ``kv_len`` cached tokens.

        Reads the full K and V cache once (the bandwidth term that KV
        sparsity shrinks) and performs the QK^T and PV GEMVs.
        """
        flops = 2.0 * batch * n_q_heads * head_dim * kv_len * 2  # QK^T and PV
        kv_bytes = 2.0 * batch * n_kv_heads * kv_len * head_dim * BYTES_PER_VALUE
        return OpCost(flops=flops, gpu_bytes=kv_bytes, kernels=2)

    def linear_cost(
        self, batch_tokens: int, in_features: int, out_features: int
    ) -> OpCost:
        """Projection applied to ``batch_tokens`` token vectors."""
        flops = 2.0 * batch_tokens * in_features * out_features
        io = (
            in_features * out_features
            + batch_tokens * (in_features + out_features)
        ) * BYTES_PER_VALUE
        return OpCost(flops=flops, gpu_bytes=io)

    def kv_bytes(
        self, n_tokens: int, n_kv_heads: int, head_dim: int, batch: int = 1
    ) -> float:
        """Bytes of K+V cache for ``n_tokens`` tokens of one layer."""
        return 2.0 * batch * n_tokens * n_kv_heads * head_dim * BYTES_PER_VALUE
