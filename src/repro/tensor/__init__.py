"""Minimal numpy tensor-op library used by the transformer substrate.

This package plays the role that PyTorch/CUDA kernels play in the paper's
implementation: softmax, normalization, activations, linear projections,
rotary embeddings (with YaRN context extension) and the low-bit quantization
used by the ShadowKV baseline.
"""

from repro.tensor.ops import (
    cross_entropy,
    kl_divergence,
    layer_norm,
    linear,
    linear_rows,
    log_softmax,
    rms_norm,
    silu,
    softmax,
    top_k_indices,
)
from repro.tensor.quantization import QuantizedTensor, dequantize, quantize_per_channel
from repro.tensor.rope import (
    RotaryEmbedding,
    YarnConfig,
    clear_rope_table_cache,
    rope_table_cache_info,
)

__all__ = [
    "softmax",
    "log_softmax",
    "rms_norm",
    "layer_norm",
    "silu",
    "linear",
    "linear_rows",
    "kl_divergence",
    "cross_entropy",
    "top_k_indices",
    "RotaryEmbedding",
    "YarnConfig",
    "clear_rope_table_cache",
    "rope_table_cache_info",
    "quantize_per_channel",
    "dequantize",
    "QuantizedTensor",
]
