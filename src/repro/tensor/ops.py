"""Core numerical ops for the transformer substrate.

All functions are pure, operate on the trailing axis unless stated otherwise,
and are numerically stabilized the same way production kernels are (max
subtraction in softmax, epsilon in norms).
"""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalization (Llama-style, no mean centering)."""
    variance = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Standard layer normalization over the trailing axis."""
    mean = np.mean(x, axis=-1, keepdims=True)
    variance = np.var(x, axis=-1, keepdims=True)
    normed = (x - mean) / np.sqrt(variance + eps) * weight
    if bias is not None:
        normed = normed + bias
    return normed


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation, as used in SwiGLU FFNs.

    The exponent is clipped at the dtype's ``exp`` overflow threshold so
    large-negative inputs produce (near-)zero instead of an overflow
    RuntimeWarning under ``-W error``. Inputs above the clip are untouched,
    so the result is bit-identical to the naive ``x / (1 + exp(-x))`` there.
    """
    x = np.asarray(x)
    limit = 88.0 if x.dtype == np.float32 else 709.0
    z = np.exp(-np.maximum(x, -limit))
    return x / (1.0 + z)


def linear(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Affine projection ``x @ weight.T + bias`` (torch.nn.Linear convention).

    ``weight`` has shape (out_features, in_features). A 1-D ``x`` is
    computed as a one-row GEMM so that single-token decode projections
    reduce in the same order as the row-batched :func:`linear_rows` path
    and stay bit-identical to it. ``bias is None`` returns the matmul
    result directly — no bias broadcast, no extra temporary.
    """
    if x.ndim == 1:
        out = (x[None, :] @ weight.T)[0]
    else:
        out = x @ weight.T
    if bias is None:
        return out
    return out + bias


def linear_rows(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Row-batched affine projection with per-row GEMM semantics.

    Fuses ``n`` independent single-token projections into ONE numpy call:
    ``np.matmul(x[:, None, :], weight.T)`` dispatches a GEMM per leading
    slice, so row ``r`` of the result is bit-identical to
    ``linear(x[r], weight, bias)``. A row-fused ``x @ weight.T`` would be
    faster still, but BLAS backends accumulate multi-row GEMMs in a
    different order than one-row GEMMs, which would break the batched ==
    sequential bit-identity guarantee the serving layer relies on.
    """
    out = np.matmul(x[:, None, :], weight.T)[:, 0, :]
    if bias is None:
        return out
    return out + bias


def kl_divergence(
    p_logits: np.ndarray, q_logits: np.ndarray, axis: int = -1
) -> np.ndarray:
    """KL(P || Q) between distributions given as logits (Eq. 2 in the paper)."""
    log_p = log_softmax(p_logits, axis=axis)
    log_q = log_softmax(q_logits, axis=axis)
    p = np.exp(log_p)
    return np.sum(p * (log_p - log_q), axis=axis)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of integer ``targets`` under ``logits``.

    ``logits`` has shape (..., vocab) and ``targets`` the matching prefix shape.
    """
    log_probs = log_softmax(logits, axis=-1)
    flat_logp = log_probs.reshape(-1, log_probs.shape[-1])
    flat_targets = targets.reshape(-1)
    picked = flat_logp[np.arange(flat_targets.size), flat_targets]
    return float(-np.mean(picked))


def top_k_indices(scores: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """Indices of the ``k`` largest entries along ``axis`` (sorted descending).

    If ``k`` exceeds the axis length, all indices are returned.
    """
    length = scores.shape[axis]
    if k >= length:
        order = np.argsort(-scores, axis=axis)
        return order
    part = np.argpartition(-scores, k - 1, axis=axis)
    top = np.take(part, np.arange(k), axis=axis)
    top_scores = np.take_along_axis(scores, top, axis=axis)
    order = np.argsort(-top_scores, axis=axis)
    return np.take_along_axis(top, order, axis=axis)
