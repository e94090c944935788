"""The lightweight retrieval head (paper Sec. 4).

The head is a pruned distilled language model: it keeps only the embedding
and the QK projections of a one-layer EAGLE-3-style DLM (>90% parameter
reduction — the FFN, V/O projections and LM head are dropped because
retrieval only needs attention *weights*). It processes the same input as
the LLM, maintains a full K cache of its own, computes head-level attention
weights, and emits per-head Top-K token indices that the LLM consumes via
gather (Fig. 5).

Head construction mirrors the distillation relationship with the teacher:

- The embedding (content vectors) is shared with the teacher, as EAGLE
  shares the target model's embedding.
- Each retrieval q-head approximates one teacher q-head's circuit, with
  per-head Gaussian perturbations of the projections (``noise``) standing
  in for the imperfection of distillation. ``noise=0`` is a perfectly
  distilled head; larger values degrade alignment — the knob behind the
  DLM-vs-LLM similarity analyses (Fig. 5a).
- A token-shift mixer gives keys access to the previous token's content
  (the one-layer student's substitute for the teacher's layer-0 previous-
  token head; architecturally an RWKV/H3-style shift).
- The positional (recency) head runs RoPE extended by YaRN, since the DLM
  was trained at a 2K context (Sec. 4.3).

Selection granularities (Sec. 4.2):

- ``head``: Top-K per selection head; for GQA/MQA the q-level weights are
  reduced to group level with an element-wise max (Fig. 5c/d).
- ``batch``: one Top-K shared by all heads, from max-pooled weights —
  the coarse alternative the paper measures as inferior.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.builder import head_roles
from repro.models.config import AttentionKind, ModelConfig
from repro.models.weights import DTYPE, ModelWeights
from repro.tensor.ops import softmax, top_k_indices
from repro.tensor.rope import RotaryEmbedding, YarnConfig


@dataclass(frozen=True)
class RetrievalHeadConfig:
    """Construction parameters for the lightweight retrieval head."""

    noise: float = 0.15  # distillation imperfection on Q/K projections
    shift_mix: float = 0.2  # leakage of the current token into shifted keys
    induction_sharpness: float = 14.0
    sink_sharpness: float = 10.0
    local_sharpness: float = 30.0
    dlm_trained_context: int = 2048  # the DLM's native window (YaRN-extended)
    # Positions always kept in every head's selection: the first
    # ``always_sink`` tokens (attention sinks) and the last
    # ``always_recent`` tokens. Recency retention is what lets the LLM's
    # previous-token heads function under sparsity — the functional analog
    # of the paper keeping the newest KV pairs resident on the GPU.
    always_sink: int = 1
    always_recent: int = 2


class _NoiseKeys:
    """A fixed random key per (noise head, position), materialised on demand.

    The same trade ``RotaryEmbedding`` makes for cos/sin: a position-indexed
    table instead of a stateful generator. Row ``p`` of head ``i`` is always
    the ``p``-th draw of that head's own stream, so the table grows by
    capacity doubling without any row depending on how ``observe`` calls (or
    the growth steps) were chunked.
    """

    def __init__(self, seed: int, n_heads: int, dc: int, max_position: int):
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n_heads)]
        self._rows = np.zeros((n_heads, 0, dc), dtype=DTYPE)
        self.max_position = max_position

    def rows(self, start: int, end: int) -> np.ndarray:
        """Keys of positions [start, end), shape (n_heads, end - start, dc)."""
        if end > self.max_position:
            raise ValueError(
                f"position {end - 1} exceeds table size {self.max_position}"
            )
        have, dc = self._rows.shape[1:]
        if end > have:
            grown = min(max(end, 2 * have, 64), self.max_position)
            fresh = [rng.standard_normal((grown - have, dc)) for rng in self._rngs]
            self._rows = np.concatenate(
                [self._rows, np.asarray(fresh, dtype=DTYPE)], axis=1
            )
        return self._rows[:, start:end]


class LightweightRetrievalHead:
    """Pruned-DLM retrieval head bound to a specific teacher model.

    The weights (content, ``wq``/``wk``, RoPE, noise-key table) are built
    once and never written again; the K cache and token ids are the only
    per-request state, and they are a pure function of the observed token
    history. :meth:`view` hands out further heads over the same weights,
    one per concurrent session.
    """

    def __init__(
        self,
        teacher_config: ModelConfig,
        content: np.ndarray,
        bos_id: int,
        roles: list[str],
        config: RetrievalHeadConfig,
        rng: np.random.Generator,
    ):
        self.teacher_config = teacher_config
        self.config = config
        self.content = content.astype(DTYPE)
        self.bos_id = bos_id
        self.roles = roles  # one role per retrieval q-head
        self.n_heads = len(roles)
        self._noise_heads = [h for h, role in enumerate(roles) if role == "noise"]
        dc = content.shape[1]
        self.dc = dc

        # Per-head Q/K projections in content space, perturbed by `noise`.
        def perturbed() -> np.ndarray:
            eye = np.eye(dc, dtype=DTYPE)
            pert = rng.standard_normal((dc, dc)).astype(DTYPE) / np.sqrt(dc)
            return eye + config.noise * pert

        self.wq = np.stack([perturbed() for _ in range(self.n_heads)])
        self.wk = np.stack([perturbed() for _ in range(self.n_heads)])

        scale = max(teacher_config.max_position, config.dlm_trained_context)
        yarn = YarnConfig(
            original_max_position=config.dlm_trained_context,
            scaling_factor=max(scale / config.dlm_trained_context, 1.0),
        )
        self.rope = RotaryEmbedding(
            dim=dc, max_position=scale, base=teacher_config.rope_base, yarn=yarn
        )
        self._noise = _NoiseKeys(
            int(rng.integers(0, 2**63)), len(self._noise_heads), dc, scale
        )
        for shared in (self.content, self.wq, self.wk):
            shared.setflags(write=False)

        # The head's own K cache: per-head key vectors, one row per token.
        # Storage grows by capacity doubling (as LayerKVCache does); the
        # valid length is len(self._token_ids).
        self._k = np.zeros((self.n_heads, 64, dc), dtype=DTYPE)
        self._token_ids: list[int] = []

    def view(self) -> "LightweightRetrievalHead":
        """A head for one more session: shared weights, its own empty K cache."""
        view = copy.copy(self)
        view._k = np.zeros((self.n_heads, 64, self.dc), dtype=DTYPE)
        view._token_ids = []
        return view

    # ---- construction ---------------------------------------------------------

    @classmethod
    def from_teacher(
        cls,
        teacher: ModelWeights,
        bos_id: int,
        rng: np.random.Generator,
        config: RetrievalHeadConfig | None = None,
    ) -> "LightweightRetrievalHead":
        """Build the head from a constructed teacher's weights.

        The teacher's content vectors are read out of its embedding (the
        shared-embedding assumption of EAGLE); head roles mirror the
        teacher's steady-state layer layout (layers >= 1).
        """
        config = config or RetrievalHeadConfig()
        tcfg = teacher.config
        dc = tcfg.head_dim
        content = teacher.embedding[:, :dc]
        kv_roles = head_roles(tcfg, layer=1)
        if tcfg.attention is AttentionKind.MLA:
            q_roles = list(kv_roles)  # MLA: per-q-head selection
        else:
            q_roles = []
            for role in kv_roles:
                q_roles.extend([role] * tcfg.group_size)
        return cls(tcfg, content, bos_id, q_roles, config, rng)

    # ---- K cache maintenance ----------------------------------------------------

    def reset(self) -> None:
        """Drop the K cache (new request); the storage is kept for reuse."""
        self._token_ids = []

    @property
    def keys(self) -> np.ndarray:
        """View of the valid key rows, shape (n_heads, len, dc)."""
        return self._k[:, : len(self._token_ids)]

    def observe(self, token_ids: np.ndarray | list[int] | int) -> None:
        """Append tokens to the head's K cache (prompt chunk or new token)."""
        token_ids = [int(t) for t in np.asarray(token_ids).ravel()]
        if not token_ids:
            return
        start = len(self._token_ids)
        prev_ids = ([self._token_ids[-1]] if self._token_ids else [token_ids[0]])
        prev_ids = prev_ids + token_ids[:-1]
        cur = self.content[token_ids]  # (n, dc)
        prev = self.content[prev_ids]
        shifted = prev + self.config.shift_mix * cur

        end = start + len(token_ids)
        if end > self._k.shape[1]:
            grown = np.zeros(
                (self.n_heads, max(end, 2 * self._k.shape[1]), self.dc), dtype=DTYPE
            )
            grown[:, :start] = self._k[:, :start]
            self._k = grown
        new_keys = self._k[:, start:end]  # written in place
        positions = np.arange(start, end)
        for h, role in enumerate(self.roles):
            if role == "induction":
                new_keys[h] = shifted @ self.wk[h].T
            elif role == "sink":
                new_keys[h] = cur
            elif role == "local":
                u = np.ones((1, len(token_ids), self.dc), dtype=DTYPE)
                new_keys[h] = self.rope.apply(u / np.sqrt(self.dc), positions)[0]
        if self._noise_heads:
            new_keys[self._noise_heads] = self._noise.rows(start, end)
        self._token_ids.extend(token_ids)

    def __len__(self) -> int:
        return len(self._token_ids)

    def restore(self, length: int) -> None:
        """Truncate the K cache back to ``length`` tokens (spec rollback).

        Every key row is a function of the token history alone, so an
        earlier ``len(head)`` is all it takes to return the head
        bit-exactly to that point after rejected draft tokens.
        """
        if length > len(self._token_ids):
            raise ValueError("length is newer than the current head state")
        del self._token_ids[length:]  # key rows past the length are dead storage

    # ---- scoring & selection -----------------------------------------------------

    def attention_weights(self, current_token: int) -> np.ndarray:
        """Head-level attention weights over the K cache, (n_heads, seq)."""
        if not self._token_ids:
            raise RuntimeError("retrieval head has observed no tokens")
        seq = len(self._token_ids)
        cur = self.content[int(current_token)]
        keys = self.keys
        logits = np.empty((self.n_heads, seq), dtype=np.float64)
        sqrt_dc = np.sqrt(self.dc)
        pos = seq  # the position the current token will occupy
        for h, role in enumerate(self.roles):
            if role == "induction":
                q = self.wq[h] @ cur
                logits[h] = (keys[h] @ q) * self.config.induction_sharpness
            elif role == "sink":
                q = self.content[self.bos_id]
                logits[h] = (keys[h] @ q) * self.config.sink_sharpness
            elif role == "local":
                u = np.ones((1, 1, self.dc), dtype=DTYPE) / np.sqrt(self.dc)
                clamped = min(pos, self.rope.max_position - 1)
                q = self.rope.apply(u, np.array([clamped]))[0, 0]
                logits[h] = (keys[h] @ q) * self.config.local_sharpness
            else:
                logits[h] = keys[h] @ (cur / sqrt_dc)
        return softmax(logits, axis=-1)

    def group_reduced_weights(self, current_token: int) -> np.ndarray:
        """Attention weights reduced to selection heads.

        For GQA/MQA: element-wise max within each query-head group
        (Fig. 5c/d). For MHA/MLA the q-level weights are returned as-is.
        """
        weights = self.attention_weights(current_token)
        cfg = self.teacher_config
        if cfg.attention in (AttentionKind.MHA, AttentionKind.MLA):
            return weights
        group = cfg.group_size
        return weights.reshape(cfg.n_kv_heads, group, -1).max(axis=1)

    def select(
        self, current_token: int, budget: int, level: str = "head"
    ) -> np.ndarray:
        """Top-``budget`` token indices per selection head.

        Returns (n_sel_heads, budget) for ``level='head'`` or a broadcast of
        the single shared set for ``level='batch'``.
        """
        weights = self.group_reduced_weights(current_token)
        seq = weights.shape[1]
        budget = min(budget, seq)
        # Pin sink and recent positions into every head's top-k (they are
        # selected outright, never duplicated, by boosting their weights
        # above the achievable softmax range).
        pinned = weights.copy()
        if self.config.always_sink > 0:
            pinned[:, : self.config.always_sink] = 2.0
        if self.config.always_recent > 0:
            pinned[:, max(seq - self.config.always_recent, 0):] = 2.0
        if level == "head":
            return np.sort(top_k_indices(pinned, budget, axis=-1), axis=-1)
        if level == "batch":
            pooled = pinned.max(axis=0)
            shared = np.sort(top_k_indices(pooled, budget))
            return np.broadcast_to(shared, (weights.shape[0], budget)).copy()
        raise ValueError(f"unknown selection level {level!r}")

    # ---- overhead accounting -------------------------------------------------------

    def parameter_count(self, include_shared_embedding: bool = False) -> int:
        """Marginal parameters of the retrieval head.

        The embedding is shared with the teacher (EAGLE-style), so by
        default only the per-head Q/K projections count — the basis of the
        >90% reduction claim versus the full DLM (Sec. 7.4).
        """
        params = self.wq.size + self.wk.size
        if include_shared_embedding:
            params += self.content.size
        return int(params)

    def k_cache_bytes(self, bytes_per_value: int = 2) -> int:
        """Footprint of the head's K cache at the current length."""
        return self.n_heads * len(self._token_ids) * self.dc * bytes_per_value


class SpeContextPolicy:
    """SelectionPolicy adapter: global pre-inference selection, every layer.

    This is the paradigm shift of the paper: ``select`` does no work — the
    per-step selection was already computed in ``pre_step``, *before* the
    LLM forward pass, so KV prefetch can overlap with compute (Sec. 5).
    """

    def __init__(
        self,
        head: LightweightRetrievalHead,
        budget: int,
        level: str = "head",
    ):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.head = head
        self.budget = budget
        self.level = level
        self.selection_history: list[np.ndarray] = []
        self._current: np.ndarray | None = None
        self._spec_mode = False
        self._spec_base: int | None = None
        self._spec_currents: list[np.ndarray | None] = []
        self._spec_markers: list[tuple[int, int]] = []

    def reset(self) -> None:
        """Clear per-request state so the policy can serve a new request.

        A fresh list (not ``clear()``) leaves previously returned histories
        intact for callers that kept a reference for transfer analysis.
        """
        self.head.reset()
        self.selection_history = []
        self._current = None
        self._spec_mode = False
        self._spec_base = None
        self._spec_currents = []
        self._spec_markers = []

    def begin_generation(self, prompt_ids: np.ndarray, cache: ModelKVCache) -> None:
        self.head.reset()
        self.head.observe(prompt_ids)
        self._current = None

    def pre_step(self, step: int, token_id: int, cache: ModelKVCache) -> None:
        """Run retrieval for this step before the LLM forward pass."""
        if self._spec_mode:
            # Marker t captures the lengths *before* pre_step t, so
            # restoring marker m after committing m positions leaves
            # exactly the committed pre_steps applied.
            self._spec_markers.append((len(self.head), len(self.selection_history)))
        if len(self.head) <= self.budget:
            self._current = None
        else:
            self._current = self.head.select(token_id, self.budget, level=self.level)
            self.selection_history.append(self._current)
        self.head.observe(token_id)
        if self._spec_mode:
            self._spec_currents.append(self._current)

    def spec_begin(self) -> None:
        """Arm speculative mode: buffer per-position selections for rollback.

        The per-step selection lives in ``_current`` and is overwritten by
        every ``pre_step``; a fused multi-position verify runs all pre_steps
        before any ``select``, so selections are kept per draft offset and
        ``select`` maps its row position back to the matching offset.
        """
        self._spec_mode = True
        self._spec_base = None
        self._spec_currents = []
        self._spec_markers = []

    def spec_commit(self, m: int) -> None:
        """Keep the first ``m`` speculative pre_steps; undo the rest."""
        if not self._spec_mode:
            raise RuntimeError("spec_commit without spec_begin")
        if m < 1 or m > len(self._spec_currents):
            raise ValueError(
                f"commit count {m} outside [1, {len(self._spec_currents)}]"
            )
        if m < len(self._spec_currents):
            head_len, hist_len = self._spec_markers[m]
            self.head.restore(head_len)
            self.selection_history = self.selection_history[:hist_len]
        self._current = self._spec_currents[m - 1]
        self._spec_mode = False
        self._spec_base = None
        self._spec_currents = []
        self._spec_markers = []

    def select(
        self, layer: int, hidden: np.ndarray, position: int, cache: LayerKVCache
    ) -> np.ndarray | None:
        if self._spec_mode:
            if self._spec_base is None:
                self._spec_base = position
            return self._spec_currents[position - self._spec_base]
        return self._current
