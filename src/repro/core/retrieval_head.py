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

from dataclasses import dataclass

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.builder import head_roles
from repro.models.config import AttentionKind, ModelConfig
from repro.models.weights import DTYPE, ModelWeights
from repro.tensor.ops import top_k_indices
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


class _PositionTables:
    """Keys and queries that depend on the position alone, built on demand.

    The same trade ``RotaryEmbedding`` makes for cos/sin: a position-indexed
    table instead of a stateful generator (``noise``) or a ``rope.apply`` per
    step (``local``). Row ``p`` of noise head ``i`` is always the ``p``-th
    draw of that head's own stream and local row ``p`` is always
    ``rope.apply(ones / sqrt(dc), [p])``, so the tables grow by capacity
    doubling without any row depending on how ``observe`` calls (or the
    growth steps) were chunked. One instance serves every view of a head.
    """

    def __init__(self, seed: int, n_noise: int, dc: int, rope: RotaryEmbedding):
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n_noise)]
        self._rope = rope
        self.noise = np.zeros((n_noise, 0, dc))  # float32-rounded keys
        self.local_q = np.zeros((0, dc))  # un-rounded: the local query at p
        self.local_k = np.zeros((0, dc))  # float32-rounded: the local key at p

    def reserve(self, end: int) -> None:
        """Materialise rows [0, end); ``end`` is at most ``rope.max_position``."""
        have, dc = self.local_q.shape
        if end <= have:
            return
        grown = min(max(end, 2 * have, 64), self._rope.max_position)
        draws = [rng.standard_normal((grown - have, dc)) for rng in self._rngs]
        fresh = np.asarray(draws, dtype=DTYPE).reshape(len(draws), grown - have, dc)
        self.noise = np.concatenate([self.noise, fresh], axis=1)
        u = np.ones((grown - have, dc), dtype=DTYPE) / np.sqrt(dc)
        local = self._rope.apply(u, np.arange(have, grown))
        self.local_q = np.concatenate([self.local_q, local])
        self.local_k = np.concatenate([self.local_k, local.astype(DTYPE)])


class LightweightRetrievalHead:
    """Pruned-DLM retrieval head bound to a specific teacher model.

    The weights (content, ``wq``/``wk``, the sink query, RoPE, the position
    tables) are built once and shared by every :meth:`view`; a session owns
    only the key rows that depend on its token history — one block per
    ``induction`` head and one ``sink`` block (``content[token]``, the same
    for every sink head) — and the token ids. ``local`` and ``noise`` keys
    are rows of the shared position tables, so a decode step computes only
    what its new token causes.

    Precision is a contract, not an accident: ``wq``/``wk`` are float64
    (``/ np.sqrt(dc)`` promotes), so the ``induction``, ``local`` and
    ``noise`` queries are float64 and those roles score float32-rounded keys
    in float64 arithmetic; the ``sink`` query is a float32 content row and
    scores in float32. Each key block is stored in the dtype its GEMV runs
    in — float64 containers of float32 values, float32 for ``sink`` — so
    scoring converts nothing. Changing any of this moves selection bits.
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
        dc = content.shape[1]
        self.dc = dc

        # Per-head Q/K projections in content space, perturbed by `noise`.
        def perturbed() -> np.ndarray:
            eye = np.eye(dc, dtype=DTYPE)
            pert = rng.standard_normal((dc, dc)).astype(DTYPE) / np.sqrt(dc)
            return eye + config.noise * pert

        self.wq = np.stack([perturbed() for _ in range(self.n_heads)])
        self.wk = np.stack([perturbed() for _ in range(self.n_heads)])
        self._sink_q = self.content[bos_id]

        scale = max(teacher_config.max_position, config.dlm_trained_context)
        yarn = YarnConfig(
            original_max_position=config.dlm_trained_context,
            scaling_factor=max(scale / config.dlm_trained_context, 1.0),
        )
        self.rope = RotaryEmbedding(
            dim=dc, max_position=scale, base=teacher_config.rope_base, yarn=yarn
        )
        self._tables = _PositionTables(
            int(rng.integers(0, 2**63)), roles.count("noise"), dc, self.rope
        )
        for shared in (self.content, self.wq, self.wk, self._sink_q):
            shared.setflags(write=False)

        # Heads that score alike are scored once: a row is (role, index) —
        # each induction head's block, each noise head's table, 0 for the one
        # sink row and the one local row. Group reduction and batch pooling
        # are maxima and max(a, a) = a, so nothing downstream changes.
        self._induction_heads = [h for h, r in enumerate(roles) if r == "induction"]
        per_head = [
            (role, roles[:h].count(role) if role in ("induction", "noise") else 0)
            for h, role in enumerate(roles)
        ]
        self._rows = sorted(set(per_head))
        per_q_head = teacher_config.attention in (AttentionKind.MHA, AttentionKind.MLA)
        group = 1 if per_q_head else teacher_config.group_size
        self._row_of_head = np.array([self._rows.index(row) for row in per_head])
        # Distinct rows of each selection group, squared off by repetition.
        groups = [
            sorted(set(rows)) for rows in self._row_of_head.reshape(-1, group).tolist()
        ]
        width = max(map(len, groups))
        self._group_rows = np.array([(rows * width)[:width] for rows in groups])
        self._new_cache()

    def _new_cache(self) -> None:
        """Empty per-session storage, sized by :meth:`reserve` (as
        LayerKVCache is); the valid length is len(self._token_ids)."""
        self._induction = np.zeros((len(self._induction_heads), 64, self.dc))
        self._sink = np.zeros((64, self.dc), dtype=DTYPE)
        self._token_ids: list[int] = []

    def view(self) -> "LightweightRetrievalHead":
        """A head for one more session: shared weights, its own empty K cache."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)  # not copy.copy: skips the pickle hooks
        view._new_cache()
        return view

    def reserve(self, capacity: int) -> None:
        """Grow the per-session key blocks to at least ``capacity`` rows.

        The only growth code; ``np.zeros`` pages become resident only when
        written, as in :meth:`LayerKVCache.reserve`.
        """
        if capacity <= self._sink.shape[0]:
            return
        seq = len(self._token_ids)
        for name in ("_induction", "_sink"):
            old = getattr(self, name)
            grown = np.zeros((*old.shape[:-2], capacity, self.dc), old.dtype)
            grown[..., :seq, :] = old[..., :seq, :]
            setattr(self, name, grown)

    def __getstate__(self) -> dict:
        """Pickle the valid key rows only, not the reserved capacity behind
        them (a session export ships what the head holds)."""
        seq = len(self._token_ids)
        state = self.__dict__.copy()
        state["_induction"] = self._induction[:, :seq].copy()
        state["_sink"] = self._sink[:seq].copy()
        state["_capacity"] = self._sink.shape[0]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore the sender's capacity, so the unpickled head grows as the
        sender's would have."""
        capacity = state.pop("_capacity")
        self.__dict__.update(state)
        self.reserve(capacity)

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

    def _key_block(self, role: str, index: int) -> np.ndarray:
        """Key storage of one distinct row, (capacity, dc)."""
        if role == "induction":
            return self._induction[index]
        if role == "sink":
            return self._sink
        if role == "local":
            return self._tables.local_k
        return self._tables.noise[index]

    @property
    def keys(self) -> np.ndarray:
        """The K cache the paper's head holds, (n_heads, len, dc) float32."""
        seq = len(self._token_ids)
        keys = np.empty((self.n_heads, seq, self.dc), dtype=DTYPE)
        for h, row in enumerate(self._row_of_head):
            keys[h] = self._key_block(*self._rows[row])[:seq]
        return keys

    def observe(self, token_ids: np.ndarray | list[int] | int) -> None:
        """Append tokens to the head's K cache (prompt chunk or new token)."""
        token_ids = [int(t) for t in np.asarray(token_ids).ravel()]
        if not token_ids:
            return
        start = len(self._token_ids)
        end = start + len(token_ids)
        limit = self.rope.max_position
        if end > limit:
            raise ValueError(f"position {end - 1} exceeds table size {limit}")
        prev_ids = ([self._token_ids[-1]] if self._token_ids else [token_ids[0]])
        prev_ids = prev_ids + token_ids[:-1]
        cur = self.content[token_ids]  # (n, dc)
        prev = self.content[prev_ids]
        shifted = prev + self.config.shift_mix * cur

        if end > self._sink.shape[0]:
            self.reserve(max(end, 2 * self._sink.shape[0]))
        for block, h in zip(self._induction, self._induction_heads):
            block[start:end] = (shifted @ self.wk[h].T).astype(DTYPE)
        self._sink[start:end] = cur
        # One row past the keys: the local query of the next step.
        self._tables.reserve(min(end + 1, limit))
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

    def _row_weights(self, current_token: int) -> np.ndarray:
        """Attention weights of each distinct row, (rows, seq) float64."""
        seq = len(self._token_ids)
        if not seq:
            raise RuntimeError("retrieval head has observed no tokens")
        cfg = self.config
        cur = self.content[int(current_token)]
        noise_q = cur / np.sqrt(self.dc)
        # The current token will occupy position ``seq``.
        local_q = self._tables.local_q[min(seq, self.rope.max_position - 1)]
        weights = np.empty((len(self._rows), seq))
        for out, (role, index) in zip(weights, self._rows):
            keys = self._key_block(role, index)[:seq]
            if role == "sink":  # float32 GEMV and scaling, widened on store
                out[:] = (keys @ self._sink_q) * cfg.sink_sharpness
            elif role == "induction":
                np.matmul(keys, self.wq[self._induction_heads[index]] @ cur, out=out)
                out *= cfg.induction_sharpness
            elif role == "local":
                np.matmul(keys, local_q, out=out)
                out *= cfg.local_sharpness
            else:
                np.matmul(keys, noise_q, out=out)
        # softmax, in place
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        return weights

    def attention_weights(self, current_token: int) -> np.ndarray:
        """Head-level attention weights over the K cache, (n_heads, seq)."""
        return self._row_weights(current_token)[self._row_of_head]

    def group_reduced_weights(self, current_token: int) -> np.ndarray:
        """Attention weights reduced to selection heads.

        For GQA/MQA: element-wise max within each query-head group
        (Fig. 5c/d). For MHA/MLA the q-level weights are returned as-is.
        """
        return self._row_weights(current_token)[self._group_rows].max(axis=1)

    def select(
        self, current_token: int, budget: int, level: str = "head"
    ) -> np.ndarray:
        """Top-``budget`` token indices per selection head.

        Returns (n_sel_heads, budget) for ``level='head'`` or a broadcast of
        the single shared set for ``level='batch'``.
        """
        pinned = self.group_reduced_weights(current_token)  # fresh: ours to edit
        seq = pinned.shape[1]
        budget = min(budget, seq)
        # Pin sink and recent positions into every head's top-k (they are
        # selected outright, never duplicated, by boosting their weights
        # above the achievable softmax range).
        if self.config.always_sink > 0:
            pinned[:, : self.config.always_sink] = 2.0
        if self.config.always_recent > 0:
            pinned[:, max(seq - self.config.always_recent, 0):] = 2.0
        if level == "head":
            # The set top_k_indices returns, without ordering it twice.
            np.negative(pinned, out=pinned)
            top = np.argpartition(pinned, budget - 1, axis=-1)[:, :budget]
            return np.sort(top, axis=-1)
        if level == "batch":
            pooled = pinned.max(axis=0)
            shared = np.sort(top_k_indices(pooled, budget))
            return np.broadcast_to(shared, (pinned.shape[0], budget)).copy()
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

        ``selection_history`` then collects the raw selection of every
        later pre_step. A caller may take it (swap in an empty list) after
        any committed step, as the server's transfer accounting does, so
        it spans at most one open spec window; a fresh list here leaves a
        taken one intact.
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
        # The head holds one key row per cached token: size it as the
        # caller sized the KV cache.
        self.head.reserve(cache.capacity)
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
