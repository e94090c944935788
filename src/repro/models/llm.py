"""The decoder-only LM engine: prefill, decode, generation, selection hooks.

``TransformerLM.generate`` is the greedy single-session reference that
the serving paths are checked against (sampling lives in
:class:`~repro.serving.server.SpeContextServer`). It accepts an optional
*selection policy* — the object that decides which KV entries each decode
step attends to. Policies come from :mod:`repro.retrieval` (layer-wise
baselines: Quest, ClusterKV, ShadowKV, StreamingLLM, H2O) or
:mod:`repro.core` (SpeContext's retrieval head, which selects once per step
*before* the forward pass). A ``None`` policy is full attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.config import AttentionKind
from repro.models.layers import DecoderLayer
from repro.models.weights import ModelWeights
from repro.tensor.ops import linear, linear_rows, rms_norm
from repro.tensor.rope import RotaryEmbedding, YarnConfig


class SelectionPolicy(Protocol):
    """Decides the attended KV subset at each decode step.

    ``begin_generation`` is called once after prefill. ``pre_step`` runs
    before the forward pass of each decode step (SpeContext does its global
    retrieval here). ``select`` runs per layer and returns token indices
    (1-D shared, or 2-D per-KV-head) or None for full attention.
    """

    def begin_generation(self, prompt_ids: np.ndarray, cache: ModelKVCache) -> None: ...

    def pre_step(self, step: int, token_id: int, cache: ModelKVCache) -> None: ...

    def select(
        self, layer: int, hidden: np.ndarray, position: int, cache: LayerKVCache
    ) -> np.ndarray | None: ...


@dataclass
class DecodeResult:
    """Output of one generation run."""

    prompt_len: int
    token_ids: list[int]
    stopped_by_eos: bool
    selections: list[dict[int, np.ndarray]] = field(default_factory=list)
    attention_trace: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def n_generated(self) -> int:
        return len(self.token_ids)


class TransformerLM:
    """Functional numpy transformer with KV cache and sparse-decode hooks."""

    def __init__(self, weights: ModelWeights, yarn: YarnConfig | None = None):
        self.weights = weights
        self.config = weights.config
        rope_dim = self.config.head_dim
        self.rope = RotaryEmbedding(
            dim=rope_dim,
            max_position=self.config.max_position,
            base=self.config.rope_base,
            yarn=yarn,
        )
        self.layers = [
            DecoderLayer(self.config, lw, self.rope) for lw in weights.layers
        ]

    # ---- cache management ----------------------------------------------------

    def new_cache(self, dtype: np.dtype = np.float64) -> ModelKVCache:
        """Empty KV cache matching this model's geometry.

        ``dtype`` sets the KV storage precision: projections are float32,
        so float32 storage is value-preserving at half the memory traffic
        (what production engines do with FP16 KV), while the float64
        default keeps attention accumulation in double precision.
        """
        cfg = self.config
        if cfg.attention is AttentionKind.MLA:
            return ModelKVCache(cfg.n_layers, 1, 1, cfg.mla_latent_dim, dtype=dtype)
        return ModelKVCache(
            cfg.n_layers, 1, cfg.n_kv_heads, cfg.head_dim, dtype=dtype
        )

    # ---- forward passes --------------------------------------------------------

    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Token embeddings, shape (seq, d_model)."""
        return self.weights.embedding[np.asarray(token_ids)]

    def logits_from_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Final norm + LM head."""
        if self.config.use_norm:
            hidden = rms_norm(hidden, self.weights.norm_final)
        return linear(hidden, self.weights.head_matrix())

    def logits_from_hidden_rows(self, hidden: np.ndarray) -> np.ndarray:
        """Final norm + LM head over (n, d_model) rows, one fused call."""
        if self.config.use_norm:
            hidden = rms_norm(hidden, self.weights.norm_final)
        return linear_rows(hidden, self.weights.head_matrix())

    def prefill(self, token_ids: np.ndarray, cache: ModelKVCache) -> np.ndarray:
        """Run the prompt through all layers; returns last-token logits."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        start = cache.seq_len
        positions = np.arange(start, start + token_ids.size)
        x = self.embed(token_ids)
        for i, layer in enumerate(self.layers):
            x = layer.prefill(x, positions, cache[i])
        return self.logits_from_hidden(x[-1])

    def prefill_chunked(
        self, token_ids: np.ndarray, cache: ModelKVCache, chunk_tokens: int
    ) -> np.ndarray:
        """Prefill in fixed-size chunks; returns the last token's logits.

        Each chunk attends causally over the cache built by its
        predecessors, so it computes the same math as a one-shot
        :meth:`prefill` — a token's KV depends only on the tokens before
        it. Values agree to the last ulp of the float32 projections
        (chunk boundaries shift BLAS GEMM blocking, as with the prefix
        cache's resumed prefill), and the generated *token streams* are
        bit-identical — the serving suite pins this for every policy.
        This is the model-level primitive behind the server's chunked
        prefill, which interleaves chunks with other sessions' decodes.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        if chunk_tokens < 1:
            raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
        logits = None
        for start in range(0, token_ids.size, chunk_tokens):
            logits = self.prefill(token_ids[start : start + chunk_tokens], cache)
        return logits

    def decode_step(
        self,
        token_id: int,
        cache: ModelKVCache,
        policy: SelectionPolicy | None = None,
        capture_attention: bool = False,
    ) -> tuple[np.ndarray, dict[int, np.ndarray], list[np.ndarray]]:
        """One autoregressive step.

        Returns (logits, selections_used, attention_weights). The current
        token's index is always unioned into 1-D selections (the paper keeps
        the just-generated KV pair resident).
        """
        position = cache.seq_len  # index this token will occupy
        x = self.embed(np.array([token_id]))[0]
        selections: dict[int, np.ndarray] = {}
        attn_weights: list[np.ndarray] = []
        for i, layer in enumerate(self.layers):
            selection = None
            if policy is not None:
                selection = policy.select(i, x, position, cache[i])
            if selection is not None:
                selection = self._ensure_current(selection, position)
                selections[i] = selection
            x, weights = layer.decode(
                x, position, cache[i], selection=selection,
                capture_weights=capture_attention,
            )
            if capture_attention:
                attn_weights.append(weights)
        return self.logits_from_hidden(x), selections, attn_weights

    def decode_step_batch(
        self,
        token_ids: list[int],
        caches: list[ModelKVCache],
        policies: list[SelectionPolicy | None] | None = None,
    ) -> tuple[np.ndarray, list[dict[int, np.ndarray]]]:
        """One autoregressive step for ``n`` independent sessions, fused.

        Instead of ``n`` full forward passes over the shared weights, the
        sessions' hidden states are stacked into (n, d_model) batches and
        every projection/FFN runs as one row-batched GEMM; attention groups
        sessions by selection shape and scores each group's gathered KV in
        one batched matmul. Policy hooks (``select``) still run per session
        — they own per-session state — but all tensor math is fused.

        Returns (logits of shape (n, vocab), per-session selections dict).
        Row ``j`` is bit-identical to ``decode_step(token_ids[j],
        caches[j], policies[j])`` on the same session state: the fused ops
        are elementwise/row-wise or per-row GEMM slices, never row-fused
        BLAS reductions (see :func:`repro.tensor.ops.linear_rows`).
        """
        n = len(caches)
        if policies is None:
            policies = [None] * n
        if not (len(token_ids) == len(policies) == n):
            raise ValueError(
                f"batch size mismatch: {len(token_ids)} tokens, {n} caches, "
                f"{len(policies)} policies"
            )
        positions = [cache.seq_len for cache in caches]
        position_rows = np.asarray(positions)
        x = self.embed(np.asarray(token_ids))  # (n, d_model)
        selections: list[dict[int, np.ndarray]] = [{} for _ in range(n)]
        plans: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n
        for i, layer in enumerate(self.layers):
            layer_caches = [cache[i] for cache in caches]
            step_selections: list[np.ndarray | None] = []
            for j in range(n):
                selection = None
                if policies[j] is not None:
                    selection = policies[j].select(
                        i, x[j], positions[j], layer_caches[j]
                    )
                if selection is not None:
                    selection = self._planned(plans, j, selection, positions[j])
                    selections[j][i] = selection
                step_selections.append(selection)
            x = layer.decode_rows(x, position_rows, layer_caches, step_selections)
        return self.logits_from_hidden_rows(x), selections

    def decode_spec_batch(
        self,
        token_seqs: list[list[int]],
        caches: list[ModelKVCache],
        policies: list[SelectionPolicy | None] | None = None,
    ) -> tuple[list[np.ndarray], list[list[dict[int, np.ndarray]]]]:
        """Speculative verify: feed several tokens per session, fused.

        Session ``j`` feeds ``token_seqs[j]`` — its pending token followed
        by draft tokens — at the consecutive cache positions they would
        occupy. All (session, position) rows run through each layer as one
        row-batched pass; per-session policy hooks interleave with KV
        appends in position order, so at every ``select`` call the cache
        holds exactly the entries a sequential :meth:`decode_step` at that
        position would have held, and attention caps each row's
        full-attention view at its own position + 1. Position ``t`` of
        session ``j`` is therefore bit-identical to ``decode_step`` run
        sequentially *given the same fed tokens* — which is how greedy
        longest-prefix acceptance makes accepted streams provably equal to
        a never-drafted run. All fed tokens' KV entries are appended; the
        caller truncates the rejected suffix (see
        :meth:`repro.kvcache.cache.ModelKVCache.truncate`).

        Returns ``(logits, selections)`` where ``logits[j]`` is
        ``(len(token_seqs[j]), vocab)`` and ``selections[j][t]`` is the
        per-layer selection dict position ``t`` used. A batch of
        single-token sequences is bit-identical to
        :meth:`decode_step_batch`.
        """
        n = len(caches)
        if policies is None:
            policies = [None] * n
        if not (len(token_seqs) == len(policies) == n):
            raise ValueError(
                f"batch size mismatch: {len(token_seqs)} sequences, "
                f"{n} caches, {len(policies)} policies"
            )
        lens = [len(seq) for seq in token_seqs]
        if any(length < 1 for length in lens):
            raise ValueError("every session must feed at least one token")
        row_session: list[int] = []
        row_offset: list[int] = []
        positions: list[int] = []
        for j, seq in enumerate(token_seqs):
            base = caches[j].seq_len
            for t in range(len(seq)):
                row_session.append(j)
                row_offset.append(t)
                positions.append(base + t)
        position_rows = np.asarray(positions)
        limits = position_rows + 1
        x = self.embed(np.asarray([t for seq in token_seqs for t in seq]))
        selections: list[list[dict[int, np.ndarray]]] = [
            [{} for _ in seq] for seq in token_seqs
        ]
        plans: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(positions)
        for i, layer in enumerate(self.layers):
            row_caches = [caches[j][i] for j in row_session]
            layer_input = x

            def select_fn(r, i=i, layer_input=layer_input):
                j = row_session[r]
                if policies[j] is None:
                    return None
                position = int(position_rows[r])
                selection = policies[j].select(
                    i, layer_input[r], position, row_caches[r]
                )
                if selection is not None:
                    selection = self._planned(plans, r, selection, position)
                    selections[j][row_offset[r]][i] = selection
                return selection

            x = layer.decode_rows_spec(
                x, position_rows, row_caches, limits, select_fn
            )
        logits = self.logits_from_hidden_rows(x)
        out: list[np.ndarray] = []
        start = 0
        for length in lens:
            out.append(logits[start : start + length])
            start += length
        return out, selections

    def _planned(
        self,
        plans: list[tuple[np.ndarray, np.ndarray] | None],
        row: int,
        selection: np.ndarray,
        position: int,
    ) -> np.ndarray:
        """:meth:`_ensure_current` for one row of a fused step, computed once
        for as long as the row's policy keeps returning the same object.

        SpeContext selects before the forward pass, so every layer's
        ``select`` hands back one array: the union with the current token
        is built for the first layer and reused by the rest. Layer-wise
        policies return a fresh array per layer and are planned per layer.
        """
        plan = plans[row]
        if plan is None or plan[0] is not selection:
            plan = plans[row] = (
                selection, self._ensure_current(selection, position)
            )
        return plan[1]

    @staticmethod
    def _ensure_current(selection: np.ndarray, position: int) -> np.ndarray:
        """Union the current token's index into the selection."""
        selection = np.asarray(selection)
        if selection.ndim == 1:
            if position not in selection:
                selection = np.append(selection, position)
            return selection
        if np.all(np.any(selection == position, axis=1)):
            return selection
        extra = np.full((selection.shape[0], 1), position, dtype=selection.dtype)
        return np.concatenate([selection, extra], axis=1)

    # ---- generation -----------------------------------------------------------

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        policy: SelectionPolicy | None = None,
        stop_ids: tuple[int, ...] = (),
        capture_attention: bool = False,
        sparse_from_first_token: bool = False,
    ) -> DecodeResult:
        """Greedily decode up to ``max_new_tokens`` on a fresh cache.

        The single-session greedy reference the serving paths are checked
        against; sampling lives in the server. ``stop_ids`` terminate
        generation after being emitted.

        ``sparse_from_first_token``: prefill only ``prompt[:-1]`` and decode
        the final prompt token as the first (policy-governed) decode step, so
        KV selection affects every generated token. This mirrors SpeContext's
        flow, where retrieval happens before the LLM forward pass; the
        default (False) matches HuggingFace semantics where the first
        generated token comes from full-attention prefill logits.
        """
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 1 or prompt_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        cache = self.new_cache()

        result = DecodeResult(
            prompt_len=int(prompt_ids.size), token_ids=[], stopped_by_eos=False
        )
        use_sparse_first = sparse_from_first_token and prompt_ids.size >= 2
        if use_sparse_first:
            self.prefill(prompt_ids[:-1], cache)
            if policy is not None:
                policy.begin_generation(prompt_ids[:-1], cache)
            pending: int | None = int(prompt_ids[-1])
            prefill_token: int | None = None
        else:
            logits = self.prefill(prompt_ids, cache)
            if policy is not None:
                policy.begin_generation(prompt_ids, cache)
            pending = None
            prefill_token = int(np.argmax(logits))

        for step in range(max_new_tokens):
            if step == 0 and prefill_token is not None:
                token = prefill_token
            else:
                if policy is not None:
                    policy.pre_step(step, int(pending), cache)
                logits, selections, attn = self.decode_step(
                    int(pending), cache, policy=policy,
                    capture_attention=capture_attention,
                )
                result.selections.append(selections)
                if capture_attention:
                    result.attention_trace.append(attn)
                token = int(np.argmax(logits))
            result.token_ids.append(token)
            if token in stop_ids:
                result.stopped_by_eos = True
                break
            pending = token
        return result
