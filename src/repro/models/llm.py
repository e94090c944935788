"""The decoder-only LM engine: prefill, decode, generation, selection hooks.

Every decode — :meth:`TransformerLM.decode_step` (a wave of one), the
server's decode waves (``decode_step_batch``) and its verify waves
(``decode_spec_batch``) — runs one kernel, ``DecoderLayer.decode_rows``;
the tests' float64 oracles are its independent reference. ``generate`` is
the greedy single-session API (sampling lives in the server). Decoding
accepts an optional *selection policy* — the object that decides which KV
entries each step attends to: :mod:`repro.retrieval` (layer-wise
baselines: Quest, ClusterKV, ShadowKV, StreamingLLM, H2O) or
:mod:`repro.core` (SpeContext's retrieval head, which selects once per
step *before* the forward pass). A ``None`` policy is full attention.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.config import AttentionKind
from repro.models.layers import DecoderLayer
from repro.models.weights import ModelWeights
from repro.tensor.ops import linear_rows, rms_norm
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
    """Output of one generation run.

    ``generate`` keeps every decode step's selections; the server keeps
    only ``selection_digest``. Both fold each step in through
    :meth:`fold_selections`.
    """

    prompt_len: int
    token_ids: list[int]
    stopped_by_eos: bool
    selections: list[dict[int, np.ndarray]] = field(default_factory=list)
    attention_trace: list[list[np.ndarray]] = field(default_factory=list)
    selection_digest: str = ""

    def fold_selections(self, selections: dict[int, np.ndarray]) -> None:
        """Fold one decode step's ``{layer: selection}`` into the digest.

        Each layer's id, shape, dtype and index bytes are hashed, in layer
        order, onto the previous digest, so two runs end on the same digest
        exactly when every step used the same selections (a step without
        any, under full attention, still counts).
        """
        h = hashlib.sha256(self.selection_digest.encode())
        for layer in sorted(selections):
            selection = np.ascontiguousarray(selections[layer])
            h.update(f"{layer}:{selection.shape}:{selection.dtype.str};".encode())
            h.update(selection)
        self.selection_digest = h.hexdigest()

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

    def new_cache(self) -> ModelKVCache:
        """Empty float32 KV cache matching this model's geometry (see
        :mod:`repro.kvcache.cache` for the precision contract)."""
        cfg = self.config
        if cfg.attention is AttentionKind.MLA:
            return ModelKVCache(cfg.n_layers, 1, 1, cfg.mla_latent_dim)
        return ModelKVCache(cfg.n_layers, 1, cfg.n_kv_heads, cfg.head_dim)

    # ---- forward passes --------------------------------------------------------

    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        """Token embeddings, shape (seq, d_model)."""
        return self.weights.embedding[np.asarray(token_ids)]

    def logits_from_hidden_rows(self, hidden: np.ndarray) -> np.ndarray:
        """Final norm + LM head over (n, d_model) rows, one fused call."""
        if self.config.use_norm:
            hidden = rms_norm(hidden, self.weights.norm_final)
        return linear_rows(hidden, self.weights.head_matrix())

    def prefill(
        self, token_ids: np.ndarray, cache: ModelKVCache, logits: bool = True
    ) -> np.ndarray | None:
        """Run the prompt through all layers; returns last-token logits.

        Only the final row's hidden state is read, so the last layer
        attends for the tile holding that row alone (``first_output``,
        see :meth:`AttentionModule._chunked_causal`); every other layer's
        rows feed the next layer and are all computed. Each layer's K/V
        is projected from its input before attention, so every cache
        entry — and the logits — are bit-identical to attending for every
        row.

        ``logits=False`` is for callers that only need the cache filled
        (SpeContext's flow decodes the last prompt token as its first
        policy step, so nobody samples from prefill logits). The last
        layer then runs its pre-attention norm and K/V (or latent)
        projection and append, nothing else — no q projection, attention
        tile, ``wo``, FFN, final norm or LM head — and ``None`` is
        returned. The cache is bit-identical to a logits prefill's, since
        the last layer's K/V depend only on its input.
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        start = cache.seq_len
        positions = np.arange(start, start + token_ids.size)
        x = self.embed(token_ids)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            if i < last:
                first_output = 0
            else:
                first_output = token_ids.size - 1 if logits else None
            x = layer.prefill(x, positions, cache[i], first_output)
        return self.logits_from_hidden_rows(x[-1:])[0] if logits else None

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
        Only the final chunk computes logits; the others fill the cache
        (``logits=False``).
        """
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1 or token_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        if chunk_tokens < 1:
            raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
        last = (token_ids.size - 1) // chunk_tokens * chunk_tokens
        for start in range(0, last, chunk_tokens):
            self.prefill(token_ids[start : start + chunk_tokens], cache, logits=False)
        return self.prefill(token_ids[last:], cache)

    def decode_step(
        self,
        token_id: int,
        cache: ModelKVCache,
        policy: SelectionPolicy | None = None,
        capture_attention: bool = False,
    ) -> tuple[np.ndarray, dict[int, np.ndarray], list[np.ndarray]]:
        """One autoregressive step: :meth:`decode_step_batch`'s kernel on a
        wave of one.

        Returns (logits, selections_used, attention_weights). The current
        token's index is always unioned into selections (the paper keeps
        the just-generated KV pair resident). ``capture_attention`` fills
        attention_weights with each layer's (n_q_heads, len(cache))
        softmax rows in float32; only a full-attention step can be
        captured, so a ``policy`` alongside it raises ``ValueError``.
        """
        if capture_attention and policy is not None:
            raise ValueError("capture_attention needs full attention (policy=None)")
        weights: list[np.ndarray] = []
        logits, selections = self._decode_rows(
            [token_id], [0], [cache.seq_len], [cache], [policy],
            weights=weights if capture_attention else None,
        )
        return logits[0], selections[0], weights

    def decode_step_batch(
        self,
        token_ids: list[int],
        caches: list[ModelKVCache],
        policies: list[SelectionPolicy | None] | None = None,
    ) -> tuple[np.ndarray, list[dict[int, np.ndarray]]]:
        """One autoregressive step for ``n`` independent sessions, fused.

        Instead of ``n`` full forward passes over the shared weights, the
        sessions' hidden states are stacked into (n, d_model) batches and
        every projection/FFN runs as one row-batched GEMM; attention runs
        one row at a time, each row's gathered KV landing in one row-sized
        float64 buffer that the next row reuses while it is cache-hot (see
        :meth:`AttentionModule.decode_rows`). Policy hooks (``select``)
        still run per session — they own per-session state — but every
        projection and FFN is fused.

        Returns (logits of shape (n, vocab), per-session selections dict).
        A session's row does not depend on the rest of the wave: the fused
        ops are elementwise/row-wise or per-row GEMM slices, never
        row-fused BLAS reductions (see :func:`repro.tensor.ops.linear_rows`).
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
        return self._decode_rows(token_ids, list(range(n)), positions, caches, policies)

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
        holds exactly the entries a one-token step at that position would
        have held, and attention caps each row's full-attention view at
        its own position + 1. Position ``t`` of session ``j`` is therefore
        bit-identical to one-token steps run sequentially *given the same
        fed tokens* — which is how greedy longest-prefix acceptance makes
        accepted streams provably equal to a never-drafted run. All fed
        tokens' KV entries are appended; the caller truncates the rejected
        suffix (see :meth:`repro.kvcache.cache.ModelKVCache.truncate`).

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
        positions: list[int] = []
        for j, length in enumerate(lens):
            base = caches[j].seq_len
            row_session += [j] * length
            positions += range(base, base + length)
        logits, row_selections = self._decode_rows(
            [t for seq in token_seqs for t in seq], row_session, positions,
            caches, policies, limits=np.asarray(positions) + 1,
        )
        out: list[np.ndarray] = []
        selections: list[list[dict[int, np.ndarray]]] = []
        start = 0
        for length in lens:
            out.append(logits[start : start + length])
            selections.append(row_selections[start : start + length])
            start += length
        return out, selections

    def _decode_rows(
        self,
        token_rows: list[int],
        row_session: list[int],
        positions: list[int],
        caches: list[ModelKVCache],
        policies: list[SelectionPolicy | None],
        limits: np.ndarray | None = None,
        weights: list[np.ndarray] | None = None,
    ) -> tuple[np.ndarray, list[dict[int, np.ndarray]]]:
        """Run one token per row through every layer's
        :meth:`DecoderLayer.decode_rows`.

        Row ``r`` feeds ``token_rows[r]`` for session ``row_session[r]``
        at cache position ``positions[r]``. Returns (logits (rows, vocab),
        the per-layer selection dict of each row); ``weights``, when given,
        receives the captured attention of every layer, layer-major (see
        :meth:`AttentionModule.decode_rows`).
        """
        position_rows = np.asarray(positions)
        x = self.embed(np.asarray(token_rows))  # (rows, d_model)
        selections: list[dict[int, np.ndarray]] = [{} for _ in positions]
        plans: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(positions)
        for i, layer in enumerate(self.layers):
            row_caches = [caches[j][i] for j in row_session]

            def select_fn(r, i=i, layer_input=x, row_caches=row_caches):
                policy = policies[row_session[r]]
                if policy is None:
                    return None
                selection = policy.select(
                    i, layer_input[r], positions[r], row_caches[r]
                )
                if selection is not None:
                    selection = self._planned(plans, r, selection, positions[r])
                    selections[r][i] = selection
                return selection

            x = layer.decode_rows(
                x, position_rows, row_caches, select_fn, limits, weights
            )
        return self.logits_from_hidden_rows(x), selections

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
        prefilled: ModelKVCache | None = None,
    ) -> DecodeResult:
        """Greedily decode up to ``max_new_tokens`` on a fresh cache.

        The greedy single-session API: one prefill, then one
        :meth:`decode_step` per token. It shares no serving code
        (scheduler, pool, sampler — sampling lives in the server) but
        decodes through the same kernel. ``stop_ids`` terminate generation
        after being emitted. ``capture_attention`` records each step's
        per-layer weights (full attention only, see :meth:`decode_step`).

        ``sparse_from_first_token``: prefill only ``prompt[:-1]`` and decode
        the final prompt token as the first (policy-governed) decode step, so
        KV selection affects every generated token. This mirrors SpeContext's
        flow, where retrieval happens before the LLM forward pass; the
        default (False) matches HuggingFace semantics where the first
        generated token comes from full-attention prefill logits.

        ``prefilled``: a cache that already holds ``prompt[:-1]`` (say, a
        clone of one prefill shared by many decodes). Generation skips the
        prefill, decodes into that cache and implies
        ``sparse_from_first_token``.
        """
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 1 or prompt_ids.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        if prefilled is not None and prefilled.seq_len != prompt_ids.size - 1:
            raise ValueError("a prefilled cache must hold exactly prompt[:-1]")
        cache = self.new_cache() if prefilled is None else prefilled

        result = DecodeResult(
            prompt_len=int(prompt_ids.size), token_ids=[], stopped_by_eos=False
        )
        use_sparse_first = prefilled is not None or (
            sparse_from_first_token and prompt_ids.size >= 2
        )
        if use_sparse_first:
            if prefilled is None:
                self.prefill(prompt_ids[:-1], cache, logits=False)
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
                result.fold_selections(selections)
                if capture_attention:
                    result.attention_trace.append(attn)
                token = int(np.argmax(logits))
            result.token_ids.append(token)
            if token in stop_ids:
                result.stopped_by_eos = True
                break
            pending = token
        return result
