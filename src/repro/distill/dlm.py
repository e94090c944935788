"""The full distilled language model and the retrieval-head pruning math.

EAGLE-3's DLM is a complete LM — tokenizer, embedding, a single transformer
decoder layer, and an LM head (Sec. 4.1). Running it wholesale costs ~20%
extra inference, dominated by the LM head over a >1.2e5-token vocabulary.
The retrieval head keeps only the embedding (shared with the target model,
so zero marginal memory) and the QK projections; everything else is pruned
(Sec. 4.3). ``pruning_report`` reproduces the >90% reduction claim for any
teacher configuration.

``DraftModel`` runs the student as a speculative drafter. Like any LM it
keeps a K cache: one ``DraftContext`` per session holds the content rows
and induction keys of the tokens drafted from so far. The cache is a pure
function of the token history, so a context is extended by new tokens,
rolled back after drafting, and refilled from its tokens after it is
unpickled (a migrated session ships no rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.config import ModelConfig
from repro.tensor.ops import softmax


@dataclass
class DistilledLM:
    """A one-layer student LM's parameter inventory.

    Arrays are optional: experiments that only need parameter counts (the
    overhead evaluation) construct the inventory without materializing
    weights, while the trainer materializes the QK projections it learns.
    """

    vocab_size: int
    d_model: int
    n_heads: int
    head_dim: int
    d_ff: int
    # Learned projections (content space), populated by the trainer:
    wq: np.ndarray | None = None
    wk: np.ndarray | None = None

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.d_model

    @property
    def qk_params(self) -> int:
        return 2 * self.d_model * self.n_heads * self.head_dim

    @property
    def vo_params(self) -> int:
        return 2 * self.d_model * self.n_heads * self.head_dim

    @property
    def ffn_params(self) -> int:
        return 3 * self.d_model * self.d_ff

    @property
    def lm_head_params(self) -> int:
        return self.vocab_size * self.d_model

    def total_params(self) -> int:
        """Complete DLM: embedding + decoder layer + LM head."""
        return (
            self.embedding_params
            + self.qk_params
            + self.vo_params
            + self.ffn_params
            + self.lm_head_params
        )

    def retained_params(self, embedding_shared: bool = True) -> int:
        """What the retrieval head keeps: QK (+ embedding if not shared)."""
        kept = self.qk_params
        if not embedding_shared:
            kept += self.embedding_params
        return kept


def full_dlm_analog(teacher: ModelConfig) -> DistilledLM:
    """The EAGLE-3-style DLM sized for a given teacher.

    One decoder layer with the teacher's hidden geometry and vocabulary,
    as the paper's DLM shares the target model's tokenizer/embedding space.
    """
    return DistilledLM(
        vocab_size=teacher.vocab_size,
        d_model=teacher.d_model,
        n_heads=teacher.n_q_heads,
        head_dim=teacher.head_dim,
        d_ff=teacher.d_ff,
    )


@dataclass(frozen=True)
class PruningReport:
    """Parameter accounting for the DLM -> retrieval-head pruning."""

    dlm_params: int
    retained_params: int

    @property
    def reduction(self) -> float:
        return 1.0 - self.retained_params / self.dlm_params

    @property
    def retained_bytes_fp16(self) -> int:
        return self.retained_params * 2


class DraftContext:
    """One session's draft K cache: its tokens and the rows read from them.

    ``tokens[:len(self)]`` is the context; ``cur`` (content rows) and
    ``keys`` (induction keys, ``(prev + shift_mix * cur) @ H.T``) hold the
    first ``filled`` of them. Row ``j`` depends on tokens ``j - 1`` and
    ``j`` alone, so the rows are a pure function of the token history:
    :meth:`DraftModel.draft_batch` computes only the rows of tokens added
    since the last draft, and rolling ``len`` back (as
    :meth:`~repro.core.retrieval_head.LightweightRetrievalHead.restore`
    does) needs no recompute. The pickled form drops the rows — they
    refill on the next draft, so an exported session does not carry them.

    ``capacity`` sizes the buffers once; a context that outgrows it
    doubles them.
    """

    def __init__(self, tokens=(), capacity: int = 0):
        tokens = np.asarray(tokens, dtype=np.int64).ravel()
        self.tokens = np.empty(max(capacity, tokens.size), dtype=np.int64)
        self.tokens[: tokens.size] = tokens
        self._n = tokens.size
        self.cur: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self.filled = 0
        self.owner: DraftModel | None = None  # the draft that read the rows

    def __len__(self) -> int:
        return self._n

    def extend(self, token_ids) -> None:
        """Append tokens; their rows are computed on the next draft."""
        token_ids = np.asarray(token_ids, dtype=np.int64).ravel()
        end = self._n + token_ids.size
        if end > self.tokens.size:
            capacity = max(end, 2 * self.tokens.size)
            for name in ("tokens", "cur", "keys"):
                old = getattr(self, name)
                if old is not None:
                    grown = np.empty((capacity, *old.shape[1:]), old.dtype)
                    grown[: self._n] = old[: self._n]
                    setattr(self, name, grown)
        self.tokens[self._n : end] = token_ids
        self._n = end

    def truncate(self, length: int) -> None:
        """Roll back to the first ``length`` tokens (rows past it are dead)."""
        if length > self._n:
            raise ValueError("length is newer than the current context")
        self._n = length
        self.filled = min(self.filled, length)

    def __getstate__(self):
        return {"tokens": self.tokens[: self._n], "capacity": self.tokens.size}

    def __setstate__(self, state) -> None:
        self.__init__(state["tokens"], state["capacity"])


class DraftModel:
    """Greedy draft head over the distilled student math.

    Runs the :class:`~repro.distill.trainer.DistillationTrainer` student
    forward (token-shift mixer keys, content-space readout) autoregressively
    to propose up to ``k`` tokens for speculative decoding. Like EAGLE's
    truncated-vocab trick, the readout is restricted to ``token_map`` — a
    draft-index -> target-id array — so the LM-head matmul shrinks with the
    draft vocabulary. Target tokens outside the map cannot be drafted *from*
    (the query embedding is unknown to the student): :meth:`draft` returns an
    empty proposal there, which the verifier treats as an ordinary
    zero-accepted step — never a ``KeyError``.

    Like any LM, the draft keeps a K cache (:class:`DraftContext`, one per
    session), so a draft computes keys only for the tokens added since the
    last one. The cache is a pure function of the token history: a context
    that arrives without rows (unpickled, or filled by another draft)
    refills them on its next draft.
    """

    def __init__(
        self,
        content: np.ndarray,
        token_map: np.ndarray | None = None,
        G: np.ndarray | None = None,
        H: np.ndarray | None = None,
        shift_mix: float = 0.2,
        sharpness: float = 14.0,
        readout_gain: float = 8.0,
    ):
        self.content = np.asarray(content, dtype=np.float64)
        if self.content.ndim != 2:
            raise ValueError(f"content must be (vocab, dc), got {self.content.shape}")
        vocab, dc = self.content.shape
        self.vocab_size = vocab
        if token_map is None:
            token_map = np.arange(vocab)
        self.token_map = np.asarray(token_map, dtype=np.int64)
        if self.token_map.ndim != 1 or self.token_map.size == 0:
            raise ValueError("token_map must be a non-empty 1-D array")
        if np.any(self.token_map < 0) or np.any(self.token_map >= vocab):
            raise ValueError(
                f"token_map entries outside target vocabulary [0, {vocab})"
            )
        if np.unique(self.token_map).size != self.token_map.size:
            raise ValueError("token_map entries must be unique")
        # Inverse map: target id -> draft index, -1 where unmapped.
        self._inverse = np.full(vocab, -1, dtype=np.int64)
        self._inverse[self.token_map] = np.arange(self.token_map.size)
        self.content_draft = self.content[self.token_map]
        # Context rows: the truncated-vocab student has no representation
        # for out-of-map tokens, so they read as zeros (null evidence).
        self._context_rows = self.content
        if self.token_map.size < vocab:
            self._context_rows = self.content.copy()
            self._context_rows[self._inverse < 0] = 0.0
        self.G = np.eye(dc) if G is None else np.asarray(G, dtype=np.float64)
        self.H = np.eye(dc) if H is None else np.asarray(H, dtype=np.float64)
        self.shift_mix = shift_mix
        self.sharpness = sharpness
        self.readout_gain = readout_gain

    @classmethod
    def from_teacher(
        cls,
        teacher,
        token_map: np.ndarray | None = None,
        shift_mix: float = 0.2,
        sharpness: float = 14.0,
        readout_gain: float = 8.0,
    ) -> "DraftModel":
        """A perfectly-distilled draft head (identity G/H) for a teacher LM.

        Shares the teacher's content subspace (first ``head_dim`` embedding
        columns) exactly as the trainer does, so the draft distribution is
        what distillation converges to on the synthetic recall teachers.
        """
        content = np.asarray(
            teacher.weights.embedding[:, : teacher.config.head_dim],
            dtype=np.float64,
        )
        return cls(
            content,
            token_map=token_map,
            shift_mix=shift_mix,
            sharpness=sharpness,
            readout_gain=readout_gain,
        )

    @classmethod
    def from_trainer(cls, trainer, token_map: np.ndarray | None = None) -> "DraftModel":
        """Wrap a trained :class:`DistillationTrainer`'s learned G/H."""
        return cls(
            trainer.content,
            token_map=token_map,
            G=trainer.params["G"],
            H=trainer.params["H"],
            shift_mix=trainer.shift_mix,
            sharpness=trainer.sharpness,
            readout_gain=trainer.readout_gain,
        )

    def knows(self, token_id: int) -> bool:
        """True if the target token is inside the draft vocabulary."""
        return 0 <= token_id < self.vocab_size and self._inverse[token_id] >= 0

    def greedy_next(self, context_ids) -> int | None:
        """Greedy next-token proposal in *target* id space, or None.

        None means the student cannot draft here: context shorter than two
        tokens (the token-shift mixer needs a previous token) or a query
        token outside the draft vocabulary.
        """
        proposal = self.draft(context_ids, 1)
        return proposal[0] if proposal else None

    def draft(self, context_ids, k: int) -> list[int]:
        """Propose up to ``k`` greedy tokens autoregressively.

        Returns fewer than ``k`` (possibly zero) tokens when drafting is
        impossible; proposed tokens are always in-map by construction.
        """
        [proposal] = self.draft_batch([DraftContext(context_ids)], k)
        return proposal

    def _fill(self, context: DraftContext) -> None:
        """Compute the rows of the tokens ``context`` has no rows for yet.

        A key row's previous-token row is the cached content row before
        it, so no token is looked up twice; the first token is its own
        previous token.
        """
        if context.owner is not self:
            shape = (context.tokens.size, self.content.shape[1])
            context.cur, context.keys = np.empty(shape), np.empty(shape)
            context.filled, context.owner = 0, self
        start, end = context.filled, len(context)
        if start == end:
            return
        cur = context.cur[start:end]
        np.take(self._context_rows, context.tokens[start:end], axis=0, out=cur)
        prev = context.cur[max(start - 1, 0) : end - 1]
        if not start:
            prev = np.concatenate([cur[:1], prev])
        context.keys[start:end] = (prev + self.shift_mix * cur) @ self.H.T
        context.filled = end

    def _pooled(self, context: DraftContext) -> np.ndarray | None:
        """The attention-pooled content vector behind one greedy step.

        ``greedy_next`` factors as readout(pooled(context)); batching
        shares the readout matmul across contexts, so the pooling half is
        exposed separately. None under the same conditions ``greedy_next``
        returns None.
        """
        n = len(context)
        if n < 2 or not self.knows(int(context.tokens[n - 1])):
            return None
        self._fill(context)
        q = self.G @ self.content[context.tokens[n - 1]]
        w = softmax(self.sharpness * (context.keys[: n - 1] @ q))
        return w @ context.cur[: n - 1]

    def draft_batch(self, contexts, k: int) -> list[list[int]]:
        """Propose up to ``k`` greedy tokens for every context at once.

        ``contexts`` are :class:`DraftContext` s; each is extended by its
        drafted tokens while drafting and rolled back to its entry length
        before returning, so only the rows of tokens it gained since its
        last draft are computed, once. Equivalent to
        ``[self.draft(ctx, k) for ctx in contexts]`` but the
        truncated-vocab readout — one ``(draft_vocab, dc)`` matvec per
        context per step — is fused into a single
        ``(batch, dc) x (dc, draft_vocab)`` matmul over all still-drafting
        contexts per step. The attention pooling stays per-context
        (contexts are ragged). A context that cannot draft contributes an
        empty (or truncated) proposal without stalling its batch peers.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        entry = [len(context) for context in contexts]
        outs: list[list[int]] = [[] for _ in contexts]
        active = list(range(len(contexts)))
        for _ in range(k):
            pooled: list[np.ndarray] = []
            keep: list[int] = []
            for i in active:
                vec = self._pooled(contexts[i])
                if vec is None:
                    continue
                pooled.append(vec)
                keep.append(i)
            if not keep:
                break
            logits = self.readout_gain * (
                np.stack(pooled) @ self.content_draft.T
            )
            tokens = self.token_map[logits.argmax(axis=1)].tolist()
            for i, token in zip(keep, tokens):
                outs[i].append(token)
                contexts[i].extend((token,))
            active = keep
        for context, length in zip(contexts, entry):
            context.truncate(length)
        return outs


def pruning_report(
    teacher: ModelConfig, embedding_shared: bool = True
) -> PruningReport:
    """The Sec. 7.4 overhead numbers for a teacher config.

    For Llama3-8B-scale teachers this lands at ~40-60MB of retrieval-head
    weights and >90% reduction, matching the paper's "only about 60MB".
    """
    dlm = full_dlm_analog(teacher)
    return PruningReport(
        dlm_params=dlm.total_params(),
        retained_params=dlm.retained_params(embedding_shared=embedding_shared),
    )
