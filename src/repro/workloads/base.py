"""Shared example types and the context-weaving builder.

All benchmark generators produce token-level examples over the
:class:`~repro.models.tokenizer.SyntheticTokenizer`'s closed vocabulary.
Facts are short entity chains ("key v1 v2 v3") planted at random positions
inside filler prose; the constructed recall models answer by following the
chain with their induction heads, so an example is solved iff KV selection
keeps the evidence tokens — the causal link the paper's accuracy
experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.tokenizer import SyntheticTokenizer


@dataclass(frozen=True)
class QAExample:
    """One question-answering example.

    Attributes:
        task: generator name ("trivia", "2wikimqa", ...).
        prompt_ids: full prompt including the trailing question key.
        answer_ids: gold answer token chain.
        max_new_tokens: decoding length cap.
        stop_ids: tokens that terminate generation (may be empty).
        evidence_positions: prompt indices of the planted evidence tokens
            (used by retrieval hit-rate analyses, Fig. 5).
        meta: generator-specific extras (e.g. true passage count).
    """

    task: str
    prompt_ids: np.ndarray
    answer_ids: tuple[int, ...]
    max_new_tokens: int
    stop_ids: tuple[int, ...] = ()
    evidence_positions: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict)

    @property
    def prompt_len(self) -> int:
        return int(self.prompt_ids.size)


class EntityPool:
    """Draws disjoint content-word ids for one example.

    Every entity in an example must be unique so that answer chains do not
    collide (a content token appearing twice with different successors
    would blur the induction circuit's evidence).
    """

    def __init__(self, tokenizer: SyntheticTokenizer, rng: np.random.Generator):
        self._ids = list(
            tokenizer.random_content_ids(rng, tokenizer.n_content, replace=False)
        )
        self._next = 0

    def take(self, n: int) -> list[int]:
        """Pop ``n`` fresh entity ids."""
        if self._next + n > len(self._ids):
            raise ValueError(
                f"example needs {self._next + n} distinct entities but the "
                f"vocabulary only has {len(self._ids)} content words; "
                f"increase vocab_size or reduce distractors"
            )
        out = self._ids[self._next : self._next + n]
        self._next += n
        return [int(i) for i in out]

    @property
    def used(self) -> int:
        return self._next


def weave_context(
    tokenizer: SyntheticTokenizer,
    rng: np.random.Generator,
    segments: list[list[int]],
    context_len: int,
    shuffle: bool = True,
) -> tuple[list[int], list[int]]:
    """Embed ``segments`` in filler prose totalling ``context_len`` tokens.

    Returns (token ids, start position of each segment in the *original*
    segment order). The layout is ``<bos> filler seg filler seg ... filler``.
    """
    order = list(range(len(segments)))
    if shuffle:
        rng.shuffle(order)
    seg_total = sum(len(segments[i]) for i in order)
    filler_total = context_len - seg_total - 1  # minus <bos>
    if filler_total < len(segments) + 1:
        raise ValueError(
            f"context_len {context_len} too small for {seg_total} segment "
            f"tokens plus filler"
        )
    # Split the filler budget into len(segments)+1 runs, each >= 1 token so
    # no two segments fuse into an accidental longer chain.
    n_runs = len(segments) + 1
    cuts = np.sort(rng.choice(filler_total - n_runs, size=n_runs - 1, replace=False))
    runs = np.diff(np.concatenate([[0], cuts + np.arange(1, n_runs), [filler_total]]))

    ids: list[int] = [tokenizer.bos_id]
    starts = [0] * len(segments)
    for slot, seg_index in enumerate(order):
        ids.extend(int(t) for t in tokenizer.random_filler_ids(rng, int(runs[slot])))
        starts[seg_index] = len(ids)
        ids.extend(segments[seg_index])
    ids.extend(int(t) for t in tokenizer.random_filler_ids(rng, int(runs[-1])))
    if len(ids) != context_len:
        raise AssertionError(
            f"woven context is {len(ids)} tokens, expected {context_len}"
        )
    return ids, starts
