"""Common machinery for budgeted KV-selection policies.

``BudgetedPolicy`` handles the lifecycle shared by all dynamic-selection
baselines: remembering the prompt boundary at ``begin_generation``, running
subclass preprocessing over the prompt cache, combining the per-head prompt
selection with the always-retained generated tokens, and tracking the draft
offset of each speculative ``select`` so subclasses with cross-step state
can roll back rejected positions.
"""

from __future__ import annotations

import numpy as np

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.models.config import AttentionKind
from repro.models.llm import TransformerLM


class BudgetedPolicy:
    """Base class for per-layer dynamic selection with a token budget.

    Subclasses implement ``_prepare(cache)`` (preprocessing after prefill)
    and ``_select_prompt(layer, queries, cache)`` returning per-head indices
    into the *prompt* region, shaped (n_sel_heads, budget).

    ``retain_generated=True`` reproduces the baselines' Challenge-2
    behaviour: tokens generated during decode are always attended and are
    never candidates for eviction.
    """

    def __init__(
        self, model: TransformerLM, budget: int, retain_generated: bool = True
    ):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.model = model
        self.config = model.config
        self.budget = budget
        self.retain_generated = retain_generated
        self.prompt_len = 0
        self._spec_mode = False
        self._spec_base: int | None = None
        self._spec_t = 0
        if self.config.attention is AttentionKind.MLA and not self.supports_mla():
            raise NotImplementedError(
                f"{type(self).__name__} operates on the K cache and does not "
                "support MLA latent caches (matches the paper's 'None Support' "
                "entries); use SpeContext's retrieval head instead"
            )

    # ---- protocol ------------------------------------------------------------

    def reset(self) -> None:
        """Clear per-request bookkeeping so the policy can be reused.

        Subclass preprocessing state is rebuilt by the next
        ``begin_generation``.
        """
        self.prompt_len = 0
        self._spec_mode = False
        self._spec_base = None
        self._spec_t = 0

    def begin_generation(self, prompt_ids: np.ndarray, cache: ModelKVCache) -> None:
        """Capture the prompt boundary and run subclass preprocessing."""
        self.prompt_len = cache.seq_len
        self._prepare(cache)

    def pre_step(self, step: int, token_id: int, cache: ModelKVCache) -> None:
        pass

    def spec_begin(self) -> None:
        """Arm speculative mode: tag each ``select`` with its draft offset.

        Between ``spec_begin`` and ``spec_commit`` the policy sees the usual
        ``pre_step``/``select`` call sequence for every verified position;
        subclasses that mutate state in ``_select_prompt`` key it by
        ``_spec_t`` so the rejected suffix can be undone bit-exactly.
        """
        self._spec_mode = True
        self._spec_base = None
        self._spec_t = 0

    def spec_commit(self, m: int) -> None:
        """Keep the first ``m`` speculative positions' effects; undo the rest.

        After this call the policy state is bit-identical to having decoded
        the ``m`` committed tokens sequentially and never drafted at all.
        The base class keeps no per-position state; subclasses that do
        override this and call it last.
        """
        if not self._spec_mode:
            raise RuntimeError("spec_commit without spec_begin")
        if m < 1:
            raise ValueError(f"must commit at least the verified row 0, got m={m}")
        self._spec_mode = False
        self._spec_base = None

    def select(
        self, layer: int, hidden: np.ndarray, position: int, cache: LayerKVCache
    ) -> np.ndarray | None:
        """Per-layer selection: budgeted prompt tokens + retained new tokens."""
        if self._spec_mode:
            # Fused verify calls selects layer-major, ascending position; the
            # first call is the session's base position (cache length at
            # verify entry, == select-time cache length, same as sequential).
            if self._spec_base is None:
                self._spec_base = position
            self._spec_t = position - self._spec_base
        prompt_candidates = min(self.prompt_len, len(cache))
        if prompt_candidates <= self.budget:
            return None  # the whole prompt fits in the budget: full attention
        queries = self.model.layers[layer].attention.selection_queries(hidden, position)
        prompt_sel = self._select_prompt(layer, queries, cache)
        prompt_sel = np.asarray(prompt_sel)
        if prompt_sel.ndim == 1:
            prompt_sel = np.broadcast_to(
                prompt_sel, (queries.shape[0], prompt_sel.shape[0])
            )
        return self._append_generated(prompt_sel, len(cache))

    # ---- subclass hooks --------------------------------------------------------

    def supports_mla(self) -> bool:
        """Whether the policy can score an MLA latent cache."""
        return False

    def _prepare(self, cache: ModelKVCache) -> None:
        """Preprocess the prompt KV cache (paging/clustering/quantization)."""

    def _select_prompt(
        self, layer: int, queries: np.ndarray, cache: LayerKVCache
    ) -> np.ndarray:
        raise NotImplementedError

    # ---- helpers ---------------------------------------------------------------

    def _append_generated(self, prompt_sel: np.ndarray, cache_len: int) -> np.ndarray:
        """Union the retained decode-phase tokens into every head's set."""
        if not self.retain_generated or cache_len <= self.prompt_len:
            return prompt_sel
        generated = np.arange(self.prompt_len, cache_len)
        tail = np.broadcast_to(generated, (prompt_sel.shape[0], generated.shape[0]))
        return np.concatenate([prompt_sel, tail], axis=1)

    def prompt_keys(self, cache: LayerKVCache) -> np.ndarray:
        """Prompt-region keys upcast to float64, shape (n_kv_heads,
        prompt_len, head_dim): the one read of cached keys every
        policy's scoring arithmetic goes through."""
        return cache.keys[0][:, : self.prompt_len, :].astype(np.float64)
