"""Elastic loading (paper Sec. 5.4).

The GPU holds a fixed-budget staging buffer of selected KV pairs. Between
adjacent decode steps the selections overlap heavily (>80%, Fig. 6b), so
only the set difference ``S_now − S_last`` is transferred; evicted slots
(``S_last − S_now``) are overwritten in place. Under a fixed budget the two
differences have equal size, so loads == evictions every step.

:class:`ElasticTransferTracker` is set algebra over a stream of selections:
it computes per-step transfer volumes and overlap statistics without
touching payloads. The serving path reads it for every finished request
(``GenerationStats.bytes_transferred`` / ``transfer_reduction`` /
``mean_selection_overlap``) while attention itself gathers the full budget
each step; :mod:`repro.perf.simulate` times elastic loading from an
overlap parameter instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepTransfer:
    """Per-step transfer accounting."""

    loaded_tokens: int
    evicted_tokens: int
    bytes_moved: int
    overlap_fraction: float  # |S_now & S_last| / |S_now|
    selection_size: int = 0


@dataclass
class ElasticTransferTracker:
    """Set-difference accounting over a stream of per-head selections.

    ``bytes_per_token`` is the K+V footprint of one token in one layer
    (all KV heads); multiply by layers outside if tracking a whole model.

    The accounting unit is the token. A 2-D (head-level) selection is
    flattened to the union over heads, and a token that any head selects
    is charged the full ``bytes_per_token`` once. Per-head gathers that
    differ across heads are therefore not modelled.
    """

    bytes_per_token: int
    elastic: bool = True  # False models naive full reload each step
    steps: list[StepTransfer] = field(default_factory=list)
    # Previous step's sorted unique indices.
    _last: np.ndarray | None = field(default=None, repr=False, compare=False)

    def observe(self, selection: np.ndarray) -> StepTransfer:
        """Record one step's selection (any shape; flattened to a set)."""
        now = np.unique(np.asarray(selection))
        last = self._last
        shared = (
            0 if last is None
            else np.intersect1d(now, last, assume_unique=True).size
        )
        if last is None or not self.elastic:
            loaded = now.size
            evicted = 0 if last is None else last.size
        else:
            loaded = now.size - shared
            evicted = last.size - shared
        step = StepTransfer(
            loaded_tokens=loaded,
            evicted_tokens=evicted,
            bytes_moved=loaded * self.bytes_per_token,
            overlap_fraction=shared / max(now.size, 1),
            selection_size=now.size,
        )
        self.steps.append(step)
        self._last = now
        return step

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_moved for s in self.steps)

    @property
    def mean_overlap(self) -> float:
        """Mean adjacent-step overlap, excluding the cold first step."""
        tail = self.steps[1:]
        if not tail:
            return 0.0
        return float(np.mean([s.overlap_fraction for s in tail]))

    def transfer_reduction_vs_full_reload(self) -> float:
        """Fraction of bytes saved relative to reloading |S_now| every step."""
        full = sum(s.selection_size for s in self.steps) * self.bytes_per_token
        if full == 0:
            return 0.0
        return 1.0 - self.total_bytes / full
