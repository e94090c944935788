"""Elastic loading (paper Sec. 5.4).

The GPU holds a fixed-budget staging buffer of selected KV pairs. Between
adjacent decode steps the selections overlap heavily (>80%, Fig. 6b), so
only the set difference ``S_now − S_last`` is transferred; evicted slots
(``S_last − S_now``) are overwritten in place. Under a fixed budget the two
differences have equal size, so loads == evictions every step.

:class:`ElasticTransferTracker` is set algebra over a stream of selections:
it computes per-step transfer volumes and overlap statistics without
touching payloads, and keeps running totals rather than a per-step log.
The serving path feeds one account per session at every committed decode
step and reads it when the request finishes
(``GenerationStats.bytes_transferred`` / ``transfer_reduction`` /
``mean_selection_overlap``), while attention itself gathers the full
budget each step; :mod:`repro.perf.simulate` times elastic loading from
an overlap parameter instead.
"""

from __future__ import annotations

from array import array
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
    total_bytes: int = 0
    selected_tokens: int = 0  # sum of |S_now|: what full reloads would move
    # Each step's overlap fraction, 8 bytes a step: ``mean_overlap`` is an
    # ``np.mean`` over exactly these float64 values.
    _overlaps: array = field(default_factory=lambda: array("d"), repr=False)
    # Previous step's set as a boolean mask over token positions.
    _last: np.ndarray | None = field(default=None, repr=False, compare=False)

    def observe(self, selection: np.ndarray) -> StepTransfer:
        """Record one step's selection (any shape; flattened to a set of
        non-negative token positions).

        The set algebra runs on boolean position masks: a selection is a
        few hundred positions of a context at most a few thousand long,
        so marking and counting beat ``np.unique``'s sort.
        """
        flat = np.asarray(selection).ravel()
        now = np.zeros(0, dtype=bool)
        if flat.size:
            if flat.min() < 0:
                raise ValueError(f"negative token position {int(flat.min())}")
            now = np.zeros(int(flat.max()) + 1, dtype=bool)
            now[flat] = True
        size = int(np.count_nonzero(now))
        last = self._last
        if last is None:
            shared = last_size = 0
        else:
            span = min(now.size, last.size)
            shared = int(np.count_nonzero(now[:span] & last[:span]))
            last_size = int(np.count_nonzero(last))
        if last is None or not self.elastic:
            loaded = size
            evicted = last_size
        else:
            loaded = size - shared
            evicted = last_size - shared
        step = StepTransfer(
            loaded_tokens=loaded,
            evicted_tokens=evicted,
            bytes_moved=loaded * self.bytes_per_token,
            overlap_fraction=shared / max(size, 1),
            selection_size=size,
        )
        self.total_bytes += step.bytes_moved
        self.selected_tokens += size
        self._overlaps.append(step.overlap_fraction)
        self._last = now
        return step

    @property
    def mean_overlap(self) -> float:
        """Mean adjacent-step overlap, excluding the cold first step."""
        if len(self._overlaps) < 2:
            return 0.0
        return float(np.mean(self._overlaps[1:]))

    def transfer_reduction_vs_full_reload(self) -> float:
        """Fraction of bytes saved relative to reloading |S_now| every step."""
        full = self.selected_tokens * self.bytes_per_token
        if full == 0:
            return 0.0
        return 1.0 - self.total_bytes / full
