"""Adaptive memory management at runtime — Algorithm 2 (paper Sec. 6.2.1).

As the sequence grows during reasoning, the manager consults the
precomputed thresholds (Algorithm 1) and progressively offloads the KV
cache of trailing layers (last layer first: layer L-1, then L-2, ...) to
CPU DRAM, keeping as many layers GPU-resident as the memory model allows.

The manager is pure control logic: callers give it the current sequence
length and it returns which layers to offload, each event carrying the
bytes the layer's KV cache frees. The serving path attributes those events
to the requests whose growth triggered them, and admission control reads
the same thresholds through :meth:`AdaptiveMemoryManager.admits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.memory_model import MemoryModel


@dataclass(frozen=True)
class OffloadEvent:
    """One layer's KV cache moving to the CPU at a specific length."""

    layer: int
    seq_len: int
    bytes_freed: int


@dataclass
class AdaptiveMemoryManager:
    """Tracks L_CPU/L_GPU against the threshold list during decoding."""

    memory_model: MemoryModel
    layers_on_cpu: int = 0
    events: list[OffloadEvent] = field(default_factory=list)
    _thresholds: list[int] = field(default_factory=list)

    def __post_init__(self):
        self._thresholds = self.memory_model.sequence_thresholds()

    def reset(self) -> None:
        """Return to the all-on-GPU state without recomputing thresholds.

        The Algorithm-1 threshold list depends only on (model, hardware,
        budget), so a server reuses one manager across requests and resets
        the runtime state between busy periods.
        """
        self.layers_on_cpu = 0
        self.events.clear()

    @property
    def n_layers(self) -> int:
        return self.memory_model.model.n_layers

    @property
    def layers_on_gpu(self) -> int:
        return self.n_layers - self.layers_on_cpu

    def thresholds(self) -> list[int]:
        """The Algorithm 1 threshold list S_T[0..L]."""
        return list(self._thresholds)

    def capacity_tokens(self) -> int:
        """Largest aggregate sequence length the GPU can serve at all.

        ``S_T[L]`` — the Algorithm-1 threshold with every layer offloaded —
        is the hard ceiling on the summed KV footprint of co-resident
        requests. Beyond it no placement fits, so it is the natural
        admission-control bound for a shared server.
        """
        return self._thresholds[self.n_layers]

    def admits(self, aggregate_len: int) -> bool:
        """Admission-control hook: can ``aggregate_len`` tokens be served?

        The server projects the summed KV footprint of the active sessions
        plus a candidate request (prompt and full generation budget) and
        defers admission while the projection exceeds the thresholds,
        instead of gating on a bare concurrency count.
        """
        return aggregate_len <= self.capacity_tokens()

    def required_offloads(self, seq_len: int) -> int:
        """Smallest L_CPU whose threshold accommodates ``seq_len``."""
        for i in range(self.n_layers + 1):
            if seq_len < self._thresholds[i]:
                return i
        return self.n_layers

    def advance(self, seq_len: int) -> list[OffloadEvent]:
        """Algorithm 2's inner while-loop for the current sequence length.

        Offloads additional trailing layers until ``seq_len < S_T[L_CPU]``
        (or all layers are offloaded). Returns the offload events triggered;
        each frees one layer's KV footprint at ``seq_len`` for every request.
        """
        new_events: list[OffloadEvent] = []
        while (
            self.layers_on_cpu < self.n_layers
            and seq_len >= self._thresholds[self.layers_on_cpu]
        ):
            layer = self.n_layers - self.layers_on_cpu - 1  # offload last first
            freed = (
                self.memory_model.model.kv_bytes_per_token_layer()
                * seq_len
                * self.memory_model.requests
            )
            event = OffloadEvent(layer=layer, seq_len=seq_len, bytes_freed=freed)
            new_events.append(event)
            self.events.append(event)
            self.layers_on_cpu += 1
        return new_events

