"""Per-session buffers are sized once, from the request's peak.

A session's dense KV cache is reserved at its first prefill chunk for
``peak_tokens + spec_decode_k`` rows (the bound its draft context uses),
and the retrieval head's K cache is reserved to that capacity when the
head observes the prompt. After that no append and no observe regrows
either, so allocated bytes follow a closed form in ``peak_tokens``.

The five in-process workloads of :mod:`bench.workloads` replay at seed 0
in their ``--tiny`` shapes with a spy on both ``reserve`` methods; each
growth is recorded against the buffer object it grew. ``pool_pressure``
also runs at full size, the smallest shape in which its pool swaps a
session out and resumes it.
"""

from __future__ import annotations

from collections import Counter

import pytest
from bench import harness
from bench.workloads import WORKLOADS

from repro.core.retrieval_head import LightweightRetrievalHead
from repro.experiments.common import make_functional_setup
from repro.kvcache.cache import LayerKVCache
from repro.serving.server import SpeContextServer

IN_PROCESS = sorted(n for n, w in WORKLOADS.items() if w.frontend == "server")


@pytest.fixture(scope="module")
def setup():
    return make_functional_setup()


def _spy(monkeypatch, cls, capacity_of):
    """Record (buffer, old capacity, new capacity) of every real growth."""
    growths = []
    reserve = cls.reserve

    def spy(self, capacity):
        before = capacity_of(self)
        reserve(self, capacity)
        if capacity_of(self) != before:
            growths.append((self, before, capacity_of(self)))

    monkeypatch.setattr(cls, "reserve", spy)
    return growths


def test_every_in_process_workload_is_covered():
    assert IN_PROCESS == [
        "decode_heavy", "pool_pressure", "prefill_heavy", "shared_prefix",
        "spec_mixed",
    ]


@pytest.mark.parametrize(
    "name,tiny",
    [(name, True) for name in IN_PROCESS] + [("pool_pressure", False)],
)
def test_buffers_grow_once_to_the_peak(setup, monkeypatch, name, tiny):
    kv = _spy(monkeypatch, LayerKVCache, lambda c: c.capacity)
    heads = _spy(monkeypatch, LightweightRetrievalHead, lambda h: h._sink.shape[0])
    workload = WORKLOADS[name]
    entries = workload.entries(setup.tokenizer, 0, tiny)
    config = workload.engine_config(setup.tokenizer, entries, tiny)
    server = SpeContextServer(setup.model, config)
    harness.drive_open_loop(server, entries)
    assert len(server.outputs) == len(entries)

    k = config.spec_decode_k
    peaks = Counter(e.prompt_ids.size + e.max_new_tokens + k for e in entries)
    n_layers = setup.model.config.n_layers
    # One growth per layer cache and one per head: nothing regrew later.
    assert all(n == 1 for n in Counter(id(c) for c, _, _ in kv).values())
    assert all(n == 1 for n in Counter(id(h) for h, _, _ in heads).values())
    # Each session's caches were created at the 64-row default and grown
    # to exactly its peak; its head follows the same capacity.
    assert {before for _, before, _ in kv + heads} == {64}
    assert Counter(after for _, _, after in kv) == Counter(
        {peak: n * n_layers for peak, n in peaks.items()}
    )
    assert Counter(after for _, _, after in heads) == peaks
    if not tiny:  # swapped sessions resumed into the caches they had
        assert server.preemption_log and all(
            e.mode == "swap" for e in server.preemption_log
        )
    if name == "spec_mixed":  # multi-row verifies appended into the reserve
        assert server.spec_stats.spec_steps > 0
