"""Shared fixtures: tiny constructed models, tokenizers, hardware specs,
and an injectable worker-side fault."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvcache.pool import PagedKVPool
from repro.models import (
    AttentionKind,
    SyntheticTokenizer,
    TransformerLM,
    build_recall_model,
    tiny_test_config,
)
from repro.serving.engine import WorkerCore
from repro.utils import RngFactory


@pytest.fixture(scope="session")
def rng_factory() -> RngFactory:
    return RngFactory(20260612)


@pytest.fixture(scope="session")
def tiny_tokenizer() -> SyntheticTokenizer:
    return SyntheticTokenizer(vocab_size=512)


@pytest.fixture(scope="session")
def tiny_gqa_model(tiny_tokenizer, rng_factory) -> TransformerLM:
    config = tiny_test_config(AttentionKind.GQA)
    weights = build_recall_model(
        config, tiny_tokenizer, rng_factory.stream("gqa-weights")
    )
    return TransformerLM(weights)


@pytest.fixture(scope="session")
def tiny_mha_model(tiny_tokenizer, rng_factory) -> TransformerLM:
    config = tiny_test_config(AttentionKind.MHA)
    weights = build_recall_model(
        config, tiny_tokenizer, rng_factory.stream("mha-weights")
    )
    return TransformerLM(weights)


@pytest.fixture(scope="session")
def tiny_mqa_model(tiny_tokenizer, rng_factory) -> TransformerLM:
    config = tiny_test_config(AttentionKind.MQA)
    weights = build_recall_model(
        config, tiny_tokenizer, rng_factory.stream("mqa-weights")
    )
    return TransformerLM(weights)


@pytest.fixture(scope="session")
def tiny_mla_model(tiny_tokenizer, rng_factory) -> TransformerLM:
    config = tiny_test_config(AttentionKind.MLA)
    weights = build_recall_model(
        config, tiny_tokenizer, rng_factory.stream("mla-weights")
    )
    return TransformerLM(weights)


@pytest.fixture
def worker_faults(monkeypatch):
    """Adds a ``fail_next`` worker op: after ``handle.call("fail_next",
    op)`` that worker's next ``op`` raises ``RuntimeError("injected
    <op> failure")`` — an error shipped back by a live worker, not a
    death. Patched before any executor is built, so forked worker
    processes inherit it."""
    real_handle = WorkerCore.handle

    def handle(self, op, args):
        failing = self.__dict__.setdefault("failing_ops", set())
        if op == "fail_next":
            failing.add(args[0])
            return "armed"
        if op in failing:
            failing.discard(op)
            raise RuntimeError(f"injected {op} failure")
        return real_handle(self, op, args)

    monkeypatch.setattr(WorkerCore, "handle", handle)


def make_recall_prompt(
    tokenizer: SyntheticTokenizer,
    rng: np.random.Generator,
    n_pairs: int = 8,
    n_filler: int = 300,
    query_pair: int = 0,
) -> tuple[np.ndarray, int, int]:
    """Context with key/value pairs scattered in filler, plus a query.

    Returns (prompt_ids, expected_value_id, value_position_in_prompt).
    """
    ents = tokenizer.random_content_ids(rng, 2 * n_pairs)
    keys = [int(t) for t in ents[:n_pairs]]
    vals = [int(t) for t in ents[n_pairs:]]
    filler = [int(t) for t in tokenizer.random_filler_ids(rng, n_filler)]
    insert_at = sorted(rng.choice(n_filler, size=n_pairs, replace=False).tolist())

    ids = [tokenizer.bos_id]
    value_pos = {}
    for p in range(n_filler):
        ids.append(filler[p])
        if p in insert_at:
            i = insert_at.index(p)
            ids.append(keys[i])
            ids.append(vals[i])
            value_pos[i] = len(ids) - 1
    ids.extend([tokenizer.question_id, keys[query_pair]])
    return np.array(ids), vals[query_pair], value_pos[query_pair]


def free_order(pool: PagedKVPool) -> list[int]:
    """Every free block id in the order allocations would take them.

    The pool keeps only recycled ids on its LIFO stack; never-touched ids
    follow them, lowest first. This is the top-first reading of the
    eager ``[n-1, ..., 0]`` stack the pool's ids are defined against.
    """
    return pool._free[::-1] + list(range(len(pool._blocks), pool.capacity))
