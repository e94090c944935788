"""The six workloads: frozen shapes, seeded contents.

A workload fixes everything an optimisation could be sensitive to (request
counts, prompt and output lengths, budgets, arrival steps, engine knobs)
and draws only the *contents* — which words, where the evidence sits —
from ``--seed``. Batch composition is therefore the same for every seed
and every run; what differs between seeds is the text, and what differs
between runs of one seed is timing noise alone.

Prompts come from :mod:`repro.workloads` (LongWriter / LongBench shaped),
so every scored output has a reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api.config import ClusterConfig, EngineConfig, SamplingParams
from repro.api.request import GenerationRequest
from repro.core.retrieval_head import RetrievalHeadConfig
from repro.experiments.common import DEFAULT_HEAD_NOISE
from repro.models.tokenizer import SyntheticTokenizer
from repro.workloads import (
    EntityPool,
    QAExample,
    WritingExample,
    generate_examples,
    judge_generation,
    make_writing_example,
    score_qa,
    weave_context,
)

BLOCK_SIZE = 16  # EngineConfig.block_size default; pool sizing below uses it


@dataclass(frozen=True)
class Entry:
    """One request of a workload, with the reference it is scored against."""

    arrival_step: int
    prompt_ids: np.ndarray
    max_new_tokens: int
    reference: WritingExample | QAExample | None = None

    def request(self) -> GenerationRequest:
        # No stop ids: the token cap alone ends every stream, so token
        # volume and batch composition are the same for every seed.
        return GenerationRequest(
            self.prompt_ids,
            sampling=SamplingParams(max_new_tokens=self.max_new_tokens),
        )

    def quality(self, token_ids: list[int]) -> float | None:
        """Task score in [0, 1], or None for a request with no reference.

        A writing task is judged on the stream up to its first ``<sep>`` —
        what a stop-on-``<sep>`` run would have returned, since greedy
        decoding makes that run a prefix of this one. The six judge
        dimensions (each 0-5) are averaged and scaled to [0, 1] so writing
        and QA scores mix in one mean.
        """
        if isinstance(self.reference, WritingExample):
            stops = set(self.reference.stop_ids)
            cut = next(
                (i + 1 for i, t in enumerate(token_ids) if t in stops),
                len(token_ids),
            )
            return judge_generation(token_ids[:cut], self.reference).average / 5.0
        if isinstance(self.reference, QAExample):
            return score_qa(self.reference, token_ids)
        return None


@dataclass(frozen=True)
class Workload:
    """A named traffic mix plus the engine configuration it runs under."""

    name: str
    why: str
    frontend: str  # "server": in-process open loop; "http": closed loop over a socket
    shapes: dict[str, int]
    tiny: dict[str, int]
    build: Callable[[SyntheticTokenizer, np.random.Generator, dict], list[Entry]]
    engine: dict = field(default_factory=dict)

    def shape(self, tiny: bool) -> dict[str, int]:
        return {**self.shapes, **self.tiny} if tiny else dict(self.shapes)

    def entries(
        self, tokenizer: SyntheticTokenizer, seed: int, tiny: bool = False
    ) -> list[Entry]:
        """The request list for ``seed``, ordered by arrival step."""
        rng = np.random.default_rng([seed, _name_key(self.name)])
        entries = self.build(tokenizer, rng, self.shape(tiny))
        return sorted(entries, key=lambda e: e.arrival_step)

    def engine_config(
        self, tokenizer: SyntheticTokenizer, entries: list[Entry], tiny: bool = False
    ) -> EngineConfig:
        """The paper's policy, plus this workload's serving knobs."""
        shape = self.shape(tiny)
        opts = dict(self.engine)
        pool_share = opts.pop("pool_share_of_peak", None)
        if pool_share is not None:
            peak = sum(
                -(-(e.prompt_ids.size + e.max_new_tokens) // BLOCK_SIZE)
                for e in entries
            )
            opts["pool_blocks"] = max(int(pool_share * peak), 1)
        for knob in ("prefill_chunk_tokens", "max_step_tokens"):
            if knob in shape:
                opts[knob] = shape[knob]
        return EngineConfig(
            budget=shape["budget"],
            policy="specontext",
            selection_level="head",
            elastic=True,
            bos_id=tokenizer.bos_id,
            head_config=RetrievalHeadConfig(noise=DEFAULT_HEAD_NOISE),
            max_concurrency=shape["max_concurrency"],
            **opts,
        )

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(n_replicas=2, router="least_loaded", executor="multiproc")


def _name_key(name: str) -> int:
    """Stable per-workload stream key (``hash()`` is salted per process)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


def inputs_digest(entries: list[Entry]) -> str:
    """Content hash of a request list: same seed, same bytes."""
    h = hashlib.sha256()
    for e in entries:
        h.update(np.int64(e.arrival_step).tobytes())
        h.update(np.int64(e.max_new_tokens).tobytes())
        h.update(np.asarray(e.prompt_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


# ---- builders ---------------------------------------------------------------


def _writing(tokenizer, rng, n_sections, section_len, prompt_len) -> WritingExample:
    # make_writing_example appends "<q> t0" to the woven outline.
    return make_writing_example(
        tokenizer,
        rng,
        n_sections=n_sections,
        section_len=section_len,
        prompt_len=prompt_len - 2,
    )


def _writing_entry(example: WritingExample, arrival_step: int = 0) -> Entry:
    # The cap is the reference length: a generation that follows the plan
    # ends on <sep> exactly there.
    return Entry(
        arrival_step=arrival_step,
        prompt_ids=example.prompt_ids,
        max_new_tokens=len(example.reference_chain),
        reference=example,
    )


def _build_writing(tokenizer, rng, s) -> list[Entry]:
    return [
        _writing_entry(
            _writing(tokenizer, rng, s["sections"], s["section_len"], s["prompt_len"])
        )
        for _ in range(s["requests"])
    ]


def _build_prefill_heavy(tokenizer, rng, s) -> list[Entry]:
    entries = [
        _writing_entry(
            _writing(
                tokenizer, rng, s["short_sections"], s["short_section_len"],
                s["short_prompt_len"],
            )
        )
        for _ in range(s["short_requests"])
    ]
    tasks = ("trivia", "2wikimqa", "hotpotqa")
    for i in range(s["long_requests"]):
        (qa,) = generate_examples(
            tasks[i % len(tasks)], tokenizer, rng, 1,
            context_len=s["long_prompt_len"] - 2,
        )
        entries.append(
            Entry(
                arrival_step=1 + s["long_every_steps"] * i,
                prompt_ids=qa.prompt_ids,
                max_new_tokens=qa.max_new_tokens,
                reference=qa,
            )
        )
    return entries


def _build_shared_prefix(tokenizer, rng, s) -> list[Entry]:
    """Questions over a few shared documents, each document a fact sheet.

    Every question's prompt is ``document + <q> key``, so all questions on
    one document share its whole token prefix. Arrival steps and the
    question → document assignment are frozen (drawn from a fixed stream),
    so prefix hits and batch composition do not move with the seed.
    """
    per_doc = s["requests"] // s["documents"]
    schedule = np.random.default_rng(s["schedule_key"])
    gaps = schedule.exponential(s["mean_interarrival_steps"], size=s["requests"])
    arrivals = np.floor(np.cumsum(gaps) - gaps[0]).astype(int)
    order = schedule.permutation(s["requests"])
    questions: list[tuple[list[int], int, list[int], tuple[int, ...]]] = []
    for _ in range(s["documents"]):
        pool = EntityPool(tokenizer, rng)
        facts = []
        for _ in range(per_doc):
            key, *answer = pool.take(1 + s["answer_len"])
            facts.append([key] + answer)
        doc_ids, starts = weave_context(tokenizer, rng, facts, s["document_len"])
        for fact, start in zip(facts, starts):
            evidence = tuple(range(start, start + len(fact)))
            questions.append((doc_ids, fact[0], fact[1:], evidence))
    entries = []
    for slot, q in enumerate(order):
        doc_ids, key, answer, evidence = questions[int(q)]
        qa = QAExample(
            task="trivia",
            prompt_ids=np.array(
                doc_ids + [tokenizer.question_id, key], dtype=np.int64
            ),
            answer_ids=tuple(answer),
            max_new_tokens=len(answer),
            evidence_positions=evidence,
        )
        entries.append(
            Entry(
                arrival_step=int(arrivals[slot]),
                prompt_ids=qa.prompt_ids,
                max_new_tokens=qa.max_new_tokens,
                reference=qa,
            )
        )
    return entries


def _build_spec_mixed(tokenizer, rng, s) -> list[Entry]:
    entries = _build_writing(tokenizer, rng, {**s, "requests": s["chain_requests"]})
    max_new = entries[0].max_new_tokens
    for _ in range(s["random_requests"]):
        # Unrepeated content words: no planted chain for the draft model's
        # induction readout to follow, and no reference to score against.
        body = tokenizer.random_content_ids(rng, s["prompt_len"] - 1)
        entries.append(
            Entry(
                arrival_step=0,
                prompt_ids=np.array([tokenizer.bos_id, *body], dtype=np.int64),
                max_new_tokens=max_new,
            )
        )
    return entries


def _build_http_stream(tokenizer, rng, s) -> list[Entry]:
    # Prompt lengths are part of the shape: a fixed stream, not the seed.
    lengths = np.random.default_rng(s["schedule_key"]).integers(
        s["prompt_len_min"], s["prompt_len_max"] + 1, size=s["requests"]
    )
    entries = []
    for i, prompt_len in enumerate(lengths):
        example = _writing(
            tokenizer, rng, s["sections"], s["section_len"], int(prompt_len)
        )
        # arrival_step is only the order here: the loop is closed.
        entries.append(_writing_entry(example, arrival_step=i))
    return entries


# ---- the suite --------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decode_heavy",
            why="8 long LongWriter generations at budget 128: KV gather and "
            "retrieval-head pre_step dominate; prefill, pool and transport idle",
            frontend="server",
            shapes=dict(
                requests=8, prompt_len=448, sections=10, section_len=14,
                budget=128, max_concurrency=8,
            ),
            tiny=dict(requests=2, prompt_len=96, sections=2, section_len=6, budget=32),
            build=_build_writing,
        ),
        Workload(
            name="prefill_heavy",
            why="2 chunked 1536-token QA prompts beside 6 short sessions: "
            "attention prefill dominates, retrieval select idles, head-of-line "
            "delay shows in the short sessions' token gaps",
            frontend="server",
            shapes=dict(
                long_requests=2, long_prompt_len=1536, long_every_steps=2,
                short_requests=6, short_prompt_len=160, short_sections=8,
                short_section_len=10, budget=256, max_concurrency=12,
                prefill_chunk_tokens=256, max_step_tokens=512,
            ),
            tiny=dict(
                long_requests=2, long_prompt_len=256, short_requests=2,
                short_prompt_len=64, short_sections=2, short_section_len=4,
                budget=48, prefill_chunk_tokens=64, max_step_tokens=128,
            ),
            build=_build_prefill_heavy,
        ),
        Workload(
            name="shared_prefix",
            why="48 questions over 4 shared 512-token documents, roomy pool: "
            "the pool is read (match, acquire, gather_chain) and prefix hits "
            "decide how much prefill happens at all",
            frontend="server",
            shapes=dict(
                requests=48, documents=4, document_len=512, answer_len=12,
                mean_interarrival_steps=1.0, schedule_key=20260927,
                budget=128, max_concurrency=8,
            ),
            tiny=dict(requests=8, documents=2, document_len=128, answer_len=4, budget=32),
            build=_build_shared_prefix,
        ),
        Workload(
            name="pool_pressure",
            why="16 unshared sessions in a pool of 55% of peak demand, swap "
            "preemption: the pool is written (allocate, free, evict, swap) "
            "with zero prefix hits; the write side of shared_prefix",
            frontend="server",
            shapes=dict(
                requests=16, prompt_len=320, sections=6, section_len=12,
                budget=128, max_concurrency=16,
            ),
            tiny=dict(requests=4, prompt_len=96, sections=2, section_len=6, budget=32),
            build=_build_writing,
            engine=dict(pool_share_of_peak=0.55, preempt_mode="swap"),
        ),
        Workload(
            name="spec_mixed",
            why="spec_decode_k=4 over 8 copy-chains and 8 random-content prompts: "
            "multi-row verify, spec block reservations and policy rollback; "
            "the only workload where the draft model is busy",
            frontend="server",
            shapes=dict(
                chain_requests=8, random_requests=8, prompt_len=160,
                sections=8, section_len=10, budget=128, max_concurrency=16,
            ),
            tiny=dict(
                chain_requests=2, random_requests=2, prompt_len=64,
                sections=2, section_len=5, budget=32,
            ),
            build=_build_spec_mixed,
            engine=dict(spec_decode_k=4),
        ),
        Workload(
            name="http_stream",
            why="closed loop, 1 client, streaming completions over a real "
            "socket through AsyncEngine and a 2-worker MultiprocExecutor: "
            "transport layers are the largest share of each token",
            frontend="http",
            shapes=dict(
                requests=36, prompt_len_min=64, prompt_len_max=128,
                schedule_key=20260927, sections=4, section_len=10, budget=128,
                max_concurrency=8,
            ),
            tiny=dict(requests=3, prompt_len_min=48, prompt_len_max=64,
                      sections=2, section_len=4, budget=32),
            build=_build_http_stream,
        ),
    )
}
