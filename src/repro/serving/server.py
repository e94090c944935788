"""SpeContextServer: continuous batching over a shared paged KV pool.

The server runs **actual numpy inference** for many concurrent sessions,
with the memory discipline of a production engine:

- ``add_request`` enqueues a :class:`~repro.api.request.GenerationRequest`;
  admission is gated by the shared :class:`~repro.kvcache.pool.PagedKVPool`
  and the :class:`~repro.core.adaptive.AdaptiveMemoryManager`'s Algorithm-1
  capacity (``max_concurrency`` remains only a hard cap on top);
- every session's KV footprint is block-accounted in the pool; full prompt
  blocks are **prefix-cached** so requests sharing a prompt prefix re-use
  resident blocks and skip recomputing the teacher's prefill for them —
  never changing logits, because the reused KV values are exactly what
  prefill would have produced;
- on pool exhaustion the scheduler policy (``fcfs`` / ``priority`` /
  ``sjf``, see :mod:`repro.serving.policies`) picks a victim to **preempt**:
  its blocks are freed and the session is requeued, either with its cache
  stashed host-side (``preempt_mode="swap"``) or dropped, to be rebuilt
  from the prompt on resume (``preempt_mode="recompute"``). Both modes
  resume bit-identically for every policy: each policy's state is a
  function of the tokens it has seen;
- prompt prefill is **chunked**: an admitted session joins the active
  set before its prompt is in (``prefill_done`` is False until the last
  chunk lands) and its prompt lands chunk by chunk, each chunk
  claiming and prefix-publishing the pool blocks it fills (a later
  request can hit blocks of a still-prefilling peer). A token's KV
  depends only on its predecessors — the same argument behind the prefix
  cache — so the chunk size never changes a token.
  ``prefill_chunk_tokens`` is that size: ``None`` (default) is one chunk
  covering the whole prompt, run inline at admission; a number streams
  the prompt in over several steps under a per-step token budget
  (``max_step_tokens``) shared with the decode wave, so one long-prompt
  arrival no longer freezes every active decode for its whole prefill,
  and mid-prefill preemption resumes at the correct chunk in both
  preempt modes. A recompute-resume rebuilds its cache through the same
  chunk path and then replays its generated tokens as forced decodes;
- every session leaves its queue through one exit (``_detach``: abort,
  export, deadline expiry, preemption, finish) that frees its blocks,
  and every request is charged the same KV footprint,
  :attr:`~repro.api.request.GenerationRequest.peak_tokens`, by
  admission, load reporting and migration;
- ``step`` admits, ensures capacity, then runs **one decode step for every
  ready session** — continuous batching at step granularity — and emits
  per-token :class:`StreamEvent`s drainable via :meth:`pop_stream_events`.
  Sessions decode in fused *waves* (stacked hidden states, row-batched
  GEMMs, selection-shape-grouped attention; see
  :meth:`repro.models.llm.TransformerLM.decode_step_batch`). A wave
  grows until a block reservation would need eviction or preemption — a
  whole step under no pressure. The numeric reference is
  :meth:`repro.models.llm.TransformerLM.generate`;
- ``run`` steps until the queue drains and returns per-request
  :class:`~repro.api.request.GenerationOutput`s.

System accounting: per-session elastic transfer statistics, fed once
per committed decode step (``_account``) into running totals and
reported per request in :class:`~repro.api.request.GenerationStats` —
a session keeps no per-step selections, only a running selection digest
(:meth:`~repro.models.llm.DecodeResult.fold_selections`) — a shared
adaptive memory manager walking the Algorithm-1 thresholds against the
aggregate KV footprint, and completions feeding a
:class:`~repro.serving.meter.ThroughputMeter` on a step-count virtual
clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import EngineConfig, SamplingParams
from repro.api.errors import (
    DeadlineExceededError,
    InvalidPromptError,
    OverloadedError,
    PromptTooLongError,
    RequestValidationError,
)
from repro.api.request import GenerationOutput, GenerationRequest, GenerationStats
from repro.core.adaptive import AdaptiveMemoryManager, OffloadEvent
from repro.core.elastic import ElasticTransferTracker
from repro.core.memory_model import MemoryModel
from repro.core.retrieval_head import LightweightRetrievalHead, SpeContextPolicy
from repro.distill.dlm import DraftContext, DraftModel
from repro.kvcache.cache import ModelKVCache
from repro.kvcache.pool import (
    BlockChainExport,
    BlockTable,
    PagedKVPool,
    PoolExhausted,
)
from repro.models.llm import DecodeResult, SelectionPolicy, TransformerLM
from repro.retrieval.registry import make_policy, resolve_policy_name
from repro.serving.meter import RequestRecord, ThroughputMeter
from repro.serving.policies import (
    ADMISSIONS,
    SCHEDULERS,
    AdmissionController,
    SchedulerPolicy,
)
from repro.tensor.ops import softmax


@dataclass(frozen=True)
class StreamEvent:
    """One generated token, emitted at the step that produced it.

    A terminal *error* event (deadline expiry) carries ``token_id == -1``,
    ``finished=True`` and the error code in ``error``; it is not a
    generated token and consumers comparing token streams must exclude it.
    """

    request_id: int
    step: int
    token_id: int
    finished: bool
    error: str | None = None


@dataclass(frozen=True)
class RequestFailure:
    """One request terminated with a typed error instead of an output.

    The in-band error record paired with a terminal
    :class:`StreamEvent`: the server appends one per expired request,
    executors forward them (translated to global ids) and the HTTP layer
    turns them into structured 408/504 responses. Exactly one failure is
    recorded per failed request — failover resubmission drops failed
    requests from the in-flight set, so a replayed worker cannot re-fail
    them.
    """

    request_id: int
    code: str
    message: str
    http_status: int
    clock: float


@dataclass
class SpecDecodeStats:
    """Server-wide speculative-decoding counters.

    Kept on the server (not on per-request :class:`GenerationStats`) so
    speculative runs produce per-request stats bit-identical to
    non-speculative references; acceptance telemetry is observability on
    the side, mirroring how the pool keeps its own counters.
    """

    spec_steps: int = 0  # fused draft-verify passes executed
    drafted: int = 0  # draft tokens proposed to the verifier
    accepted: int = 0  # draft tokens accepted (excludes bonus tokens)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the target model accepted."""
        if self.drafted == 0:
            return 0.0
        return self.accepted / self.drafted

    @property
    def tokens_per_spec_step(self) -> float:
        """Mean tokens committed per verify pass (>= 1.0; 1.0 = no wins)."""
        if self.spec_steps == 0:
            return 0.0
        return (self.spec_steps + self.accepted) / self.spec_steps


@dataclass(frozen=True)
class PreemptionEvent:
    """One session evicted from the pool under memory pressure."""

    request_id: int
    clock: float
    mode: str  # "swap" | "recompute"
    blocks_freed: int
    kv_bytes: int


@dataclass
class SessionExport:
    """Wholesale picklable snapshot of one in-flight session (live migration).

    Produced by :meth:`SpeContextServer.export_session`, consumed by
    :meth:`SpeContextServer.import_session` on another replica. The
    server's own session record travels *as is* — the dense
    :class:`~repro.kvcache.cache.ModelKVCache`, the live policy object,
    the request RNG and every progress field — so a field added to the
    record cannot be dropped on the way, and the same argument that makes
    swap preemption exact for every policy makes migration exact: nothing
    about the session's numeric state is recomputed, so the continued
    stream is bit-identical to a never-migrated run by construction. Only
    the block table stays behind (its blocks are freed at the source).

    ``chain`` optionally carries the session's published prefix blocks
    (:class:`~repro.kvcache.pool.BlockChainExport`) so the destination's
    prefix cache is warmed for later requests sharing the prefix.
    """

    session: _Session
    chain: BlockChainExport | None = None

    @property
    def request_id(self) -> int:
        return self.session.request_id


class _SessionState:
    FRESH = "fresh"  # waiting, never prefilled
    ACTIVE = "active"  # in the active set; prefill_done says if it decodes
    SWAPPED = "swapped"  # waiting, cache stashed host-side
    RECOMPUTE = "recompute"  # waiting, cache dropped; replay on resume


@dataclass(eq=False)  # identity semantics: sessions live in queues/lists
class _Session:
    """One in-flight request: its cache, policy, blocks, decode progress."""

    request: GenerationRequest
    policy: SelectionPolicy
    budget: int  # the budget that actually governs selection
    cache: ModelKVCache
    rng: np.random.Generator | None
    result: DecodeResult
    arrival_s: float
    start_s: float = 0.0
    first_token_s: float | None = None
    pending: int | None = None  # next token to decode
    prefill_token: int | None = None  # step-0 token from full-prompt prefill
    finish_reason: str = ""
    offload_events: list[OffloadEvent] = field(default_factory=list)
    state: str = _SessionState.FRESH
    block_table: BlockTable = field(default_factory=BlockTable)
    preemptions: int = 0
    swap_bytes: int = 0
    prefix_reused_tokens: int = 0
    # ---- chunked-prefill cursor ----
    # prefill_pos counts prefill-input tokens whose KV is in the cache
    # (prefix-cache reuse included; every chunk computes at least one);
    # replaying marks a recompute-resume that must not touch the sampler,
    # the prefix cache or the prefill-block stats.
    prefill_pos: int = 0
    prefill_done: bool = False
    published_blocks: int = 0  # full prompt blocks already prefix-published
    replaying: bool = False
    # The draft's K cache over prompt + committed tokens (speculating
    # sessions only); a function of the tokens, so preemption keeps it.
    draft_context: DraftContext | None = None
    # Elastic-loading account, fed at every committed step (_account):
    # one tracker per layer, or one under key -1 (all layers) for specontext.
    transfer: dict[int, ElasticTransferTracker] = field(default_factory=dict)

    @property
    def request_id(self) -> int:
        assert self.request.request_id is not None
        return self.request.request_id

    @property
    def sampling(self) -> SamplingParams:
        return self.request.sampling

    @property
    def priority(self) -> int:
        return self.request.priority

    @property
    def prompt_len(self) -> int:
        return self.request.prompt_len

    @property
    def steps_taken(self) -> int:
        """Tokens generated so far (replays keep them)."""
        return len(self.result.token_ids)

    @property
    def prefill_started(self) -> bool:
        """Whether the first chunk ran (policy reset, prefix acquired)."""
        return self.prefill_pos > 0

    @property
    def current_len(self) -> int:
        """KV footprint in tokens.

        Mid-prefill that is the chunk cursor (only ``prefill_pos`` prompt
        tokens are resident); once prefill completes it is the full
        prompt plus generated tokens.
        """
        if not self.prefill_done:
            return self.prefill_pos
        return self.request.prompt_len + len(self.result.token_ids)

    @property
    def projected_len(self) -> int:
        """Footprint once prefill lands: prompt plus generated tokens.

        Admission projections must charge a still-prefilling session its
        whole prompt (the blocks it is guaranteed to claim), not the
        partial cursor — otherwise a small chunk size would over-admit
        relative to whole-prompt chunks, whose active sessions always
        hold their full prompt.
        """
        return self.request.prompt_len + len(self.result.token_ids)

    @property
    def done(self) -> bool:
        return bool(self.finish_reason)


def resolve_config_names(
    config: EngineConfig,
) -> tuple[SchedulerPolicy, AdmissionController, str | None]:
    """Build the scheduler and admission controller ``config`` names.

    Also returns the canonical default policy name when ``bos_id`` is set
    (the server sizes the DLM's memory from it), else None. Raises the
    typed ``Unknown*Error`` for a bad name and ``TypeError``/``ValueError``
    for bad ``admission_opts``. Every server construction goes through
    here, and executors call it before starting any replica, so a bad
    config fails the same way in-process and across a worker pipe.
    """
    policy = None
    if config.bos_id is not None:
        policy = resolve_policy_name(config.policy)
    scheduler = SCHEDULERS.make(config.scheduler)
    admission = ADMISSIONS.make(config.admission, **config.admission_opts)
    return scheduler, admission, policy


class SpeContextServer:
    """Request-level serving of the functional model with mixed policies."""

    def __init__(
        self,
        model: TransformerLM,
        config: EngineConfig | None = None,
        draft_model: DraftModel | None = None,
    ):
        self.model = model
        self.config = config or EngineConfig()
        self.scheduler, self.admission, default_policy = resolve_config_names(
            self.config
        )
        # The paper's one pruned DLM beside the LLM: every specontext
        # session decodes on a view of it (shared weights, its own K cache).
        self.head: LightweightRetrievalHead | None = None
        if self.config.bos_id is not None:
            self.head = LightweightRetrievalHead.from_teacher(
                model.weights,
                self.config.bos_id,
                np.random.default_rng(self.config.seed),
                config=self.config.head_config,
            )
        # Draft model for speculative decoding: built from the target's own
        # embedding when enabled and not injected (tests inject truncated-
        # vocab variants). Plumbed here rather than via EngineConfig so the
        # config stays picklable for multiprocessing executor workers.
        if self.config.spec_decode_k > 0:
            self._draft = draft_model or DraftModel.from_teacher(model)
        else:
            self._draft = None
        self.spec_stats = SpecDecodeStats()
        # M_DLM (Eq. 6-8), charged once: Q/K projections plus the
        # embedding slice, FP16, when specontext is the default policy.
        dlm_bytes = 0
        if default_policy == "specontext":
            dlm_bytes = 2 * self.head.parameter_count(include_shared_embedding=True)
        self.memory_model = MemoryModel(
            model.config, dlm_bytes, self.config.spec, budget=self.config.budget
        )
        # One manager for the whole server: thresholds are computed once;
        # runtime state is reset between busy periods (idle -> first admit).
        self.manager = AdaptiveMemoryManager(self.memory_model)
        self.pool = PagedKVPool(
            self._pool_blocks(), block_size=self.config.block_size
        )
        self.meter = ThroughputMeter()
        self._waiting: deque[_Session] = deque()
        self._active: list[_Session] = []
        self._outputs: list[GenerationOutput] = []
        self._stream: list[StreamEvent] = []
        self._failures: list[RequestFailure] = []
        self._preemption_log: list[PreemptionEvent] = []
        self._next_id = 0
        self._clock = 0.0
        self._step_prefill_tokens = 0
        # Live-migration traffic counters (observability only).
        self.migrated_in = 0
        self.migrated_out = 0

    def _pool_blocks(self) -> int:
        """Pool capacity in blocks.

        An explicit ``EngineConfig.pool_blocks`` wins (that is how tests
        and over-commit demos force pressure); otherwise the pool is sized
        from the adaptive manager's Algorithm-1 capacity — the aggregate
        sequence length servable with every layer offloaded — floored at
        one full-length request so degenerate specs stay runnable.
        """
        if self.config.pool_blocks is not None:
            return self.config.pool_blocks
        block = self.config.block_size
        derived = -(-self.manager.capacity_tokens() // block)
        floor = -(-self.model.config.max_position // block)
        return max(derived, floor, 1)

    # ---- submission ------------------------------------------------------------

    def add_request(self, request: GenerationRequest) -> int:
        """Enqueue a request; returns its assigned request id.

        Policy and RNG resolution happen before any state changes, so a
        rejected submission (unknown policy, MLA mismatch, missing seed,
        a prompt id outside the vocabulary, prompt larger than the pool)
        leaves the server and the request object untouched and retryable.
        """
        request.validate()
        if request.request_id is not None and request.request_id < self._next_id:
            raise ValueError(
                f"request_id {request.request_id} already used; ids must be "
                "unique and increasing"
            )
        # An id the embedding cannot look up: a negative one would wrap to
        # the table's end, one past it would raise inside step() and take
        # every other session down with it.
        prompt_ids = request.prompt_ids
        if not np.issubdtype(prompt_ids.dtype, np.integer):
            raise InvalidPromptError(
                f"prompt_ids must be integer token ids, got dtype "
                f"{prompt_ids.dtype}"
            )
        vocab = self.model.config.vocab_size
        outside = (prompt_ids < 0) | (prompt_ids >= vocab)
        if outside.any():
            raise InvalidPromptError(
                f"prompt id {int(prompt_ids[outside][0])} is outside the "
                f"model's vocabulary [0, {vocab})"
            )
        if request.peak_tokens > self.model.config.max_position:
            # Without this check the request is admitted and decodes past
            # the cached RoPE table instead of failing at submission.
            raise PromptTooLongError(
                f"request needs up to {request.peak_tokens} positions "
                f"(prompt {request.prompt_len} + max_new_tokens "
                f"{request.sampling.max_new_tokens}) but the model's "
                f"max_position is {self.model.config.max_position}; shrink "
                "the prompt or max_new_tokens"
            )
        self._check_fits_pool(request)
        reason = self.admission.should_admit(request, self)
        if reason is not None:
            # Shed before policy/RNG resolution: the request object stays
            # untouched and retryable (no id is consumed).
            self._record_shed(request)
            raise OverloadedError(
                f"request shed by admission policy "
                f"{self.admission.name!r}: {reason}",
                retry_after_s=self.admission.retry_after_s(self),
            )
        budget = request.budget or self.config.budget
        policy = self._resolve_policy(request, budget)
        rng = self._resolve_rng(request)
        if request.request_id is None:
            request.request_id = self._next_id
        self._next_id = request.request_id + 1
        session = _Session(
            request=request,
            policy=policy,
            budget=budget,
            cache=self.model.new_cache(),
            rng=rng,
            result=DecodeResult(
                prompt_len=request.prompt_len, token_ids=[], stopped_by_eos=False
            ),
            arrival_s=self._clock,
        )
        self._waiting.append(session)
        return request.request_id

    def _check_fits_pool(self, request: GenerationRequest) -> None:
        """Reject a request this pool could never hold at its peak."""
        peak_blocks = self.pool.blocks_for_tokens(request.peak_tokens)
        if peak_blocks > self.pool.capacity:
            raise PromptTooLongError(
                f"request needs up to {peak_blocks} KV blocks but the pool "
                f"holds {self.pool.capacity}; raise pool_blocks or shrink "
                "the request"
            )

    def _resolve_policy(
        self, request: GenerationRequest, budget: int
    ) -> SelectionPolicy:
        policy = request.policy if request.policy is not None else self.config.policy
        name = resolve_policy_name(policy)
        opts = dict(request.policy_opts)
        if name == "specontext":
            if set(opts) - {"level"}:
                raise RequestValidationError(
                    f"specontext policy_opts accept 'level' only, got "
                    f"{sorted(opts)}; the retrieval head is the server's "
                    "(EngineConfig.head_config / seed)"
                )
            if self.head is None:
                raise ValueError(
                    "specontext needs EngineConfig.bos_id to build the "
                    "retrieval head"
                )
            opts.setdefault("level", self.config.selection_level)
            opts["head"] = self.head
        return make_policy(name, self.model, budget, **opts)

    def _resolve_rng(self, request: GenerationRequest) -> np.random.Generator | None:
        if request.sampling.seed is not None:
            return np.random.default_rng(request.sampling.seed)
        if request.sampling.temperature > 0:
            raise ValueError("temperature sampling requires a seed")
        return None

    def _record_shed(self, request: GenerationRequest) -> None:
        """Meter a shed submission as rejected.

        Shed requests never consume a request id (they stay retryable), so
        the record carries none.
        """
        self.meter.record_rejected(RequestRecord(
            request_id=None,
            in_len=request.prompt_len,
            out_len=request.sampling.max_new_tokens,
            arrival_s=self._clock,
        ))

    def abort(self, request_id: int) -> bool:
        """Drop an in-flight request (client disconnect, executor abort).

        The session is removed from whichever queue holds it and its pool
        blocks are freed; no output is produced and the meter records
        nothing (an abort is neither a completion nor a rejection).
        Returns False when the id is unknown or already finished — abort
        races against completion, so that is not an error.
        """
        session = self._find(request_id)
        if session is None:
            return False
        self._detach(session)
        return True

    def _find(self, request_id: int) -> _Session | None:
        """The unfinished session answering to ``request_id``, if any."""
        for session in (*self._waiting, *self._active):
            if session.request_id == request_id:
                return session
        return None

    def _detach(self, session: _Session) -> None:
        """Take a session out of its queue and free its pool blocks.

        Abort, export, deadline expiry, preemption and finish all leave
        through here (admission only moves a session between queues).
        """
        if session.state == _SessionState.ACTIVE:
            self._active.remove(session)
        else:
            self._waiting.remove(session)
        self.pool.free_table(session.block_table)

    def _stash(self, session: _Session) -> None:
        """Keep a detached active session's cache host-side for resume.

        The :class:`~repro.kvcache.cache.ModelKVCache` object *is* the
        stash, so the resumed stream cannot diverge for any policy; the
        d2h leg is charged now, the h2d leg at resume.
        """
        session.state = _SessionState.SWAPPED
        session.swap_bytes += session.cache.nbytes()

    # ---- live migration --------------------------------------------------------

    def export_session(self, request_id: int) -> SessionExport | None:
        """Drain one in-flight session into a portable snapshot.

        The session leaves this server entirely: it is removed from its
        queue and its pool blocks are freed (the published prefix chain is
        deep-copied into the export first, so the destination can re-publish
        it). An *active* session is stashed exactly like a swap preemption
        — the dense cache object becomes the snapshot, with the d2h leg
        charged here and the h2d leg at resume on the destination; waiting
        sessions keep their current resume state (fresh / swapped /
        recompute) unchanged. No output, stream event or meter record is
        produced: from the request's point of view nothing happened.

        Returns None when the id is unknown or already finished — a
        rebalance pass races against completion, so that is not an error.
        Must be called between steps, never mid-wave.
        """
        session = self._find(request_id)
        if session is None:
            return None
        chain: BlockChainExport | None = None
        if (
            self.config.enable_prefix_cache
            and session.published_blocks > 0
            and len(session.block_table) > 0
        ):
            chain = self.pool.export_chain(
                session.request.prompt_ids,
                session.block_table,
                session.published_blocks,
            )
            if chain.n_blocks == 0:
                chain = None
        self._detach(session)
        if session.state == _SessionState.ACTIVE:
            self._stash(session)
        self.migrated_out += 1
        return SessionExport(session=session, chain=chain)

    def import_session(
        self, export: SessionExport, *, new_request_id: int | None = None
    ) -> int:
        """Adopt a migrated session; it resumes via the ordinary queue.

        The exported session record is adopted as-is and joins the
        waiting queue in its exported resume state; the existing
        activation paths (fresh prefill, swap re-claim, recompute
        rebuild) do the rest, so migration adds no new resume
        semantics. The exported prefix chain (if any) is re-published
        into this pool's cache first.

        By default the request keeps its exported id (a direct
        server-to-server move) — the id counter is
        bumped past it, bypassing the monotonicity check that guards
        *new* submissions. ``new_request_id`` rewrites the id instead:
        the executor path re-keys migrated sessions into the
        destination worker's local id space, where the exported source-
        local id could collide with an unrelated session. Returns the
        id the session now answers to.
        """
        session = export.session
        request = session.request
        if new_request_id is not None:
            request.request_id = int(new_request_id)
        if request.request_id is None:
            raise ValueError("exported session lacks a request_id")
        rid = request.request_id
        if self._find(rid) is not None:
            raise ValueError(
                f"request_id {rid} is already in flight on this replica"
            )
        self._check_fits_pool(request)
        if export.chain is not None:
            self.pool.import_chain(export.chain)
        self._next_id = max(self._next_id, rid + 1)
        self.migrated_in += 1
        self._waiting.append(session)
        return rid

    def migratable_requests(self) -> list[tuple[int, int, bool]]:
        """Snapshot of in-flight sessions for rebalance planning.

        Returns ``(request_id, reserved_charge, prefill_done)`` per
        unfinished session, in queue order (waiting first) — the charge is
        the same ``peak_tokens`` commitment :attr:`reserved_tokens` sums,
        so a planner can predict exactly how much load an export would
        move.
        """
        return [
            (s.request_id, s.request.peak_tokens, s.prefill_done)
            for s in (*self._waiting, *self._active)
        ]

    # ---- stepping --------------------------------------------------------------

    @property
    def clock(self) -> float:
        """The step-count virtual clock (one tick per ``step``)."""
        return self._clock

    def advance_clock_to(self, when: float) -> None:
        """Jump the idle clock forward (trace replay across arrival gaps)."""
        if when < self._clock:
            raise ValueError(
                f"clock may only move forward: {when} < {self._clock}"
            )
        self._clock = float(when)

    @property
    def has_unfinished(self) -> bool:
        return bool(self._waiting or self._active)

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    @property
    def max_concurrency(self) -> int:
        """Hard cap on co-running sessions (part of the admission view)."""
        return self.config.max_concurrency

    @property
    def next_request_id(self) -> int:
        """The id the next auto-assigned submission would receive.

        The worker core re-keys migrated-in sessions here so an imported
        session's id can never collide with this server's own id stream.
        """
        return self._next_id

    @property
    def shedding(self) -> bool:
        """Whether the admission controller is currently refusing load."""
        return self.admission.is_shedding(self)

    @property
    def reserved_tokens(self) -> int:
        """Outstanding admission charge: peak KV tokens of unfinished work.

        Every unfinished session (waiting or active) is charged its
        request's ``peak_tokens`` — the commitment :meth:`_can_admit`
        holds capacity against, not the current partial footprint. The
        executor's least-loaded router reads this as the replica's load.
        """
        return sum(
            s.request.peak_tokens for s in (*self._waiting, *self._active)
        )

    def audit_pool(self) -> None:
        """Full pool-invariant audit against every live session's chains.

        Called between waves (tests, chaos harness), so no speculative
        reservation may be outstanding: every draft-verify step promotes
        or releases before its wave ends. Raises
        :class:`~repro.kvcache.pool.PoolAuditError` on any violation.
        """
        self.pool.audit(
            tables=[
                s.block_table for s in (*self._waiting, *self._active)
            ],
            allow_spec_outstanding=False,
        )

    @property
    def outputs(self) -> list[GenerationOutput]:
        """All outputs completed over the server's lifetime."""
        return list(self._outputs)

    @property
    def preemption_log(self) -> list[PreemptionEvent]:
        """Every preemption over the server's lifetime."""
        return list(self._preemption_log)

    def pop_stream_events(self) -> list[StreamEvent]:
        """Drain the per-token stream accumulated since the last call.

        Events are appended in decode order within each step, so a client
        consuming them after every :meth:`step` sees each session's tokens
        as they are produced (the streaming view of continuous batching).
        """
        events = self._stream
        self._stream = []
        return events

    def pop_failures(self) -> list[RequestFailure]:
        """Drain typed per-request failures accumulated since the last call.

        One :class:`RequestFailure` per request the server terminated with
        an error (deadline expiry); executors forward these alongside
        stream events so the HTTP layer can answer 408/504.
        """
        failures = self._failures
        self._failures = []
        return failures

    @property
    def last_step_prefill_tokens(self) -> int:
        """Prompt tokens computed by the most recent ``step``.

        Counts real prefill forward-pass tokens (recompute rebuilds
        included), not prefix-cache reuse — the number the benchmark's
        per-step token-budget accounting reads.
        """
        return self._step_prefill_tokens

    def step(self) -> list[GenerationOutput]:
        """Admit, run prefill work, one decode step per ready session.

        With ``prefill_chunk_tokens`` unset (the default), each admitted
        prompt prefills as one chunk, inline at admission. With it set,
        admitted sessions stay mid-prefill and the step spends a token
        budget on prefill chunks *alongside* the decode wave, so long
        prompts stream in over several steps while decodes keep ticking
        (no head-of-line blocking). The chunk size never changes tokens:
        a token's KV depends only on its predecessors.

        The ready sessions' forward passes fuse into server-wide waves
        (see ``_step_batched``). Returns the requests that finished
        during this step.
        """
        self._step_prefill_tokens = 0
        self._expire_deadlines()
        self._admit()
        self._prefill_phase()
        finished = self._step_batched()
        self._clock += 1.0
        return finished

    def _step_batched(self) -> list[GenerationOutput]:
        """Decode phase: reserve capacity per session, decode in fused waves.

        The contract is the one-session-at-a-time interleave (ensure A,
        decode A, ensure B, ...). A session joins the current *wave* as
        long as its decode block comes straight off the free stack; when a
        reservation would need eviction or preemption, the wave decodes
        first — its completions free their blocks exactly as the
        interleave would have — and only then does the reservation
        retry, evicting or preempting as it must. Preemption therefore
        never hits a reserved-but-undecoded session: victims either
        already decoded this step or have not been reserved yet (and are
        skipped below). Under no pressure the whole step is one wave — a
        single server-wide forward pass.
        """
        finished: list[GenerationOutput] = []
        wave: list[_Session] = []
        for session in list(self._active):
            if session not in self._active:
                continue  # preempted this step to make room for a peer
            if not session.prefill_done:
                continue  # still prefilling; no token to decode yet
            needed = self.pool.blocks_for_tokens(session.current_len + 1) - len(
                session.block_table
            )
            if wave and needed > self.pool.n_free:
                finished.extend(self._flush_wave(wave))
                wave = []
            # Reserve the block the about-to-be-generated token occupies.
            self._extend_blocks(session, session.current_len + 1)
            wave.append(session)
        finished.extend(self._flush_wave(wave))
        return finished

    def _flush_wave(self, wave: list[_Session]) -> list[GenerationOutput]:
        """One fused forward pass + bookkeeping for ``wave``'s sessions.

        Post-decode bookkeeping runs in wave order so memory-manager
        walks and stream events come out the same, event for event,
        however the step was cut into waves.
        """
        if not wave:
            return []
        # Sessions whose step-0 token is already known from full-prompt
        # prefill skip the forward pass entirely (HuggingFace semantics).
        forward = [
            s
            for s in wave
            if not (s.steps_taken == 0 and s.prefill_token is not None)
        ]
        committed: dict[int, list[int]] = {}
        if forward:
            specs: dict[int, tuple[list[int], list[int]]] = {}
            if self._draft is not None:
                # Draft + reserve after the whole wave has its decode
                # blocks, so speculation never changes which sessions the
                # wave rule admitted or the eviction/preemption decisions
                # made above.
                specs = self._spec_propose_batch(
                    [s for s in forward if self._spec_eligible(s)]
                )
            seqs: list[list[int]] = []
            for session in forward:
                seq = [int(session.pending)]
                if id(session) in specs:
                    seq += specs[id(session)][0]
                    session.policy.spec_begin()
                for t, token in enumerate(seq):
                    session.policy.pre_step(
                        session.steps_taken + t, int(token), session.cache
                    )
                seqs.append(seq)
            caches = [s.cache for s in forward]
            policies = [s.policy for s in forward]
            if specs:
                logits, selections = self.model.decode_spec_batch(
                    seqs, caches, policies
                )
            else:
                # No session speculates: the one-row-per-session kernel.
                flat_logits, flat_selections = self.model.decode_step_batch(
                    [seq[0] for seq in seqs], caches, policies
                )
                logits = flat_logits[:, None]
                selections = [[selection] for selection in flat_selections]
            for row, session in enumerate(forward):
                if id(session) in specs:
                    committed[id(session)] = self._spec_finalize(
                        session,
                        seqs[row],
                        logits[row],
                        selections[row],
                        specs[id(session)][1],
                    )
                else:
                    committed[id(session)] = [
                        self._sample(session, logits[row][0])
                    ]
                    self._account(session, selections[row][0])

        finished: list[GenerationOutput] = []
        for session in wave:
            tokens = committed.get(id(session), [session.prefill_token])
            for token in tokens:
                self._commit_token(session, int(token))
            if session.done:
                self._detach(session)
                finished.append(self._finish(session))
        return finished

    def run(self) -> list[GenerationOutput]:
        """Step until all queued requests finish; returns their outputs."""
        outputs: list[GenerationOutput] = []
        while self.has_unfinished:
            outputs.extend(self.step())
        return sorted(outputs, key=lambda o: o.request_id)

    # ---- deadlines -------------------------------------------------------------

    def _deadline_blown(
        self, session: _Session
    ) -> tuple[str, float] | None:
        """Which deadline (kind, seconds) the session can no longer meet.

        Checked against the *earliest* clock any token produced this step
        can land at (``clock + 1``): a session is expired only once even
        an immediate token would arrive late, so a request that makes its
        deadline exactly is never cancelled. Deterministic on the virtual
        clock — replaying the same trace expires the same requests at the
        same steps.
        """
        sampling = session.sampling
        waited = self._clock + 1.0 - session.arrival_s
        ttft = sampling.ttft_deadline_s
        if ttft is not None and session.first_token_s is None and waited > ttft:
            return "ttft", ttft
        total = sampling.total_deadline_s
        if total is not None and waited > total:
            return "total", total
        return None

    def _expire_deadlines(self) -> None:
        """Cancel waiting/active sessions that already missed a deadline.

        Each expired session frees its pool blocks immediately — the
        whole point of deadline enforcement is that doomed work stops
        occupying capacity feasible requests need — and terminates with
        exactly one terminal error StreamEvent plus one
        :class:`RequestFailure` (408 for a blown TTFT deadline, 504 for a
        blown total deadline).
        """
        for session in (*self._waiting, *self._active):
            blown = self._deadline_blown(session)
            if blown is None:
                continue
            kind, deadline = blown
            self._detach(session)
            self._fail_session(
                session,
                DeadlineExceededError(
                    f"request {session.request_id} missed its {kind} "
                    f"deadline ({deadline:g} on the step clock; arrived "
                    f"at {session.arrival_s:g}, cancelled at "
                    f"{self._clock:g})",
                    kind=kind,
                ),
            )

    def _fail_session(
        self, session: _Session, error: DeadlineExceededError
    ) -> None:
        """Terminate a session with a typed error: stream, failure, meter."""
        self._stream.append(
            StreamEvent(
                request_id=session.request_id,
                step=session.steps_taken,
                token_id=-1,
                finished=True,
                error=error.code,
            )
        )
        self._failures.append(
            RequestFailure(
                request_id=session.request_id,
                code=error.code,
                message=error.message,
                http_status=error.http_status,
                clock=self._clock,
            )
        )
        self.meter.record_rejected(RequestRecord(
            request_id=session.request_id,
            in_len=session.prompt_len,
            out_len=session.sampling.max_new_tokens,
            arrival_s=session.arrival_s,
        ))

    # ---- admission -------------------------------------------------------------

    def _admit(self) -> None:
        while self._waiting and len(self._active) < self.config.max_concurrency:
            candidate = min(self._waiting, key=self.scheduler.admission_key)
            if self._active and not self._can_admit(candidate):
                break
            if not self._active:
                # New busy period: fresh Algorithm-2 state (thresholds kept).
                self.manager.reset()
            self._waiting.remove(candidate)
            self._activate(candidate)

    def _can_admit(self, session: _Session) -> bool:
        """Memory-pressure admission: manager thresholds + pool headroom.

        The projected aggregate charges the candidate's full generation
        budget (its KV grows to ``peak_tokens`` if it runs to length),
        and the pool must be able to produce the candidate's
        prompt blocks from free or cache-evictable blocks without
        preempting an active session. Still-prefilling sessions are
        charged their whole prompt — including the blocks their remaining
        chunks have not claimed yet — so admission does not depend on the
        chunk size.
        """
        projected = (
            sum(s.projected_len for s in self._active)
            + session.request.peak_tokens
        )
        if not self.manager.admits(projected):
            return False
        needed = self.pool.blocks_for_tokens(session.projected_len)
        reserved = sum(
            max(
                0,
                self.pool.blocks_for_tokens(s.projected_len)
                - len(s.block_table),
            )
            for s in self._active
            if not s.prefill_done
        )
        return self.pool.can_allocate(needed + reserved)

    def _activate(self, session: _Session) -> None:
        swapped = session.state == _SessionState.SWAPPED
        if swapped:
            # Cache restored from the host stash as-is: charge the h2d leg.
            session.swap_bytes += session.cache.nbytes()
        elif session.state == _SessionState.FRESH:
            session.start_s = self._clock
        else:
            # A recompute-resume rebuilds through the same chunk path as
            # a fresh prompt — it is the same head-of-line hazard.
            self._begin_rebuild(session)
        session.state = _SessionState.ACTIVE
        self._active.append(session)
        if swapped:
            # Re-claim blocks for the KV the stash holds. A session
            # preempted mid-prefill holds prefill_pos tokens and keeps
            # chunking from there.
            self._extend_blocks(session, session.current_len)
            self._advance_memory(session)
        elif self.config.prefill_chunk_tokens is None:
            # Empty cache, chunk cursor at zero: the budgeted prefill
            # phase streams the prompt in. Unchunked, the one chunk
            # covering the whole prompt runs right here, so the next
            # admission decision already sees its blocks and prefix.
            self._prefill_chunk(session, session.prompt_len)

    # ---- pool bookkeeping ------------------------------------------------------

    def _extend_blocks(
        self, session: _Session, target_tokens: int, prefill: bool = False
    ) -> None:
        """Grow a session's block table to cover ``target_tokens`` tokens."""
        needed = self.pool.blocks_for_tokens(target_tokens) - len(
            session.block_table
        )
        for _ in range(needed):
            block_id = self._allocate_block(session)
            session.block_table.block_ids.append(block_id)
            if prefill:
                self.pool.stats.prefill_blocks_allocated += 1

    def _allocate_block(self, session: _Session) -> int:
        """One pool block for ``session``, preempting peers if exhausted."""
        while True:
            try:
                return self.pool.allocate()
            except PoolExhausted:
                self._preempt_for(session)

    def _preempt_for(self, session: _Session) -> None:
        candidates = [s for s in self._active if s is not session]
        if not candidates:
            raise PoolExhausted(
                f"pool of {self.pool.capacity} blocks exhausted by request "
                f"{session.request_id} alone; submission validation should "
                "have rejected it"
            )
        victim = min(candidates, key=self.scheduler.victim_key)
        self._preempt(victim)

    def _preempt(self, victim: _Session) -> None:
        """Evict one active session: free its blocks, requeue it.

        A recompute victim's cache is dropped here, so a waiting victim
        holds no KV (and an export of it ships none).
        """
        blocks_freed = len(victim.block_table)
        kv_bytes = victim.cache.nbytes()
        self._detach(victim)
        if self.config.preempt_mode == "swap":
            self._stash(victim)
        else:
            victim.state = _SessionState.RECOMPUTE
            victim.cache = self.model.new_cache()
        victim.preemptions += 1
        self._waiting.append(victim)
        self._preemption_log.append(
            PreemptionEvent(
                request_id=victim.request_id,
                clock=self._clock,
                mode=self.config.preempt_mode,
                blocks_freed=blocks_freed,
                kv_bytes=kv_bytes,
            )
        )

    # ---- prefill ---------------------------------------------------------------

    def _prefill_phase(self) -> None:
        """Spend this step's token budget on prefill chunks.

        Ready sessions reserve one budget token each for the decode wave;
        the remainder goes to still-prefilling sessions in the scheduler's
        admission order (``sjf`` lets short prompts slip past a long
        prefill, ``fcfs`` keeps strict arrival order). With no
        ``max_step_tokens`` every prefilling session advances one chunk
        per step. Sessions whose prefill completes here join this step's
        decode wave. Unchunked there is nothing to do: every prompt
        prefilled whole at activation.
        """
        if self.config.prefill_chunk_tokens is None:
            return
        chunk = self.config.prefill_chunk_tokens
        budget = self.config.max_step_tokens
        if budget is not None:
            budget -= sum(1 for s in self._active if s.prefill_done)
        prefilling = sorted(
            (s for s in self._active if not s.prefill_done),
            key=self.scheduler.admission_key,
        )
        for session in prefilling:
            while session in self._active and not session.prefill_done:
                take = chunk if budget is None else min(chunk, budget)
                if take <= 0:
                    return  # budget exhausted; decoders run, prefill waits
                consumed = self._prefill_chunk(session, take)
                if budget is None:
                    break  # unbudgeted: one chunk per session per step
                budget -= consumed

    def _prefill_chunk(self, session: _Session, max_tokens: int) -> int:
        """Advance one session's prefill by at most ``max_tokens`` tokens.

        The first chunk sizes the dense cache for the request's peak,
        resets the policy and acquires any cached prefix
        (deferred from activation so a peer publishing blocks in the
        meantime is still hit); every chunk claims the pool blocks its KV
        lands in and publishes newly completed full prompt blocks, so a
        later request can reuse blocks of this *still-prefilling*
        session. Returns the number of prompt tokens computed.

        A prompt of 2+ tokens prefills ``prompt[:-1]`` and decodes its
        last token as the first policy step, so no chunk's logits are
        read: every such chunk (fresh, prefix-hit resume or recompute
        rebuild) only fills the cache (``logits=False``).
        """
        prompt = session.request.prompt_ids
        sparse_first = prompt.size >= 2
        prefill_ids = prompt[:-1] if sparse_first else prompt
        policy = session.policy
        if not session.prefill_started:
            # Sized once for the request's peak plus a verify window (the
            # bound _draft_context uses), so append never regrows.
            session.cache.reserve(
                session.request.peak_tokens + self.config.spec_decode_k
            )
            if hasattr(policy, "reset"):
                policy.reset()
            if not session.replaying:
                reused = self._acquire_prefix(session, prompt, prefill_ids.size)
                session.prefill_pos = reused
                session.published_blocks = reused // self.pool.block_size
        take = min(max_tokens, int(prefill_ids.size) - session.prefill_pos)
        segment = prefill_ids[session.prefill_pos : session.prefill_pos + take]
        logits = self.model.prefill(segment, session.cache, logits=not sparse_first)
        session.prefill_pos += take
        self._step_prefill_tokens += take
        self._extend_blocks(
            session, session.prefill_pos, prefill=not session.replaying
        )
        self._publish_chunk_blocks(session, prompt, int(prefill_ids.size))
        if session.prefill_pos >= prefill_ids.size:
            self._finish_prefill(session, logits, sparse_first, prefill_ids)
        else:
            self._advance_memory(session)
        return take

    def _publish_chunk_blocks(
        self, session: _Session, prompt: np.ndarray, prefill_len: int
    ) -> None:
        """Attach and publish the prompt blocks the latest chunk completed.

        The one place prompt KV is sliced out of the dense cache into
        pool blocks: table blocks from the publication cursor up to the
        last full prompt block.
        """
        if not self.config.enable_prefix_cache or session.replaying:
            return
        block = self.pool.block_size
        start = session.published_blocks
        n_full = min(session.prefill_pos, prefill_len) // block
        if n_full <= start:
            return
        for i in range(start, n_full):
            payload = [
                (
                    layer.keys[:, :, i * block : (i + 1) * block, :],
                    layer.values[:, :, i * block : (i + 1) * block, :],
                )
                for layer in session.cache.layers
            ]
            self.pool.write_block(session.block_table, i, payload)
        self.pool.publish_prefix(
            prompt, session.block_table, n_full, start_block=start
        )
        session.published_blocks = n_full

    def _finish_prefill(
        self,
        session: _Session,
        logits: np.ndarray | None,
        sparse_first: bool,
        prefill_ids: np.ndarray,
    ) -> None:
        """Last chunk landed: arm the session for decoding this step."""
        was_replaying = session.replaying
        session.policy.begin_generation(prefill_ids, session.cache)
        if sparse_first:
            session.pending = int(session.request.prompt_ids[-1])
        elif not was_replaying:
            # A replay keeps its original prefill_token: the sampler (and
            # the request rng stream) must not be consulted twice.
            session.prefill_token = self._sample(session, logits)
        session.prefill_done = True
        if was_replaying:
            self._replay_decodes(session)
            session.replaying = False
        self._extend_blocks(
            session, session.current_len, prefill=not was_replaying
        )
        self._advance_memory(session)

    def _begin_rebuild(self, session: _Session) -> None:
        """Route a recompute-preempted session back through the chunk path.

        Empty cache (dropped at preemption) and table, no prefix
        acquisition or publication, no prefill-block stats, and — when
        the session had sampled progress — a forced decode replay at
        completion that never consults the sampler. A victim with no
        sampled progress (preempted mid-prefill, or a sparse-first
        session before its first step) restarts as a fresh prefill
        instead, which *is* allowed to hit the prefix cache: nothing was
        drawn from its rng, so the restart is exact either way.
        """
        session.block_table = BlockTable()
        session.prefill_pos = 0
        session.prefill_done = False
        session.replaying = (
            session.prefill_token is not None or session.steps_taken > 0
        )
        if not session.replaying:
            session.pending = None

    def _acquire_prefix(
        self, session: _Session, prompt: np.ndarray, prefill_len: int
    ) -> int:
        """Load cached prefix blocks into the session cache; returns tokens.

        At most ``prefill_len - 1`` tokens are reused so at least one
        prompt token always goes through the real prefill (the non-sparse
        path needs last-token logits; the sparse path needs a non-empty
        chunk). The copied KV values are the ones prefill produced for the
        donor request, and a token's KV depends only on the tokens before
        it — so the resumed prefill computes logits bit-identical to an
        uncached run.
        """
        if not self.config.enable_prefix_cache or prefill_len < 2:
            return 0
        chain = self.pool.match_prefix(prompt, prefill_len - 1)
        if not chain:
            return 0
        self.pool.acquire_prefix(chain, session.block_table)
        # Batch-gather the whole resident chain: one append per layer
        # instead of one per (block, layer).
        payload = self.pool.gather_chain(chain)
        for layer_index, (keys, values) in enumerate(payload):
            session.cache[layer_index].append(keys, values)
        reused = len(chain) * self.pool.block_size
        session.prefix_reused_tokens = reused
        return reused

    def _replay_decodes(self, session: _Session) -> None:
        """Replay every already-generated token as a *forced* decode step.

        The sampler is never consulted, so the request RNG stream is
        untouched, and every policy's state is a function of the replayed
        inputs, so the continuation is bit-identical.
        """
        prompt = session.request.prompt_ids
        policy = session.policy
        sparse_first = prompt.size >= 2
        session.transfer = {}
        session.result.selection_digest = ""
        pending: int | None = int(prompt[-1]) if sparse_first else None
        for step, token in enumerate(session.result.token_ids):
            if step == 0 and session.prefill_token is not None:
                pending = int(token)
                continue
            policy.pre_step(step, int(pending), session.cache)
            _, selections, _ = self.model.decode_step(
                int(pending), session.cache, policy=policy
            )
            self._account(session, selections)
            pending = int(token)
        if pending is not None:
            session.pending = pending

    # ---- speculative decoding --------------------------------------------------

    def _spec_eligible(self, session: _Session) -> bool:
        """Whether a session in the forward pass may draft-verify.

        Speculation is restricted to greedy sessions: acceptance is a
        longest-prefix match against argmax, which is only provably
        stream-preserving at temperature 0 (and sampled sessions' RNG
        streams must not be touched out of step order). At least two
        tokens must remain so a draft plus its verifier row fit under
        ``max_new_tokens``.
        """
        return (
            session.sampling.temperature <= 0
            and session.sampling.max_new_tokens - session.steps_taken >= 2
        )

    def _draft_context(self, session: _Session) -> DraftContext:
        """The session's draft context, caught up with its committed tokens."""
        context = session.draft_context
        if context is None:
            context = session.draft_context = DraftContext(
                session.request.prompt_ids,
                capacity=session.request.peak_tokens + self.config.spec_decode_k,
            )
        context.extend(session.result.token_ids[len(context) - session.prompt_len :])
        return context

    def _spec_propose_batch(
        self, sessions: list[_Session]
    ) -> dict[int, tuple[list[int], list[int]]]:
        """Draft for a whole wave in one batched student pass.

        One :meth:`~repro.distill.dlm.DraftModel.draft_batch` call covers
        every speculating session (drafted to the wave's longest budget,
        trimmed per session — greedy drafting is prefix-stable, so the
        trim equals a shorter solo draft). Block reservation then runs in
        wave order, so the free stack is consumed exactly as the
        session-at-a-time path would.
        """
        if not sessions:
            return {}
        # Each draft is capped so it and its verifier row fit under
        # max_new_tokens (eligibility leaves room for at least one).
        budgets = [
            min(
                self.config.spec_decode_k,
                s.sampling.max_new_tokens - s.steps_taken - 1,
            )
            for s in sessions
        ]
        drafted = self._draft.draft_batch(
            [self._draft_context(s) for s in sessions], max(budgets)
        )
        specs: dict[int, tuple[list[int], list[int]]] = {}
        for session, budget, drafts in zip(sessions, budgets, drafted):
            drafts, reserved = self._spec_reserve(session, drafts[:budget])
            if drafts:
                specs[id(session)] = (drafts, reserved)
        return specs

    def _spec_reserve(
        self, session: _Session, drafts: list[int]
    ) -> tuple[list[int], list[int]]:
        """Trim a draft to the blocks the free stack can supply."""
        if not drafts:
            return [], []
        base_blocks = len(session.block_table)  # covers current_len + 1

        def extra(n_drafts: int) -> int:
            return max(
                0,
                self.pool.blocks_for_tokens(session.current_len + 1 + n_drafts)
                - base_blocks,
            )

        reserved = self.pool.reserve_spec(extra(len(drafts)))
        while drafts and extra(len(drafts)) > len(reserved):
            drafts.pop()
        if not drafts:
            self.pool.release_spec(reserved)
            return [], []
        need = extra(len(drafts))
        if need < len(reserved):
            self.pool.release_spec(reserved[need:])
            reserved = reserved[:need]
        return drafts, reserved

    def _spec_finalize(
        self,
        session: _Session,
        seq: list[int],
        logits: np.ndarray,
        selections: list[dict[int, np.ndarray]],
        reserved: list[int],
    ) -> list[int]:
        """Greedy longest-prefix acceptance + rollback of the rejected tail.

        ``seq`` is ``[pending, d1..dk]`` and ``logits[t]`` the target's
        output at position t. The target's greedy token at row t-1 is what
        a sequential run would have fed at row t, so drafts are accepted
        while they match it — and every accepted row's inputs (and policy
        pre-steps) then exactly equal the sequential run's, making the
        committed stream bit-identical by induction. Full acceptance earns
        the bonus token from the last row. Rejected suffix state — cache
        entries, policy mutations, unused block reservations — is undone
        so nothing distinguishes the session from a never-drafted one.
        Returns the tokens to commit (always at least one).
        """
        d = len(seq) - 1
        greedy = [self._sample(session, logits[t]) for t in range(d + 1)]
        m = 1
        while (
            m <= d
            and seq[m] == greedy[m - 1]
            and greedy[m - 1] not in session.sampling.stop_ids
            and session.steps_taken + m < session.sampling.max_new_tokens
        ):
            m += 1
        base_len = session.cache.seq_len - len(seq)
        session.cache.truncate(base_len + m)
        session.policy.spec_commit(m)
        need = max(
            0,
            self.pool.blocks_for_tokens(session.current_len + m)
            - len(session.block_table),
        )
        self.pool.promote_spec(session.block_table, reserved[:need])
        self.pool.release_spec(reserved[need:])
        for t in range(m):
            self._account(session, selections[t])
        self.spec_stats.spec_steps += 1
        self.spec_stats.drafted += d
        self.spec_stats.accepted += m - 1
        return greedy[:m]

    # ---- decode ----------------------------------------------------------------

    def _commit_token(self, session: _Session, token: int) -> None:
        """Record one generated token: stats, stop conditions, streaming."""
        session.result.token_ids.append(token)
        if session.first_token_s is None:
            session.first_token_s = self._clock + 1.0  # emitted at step's end
        self._advance_memory(session)
        if token in session.sampling.stop_ids:
            session.result.stopped_by_eos = True
            session.finish_reason = "stop"
        elif session.steps_taken >= session.sampling.max_new_tokens:
            session.finish_reason = "length"
        else:
            session.pending = token
        self._stream.append(
            StreamEvent(
                request_id=session.request_id,
                step=session.steps_taken - 1,
                token_id=token,
                finished=session.done,
            )
        )

    def _sample(self, session: _Session, logits: np.ndarray) -> int:
        temperature = session.sampling.temperature
        if temperature <= 0:
            return int(np.argmax(logits))
        probs = softmax(logits / temperature)
        top_p = session.sampling.top_p
        if top_p < 1.0:
            # Nucleus cutoff: keep the smallest probability mass >= top_p.
            # Stable sort on (-prob, token id) makes tie-breaking — and
            # therefore the sampled stream — deterministic at fixed seed.
            order = np.argsort(-probs, kind="stable")
            cumulative = np.cumsum(probs[order])
            keep = int(np.searchsorted(cumulative, top_p, side="left")) + 1
            nucleus = order[:keep]
            filtered = np.zeros_like(probs)
            filtered[nucleus] = probs[nucleus]
            probs = filtered / filtered.sum()
        return int(session.rng.choice(probs.size, p=probs))

    def _advance_memory(self, session: _Session) -> None:
        """Walk Algorithm 2 against the aggregate multi-request footprint.

        The aggregate KV footprint of R co-resident sessions is modelled as
        a single stream of their summed lengths; events fired by one
        session's growth are attributed to that session's stats.
        """
        aggregate = sum(s.current_len for s in self._active)
        session.offload_events.extend(self.manager.advance(aggregate))

    def _account(
        self, session: _Session, selections: dict[int, np.ndarray]
    ) -> None:
        """Feed one committed step to the session's elastic-loading account
        and selection digest.

        SpeContext selects once per step for all layers: one tracker over
        the raw retrieval-head selections, taken out of the policy's
        history as they commit (so it only ever spans an open spec window).
        Layer-wise baselines get one tracker per layer.
        """
        session.result.fold_selections(selections)
        policy = session.policy
        per_layer = self.model.config.kv_bytes_per_token_layer()
        if isinstance(policy, SpeContextPolicy):
            taken, policy.selection_history = policy.selection_history, []
            stream = [(-1, selection) for selection in taken]
            per_token = per_layer * self.model.config.n_layers
        else:
            stream = selections.items()
            per_token = per_layer
        for layer, selection in stream:
            tracker = session.transfer.get(layer)
            if tracker is None:
                tracker = session.transfer[layer] = ElasticTransferTracker(
                    bytes_per_token=per_token, elastic=self.config.elastic
                )
            tracker.observe(selection)

    def _finish(self, session: _Session) -> GenerationOutput:
        trackers = list(session.transfer.values())
        total = sum(t.total_bytes for t in trackers)
        full = sum(t.selected_tokens * t.bytes_per_token for t in trackers)
        stats = GenerationStats(
            result=session.result,
            budget=session.budget,
            bytes_transferred=total,
            transfer_reduction=0.0 if full == 0 else 1.0 - total / full,
            mean_selection_overlap=float(
                np.mean([t.mean_overlap for t in trackers] or [0.0])
            ),
            offload_events=session.offload_events,
            preemptions=session.preemptions,
            swap_bytes=session.swap_bytes,
            prefix_reused_tokens=session.prefix_reused_tokens,
        )
        output = GenerationOutput(
            request_id=session.request_id,
            token_ids=list(session.result.token_ids),
            finish_reason=session.finish_reason,
            stats=stats,
        )
        self._outputs.append(output)
        self._record_meter(session)
        return output

    def _record_meter(self, session: _Session) -> None:
        self.meter.record_finished(RequestRecord(
            request_id=session.request_id,
            in_len=session.request.prompt_len,
            out_len=len(session.result.token_ids),
            arrival_s=session.arrival_s,
            start_s=session.start_s,
            finish_s=self._clock + 1.0,  # this step completes at clock+1
            first_token_s=session.first_token_s,
        ))
