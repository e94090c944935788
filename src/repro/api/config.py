"""Engine-level and request-level configuration for the serving API.

``EngineConfig`` captures everything an engine or server is built from —
budget, hardware spec, selection policy and granularity, elastic loading —
plus the serving knobs the continuous-batching
:class:`~repro.serving.server.SpeContextServer` needs (admission
concurrency, seeding). ``SamplingParams`` captures the loose
``generate()`` kwargs (token limit, temperature, stop ids).

``ClusterConfig`` captures the multi-replica layer's knobs (replica
count, routing policy, affinity stickiness, executor kind) for the
executor built by :func:`repro.serving.engine.make_executor`.

All are plain dataclasses with no upward dependencies, so every layer
(core engine, server, executor, experiments, examples, CLI) can
share them without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import math

from repro.api.errors import ConfigValidationError, InvalidSamplingError
from repro.hardware.spec import EDGE_RTX4060, HardwareSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.retrieval_head import RetrievalHeadConfig


@dataclass(frozen=True)
class SamplingParams:
    """Per-request decoding parameters.

    Attributes:
        max_new_tokens: decode-step cap for the request.
        temperature: 0 is greedy; > 0 samples from the softmax.
        top_p: nucleus cutoff for temperature sampling — restrict to the
            smallest probability mass >= top_p, renormalize, then sample.
            1.0 (default) disables the cutoff; greedy decoding ignores it.
        stop_ids: token ids that terminate generation once emitted.
        seed: RNG seed for temperature sampling (ignored when greedy).
        ttft_deadline_s: cancel the request (typed
            :class:`~repro.api.errors.DeadlineExceededError`, HTTP 408)
            if its first token has not been produced within this many
            seconds of arrival on the server clock. None disables.
        total_deadline_s: cancel the request (HTTP 504) if it has not
            finished within this many seconds of arrival. None disables.
            The server clock is virtual (one unit per engine step), so
            deadlines are deterministic and replayable at a fixed seed.

    Out-of-range values raise the typed
    :class:`repro.api.errors.InvalidSamplingError` (a ``ValueError``), so
    the HTTP frontend can map them to structured 4xx responses.
    """

    max_new_tokens: int = 128
    temperature: float = 0.0
    top_p: float = 1.0
    stop_ids: tuple[int, ...] = ()
    seed: int | None = None
    ttft_deadline_s: float | None = None
    total_deadline_s: float | None = None

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise InvalidSamplingError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.temperature < 0:
            raise InvalidSamplingError(
                f"temperature must be >= 0, got {self.temperature}"
            )
        if not 0.0 < self.top_p <= 1.0:
            raise InvalidSamplingError(
                f"top_p must be in (0, 1], got {self.top_p}"
            )
        for name in ("ttft_deadline_s", "total_deadline_s"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or value <= 0:
                raise InvalidSamplingError(
                    f"{name} must be a finite value > 0 or None, got {value}"
                )
        if (
            self.ttft_deadline_s is not None
            and self.total_deadline_s is not None
            and self.ttft_deadline_s > self.total_deadline_s
        ):
            raise InvalidSamplingError(
                f"ttft_deadline_s ({self.ttft_deadline_s}) cannot exceed "
                f"total_deadline_s ({self.total_deadline_s})"
            )


@dataclass
class EngineConfig:
    """Everything the engine/server needs beyond the model itself.

    Attributes:
        budget: default KV token budget for requests that don't set one.
        spec: hardware pair driving the memory model and offload thresholds.
        policy: default selection-policy name (see
            :func:`repro.retrieval.registry.make_policy`).
        selection_level: SpeContext granularity, "head" or "batch".
        bos_id: BOS token id, needed to build the server's retrieval head
            (required by "specontext" requests).
        head_config: retrieval-head construction parameters.
        elastic: set-difference (True) vs full-reload (False) transfer
            accounting.
        max_concurrency: upper bound on co-running sessions in the server
            (admission is primarily gated by KV-pool pressure and the
            adaptive memory manager's thresholds; this is a hard cap on
            top).
        block_size: tokens per KV block in the server's shared
            :class:`~repro.kvcache.pool.PagedKVPool`.
        pool_blocks: total blocks in the shared pool. None (default) sizes
            the pool from the adaptive manager's Algorithm-1 capacity
            (``capacity_tokens() / block_size``); an explicit small value
            forces memory pressure, preemption and prefix-cache eviction.
        enable_prefix_cache: publish full prompt blocks for reuse by later
            requests sharing the prefix (never changes logits; prefix KV
            values are bit-identical to recomputation).
        preempt_mode: what happens to a session evicted under pool
            pressure — "swap" stashes its KV cache host-side and restores
            it on resume; "recompute" drops the cache and, on resume,
            rebuilds it through the same chunked prefill a fresh prompt
            takes, then replays the generated tokens as forced decodes.
            Every policy's state is a function of the tokens it has seen,
            so both modes resume bit-identically for all of them.
        scheduler: admission/preemption ordering policy name (resolved
            by ``repro.serving.registry.make("scheduler", ...)``): "fcfs",
            "priority" or "sjf".
        batched_decode: how many sessions share one decode forward pass
            (stacked hidden states, row-batched QKV/O/FFN GEMMs,
            selection-shape-grouped attention). True (default) fuses every
            ready session whose next block is free into one server-wide
            wave; False flushes the wave after every session, i.e. waves
            of one through the same code. Token streams, selection
            histories and event order are bit-identical between the two.
        kv_dtype: storage precision of per-session KV caches, "float64"
            (default, double-precision attention accumulation) or
            "float32" (half the memory traffic; projections are float32 so
            the stored values are unchanged — what production engines do
            with FP16 KV).
        prefill_chunk_tokens: the size of the chunks every prompt prefill
            runs in. None (default) is one chunk covering the whole
            prompt, run inline at admission. A number streams the prompt
            in across server steps, at most this many tokens at a time,
            so one long-prompt arrival can no longer freeze the decode
            wave for its whole prefill (head-of-line blocking). A token's
            KV depends only on the tokens before it, so the chunk size
            never changes a token. Full prompt blocks are
            prefix-published as chunks complete, so later requests can
            hit blocks of a still-prefilling peer.
        max_step_tokens: per-step token budget shared by the decode wave
            and prefill chunks. Each step reserves one token per ready
            (decoding) session, then spends the remainder on prefill
            chunks in scheduler admission order. The budget bounds
            *prefill* work; decode tokens are never dropped, so a session
            whose final chunk lands mid-step decodes in that same step
            (as a whole-prompt chunk at admission does) and may push the
            step's total a few tokens past the budget. None (default)
            schedules one chunk per prefilling session per step instead
            of a global budget. Requires ``prefill_chunk_tokens`` (a
            whole-prompt chunk cannot be budgeted).
        sparse_from_first_token: decode the final prompt token as the first
            policy-governed step (SpeContext's dataflow).
        requests: request multiplier for the theoretical memory model.
        dlm_bytes: DLM weight bytes charged to the memory model when the
            server builds it; None (default) charges the server's one
            retrieval head when the default policy is specontext, an
            explicit value (including 0) is used as-is.
        seed: seed of the server's retrieval head (its Q/K perturbations
            and noise-role key table).
        policy_opts: default extra kwargs forwarded to ``make_policy``.
        spec_decode_k: speculative decoding draft length. 0 (default)
            disables speculation. With k >= 1 the server builds a
            :class:`~repro.distill.dlm.DraftModel` from the target model
            (shared content embedding, identity projections) and, for
            greedy (temperature == 0) sessions, drafts up to k tokens per
            step and verifies all of them plus one bonus position in a
            single fused multi-row target forward pass. Acceptance is a
            greedy longest-prefix match, so committed token streams are
            bit-identical to non-speculative runs; sampled sessions are
            never speculated (their RNG streams stay untouched). A plain
            int (not a model object) so the config stays picklable for
            multiprocessing executor workers.
        admission: admission-control policy name resolved by
            ``repro.serving.registry.make("admission", ...)`` — "accept_all"
            (default, the historical behavior), "queue_depth",
            "token_backlog" or "deadline_feasible". Anything but
            accept_all sheds doomed requests at ``add_request`` with a
            typed :class:`~repro.api.errors.OverloadedError` (HTTP 429 +
            ``Retry-After``) instead of letting them queue past their
            deadlines.
        admission_opts: extra kwargs forwarded to the admission builder
            (e.g. ``max_waiting`` for queue_depth, ``max_backlog_tokens``
            for token_backlog). A plain dict so the config stays
            picklable for multiprocessing executor workers.
    """

    budget: int = 2048
    spec: HardwareSpec = EDGE_RTX4060
    policy: str = "specontext"
    selection_level: str = "head"
    bos_id: int | None = None
    head_config: "RetrievalHeadConfig | None" = None
    elastic: bool = True
    max_concurrency: int = 8
    block_size: int = 16
    pool_blocks: int | None = None
    enable_prefix_cache: bool = True
    preempt_mode: str = "swap"
    scheduler: str = "fcfs"
    batched_decode: bool = True
    kv_dtype: str = "float64"
    prefill_chunk_tokens: int | None = None
    max_step_tokens: int | None = None
    sparse_from_first_token: bool = True
    requests: int = 1
    dlm_bytes: int | None = None
    seed: int = 0
    policy_opts: dict = field(default_factory=dict)
    spec_decode_k: int = 0
    admission: str = "accept_all"
    admission_opts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigValidationError(f"budget must be >= 1, got {self.budget}")
        if self.max_concurrency < 1:
            raise ConfigValidationError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.selection_level not in ("head", "batch"):
            raise ConfigValidationError(
                f"selection_level must be 'head' or 'batch', "
                f"got {self.selection_level!r}"
            )
        if self.requests < 1:
            raise ConfigValidationError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.block_size < 1:
            raise ConfigValidationError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        if self.pool_blocks is not None and self.pool_blocks < 1:
            raise ConfigValidationError(
                f"pool_blocks must be >= 1 or None, got {self.pool_blocks}"
            )
        if self.preempt_mode not in ("swap", "recompute"):
            raise ConfigValidationError(
                f"preempt_mode must be 'swap' or 'recompute', "
                f"got {self.preempt_mode!r}"
            )
        if self.kv_dtype not in ("float32", "float64"):
            raise ConfigValidationError(
                f"kv_dtype must be 'float32' or 'float64', got {self.kv_dtype!r}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ConfigValidationError(
                f"prefill_chunk_tokens must be >= 1 or None, "
                f"got {self.prefill_chunk_tokens}"
            )
        if self.max_step_tokens is not None:
            if self.max_step_tokens < 1:
                raise ConfigValidationError(
                    f"max_step_tokens must be >= 1 or None, "
                    f"got {self.max_step_tokens}"
                )
            if self.prefill_chunk_tokens is None:
                raise ConfigValidationError(
                    "max_step_tokens requires prefill_chunk_tokens: a "
                    "whole-prompt chunk runs inline at admission and "
                    "cannot be budgeted per step"
                )
        if self.spec_decode_k < 0:
            raise ConfigValidationError(
                f"spec_decode_k must be >= 0, got {self.spec_decode_k}"
            )
        if not isinstance(self.admission, str) or not self.admission:
            raise ConfigValidationError(
                f"admission must be a policy name, got {self.admission!r}"
            )
        if not isinstance(self.admission_opts, dict):
            raise ConfigValidationError(
                f"admission_opts must be a dict, got "
                f"{type(self.admission_opts).__name__}"
            )


@dataclass
class ClusterConfig:
    """Multi-replica serving knobs for :func:`~repro.serving.engine.make_executor`.

    Attributes:
        n_replicas: independent :class:`~repro.serving.server
            .SpeContextServer` replicas, each with its own paged KV pool,
            scheduler and meter.
        router: routing-policy name resolved by
            ``repro.serving.registry.make("router", ...)`` — "round_robin",
            "least_loaded" or "prefix_affinity".
        stickiness_tokens: minimum cached-prefix match (in tokens) for
            the prefix-affinity router to stick a request to a replica;
            below it placement falls back to least-loaded. Also the
            threshold the executor's routing stats count an *affinity
            hit* against, so hit/miss numbers mean the same thing under
            every router.
        executor: which executor drives the replicas (see
            :func:`repro.serving.engine.make_executor`) — "inproc" keeps
            every replica a plain in-process server (the bit-identity
            reference), "multiproc" wraps each replica in its own worker
            process driven over pipes, overlapping steps across cores.
        heartbeat_s: seconds the multiproc executor waits for a worker's
            step/command reply before declaring it dead and resubmitting
            its in-flight requests to surviving replicas. Workers also
            stamp a shared per-step progress counter; any advance of the
            counter resets this deadline, so a slow-but-progressing
            worker survives while a *stalled* one (alive but frozen) is
            quarantined after ``heartbeat_s`` without progress.
        pace_s_per_token: modeled accelerator dwell per processed token,
            slept by each worker after every step. 0.0 (default) disables
            pacing; the engine benchmark sets it so each worker behaves
            like one device whose step time scales with its share of the
            batch — the parallelism the worker/executor split buys.
        pipe_retries: transient pipe-send failures (``OSError`` short of
            a closed pipe) tolerated per command before the executor
            declares the worker dead and fails over. Each retry backs
            off ``pipe_retry_backoff_s * attempt`` seconds.
        pipe_retry_backoff_s: base backoff between pipe-send retries.
        roles: per-replica serving role for disaggregated prefill/decode
            — a tuple of ``"prefill"``, ``"decode"`` and ``"mixed"``
            entries, one per replica. New requests are only *placed* on
            prefill-capable replicas (``prefill``/``mixed``), and a
            session whose prefill completes on a ``prefill`` replica is
            handed off (live KV migration) to the least-loaded
            decode-capable replica after the step. None (default) makes
            every replica ``mixed``: placement, stepping and routing are
            byte-for-byte the historical behavior. Roles bias placement
            only — every replica remains a full server, so a missing
            decode target degrades to local decode, never to an error.
        rebalance_every: run a live-migration rebalance pass every this
            many cluster steps (0, the default, disables periodic
            rebalancing; an explicit ``rebalance()`` call always works).
            A pass drains whole sessions — KV blocks, policy state, RNG
            — from the most loaded replica to the least loaded one; the
            migrated stream stays bit-identical to a never-migrated run.
        rebalance_ratio: load skew that triggers a migration: a session
            moves only while the source's load exceeds
            ``rebalance_ratio`` times the destination's (load is the
            reserved-token charge plus queue depth, the same quantity
            the least-loaded router balances).
        max_migrations_per_pass: cap on sessions moved per rebalance
            pass, bounding per-step migration work.

    Name resolution happens when the executor builds the router (this
    module must stay import-cycle-free below the serving layer), so an
    unknown ``router`` raises at executor construction, not here.
    """

    n_replicas: int = 2
    router: str = "prefix_affinity"
    stickiness_tokens: int = 16
    executor: str = "inproc"
    heartbeat_s: float = 30.0
    pace_s_per_token: float = 0.0
    pipe_retries: int = 2
    pipe_retry_backoff_s: float = 0.05
    roles: tuple[str, ...] | None = None
    rebalance_every: int = 0
    rebalance_ratio: float = 1.5
    max_migrations_per_pass: int = 4

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ConfigValidationError(
                f"n_replicas must be >= 1, got {self.n_replicas}"
            )
        if self.stickiness_tokens < 1:
            raise ConfigValidationError(
                f"stickiness_tokens must be >= 1, got {self.stickiness_tokens}"
            )
        if self.executor not in ("inproc", "multiproc"):
            raise ConfigValidationError(
                f"executor must be 'inproc' or 'multiproc', "
                f"got {self.executor!r}"
            )
        if not math.isfinite(self.heartbeat_s) or self.heartbeat_s <= 0:
            raise ConfigValidationError(
                f"heartbeat_s must be finite and > 0, got {self.heartbeat_s}"
            )
        if not math.isfinite(self.pace_s_per_token) or self.pace_s_per_token < 0:
            raise ConfigValidationError(
                f"pace_s_per_token must be finite and >= 0, "
                f"got {self.pace_s_per_token}"
            )
        if self.pipe_retries < 0:
            raise ConfigValidationError(
                f"pipe_retries must be >= 0, got {self.pipe_retries}"
            )
        if (
            not math.isfinite(self.pipe_retry_backoff_s)
            or self.pipe_retry_backoff_s < 0
        ):
            raise ConfigValidationError(
                f"pipe_retry_backoff_s must be finite and >= 0, "
                f"got {self.pipe_retry_backoff_s}"
            )
        if self.roles is not None:
            roles = tuple(self.roles)
            if len(roles) != self.n_replicas:
                raise ConfigValidationError(
                    f"roles must name one role per replica: got "
                    f"{len(roles)} roles for {self.n_replicas} replicas"
                )
            for role in roles:
                if role not in ("prefill", "decode", "mixed"):
                    raise ConfigValidationError(
                        f"roles entries must be 'prefill', 'decode' or "
                        f"'mixed', got {role!r}"
                    )
            if not any(r in ("prefill", "mixed") for r in roles):
                raise ConfigValidationError(
                    "roles must include at least one prefill-capable "
                    "replica ('prefill' or 'mixed'); nothing could accept "
                    "new requests otherwise"
                )
            # Normalize to a tuple so the config stays hashable-ish and
            # picklable regardless of what sequence the caller passed.
            object.__setattr__(self, "roles", roles)
        if self.rebalance_every < 0:
            raise ConfigValidationError(
                f"rebalance_every must be >= 0, got {self.rebalance_every}"
            )
        if (
            not math.isfinite(self.rebalance_ratio)
            or self.rebalance_ratio < 1.0
        ):
            raise ConfigValidationError(
                f"rebalance_ratio must be finite and >= 1.0, "
                f"got {self.rebalance_ratio}"
            )
        if self.max_migrations_per_pass < 1:
            raise ConfigValidationError(
                f"max_migrations_per_pass must be >= 1, "
                f"got {self.max_migrations_per_pass}"
            )
