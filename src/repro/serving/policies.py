"""Scheduler-, router- and admission-policy registries for the serving layer.

Mirrors :mod:`repro.retrieval.registry`: every scheduling discipline,
every cluster routing discipline and every admission-control discipline
is registered under a canonical name (plus display aliases) in
:mod:`repro.serving.registry` and resolved through its one factory::

    scheduler = registry.make("scheduler", "priority")
    waiting.sort(key=scheduler.admission_key)
    victim = min(active, key=scheduler.victim_key)

    router = registry.make("router", "prefix_affinity", stickiness_tokens=16)
    replica = router.route(request, replica_views)

    admission = registry.make("admission", "queue_depth", max_waiting=8)
    reason = admission.should_admit(request, server_view)  # None = admit

A scheduler policy supplies two sort keys over the server's session view:

- ``admission_key``: waiting sessions are admitted in ascending key order;
- ``victim_key``: under pool pressure the active session with the smallest
  key is preempted first.

A router policy places one request on one replica of an executor
(:class:`~repro.serving.engine.executor.ExecutorBase`); it sees only the cheap
:class:`ReplicaView` surface (queue depth, reserved tokens, a read-only
prefix-cache probe), never the replicas' internals.

Keys and routing decisions must be deterministic at fixed seed (ties
broken by replica index / request id) — the trace tests replay schedules
and compare token streams bit-for-bit.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.serving.registry import ADMISSIONS, ROUTERS, SCHEDULERS


class SchedulableSession(Protocol):
    """What a scheduler may inspect about a session (duck-typed).

    ``admission_key`` also orders the chunked-prefill phase's token-budget
    spending across still-prefilling sessions (``sjf`` lets a short
    prompt's chunks slip past a long prefill; ``fcfs`` keeps strict
    arrival order). ``prefill_done``/``prefill_pos`` expose the chunk
    cursor so custom policies can rank victims by work completed — a
    mid-prefill session loses the least progress when preempted.
    """

    @property
    def request_id(self) -> int: ...

    @property
    def priority(self) -> int: ...

    @property
    def prompt_len(self) -> int: ...

    @property
    def arrival_s(self) -> float: ...

    @property
    def prefill_done(self) -> bool: ...

    @property
    def prefill_pos(self) -> int: ...


class SchedulerPolicy:
    """Base: FIFO admission, LIFO (latest-arrival) preemption."""

    name = "fcfs"

    def admission_key(self, session: SchedulableSession):
        return (session.arrival_s, session.request_id)

    def victim_key(self, session: SchedulableSession):
        # Preempt the most recently arrived session first: it has done the
        # least work and its requeue wastes the least progress.
        return (-session.arrival_s, -session.request_id)


@SCHEDULERS.register("fcfs", "fifo")
def _build_fcfs() -> SchedulerPolicy:
    return SchedulerPolicy()


@SCHEDULERS.register("priority", "prio")
class PriorityScheduler(SchedulerPolicy):
    """Higher request priority admits first and is preempted last."""

    name = "priority"

    def admission_key(self, session: SchedulableSession):
        return (-session.priority, session.arrival_s, session.request_id)

    def victim_key(self, session: SchedulableSession):
        return (session.priority, -session.arrival_s, -session.request_id)


@SCHEDULERS.register("sjf", "shortestpromptfirst", "spf")
class ShortestPromptFirstScheduler(SchedulerPolicy):
    """Admit short prompts first; evict the largest KV holder first."""

    name = "sjf"

    def admission_key(self, session: SchedulableSession):
        return (session.prompt_len, session.arrival_s, session.request_id)

    def victim_key(self, session: SchedulableSession):
        return (-session.prompt_len, -session.arrival_s, -session.request_id)


# ---- cluster routers ---------------------------------------------------------


class ReplicaView(Protocol):
    """What a router may inspect about one replica (duck-typed).

    ``reserved_tokens`` is the replica's outstanding admission charge —
    the sum of ``prompt + max_new_tokens`` over every unfinished session,
    i.e. the KV the replica is committed to if everything runs to length.
    ``prefix_match_tokens`` is the read-only probe of the replica's
    prefix cache (:meth:`repro.kvcache.pool.PagedKVPool
    .longest_prefix_match`); it never mutates cache state, so routers may
    probe every replica for every request.
    """

    @property
    def index(self) -> int: ...

    @property
    def queue_depth(self) -> int: ...

    @property
    def reserved_tokens(self) -> int: ...

    def prefix_match_tokens(self, prompt_ids: np.ndarray) -> int: ...


class RoutableRequest(Protocol):
    """What a router may inspect about the request being placed."""

    @property
    def prompt_ids(self) -> np.ndarray: ...

    @property
    def prompt_len(self) -> int: ...


def _load_key(replica: ReplicaView) -> tuple[int, int]:
    """Least-loaded total order: reserved tokens + queue depth, then index."""
    return (replica.reserved_tokens + replica.queue_depth, replica.index)


class RouterPolicy:
    """Base router: round-robin placement (stateful cursor, one per executor)."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def route(
        self, request: RoutableRequest, replicas: Sequence[ReplicaView]
    ) -> int:
        """Replica index to place ``request`` on (must be deterministic)."""
        chosen = self._next % len(replicas)
        self._next += 1
        return chosen


@ROUTERS.register("round_robin", "rr", "roundrobin")
def _build_round_robin() -> RouterPolicy:
    return RouterPolicy()


@ROUTERS.register("least_loaded", "ll", "leastloaded")
class LeastLoadedRouter(RouterPolicy):
    """Place on the replica with the least outstanding work.

    Load is the admission charge (reserved tokens of unfinished sessions)
    plus the waiting-queue depth; ties break toward the lowest replica
    index so placement is deterministic.
    """

    name = "least_loaded"

    def route(
        self, request: RoutableRequest, replicas: Sequence[ReplicaView]
    ) -> int:
        return min(replicas, key=_load_key).index


@ROUTERS.register("prefix_affinity", "pa", "prefixaffinity")
class PrefixAffinityRouter(RouterPolicy):
    """Route to the replica whose prefix cache best covers the prompt.

    Every replica's pool is probed (read-only blake2b-chain walk) for the
    longest cached prefix of the prompt. When the best match reaches
    ``stickiness_tokens``, the request sticks to that replica — turning
    each replica's prefix cache into a cluster-wide asset — with ties
    broken by load, then index. Below the threshold the match is too
    small to be worth colocating for (a short shared BOS block, say) and
    placement falls back to least-loaded, which also spreads the *first*
    request of every new prefix group across the cluster.
    """

    name = "prefix_affinity"

    def __init__(self, stickiness_tokens: int = 16):
        super().__init__()
        if stickiness_tokens < 1:
            raise ValueError(
                f"stickiness_tokens must be >= 1, got {stickiness_tokens}"
            )
        self.stickiness_tokens = stickiness_tokens

    def route(
        self, request: RoutableRequest, replicas: Sequence[ReplicaView]
    ) -> int:
        matches = {
            replica.index: replica.prefix_match_tokens(request.prompt_ids)
            for replica in replicas
        }
        best = max(matches.values())
        if best < self.stickiness_tokens:
            return min(replicas, key=_load_key).index
        contenders = [r for r in replicas if matches[r.index] == best]
        return min(contenders, key=_load_key).index


# ---- admission control -------------------------------------------------------


class AdmissionView(Protocol):
    """What an admission controller may inspect about the server (duck-typed).

    A cheap snapshot surface: queue depth, co-running session count, the
    outstanding token charge and the concurrency cap. All counts are taken
    *before* the candidate request is added, and the server clock is
    virtual (one unit per step), so admission decisions are deterministic
    and replayable.
    """

    @property
    def n_waiting(self) -> int: ...

    @property
    def n_active(self) -> int: ...

    @property
    def reserved_tokens(self) -> int: ...

    @property
    def max_concurrency(self) -> int: ...


class AdmissibleRequest(Protocol):
    """What an admission controller may inspect about the candidate request."""

    @property
    def prompt_len(self) -> int: ...

    @property
    def sampling(self): ...  # SamplingParams: max_new_tokens, deadlines


class AdmissionController:
    """Base: accept everything (the historical behavior).

    ``should_admit`` returns ``None`` to admit or a human-readable shed
    reason; the server wraps a reason in a typed
    :class:`~repro.api.errors.OverloadedError` (HTTP 429) without
    touching engine state. ``retry_after_s`` sizes the ``Retry-After``
    hint; ``is_shedding`` is the cheap health probe ``/healthz`` reports.
    """

    name = "accept_all"

    def should_admit(
        self, request: AdmissibleRequest, view: AdmissionView
    ) -> str | None:
        return None

    def retry_after_s(self, view: AdmissionView) -> float:
        return 1.0

    def is_shedding(self, view: AdmissionView) -> bool:
        return False


@ADMISSIONS.register("accept_all", "none", "acceptall")
def _build_accept_all() -> AdmissionController:
    return AdmissionController()


@ADMISSIONS.register("queue_depth", "qd", "queuedepth")
class QueueDepthAdmission(AdmissionController):
    """Shed once the waiting queue reaches ``max_waiting`` requests.

    The simplest backpressure signal: a deep queue means every admit
    waits behind everyone already queued, so refusing early converts
    guaranteed deadline blowouts into fast, typed 429s the client can
    retry against another replica or later.
    """

    name = "queue_depth"

    def __init__(self, max_waiting: int = 16):
        if max_waiting < 1:
            raise ValueError(f"max_waiting must be >= 1, got {max_waiting}")
        self.max_waiting = max_waiting

    def should_admit(
        self, request: AdmissibleRequest, view: AdmissionView
    ) -> str | None:
        if view.n_waiting >= self.max_waiting:
            return (
                f"waiting queue full ({view.n_waiting} >= "
                f"max_waiting={self.max_waiting})"
            )
        return None

    def retry_after_s(self, view: AdmissionView) -> float:
        # Rough drain time: one queued request per active slot per step.
        return max(1.0, view.n_waiting / max(1, view.max_concurrency))

    def is_shedding(self, view: AdmissionView) -> bool:
        return view.n_waiting >= self.max_waiting


@ADMISSIONS.register("token_backlog", "tb", "tokenbacklog")
class TokenBacklogAdmission(AdmissionController):
    """Shed once the outstanding token charge would exceed a cap.

    ``reserved_tokens`` (sum of ``prompt + max_new_tokens`` over every
    unfinished session) is the KV the server is committed to if
    everything runs to length — the same charge the least-loaded router
    balances on. Capping it bounds worst-case queueing delay by *work*,
    not request count, so one giant prompt can't hide behind a short
    queue.
    """

    name = "token_backlog"

    def __init__(self, max_backlog_tokens: int = 4096):
        if max_backlog_tokens < 1:
            raise ValueError(
                f"max_backlog_tokens must be >= 1, got {max_backlog_tokens}"
            )
        self.max_backlog_tokens = max_backlog_tokens

    def _cost(self, request: AdmissibleRequest) -> int:
        return request.prompt_len + request.sampling.max_new_tokens

    def should_admit(
        self, request: AdmissibleRequest, view: AdmissionView
    ) -> str | None:
        total = view.reserved_tokens + self._cost(request)
        if total > self.max_backlog_tokens:
            return (
                f"token backlog full ({view.reserved_tokens} reserved + "
                f"{self._cost(request)} requested > "
                f"max_backlog_tokens={self.max_backlog_tokens})"
            )
        return None

    def retry_after_s(self, view: AdmissionView) -> float:
        overflow = view.reserved_tokens - self.max_backlog_tokens
        return max(1.0, overflow / max(1, self.max_backlog_tokens))

    def is_shedding(self, view: AdmissionView) -> bool:
        return view.reserved_tokens >= self.max_backlog_tokens


@ADMISSIONS.register("deadline_feasible", "df", "deadlinefeasible", "edf_admit")
class DeadlineFeasibleAdmission(AdmissionController):
    """Shed requests whose deadline cannot plausibly be met.

    Uses an *optimistic* service estimate on the server's virtual clock:
    the first token needs at least one step plus
    ``queue_delay_per_waiting`` steps per request already waiting, and
    finishing needs ``max_new_tokens`` further steps (co-running greedy
    sessions decode one token per step). A request that misses its
    deadline even under this best case is doomed; admitting it would only
    burn pool blocks and queue slots that push *feasible* requests past
    their own deadlines. Requests without deadlines are always admitted —
    they can't be doomed.
    """

    name = "deadline_feasible"

    def __init__(self, queue_delay_per_waiting: float = 1.0):
        if queue_delay_per_waiting < 0:
            raise ValueError(
                f"queue_delay_per_waiting must be >= 0, "
                f"got {queue_delay_per_waiting}"
            )
        self.queue_delay_per_waiting = queue_delay_per_waiting

    def should_admit(
        self, request: AdmissibleRequest, view: AdmissionView
    ) -> str | None:
        sampling = request.sampling
        ttft = getattr(sampling, "ttft_deadline_s", None)
        total = getattr(sampling, "total_deadline_s", None)
        if ttft is None and total is None:
            return None
        est_ttft = 1.0 + self.queue_delay_per_waiting * view.n_waiting
        if ttft is not None and est_ttft > ttft:
            return (
                f"TTFT deadline infeasible (estimated first token at "
                f"step {est_ttft:g} > deadline {ttft:g})"
            )
        if total is not None and est_ttft + sampling.max_new_tokens > total:
            return (
                f"total deadline infeasible (estimated finish at step "
                f"{est_ttft + sampling.max_new_tokens:g} > deadline {total:g})"
            )
        return None

    def retry_after_s(self, view: AdmissionView) -> float:
        return max(1.0, self.queue_delay_per_waiting * view.n_waiting)

    def is_shedding(self, view: AdmissionView) -> bool:
        # Feasibility depends on each request's own deadline; report
        # shedding once any queueing delay exists at all.
        return view.n_waiting > 0
