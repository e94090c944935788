"""Executor layer: one request stream fanned out over N worker replicas.

The executor owns worker *handles* — uniform little surfaces exposing
``call(op, ...)`` plus a split ``begin_step``/``end_step`` — and all the
cluster-level logic lives once in :class:`ExecutorBase`, operating only
on that surface:

- **routing** through :class:`~repro.serving.placement.PlacementEngine`
  (router registry, probe-once memoization, hit/miss/cold accounting);
- **global/local id translation**: the server requires each replica's
  request ids to be increasing, which a failover resubmission would
  violate, so the executor assigns global ids and submits clones that
  let each worker assign its own local id — stream events, outputs and
  preemption events are translated back at the merge point;
- **lockstep stepping with overlap**: ``begin_step`` fans the step
  command out to every live worker, ``end_step`` collects the results in
  worker-index order. Multiprocess workers therefore run their waves
  (compute *and* modeled dwell) concurrently, while the in-process
  executor degenerates to the sequential reference;
- **fault handling**: a worker that exits, breaks its pipe, or misses
  the ``heartbeat_s`` reply deadline is quarantined, and its in-flight
  requests are resubmitted to survivors through the router. Replayed
  requests are deterministic (portable requests carry seeds, never
  generator state), so the replayed stream's already-delivered prefix is
  suppressed by count and clients observe an exactly-once token stream.

Determinism contract: with no worker deaths,
:class:`MultiprocExecutor` and :class:`InProcessExecutor` produce
bit-identical per-request token streams, placements and finish reasons
for the same submission sequence — and with deaths injected at the same
step (:meth:`ExecutorBase.kill_worker`), the merged client streams stay
bit-identical too.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.api.config import ClusterConfig, EngineConfig
from repro.api.errors import EngineUnavailableError
from repro.api.request import GenerationOutput, GenerationRequest
from repro.models.llm import TransformerLM
from repro.serving.engine.worker import (
    StepResult,
    WorkerCore,
    WorkerSnapshot,
    worker_main,
)
from repro.serving.meter import ThroughputMeter
from repro.serving.placement import (
    ClusterPreemptionEvent,
    MigrationPlan,
    PlacementEngine,
)
from repro.serving.server import RequestFailure, SpeContextServer, StreamEvent

# Load sentinel for dead workers' router views: large enough that any
# load-aware router avoids them, finite so key arithmetic stays exact.
_DEAD_LOAD = 1 << 40

# Prompt placeholder for load-only probes (rebalance planning): the
# prefix match against an empty prompt is always 0, so the probe costs
# no hash-chain walk.
_EMPTY_PROMPT = np.zeros(0, dtype=np.int64)

# A freshly spawned worker is silent while it forks and builds its
# server replica, so the no-progress watchdog would misread boot as a
# stall under a tight heartbeat. Until the first progress beat is
# observed, the reply deadline is at least this wide.
_BOOT_GRACE_S = 30.0


class WorkerDied(RuntimeError):
    """A worker stopped responding or exited; raised by its handle."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"worker {index} died: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class WorkerHealth:
    """One worker's liveness as the executor sees it."""

    index: int
    alive: bool
    inflight: int
    exitcode: int | None = None


class _WorkerView:
    """Router-facing surface of one worker, fed by a one-shot probe."""

    def __init__(self, index: int, reserved: int, depth: int, match: int):
        self.index = index
        self.reserved_tokens = reserved
        self.queue_depth = depth
        self._match = match

    def prefix_match_tokens(self, prompt_ids: np.ndarray) -> int:
        return self._match


# ---- worker handles ----------------------------------------------------------


class _InProcessHandle:
    """One server replica driven directly (the reference executor)."""

    def __init__(
        self,
        index: int,
        model: TransformerLM,
        config: EngineConfig,
        pace_s_per_token: float,
    ):
        self.index = index
        self._core = WorkerCore(
            SpeContextServer(model, config), pace_s_per_token
        )
        self._alive = True
        self._stalled = False

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def exitcode(self) -> int | None:
        return None

    def _check(self) -> None:
        if self._stalled:
            # Injected stall: in-process there is no watchdog to time the
            # worker out, so the stall manifests directly as the death the
            # watchdog would have declared — same observable outcome, same
            # deterministic step, as the multiprocess path.
            self._stalled = False
            self._alive = False
            raise WorkerDied(self.index, "stalled")
        if not self._alive:
            raise WorkerDied(self.index, "killed")

    def call(self, op: str, *args) -> object:
        self._check()
        return self._core.handle(op, args)

    def begin_step(self) -> None:
        self._check()

    def end_step(self) -> StepResult:
        return self.call("step")

    def inject_stall(self) -> None:
        """Arm a stall: the next command quarantines this worker."""
        self._stalled = True

    def kill(self) -> None:
        self._alive = False

    def close(self) -> None:
        self._alive = False


class _MultiprocHandle:
    """One server replica in a child process, behind a pipe."""

    def __init__(
        self,
        index: int,
        model: TransformerLM,
        config: EngineConfig,
        pace_s_per_token: float,
        heartbeat_s: float,
        ctx,
        pipe_retries: int = 2,
        pipe_retry_backoff_s: float = 0.05,
    ):
        self.index = index
        self.heartbeat_s = float(heartbeat_s)
        self.pipe_retries = int(pipe_retries)
        self.pipe_retry_backoff_s = float(pipe_retry_backoff_s)
        self._drop_pending = 0  # chaos-injected transient send failures
        parent, child = ctx.Pipe()
        self._conn = parent
        # Shared per-step progress counter: the worker bumps it on every
        # command and dwell slice, and _recv treats any advance as
        # liveness — heartbeat_s becomes a *no-progress* deadline rather
        # than a hard reply deadline, so slow-but-progressing waves
        # survive while a frozen worker is still caught.
        self._progress = ctx.Value("Q", 0, lock=False)
        # The counter stays 0 until the child finishes booting (forking,
        # building its server replica) and handles its first command, so
        # the no-progress deadline only applies once the worker has
        # beaten at least once; before that, a boot grace window governs.
        self._booted = False
        self._proc = ctx.Process(
            target=worker_main,
            args=(child, model, config, pace_s_per_token, self._progress),
            daemon=True,
            name=f"repro-engine-worker-{index}",
        )
        self._proc.start()
        child.close()
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def exitcode(self) -> int | None:
        return self._proc.exitcode

    def call(self, op: str, *args) -> object:
        self._send(op, args)
        return self._recv(op)

    def begin_step(self) -> None:
        self._send("step", ())

    def end_step(self) -> StepResult:
        return self._recv("step")

    def inject_pipe_drops(self, drops: int) -> None:
        """Arm chaos: the next ``drops`` sends fail with a transient OSError."""
        self._drop_pending += int(drops)

    def _send(self, op: str, args: tuple) -> None:
        if not self._alive:
            raise WorkerDied(self.index, "already quarantined")
        attempt = 0
        while True:
            try:
                if self._drop_pending > 0:
                    self._drop_pending -= 1
                    raise OSError("injected transient pipe drop")
                self._conn.send((op, args))
                return
            except BrokenPipeError as err:
                # A broken pipe means the far end is gone — retrying
                # cannot help, fail over immediately.
                self._fail(f"pipe broke sending {op!r}: {err}")
            except OSError as err:
                attempt += 1
                if attempt > self.pipe_retries:
                    self._fail(
                        f"pipe error sending {op!r} persisted through "
                        f"{attempt} attempts: {err}"
                    )
                # Transient error (EINTR, spurious EAGAIN, injected chaos
                # drop): back off linearly and retry before declaring the
                # worker dead.
                time.sleep(self.pipe_retry_backoff_s * attempt)

    def _recv(self, op: str) -> object:
        last_progress = self._progress.value
        if last_progress != 0:
            self._booted = True
        window = (
            self.heartbeat_s
            if self._booted
            else max(self.heartbeat_s, _BOOT_GRACE_S)
        )
        # The watchdog times out *real* child processes, so it must run
        # on real time; it never feeds the deterministic step clock —
        # death detection resolves to the same deterministic step either
        # way (see test_engine_executor.py failover bit-identity).
        # repro: allow(wall-clock): no-progress watchdog deadline
        deadline = time.monotonic() + window
        while True:
            progress = self._progress.value
            if progress != last_progress:
                # The worker advanced (command dispatch or a dwell-slice
                # beat): it is slow, not stalled — restart the deadline.
                last_progress = progress
                self._booted = True
                window = self.heartbeat_s
                # repro: allow(wall-clock): watchdog deadline restart
                deadline = time.monotonic() + window
            remaining = deadline - time.monotonic()  # repro: allow(wall-clock)
            if remaining <= 0:
                self._fail(
                    f"no reply to {op!r} and no progress within "
                    f"{window}s"
                )
            try:
                ready = self._conn.poll(min(remaining, 0.05))
            except (BrokenPipeError, OSError) as err:
                self._fail(f"pipe broke awaiting {op!r}: {err}")
            if ready:
                try:
                    status, payload = self._conn.recv()
                except (EOFError, OSError) as err:
                    self._fail(f"pipe closed during {op!r}: {err}")
                if status == "err":
                    raise payload
                return payload
            if self._proc.exitcode is not None:
                self._fail(f"process exited with code {self._proc.exitcode}")

    def _fail(self, reason: str) -> None:
        self._alive = False
        try:
            self._conn.close()
        except OSError:
            pass
        raise WorkerDied(self.index, reason)

    def kill(self) -> None:
        """Hard-kill the child (fault injection / quarantine cleanup)."""
        self._alive = False
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():  # pragma: no cover - stuck child
                self._proc.kill()
                self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def close(self) -> None:
        """Graceful shutdown: ask the worker to exit, then reap it."""
        if self._alive:
            self._alive = False
            try:
                self._conn.send(("shutdown", ()))
            except (BrokenPipeError, OSError):
                pass
        self._proc.join(timeout=self.heartbeat_s)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:
            pass


# ---- executors ---------------------------------------------------------------


class ExecutorBase:
    """Shared cluster-level logic over a list of worker handles."""

    kind = "base"

    def __init__(
        self,
        model: TransformerLM,
        config: EngineConfig | None = None,
        cluster: ClusterConfig | None = None,
    ):
        self.config = config or EngineConfig()
        self.cluster = cluster or ClusterConfig()
        self._handles = self._spawn(model)
        n = len(self._handles)
        self.placement = PlacementEngine(self.cluster, n)
        self.routing = self.placement.routing
        self.migrations: list[MigrationPlan] = []  # applied, in order
        self._steps_since_rebalance = 0
        self._templates: dict[int, GenerationRequest] = {}
        self._assignment: dict[int, tuple[int, int]] = {}  # gid -> (worker, lid)
        self._locals: list[dict[int, int]] = [{} for _ in range(n)]
        self._inflight: set[int] = set()
        self._delivered: dict[int, int] = {}
        self._replay_skip: dict[int, int] = {}
        self._stream: list[StreamEvent] = []
        self._failures: list[RequestFailure] = []
        self._outputs: dict[int, GenerationOutput] = {}
        self._preemption_log: list[ClusterPreemptionEvent] = []
        self._pending_recovery: list[int] = []
        self.resubmissions: list[tuple[int, int]] = []  # (gid, new worker)
        self._next_id = 0
        self._clock = 0.0
        self._draining = False

    def _spawn(self, model: TransformerLM) -> list:
        raise NotImplementedError

    # ---- introspection ---------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._handles)

    @property
    def n_alive(self) -> int:
        return sum(1 for h in self._handles if h.alive)

    @property
    def degraded(self) -> bool:
        """True once any worker has been quarantined."""
        return self.n_alive < self.n_workers

    def _fan_out(self, op: str, *args) -> dict[int, object]:
        """Reply of ``op`` per live worker index.

        A worker that dies mid-call is left out and queued for recovery;
        callers run :meth:`_drain_recovery` once their own bookkeeping
        is consistent.
        """
        replies: dict[int, object] = {}
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                replies[handle.index] = handle.call(op, *args)
            except WorkerDied:
                self._pending_recovery.append(handle.index)
        return replies

    def snapshots(self) -> dict[int, WorkerSnapshot]:
        """Per-worker accounting (pool, meter, shedding) of live workers.

        Records held by quarantined workers are unavailable (in the
        multiprocess case their processes are gone).
        """
        snapshots = self._fan_out("stats")
        self._drain_recovery()
        return snapshots

    def shedding(self) -> bool:
        """True when any live worker's admission policy is shedding."""
        return any(s.shedding for s in self.snapshots().values())

    def worker_of(self, request_id: int) -> int:
        """Worker index a submitted request currently lives on."""
        return self._assignment[request_id][0]

    def health(self) -> list[WorkerHealth]:
        counts: dict[int, int] = {}
        for gid, (worker, _) in self._assignment.items():
            if gid in self._inflight:
                counts[worker] = counts.get(worker, 0) + 1
        return [
            WorkerHealth(
                index=h.index,
                alive=h.alive,
                inflight=counts.get(h.index, 0),
                exitcode=h.exitcode,
            )
            for h in self._handles
        ]

    # ---- submission ------------------------------------------------------------

    def add_request(self, request: GenerationRequest) -> int:
        """Validate, route and submit one request; returns its global id.

        On rejection (validation error from the executor or the chosen
        worker) the request object, the id counter, the routing stats
        and the router cursor are restored, so a rejected submission is
        retryable and placement stays identical to a run that never saw
        it.
        """
        if self._draining:
            raise EngineUnavailableError(
                "engine is draining; new requests are not accepted"
            )
        if self.n_alive == 0:
            raise EngineUnavailableError("no live workers")
        if request.request_id is not None and request.request_id < self._next_id:
            raise ValueError(
                f"request_id {request.request_id} already used; ids must be "
                "unique and increasing"
            )
        request.validate()
        views = self._probe(request.prompt_ids)
        placement = self.placement.place(
            request, views, [h.alive for h in self._handles]
        )
        chosen = placement.target
        gid = request.request_id if request.request_id is not None else (
            self._next_id
        )
        template = self._clone(request)
        try:
            lid = self._handles[chosen].call("submit", self._clone(request))
        except WorkerDied:
            # The chosen worker died between probe and submit. Quarantine
            # it (recovering its in-flight work) and re-run placement;
            # the router cursor stays advanced, matching how a cursor
            # router simply walks past a dead worker.
            self._pending_recovery.append(chosen)
            self._drain_recovery()
            return self.add_request(request)
        except Exception:
            self.placement.rollback(placement)
            raise
        self.placement.commit(placement)
        request.request_id = gid
        self._next_id = gid + 1
        self._templates[gid] = template
        self._assignment[gid] = (chosen, lid)
        self._locals[chosen][lid] = gid
        self._inflight.add(gid)
        self._delivered[gid] = 0
        self._drain_recovery()
        return gid

    def abort(self, request_id: int) -> bool:
        """Drop an in-flight request (client disconnect).

        Returns False when the id is unknown or already finished (abort
        races against completion; that is not an error).
        """
        if request_id not in self._inflight:
            return False
        worker, lid = self._assignment[request_id]
        handle = self._handles[worker]
        if handle.alive:
            try:
                handle.call("abort", lid)
            except WorkerDied:
                self._pending_recovery.append(worker)
        self._inflight.discard(request_id)
        self._assignment.pop(request_id, None)
        self._locals[worker].pop(lid, None)
        self._templates.pop(request_id, None)
        self._drain_recovery()
        return True

    @staticmethod
    def _clone(request: GenerationRequest) -> GenerationRequest:
        """A pristine, unsubmitted copy (prompt array shared, read-only)."""
        return replace(
            request, policy_opts=dict(request.policy_opts), request_id=None
        )

    def _probe(self, prompt_ids: np.ndarray) -> list[_WorkerView]:
        """One load/affinity probe per worker; dead workers get sentinels."""
        replies = self._fan_out("probe", prompt_ids)
        dead = (_DEAD_LOAD, _DEAD_LOAD, 0)
        return [
            _WorkerView(index, *replies.get(index, dead))
            for index in range(self.n_workers)
        ]

    # ---- stepping --------------------------------------------------------------

    @property
    def clock(self) -> float:
        """The shared step-count clock (workers tick in lockstep)."""
        return self._clock

    def advance_clock_to(self, when: float) -> None:
        """Jump every live worker's idle clock forward (trace gaps)."""
        self._fan_out("advance_clock", when)
        self._clock = float(when)
        self._drain_recovery()

    @property
    def has_unfinished(self) -> bool:
        return bool(self._inflight)

    def step(self) -> list[GenerationOutput]:
        """Drive every live worker one wave; merge into one client view.

        ``begin_step`` is fanned out to all live workers before any
        ``end_step`` is awaited, so multiprocess workers overlap their
        waves; results are merged in worker-index order (emission order
        within a worker) — a deterministic total order. All live workers
        step every time (idle ones merely tick their clock), so merged
        meter percentiles are measured on one shared timeline. Workers
        that die during the wave are quarantined afterwards and their
        in-flight requests resubmitted to survivors. Returns the requests
        that finished during this step, sorted by global id.
        """
        self._drain_recovery()
        stepping = [h for h in self._handles if h.alive]
        for handle in stepping:
            try:
                handle.begin_step()
            except WorkerDied:
                pass  # collected below: handle.alive is now False
        finished: list[GenerationOutput] = []
        for handle in stepping:
            if not handle.alive:
                self._pending_recovery.append(handle.index)
                continue
            try:
                result = handle.end_step()
            except WorkerDied:
                self._pending_recovery.append(handle.index)
                continue
            finished.extend(self._merge_step(handle.index, result))
        self._drain_recovery()
        self._clock += 1.0
        if self.placement.disaggregated:
            loads, migratable = self._migration_state()
            self._apply_plans(
                self.placement.plan_handoffs(loads, migratable)
            )
        every = self.cluster.rebalance_every
        if every > 0:
            self._steps_since_rebalance += 1
            if self._steps_since_rebalance >= every:
                self._steps_since_rebalance = 0
                self.rebalance()
        return sorted(finished, key=lambda o: o.request_id)

    def run(self) -> list[GenerationOutput]:
        """Step until all in-flight work drains; outputs by global id."""
        outputs: list[GenerationOutput] = []
        while self.has_unfinished:
            outputs.extend(self.step())
        return sorted(outputs, key=lambda o: o.request_id)

    # ---- live migration --------------------------------------------------------

    def rebalance(self) -> list[MigrationPlan]:
        """Drain sessions from overloaded workers onto idle ones.

        Plans via the shared :meth:`~repro.serving.placement
        .PlacementEngine.plan_rebalance` and applies each move with the
        ``export_kv``/``import_kv`` worker ops. A worker dying mid-pass
        is quarantined and its in-flight work recovered by the ordinary
        failover machinery; the migrated request's remaining stream is
        bit-identical to a never-migrated run either way (migration
        moves state, failover replays deterministically). Returns the
        plans actually applied. Must be called between steps.
        """
        self._drain_recovery()
        loads, migratable = self._migration_state()
        return self._apply_plans(
            self.placement.plan_rebalance(loads, migratable)
        )

    def migrate(self, request_id: int, target: int) -> bool:
        """Migrate one in-flight request to ``target`` (manual override).

        Returns False when the request is unknown or already finished,
        already lives on ``target``, or ``target`` is quarantined;
        raises :class:`IndexError` for an out-of-range target. Must be
        called between steps.
        """
        if not 0 <= target < self.n_workers:
            raise IndexError(
                f"target worker {target} out of range "
                f"(executor has {self.n_workers})"
            )
        assignment = self._assignment.get(request_id)
        if (
            assignment is None
            or assignment[0] == target
            or not self._handles[target].alive
        ):
            return False
        template = self._templates[request_id]
        plan = MigrationPlan(
            request_id=request_id,
            source=assignment[0],
            target=target,
            charge=template.prompt_len + template.sampling.max_new_tokens,
            reason="manual",
        )
        return bool(self._apply_plans([plan]))

    def _migration_state(
        self,
    ) -> tuple[list[int | None], dict[int, list[tuple[int, int, bool]]]]:
        """Per-worker loads and migratable sessions, in *global* ids."""
        probes = self._fan_out("probe", _EMPTY_PROMPT)
        sessions = self._fan_out("migratable")
        loads: list[int | None] = [None] * self.n_workers
        migratable: dict[int, list[tuple[int, int, bool]]] = {}
        for index, rows in sessions.items():
            reserved, depth, _ = probes[index]
            loads[index] = reserved + depth
            lids = self._locals[index]
            migratable[index] = [
                (gid, charge, done)
                for lid, charge, done in rows
                if (gid := lids.get(lid)) is not None
                and gid in self._inflight
            ]
        self._drain_recovery()
        return loads, migratable

    def _apply_plans(
        self, plans: list[MigrationPlan]
    ) -> list[MigrationPlan]:
        """Execute migration plans: export from source, import at target.

        Fault tolerance mirrors submission: a source dying mid-export is
        quarantined (its in-flight requests — including this one — are
        resubmitted as deterministic replays); a target dying mid-import
        falls through to the next live worker, and when none can adopt
        the snapshot the request is resubmitted from its template.
        """
        applied: list[MigrationPlan] = []
        for plan in plans:
            gid = plan.request_id
            assignment = self._assignment.get(gid)
            if assignment is None or assignment[0] != plan.source:
                continue  # finished, aborted or already moved
            old_lid = assignment[1]
            try:
                export = self._handles[plan.source].call(
                    "export_kv", old_lid
                )
            except WorkerDied:
                # Chaos kill mid-migration: ordinary failover recovers
                # every in-flight request of the source, this one
                # included, as a deterministic replay.
                self._pending_recovery.append(plan.source)
                self._drain_recovery()
                continue
            if export is None:
                continue  # finished between planning and export
            self._locals[plan.source].pop(old_lid, None)
            placed = False
            candidates = [plan.target] + [
                i
                for i in range(self.n_workers)
                if i != plan.target and self._handles[i].alive
            ]
            for target in candidates:
                if not self._handles[target].alive:
                    continue
                try:
                    new_lid = self._handles[target].call("import_kv", export)
                except WorkerDied:
                    self._pending_recovery.append(target)
                    continue
                self._assignment[gid] = (target, new_lid)
                self._locals[target][new_lid] = gid
                done = (
                    plan
                    if target == plan.target
                    else replace(plan, target=target)
                )
                self.migrations.append(done)
                applied.append(done)
                placed = True
                break
            if not placed:
                # Every adoption attempt failed: fall back to a fresh
                # deterministic replay on whatever is still alive.
                self._resubmit(gid)
            self._drain_recovery()
        return applied

    def _merge_step(
        self, index: int, result: StepResult
    ) -> list[GenerationOutput]:
        """Translate one worker's wave into global ids and accumulate it."""
        lids = self._locals[index]
        for event in result.stream_events:
            gid = lids.get(event.request_id)
            if gid is None or gid not in self._inflight:
                continue  # aborted or unknown: drop silently
            if event.error is not None:
                # Terminal error event: not a token — never counts toward
                # delivered/replay accounting (a resubmitted request that
                # expires again must still surface exactly one of these).
                self._stream.append(replace(event, request_id=gid))
                continue
            if self._replay_skip.get(gid, 0) > 0:
                # Replayed prefix of a resubmitted request: the client
                # already holds these tokens (deterministic replay), so
                # suppress them by count for exactly-once delivery.
                self._replay_skip[gid] -= 1
                continue
            self._delivered[gid] = self._delivered.get(gid, 0) + 1
            self._stream.append(replace(event, request_id=gid))
        for event in result.preemption_events:
            gid = lids.get(event.request_id)
            if gid is None:
                continue
            self._preemption_log.append(
                ClusterPreemptionEvent(
                    replica=index, event=replace(event, request_id=gid)
                )
            )
        for failure in result.failures:
            gid = lids.pop(failure.request_id, None)
            if gid is None or gid not in self._inflight:
                continue  # aborted or already terminal: drop silently
            # A failed request leaves the in-flight set immediately, so a
            # later death of any worker can never resubmit it — exactly
            # one typed failure reaches the client.
            self._failures.append(replace(failure, request_id=gid))
            self._inflight.discard(gid)
            self._assignment.pop(gid, None)
            self._templates.pop(gid, None)
            self._replay_skip.pop(gid, None)
        finished: list[GenerationOutput] = []
        for output in result.finished:
            gid = lids.pop(output.request_id, None)
            if gid is None or gid not in self._inflight:
                continue
            output.request_id = gid
            self._outputs[gid] = output
            self._inflight.discard(gid)
            self._assignment.pop(gid, None)
            self._replay_skip.pop(gid, None)
            finished.append(output)
        return finished

    # ---- fault handling --------------------------------------------------------

    def kill_worker(self, index: int) -> list[int]:
        """Forcibly kill one worker (fault injection).

        Works identically on both executors, so failover tests can
        inject the same death at the same step and compare streams.
        Returns the global ids that were resubmitted to survivors.
        """
        self._handles[index].kill()
        orphans = self._on_worker_death(index)
        self._drain_recovery()
        return orphans

    def inject_fault(
        self,
        index: int,
        kind: str,
        *,
        duration_s: float = 0.0,
        drops: int = 1,
    ) -> None:
        """Arm one fault on one worker (the chaos harness's entry point).

        Kinds:

        - ``"kill"``: hard-kill now (same as :meth:`kill_worker`);
        - ``"stall"``: the worker freezes during its next wave without
          progress beats. Multiprocess workers sleep ``duration_s``
          un-beating (set it past ``heartbeat_s`` so the watchdog fires);
          in-process workers are quarantined at their next command — the
          same observable outcome at the same step, since there is no
          watchdog to time out in-process;
        - ``"slow_step"``: the worker's next wave takes ``duration_s``
          longer but beats throughout — it must *survive* the watchdog;
        - ``"pipe_drop"``: the next ``drops`` sends to a multiprocess
          worker fail transiently (retry-with-backoff must absorb drops
          up to ``pipe_retries``); a no-op for in-process workers, which
          have no pipe.
        """
        handle = self._handles[index]
        if kind == "kill":
            self.kill_worker(index)
        elif kind == "stall":
            if hasattr(handle, "inject_stall"):
                handle.inject_stall()
            else:
                handle.call("chaos", "stall", duration_s)
        elif kind == "slow_step":
            handle.call("chaos", "slow_step", duration_s)
        elif kind == "pipe_drop":
            if hasattr(handle, "inject_pipe_drops"):
                handle.inject_pipe_drops(drops)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    def _drain_recovery(self) -> None:
        while self._pending_recovery:
            self._on_worker_death(self._pending_recovery.pop(0))

    def _on_worker_death(self, index: int) -> list[int]:
        """Quarantine a worker and resubmit its in-flight requests."""
        self._handles[index].kill()
        orphans = sorted(
            gid
            for gid, (worker, _) in self._assignment.items()
            if worker == index and gid in self._inflight
        )
        self._locals[index].clear()
        for gid in orphans:
            self._resubmit(gid)
        return orphans

    def _resubmit(self, gid: int) -> None:
        """Re-place one orphaned request on a survivor (fresh replay)."""
        template = self._templates[gid]
        while True:
            if self.n_alive == 0:
                raise EngineUnavailableError(
                    f"all workers dead; cannot recover request {gid}"
                )
            views = self._probe(template.prompt_ids)
            chosen = self.placement.place(
                template, views, [h.alive for h in self._handles]
            ).target
            try:
                lid = self._handles[chosen].call(
                    "submit", self._clone(template)
                )
                break
            except WorkerDied:
                self._pending_recovery.append(chosen)
        self._assignment[gid] = (chosen, lid)
        self._locals[chosen][lid] = gid
        self._replay_skip[gid] = self._delivered.get(gid, 0)
        self.resubmissions.append((gid, chosen))

    # ---- merged views ----------------------------------------------------------

    def pop_stream_events(self) -> list[StreamEvent]:
        """Drain the merged per-token stream (global request ids)."""
        events = self._stream
        self._stream = []
        return events

    def pop_failures(self) -> list[RequestFailure]:
        """Drain typed per-request failures (global request ids)."""
        failures = self._failures
        self._failures = []
        return failures

    @property
    def preemption_log(self) -> list[ClusterPreemptionEvent]:
        """Every preemption on any worker, in merged client order."""
        return list(self._preemption_log)

    @property
    def outputs(self) -> list[GenerationOutput]:
        """All finished outputs so far, sorted by global id."""
        return [self._outputs[gid] for gid in sorted(self._outputs)]

    def stats(self) -> ThroughputMeter:
        """Engine-wide meter: the union of live workers' records.

        Percentiles over the union are not derivable from per-worker
        aggregates, hence :meth:`ThroughputMeter.merge` rather than any
        averaging of worker meters. Recovered requests are re-timed from
        their resubmission.
        """
        return ThroughputMeter.merge(
            *(s.meter for s in self.snapshots().values())
        )

    def audit_pools(self) -> int:
        """Run the pool-invariant audit on every live worker's replica.

        Fans the ``audit`` op out to alive workers (it runs inside the
        worker process, where the pool lives) and returns how many
        replicas were audited. A violation ships back as
        :class:`~repro.kvcache.pool.PoolAuditError` and is re-raised
        here; a worker dying during the audit is treated like any other
        death (quarantine + recovery), not an audit failure.
        """
        audited = len(self._fan_out("audit"))
        self._drain_recovery()
        return audited

    # ---- lifecycle -------------------------------------------------------------

    def drain(self) -> list[GenerationOutput]:
        """Stop accepting new requests and run in-flight work to empty."""
        self._draining = True
        return self.run()

    def shutdown(self) -> None:
        """Release every worker (graceful where possible)."""
        for handle in self._handles:
            handle.close()

    def __enter__(self) -> "ExecutorBase":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class InProcessExecutor(ExecutorBase):
    """All workers in this process — the zero-IPC reference executor."""

    kind = "inproc"

    def _spawn(self, model: TransformerLM) -> list:
        return [
            _InProcessHandle(
                i, model, self.config, self.cluster.pace_s_per_token
            )
            for i in range(self.cluster.n_replicas)
        ]


class MultiprocExecutor(ExecutorBase):
    """Each worker in its own child process, stepped with overlap."""

    kind = "multiproc"

    def _spawn(self, model: TransformerLM) -> list:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        return [
            _MultiprocHandle(
                i,
                model,
                self.config,
                self.cluster.pace_s_per_token,
                self.cluster.heartbeat_s,
                ctx,
                pipe_retries=self.cluster.pipe_retries,
                pipe_retry_backoff_s=self.cluster.pipe_retry_backoff_s,
            )
            for i in range(self.cluster.n_replicas)
        ]


_EXECUTORS = {
    "inproc": InProcessExecutor,
    "multiproc": MultiprocExecutor,
}


def make_executor(
    model: TransformerLM,
    config: EngineConfig | None = None,
    cluster: ClusterConfig | None = None,
) -> ExecutorBase:
    """Build the executor named by ``cluster.executor``."""
    cluster = cluster or ClusterConfig()
    try:
        kind = _EXECUTORS[cluster.executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {cluster.executor!r}; "
            f"available: {sorted(_EXECUTORS)}"
        ) from None
    return kind(model, config, cluster)
