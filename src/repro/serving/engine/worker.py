"""Worker side of the process-parallel engine.

One worker wraps one :class:`~repro.serving.server.SpeContextServer`
replica behind a tiny command protocol. The same dispatcher
(:class:`WorkerCore`) backs both executors:

- the in-process executor calls :meth:`WorkerCore.handle` directly
  (the reference path — no serialization, no processes);
- the multiprocess executor runs :func:`worker_main` as a child
  process target and speaks the identical protocol over a
  ``multiprocessing`` pipe, so any behavioural difference between the
  two executors is a pipe/pickle bug by construction, never a
  semantics fork.

Protocol: the executor sends ``(op, args)`` tuples and the worker
answers ``("ok", payload)`` or ``("err", exception)`` — exceptions
(e.g. the typed validation errors from :mod:`repro.api.errors`) are
shipped back and re-raised executor-side; the worker loop survives
them. A ``shutdown`` op acknowledges and exits the loop.

Each ``step`` command drives exactly one server wave and returns a
:class:`StepResult` carrying everything the wave produced (stream
events, new preemptions, finished outputs, queue gauges). With
``pace_s_per_token`` set, the worker sleeps that long per token it
processed before replying — modeling per-device accelerator dwell.
Paced workers sleep *inside their own processes*, so the executor's
fan-out overlaps the dwell across workers; this is what the engine
benchmark measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.serving.meter import ThroughputMeter
from repro.serving.server import (
    PreemptionEvent,
    RequestFailure,
    SpecDecodeStats,
    SpeContextServer,
    StreamEvent,
)

# Progress beats and cooperative chaos sleeps tick in slices this long,
# so a slow-but-alive worker keeps advancing its progress counter often
# enough for any sane heartbeat to observe.
_BEAT_SLICE_S = 0.05

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.config import EngineConfig
    from repro.api.request import GenerationOutput, GenerationRequest
    from repro.kvcache.pool import PoolStats
    from repro.models.llm import TransformerLM


@dataclass(frozen=True)
class StepResult:
    """Everything one worker wave produced, shipped back to the executor.

    ``stream_events``/``finished`` speak the worker's *local* request
    ids; the executor translates them to global ids. ``step_tokens`` is
    the wave's total forward-pass work (decoded tokens plus prefill
    tokens), the quantity pacing charges dwell for.
    """

    stream_events: tuple[StreamEvent, ...]
    preemption_events: tuple[PreemptionEvent, ...]
    finished: tuple["GenerationOutput", ...]
    has_unfinished: bool
    clock: float
    n_active: int
    n_waiting: int
    step_tokens: int
    failures: tuple[RequestFailure, ...] = ()


@dataclass(frozen=True)
class WorkerSnapshot:
    """Point-in-time worker accounting, shipped back on a ``stats`` op."""

    meter: ThroughputMeter
    pool: "PoolStats"
    clock: float
    n_active: int
    n_waiting: int
    reserved_tokens: int
    shedding: bool = False
    n_rejected: int = 0
    spec_stats: SpecDecodeStats = field(default_factory=SpecDecodeStats)


class WorkerCore:
    """Command dispatcher around one server replica.

    Ops (all total, all synchronous):

    - ``submit(request)`` -> local request id (or a validation error);
    - ``probe(prompt_ids)`` -> ``(reserved_tokens, queue_depth,
      prefix_match_tokens)`` — the router-facing load/affinity surface;
    - ``step()`` -> :class:`StepResult` for one wave;
    - ``advance_clock(when)`` -> jump the idle clock (trace gaps);
    - ``abort(local_id)`` -> bool, drop an in-flight request;
    - ``stats()`` -> :class:`WorkerSnapshot`;
    - ``audit()`` -> run the pool-invariant audit in-process (raises
      :class:`~repro.kvcache.pool.PoolAuditError` on violation);
    - ``migratable()`` -> ``(local_id, charge, prefill_done)`` per
      unfinished session — the executor's rebalance planning surface;
    - ``export_kv(local_id)`` -> :class:`~repro.serving.server
      .SessionExport` (or None if finished) — the session leaves this
      replica entirely, KV blocks freed, published chain deep-copied
      into the export;
    - ``import_kv(export)`` -> new local id — adopt a migrated session
      under a fresh id in this replica's local id space;
    - ``ping()`` -> ``"pong"`` (liveness probe).
    """

    def __init__(
        self,
        server: SpeContextServer,
        pace_s_per_token: float = 0.0,
        beat: Callable[[], None] | None = None,
    ):
        self.server = server
        self.pace_s_per_token = float(pace_s_per_token)
        # Progress beat: called at every command and in slices during
        # modeled dwell, so the executor's watchdog can tell a *slow*
        # worker (beats keep coming) from a *stalled* one (they stop).
        self._beat = beat or (lambda: None)
        self._preemption_cursor = 0
        self._chaos_fault: tuple[str, float] | None = None

    def handle(self, op: str, args: tuple) -> object:
        self._beat()
        method = getattr(self, f"_op_{op}", None)
        if method is None:
            raise ValueError(f"unknown worker op {op!r}")
        return method(*args)

    def _sleep_with_beats(self, total_s: float) -> None:
        """Sleep ``total_s`` in short slices, beating after each slice."""
        remaining = float(total_s)
        while remaining > 0:
            time.sleep(min(_BEAT_SLICE_S, remaining))
            remaining -= _BEAT_SLICE_S
            self._beat()

    # ---- ops -------------------------------------------------------------------

    def _op_submit(self, request: "GenerationRequest") -> int:
        return self.server.add_request(request)

    def _op_probe(self, prompt_ids: np.ndarray) -> tuple[int, int, int]:
        server = self.server
        return (
            server.reserved_tokens,
            server.n_waiting,
            server.pool.longest_prefix_match(prompt_ids),
        )

    def _op_advance_clock(self, when: float) -> None:
        self.server.advance_clock_to(when)

    def _op_abort(self, request_id: int) -> bool:
        return self.server.abort(request_id)

    def _op_stats(self) -> WorkerSnapshot:
        server = self.server
        return WorkerSnapshot(
            meter=server.meter,
            pool=server.pool.stats,
            clock=server.clock,
            n_active=server.n_active,
            n_waiting=server.n_waiting,
            reserved_tokens=server.reserved_tokens,
            shedding=server.shedding,
            n_rejected=len(server.meter.rejected),
            spec_stats=server.spec_stats,
        )

    # Liveness probe addressed to tests and external tooling; the
    # executor's watchdog reads the shared progress counter instead.
    def _op_ping(self) -> str:  # repro: allow(unused-op): test liveness probe
        return "pong"

    def _op_migratable(self) -> list[tuple[int, int, bool]]:
        """Local-id snapshot of unfinished sessions for rebalance planning."""
        return self.server.migratable_requests()

    def _op_export_kv(self, request_id: int):
        """Drain one session into a portable snapshot (live migration).

        Returns the :class:`~repro.serving.server.SessionExport` (or
        None when the id is unknown or finished — a rebalance pass races
        against completion). The snapshot is the server's own session
        record (dense KV cache, live policy/RNG objects, every progress
        field) plus the published prefix chain; it pickles across the
        pipe like any other reply.
        """
        return self.server.export_session(request_id)

    def _op_import_kv(self, export) -> int:
        """Adopt a migrated session under a fresh local request id.

        The exported id is source-local and could collide with an
        unrelated session here, so the session is re-keyed into this
        replica's own id space; the executor maps the returned local id
        back to the request's global id.
        """
        return self.server.import_session(
            export, new_request_id=self.server.next_request_id
        )

    def _op_audit(self) -> bool:
        """Run the pool-invariant audit inside the worker process.

        Raises (and ships back) PoolAuditError on violation, so the
        chaos harness can audit every replica's pool — including child
        processes the executor cannot reach directly — after each plan.
        """
        self.server.audit_pool()
        return True

    def _op_chaos(self, kind: str, duration_s: float) -> str:
        """Arm a one-shot cooperative fault, executed at the next step.

        ``slow_step`` sleeps ``duration_s`` *with* progress beats — the
        worker is slow but demonstrably alive, and the executor's
        watchdog must let it finish. ``stall`` sleeps *without* beats —
        alive but frozen, exactly the failure mode the progress watchdog
        (not the exitcode check) has to catch. Arming is synchronous and
        cheap; the fault itself fires inside the next wave.
        """
        if kind not in ("slow_step", "stall"):
            raise ValueError(f"unknown chaos fault kind {kind!r}")
        self._chaos_fault = (kind, float(duration_s))
        return "armed"

    def _op_step(self) -> StepResult:
        fault = self._chaos_fault
        self._chaos_fault = None
        if fault is not None:
            kind, duration_s = fault
            if kind == "slow_step":
                self._sleep_with_beats(duration_s)
            else:  # stall: no beats — the progress watchdog must fire
                time.sleep(duration_s)
        server = self.server
        finished = server.step()
        events = server.pop_stream_events()
        failures = server.pop_failures()
        log = server.preemption_log
        new_preemptions = log[self._preemption_cursor:]
        self._preemption_cursor = len(log)
        # Terminal error events are not generated tokens; dwell is only
        # charged for real forward-pass work.
        step_tokens = (
            sum(1 for e in events if e.error is None)
            + server.last_step_prefill_tokens
        )
        if self.pace_s_per_token > 0.0 and step_tokens:
            # Modeled accelerator dwell: the device holding this replica
            # is busy for time proportional to the tokens it pushed this
            # wave. Sleeping here (inside the worker process) is what the
            # executor overlaps across workers; beating through the sleep
            # keeps a heavily paced worker distinguishable from a stall.
            self._sleep_with_beats(self.pace_s_per_token * step_tokens)
        return StepResult(
            stream_events=tuple(events),
            preemption_events=tuple(new_preemptions),
            finished=tuple(finished),
            has_unfinished=server.has_unfinished,
            clock=server.clock,
            n_active=server.n_active,
            n_waiting=server.n_waiting,
            step_tokens=step_tokens,
            failures=tuple(failures),
        )


def serve_connection(core: WorkerCore, conn) -> None:
    """Blocking command loop over one pipe endpoint.

    Receives ``(op, args)``, replies ``("ok", payload)`` or
    ``("err", exception)``. Application errors (validation rejections,
    bad ops) are shipped back and the loop continues; only ``shutdown``
    or a closed pipe ends it. A reply that itself fails to pickle is
    degraded to ``("err", RuntimeError(repr(...)))`` rather than
    silently killing the worker.
    """
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            reply = ("ok", core.handle(op, args))
        except Exception as err:  # ship it back; the worker survives
            reply = ("err", err)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception:
            conn.send(("err", RuntimeError(repr(reply[1]))))


def worker_main(
    conn,
    model: "TransformerLM",
    config: "EngineConfig",
    pace_s_per_token: float = 0.0,
    progress=None,
) -> None:
    """Child-process entry point: one server replica behind a pipe.

    ``progress`` is a shared ``multiprocessing.Value`` counter the worker
    bumps on every command and dwell slice; the parent's watchdog treats
    any advance as liveness, so only a worker that stops *progressing*
    (not one that is merely slow) misses the heartbeat deadline.
    """
    if progress is not None:

        def beat() -> None:
            progress.value += 1

    else:
        beat = None
    core = WorkerCore(SpeContextServer(model, config), pace_s_per_token, beat=beat)
    try:
        serve_connection(core, conn)
    finally:
        conn.close()
