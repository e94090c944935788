"""Serving layer: the request-level server, its replica sets and metering.

- :class:`SpeContextServer` — continuous batching of *real* functional
  inference over a shared paged KV pool: concurrent sessions with
  per-request policies, budgets and stop conditions, prefix caching,
  pool-pressure admission and preemption.
- :mod:`repro.serving.engine` — N independent server replicas behind
  one request-level API (:func:`make_executor`): worker replicas behind
  a command protocol, driven by an executor (:class:`InProcessExecutor`
  / :class:`MultiprocExecutor`) that routes (``round_robin``,
  ``least_loaded``, ``prefix_affinity``), steps with overlap, merges
  stream/meter views, migrates live sessions and survives worker deaths
  by resubmission.
- :mod:`repro.serving.policies` — the built-in scheduler policies
  (``fcfs``, ``priority``, ``sjf``: admission order and victim
  selection), cluster routers and admission controllers, one name
  registry per kind (``SCHEDULERS``, ``ROUTERS``, ``ADMISSIONS``).
- :mod:`repro.serving.trace` — trace-driven harness: seeded Poisson,
  bursty (on/off) and heavy-tailed (Pareto) workloads replayed through
  a server or an executor with per-step invariant checks.
- :mod:`repro.serving.chaos` — deterministic fault-injection harness:
  scripted kill/stall/slow-step/pipe-drop/pool-burst plans replayed
  against an executor, reporting exactly-once streams and typed errors.
- :class:`ThroughputMeter` / :class:`RequestRecord` — the server's
  immutable per-request records and their latency/throughput aggregates.
- :mod:`repro.serving.http` — asyncio OpenAI-style HTTP + SSE frontend
  over an executor (``POST /v1/completions``, ``GET /v1/models``,
  ``/healthz``, ``/stats``), stdlib-only.
"""

from repro.serving.chaos import ChaosReport, Fault, FaultPlan, run_chaos
from repro.serving.engine import (
    ExecutorBase,
    InProcessExecutor,
    MultiprocExecutor,
    StepResult,
    WorkerHealth,
    make_executor,
)
from repro.serving.meter import RequestRecord, ThroughputMeter
from repro.serving.placement import (
    ClusterPreemptionEvent,
    ClusterRoutingStats,
    MigrationPlan,
    Placement,
    PlacementEngine,
)
from repro.serving.policies import (
    ADMISSIONS,
    ROUTERS,
    SCHEDULERS,
    AdmissionController,
    RouterPolicy,
    SchedulerPolicy,
    UnknownAdmissionError,
    UnknownRouterError,
    UnknownSchedulerError,
)
from repro.serving.server import (
    PreemptionEvent,
    RequestFailure,
    SessionExport,
    SpeContextServer,
    StreamEvent,
)
from repro.serving.trace import (
    TraceEntry,
    bursty_trace,
    heavy_tailed_trace,
    poisson_trace,
    replay_trace,
)

__all__ = [
    "ADMISSIONS",
    "AdmissionController",
    "ChaosReport",
    "ClusterPreemptionEvent",
    "ClusterRoutingStats",
    "ExecutorBase",
    "Fault",
    "FaultPlan",
    "InProcessExecutor",
    "MigrationPlan",
    "MultiprocExecutor",
    "Placement",
    "PlacementEngine",
    "PreemptionEvent",
    "RequestFailure",
    "ROUTERS",
    "RequestRecord",
    "RouterPolicy",
    "SCHEDULERS",
    "SchedulerPolicy",
    "SessionExport",
    "SpeContextServer",
    "StepResult",
    "StreamEvent",
    "ThroughputMeter",
    "TraceEntry",
    "UnknownAdmissionError",
    "UnknownRouterError",
    "UnknownSchedulerError",
    "WorkerHealth",
    "bursty_trace",
    "heavy_tailed_trace",
    "make_executor",
    "poisson_trace",
    "replay_trace",
    "run_chaos",
]
