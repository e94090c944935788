"""Trace-driven serving harness: seeded arrival processes, replay, checks.

A reproduction is only trustworthy under representative randomized
workloads, so the serving layer ships its own harness instead of leaving
workload construction to ad-hoc test code:

- :func:`poisson_trace` draws seeded Poisson (exponential inter-arrival)
  request traces on the server's step-count virtual clock;
- :func:`bursty_trace` draws an on/off arrival process (dense bursts
  separated by idle gaps) — the canonical overload shape for admission
  control experiments;
- :func:`heavy_tailed_trace` draws Pareto inter-arrivals, whose rare
  huge gaps and dense clumps stress deadline feasibility;
- :func:`replay_trace` feeds a trace through a frontend — a
  :class:`~repro.serving.server.SpeContextServer` or a replica set
  (:class:`~repro.serving.engine.executor.ExecutorBase`), which speak
  the same submit/step/clock protocol — submitting each request when the
  clock reaches its arrival and stepping until drained, invoking an
  observer after every step (tests assert pool/scheduling invariants
  there);
- :func:`solo_token_streams` computes the reference output of every
  request run alone on an identical server — the oracle for the
  batched == solo, preemption and cluster bit-identity guarantees.

Everything is deterministic at fixed seed: traces, admission order,
preemption schedules and token streams replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.api.config import EngineConfig
from repro.api.errors import OverloadedError
from repro.api.request import GenerationOutput, GenerationRequest
from repro.serving.server import SpeContextServer


@dataclass(frozen=True)
class TraceEntry:
    """One request plus its arrival time on the virtual clock."""

    arrival_step: int
    request: GenerationRequest


def poisson_trace(
    rng: np.random.Generator,
    requests: Sequence[GenerationRequest],
    mean_interarrival_steps: float,
) -> list[TraceEntry]:
    """Assign Poisson-process arrival steps to ``requests`` in order.

    Inter-arrival gaps are exponential with the given mean and floored to
    whole steps (the server clock is discrete), starting at step 0.
    """
    if mean_interarrival_steps < 0:
        raise ValueError(
            f"mean_interarrival_steps must be >= 0, got {mean_interarrival_steps}"
        )
    entries: list[TraceEntry] = []
    clock = 0.0
    for request in requests:
        entries.append(TraceEntry(arrival_step=int(clock), request=request))
        if mean_interarrival_steps > 0:
            clock += rng.exponential(mean_interarrival_steps)
    return entries


def bursty_trace(
    rng: np.random.Generator,
    requests: Sequence[GenerationRequest],
    burst_size: int,
    on_mean_interarrival_steps: float,
    off_steps: float,
) -> list[TraceEntry]:
    """On/off arrival process: dense bursts separated by idle gaps.

    Requests arrive in bursts of ``burst_size`` with exponential
    inter-arrival gaps of mean ``on_mean_interarrival_steps`` inside a
    burst; between bursts the clock jumps by an exponential gap of mean
    ``off_steps``. This is the canonical overload shape: queues build
    fast during a burst, then the system gets slack to drain — exactly
    what admission control and deadline scheduling must survive.
    Deterministic at fixed seed.
    """
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    if on_mean_interarrival_steps < 0 or off_steps < 0:
        raise ValueError(
            "on_mean_interarrival_steps and off_steps must be >= 0, got "
            f"{on_mean_interarrival_steps} and {off_steps}"
        )
    entries: list[TraceEntry] = []
    clock = 0.0
    for i, request in enumerate(requests):
        if i > 0 and i % burst_size == 0 and off_steps > 0:
            clock += rng.exponential(off_steps)
        entries.append(TraceEntry(arrival_step=int(clock), request=request))
        if on_mean_interarrival_steps > 0:
            clock += rng.exponential(on_mean_interarrival_steps)
    return entries


def heavy_tailed_trace(
    rng: np.random.Generator,
    requests: Sequence[GenerationRequest],
    shape: float = 1.5,
    scale: float = 1.0,
) -> list[TraceEntry]:
    """Pareto (heavy-tailed) inter-arrival gaps.

    Gaps are classical Pareto with tail index ``shape`` and minimum
    ``scale`` — most arrivals clump at the minimum gap while rare draws
    open huge idle stretches. Small ``shape`` (close to 1) means heavier
    tails. Deterministic at fixed seed.
    """
    if shape <= 0 or scale < 0:
        raise ValueError(
            f"shape must be > 0 and scale >= 0, got {shape} and {scale}"
        )
    entries: list[TraceEntry] = []
    clock = 0.0
    for request in requests:
        entries.append(TraceEntry(arrival_step=int(clock), request=request))
        if scale > 0:
            clock += scale * (1.0 + rng.pareto(shape))
    return entries


def replay_trace(
    server,
    trace: Sequence[TraceEntry],
    observer: Callable | None = None,
    on_reject: Callable[[GenerationRequest, Exception], None] | None = None,
) -> list[GenerationOutput]:
    """Replay a trace to completion; returns outputs sorted by request id.

    ``server`` is a single server or an executor (global request ids).
    Requests are submitted when the server clock reaches their arrival
    step; across idle gaps the clock jumps to the next arrival. The
    ``observer`` runs after every step with the server as argument — the
    place to assert invariants (pool occupancy, starvation bounds) while
    the schedule is in flight. With ``on_reject`` set, admission-control
    rejections (:class:`~repro.api.errors.OverloadedError`) are routed to
    it instead of aborting the replay — the shed request is dropped from
    the schedule and the replay continues; without it they propagate.
    """
    entries = sorted(trace, key=lambda e: e.arrival_step)
    submitted = 0
    outputs: list[GenerationOutput] = []
    while submitted < len(entries) or server.has_unfinished:
        while (
            submitted < len(entries)
            and entries[submitted].arrival_step <= server.clock
        ):
            entry = entries[submitted]
            submitted += 1
            try:
                server.add_request(entry.request)
            except OverloadedError as err:
                if on_reject is None:
                    raise
                on_reject(entry.request, err)
        if not server.has_unfinished:
            if submitted >= len(entries):
                break
            server.advance_clock_to(entries[submitted].arrival_step)
            continue
        outputs.extend(server.step())
        if observer is not None:
            observer(server)
    return sorted(outputs, key=lambda o: o.request_id)


def solo_token_streams(
    model,
    config: EngineConfig,
    requests: Sequence[GenerationRequest],
    clone: Callable[[GenerationRequest], GenerationRequest],
) -> list[list[int]]:
    """Token stream of each request run alone on a fresh identical server.

    ``clone`` must produce an unsubmitted copy (no request_id, fresh
    sampling state); each solo server sees exactly one request, which is
    the reference the batched/preempted runs are compared against.
    """
    streams: list[list[int]] = []
    for request in requests:
        solo = SpeContextServer(model, config)
        solo.add_request(clone(request))
        streams.append(solo.run()[0].token_ids)
    return streams
