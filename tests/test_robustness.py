"""Overload-safety tests: deadlines, admission control, failure plumbing.

The robustness contract under test:

- requests carrying ``ttft_deadline_s``/``total_deadline_s`` are
  cancelled by the server the moment the deadline becomes unmeetable on
  the virtual clock: pool blocks are freed, exactly one typed
  ``deadline_exceeded`` failure (408 for TTFT, 504 for total) and one
  terminal error stream event surface, and the expiry schedule replays
  deterministically at fixed seed;
- admission controllers shed at ``add_request`` with a typed
  :class:`OverloadedError` (HTTP 429 + ``Retry-After``), leave the shed
  request retryable, and never change the token streams of admitted
  requests;
- the executors propagate worker-side failures with global ids exactly
  once, survive transient pipe drops within the retry budget, and the
  progress watchdog quarantines stalled-but-alive workers while letting
  slow-but-beating workers finish;
- client-disconnect aborts mid-chunked-prefill and mid-speculation
  release every pool block and every spec reservation;
- config validation failures are typed (:class:`ConfigValidationError`),
  and the HTTP frontend maps every robustness error to its status while
  ``/healthz`` reports shedding and ``/stats`` answers degraded.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    ConfigValidationError,
    DeadlineExceededError,
    EngineConfig,
    GenerationRequest,
    InvalidSamplingError,
    OverloadedError,
    SamplingParams,
)
from repro.serving import ADMISSIONS, AdmissionController
from repro.serving.engine import InProcessExecutor, MultiprocExecutor
from repro.serving.engine.executor import _PIPE_RETRIES
from repro.serving.http import AsyncEngine, HttpServer
from repro.serving.server import SpeContextServer

EXECUTORS = (InProcessExecutor, MultiprocExecutor)


def engine_config(tokenizer, **overrides) -> EngineConfig:
    defaults = dict(
        budget=64,
        bos_id=tokenizer.bos_id,
        max_concurrency=8,
        seed=0,
        block_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def filler_request(tokenizer, seed=5, n=10, max_new=4, **sampling):
    rng = np.random.default_rng(seed)
    prompt = [tokenizer.bos_id] + [
        int(t) for t in tokenizer.random_filler_ids(rng, n)
    ]
    return GenerationRequest(
        np.array(prompt),
        sampling=SamplingParams(max_new_tokens=max_new, **sampling),
    )


def pool_fully_released(server: SpeContextServer) -> bool:
    """No session holds blocks: everything is free or cache-evictable."""
    pool = server.pool
    return pool.n_free + pool.n_evictable() == pool.capacity


# ---- config validation -------------------------------------------------------


class TestConfigValidation:
    def test_engine_config_typed_errors(self, tiny_tokenizer):
        for bad in (
            dict(budget=0),
            dict(max_concurrency=0),
            dict(block_size=0),
            dict(admission=""),
            dict(admission_opts=[("a", 1)]),
        ):
            with pytest.raises(ConfigValidationError):
                engine_config(tiny_tokenizer, **bad)

    def test_cluster_config_typed_errors(self):
        for bad in (
            dict(n_replicas=0),
            dict(heartbeat_s=0.0),
            dict(heartbeat_s=float("inf")),
            dict(pace_s_per_token=-1.0),
        ):
            with pytest.raises(ConfigValidationError):
                ClusterConfig(**bad)

    def test_config_validation_error_is_value_error(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_replicas=0)

    def test_sampling_deadline_validation(self):
        with pytest.raises(InvalidSamplingError):
            SamplingParams(ttft_deadline_s=0.0)
        with pytest.raises(InvalidSamplingError):
            SamplingParams(total_deadline_s=float("nan"))
        with pytest.raises(InvalidSamplingError):
            SamplingParams(ttft_deadline_s=5.0, total_deadline_s=2.0)
        params = SamplingParams(ttft_deadline_s=2.0, total_deadline_s=8.0)
        assert params.ttft_deadline_s == 2.0

    def test_sampling_temperature_must_be_finite(self):
        """NaN passes a plain ``< 0`` check and would crash the first
        decode; infinity would silently sample uniformly."""
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(InvalidSamplingError, match="temperature"):
                SamplingParams(temperature=bad)
        assert SamplingParams(temperature=0.7, seed=1).temperature == 0.7


# ---- admission registry ------------------------------------------------------


class TestAdmissionRegistry:
    def test_registry_names(self):
        names = ADMISSIONS.available()
        for expected in (
            "accept_all", "queue_depth", "token_backlog", "deadline_feasible",
        ):
            assert expected in names

    def test_aliases_resolve(self):
        assert ADMISSIONS.resolve("QD") == "queue_depth"
        assert ADMISSIONS.resolve("none") == "accept_all"
        assert ADMISSIONS.resolve("edf-admit") == "deadline_feasible"
        with pytest.raises(KeyError):
            ADMISSIONS.resolve("nope")

    def test_make_admission_rejects_unknown_opts(self):
        with pytest.raises(TypeError):
            ADMISSIONS.make("queue_depth", max_wating=3)

    def test_base_controller_accepts_everything(self, tiny_tokenizer):
        controller = ADMISSIONS.make("accept_all")
        assert isinstance(controller, AdmissionController)
        assert controller.name == "accept_all"


# ---- admission behavior ------------------------------------------------------


class TestAdmissionControl:
    def test_queue_depth_sheds_and_stays_retryable(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer,
            max_concurrency=1,
            admission="queue_depth",
            admission_opts={"max_waiting": 1},
        )
        server = SpeContextServer(tiny_gqa_model, config)
        server.add_request(filler_request(tiny_tokenizer, seed=1))
        shed = filler_request(tiny_tokenizer, seed=2)
        with pytest.raises(OverloadedError) as excinfo:
            server.add_request(shed)
        assert excinfo.value.http_status == 429
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after_s >= 1.0
        # Shed request untouched: no id consumed, resubmission works later.
        assert shed.request_id is None
        assert server.shedding
        assert len(server.meter.rejected) == 1
        assert server.meter.rejected[0].request_id is None
        server.run()
        assert not server.shedding
        rid = server.add_request(shed)
        assert rid is not None
        server.run()

    def test_token_backlog_sheds_on_commitment(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer,
            admission="token_backlog",
            admission_opts={"max_backlog_tokens": 32},
        )
        server = SpeContextServer(tiny_gqa_model, config)
        server.add_request(filler_request(tiny_tokenizer, seed=1, n=20))
        with pytest.raises(OverloadedError):
            server.add_request(filler_request(tiny_tokenizer, seed=2, n=20))

    def test_deadline_feasible_sheds_only_infeasible(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer,
            max_concurrency=1,
            admission="deadline_feasible",
            admission_opts={"queue_delay_per_waiting": 4.0},
        )
        server = SpeContextServer(tiny_gqa_model, config)
        server.add_request(filler_request(tiny_tokenizer, seed=1, max_new=8))
        server.add_request(filler_request(tiny_tokenizer, seed=2, max_new=8))
        # No deadline: always admitted, whatever the queue looks like.
        server.add_request(filler_request(tiny_tokenizer, seed=3))
        # Infeasible TTFT given two waiting requests ahead.
        with pytest.raises(OverloadedError):
            server.add_request(
                filler_request(tiny_tokenizer, seed=4, ttft_deadline_s=2.0)
            )
        # Feasible deadline: admitted.
        server.add_request(
            filler_request(tiny_tokenizer, seed=5, total_deadline_s=200.0)
        )

    def test_admission_does_not_change_admitted_streams(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        def run(admission, opts):
            config = engine_config(
                tiny_tokenizer,
                max_concurrency=2,
                admission=admission,
                admission_opts=opts,
            )
            server = SpeContextServer(tiny_gqa_model, config)
            admitted = {}
            for i in range(6):
                request = filler_request(tiny_tokenizer, seed=100 + i)
                try:
                    server.add_request(request)
                except OverloadedError:
                    continue
                admitted[i] = request
            outputs = {o.request_id: o.token_ids for o in server.run()}
            return {
                i: outputs[r.request_id] for i, r in admitted.items()
            }

        reference = run("accept_all", {})
        shedded = run("queue_depth", {"max_waiting": 1})
        assert 0 < len(shedded) < len(reference)
        for i, tokens in shedded.items():
            assert tokens == reference[i]


# ---- deadlines ---------------------------------------------------------------


class TestDeadlines:
    def test_deadline_error_maps_kind_to_status(self):
        assert DeadlineExceededError("x", kind="ttft").http_status == 408
        assert DeadlineExceededError("x", kind="total").http_status == 504
        assert DeadlineExceededError("x").code == "deadline_exceeded"
        with pytest.raises(ValueError, match="deadline kind"):
            DeadlineExceededError("x", kind="sideways")

    def test_total_deadline_expires_queued_request(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(tiny_tokenizer, max_concurrency=1)
        server = SpeContextServer(tiny_gqa_model, config)
        server.add_request(filler_request(tiny_tokenizer, seed=1, max_new=8))
        doomed = filler_request(
            tiny_tokenizer, seed=2, max_new=8, total_deadline_s=4.0
        )
        rid = server.add_request(doomed)
        outputs = server.run()
        assert rid not in {o.request_id for o in outputs}
        failures = server.pop_failures()
        assert [f.request_id for f in failures] == [rid]
        failure = failures[0]
        assert failure.code == "deadline_exceeded"
        assert failure.http_status == 504
        assert pool_fully_released(server)
        # Terminal error stream event: token_id -1, finished, error code.
        errors = [e for e in server.pop_stream_events() if e.error is not None]
        assert len(errors) == 1
        assert errors[0].request_id == rid
        assert errors[0].token_id == -1
        assert errors[0].finished
        assert errors[0].error == "deadline_exceeded"
        # Metered as rejected, not finished.
        assert rid in {r.request_id for r in server.meter.rejected}

    def test_ttft_deadline_maps_to_408(self, tiny_gqa_model, tiny_tokenizer):
        config = engine_config(tiny_tokenizer, max_concurrency=1)
        server = SpeContextServer(tiny_gqa_model, config)
        server.add_request(filler_request(tiny_tokenizer, seed=1, max_new=12))
        rid = server.add_request(
            filler_request(tiny_tokenizer, seed=2, ttft_deadline_s=2.0)
        )
        server.run()
        failures = server.pop_failures()
        assert [f.request_id for f in failures] == [rid]
        assert failures[0].http_status == 408

    def test_ttft_deadline_ignored_after_first_token(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(
            tiny_gqa_model, engine_config(tiny_tokenizer)
        )
        rid = server.add_request(
            filler_request(
                tiny_tokenizer, seed=3, max_new=8, ttft_deadline_s=3.0
            )
        )
        outputs = server.run()
        assert {o.request_id for o in outputs} == {rid}
        assert server.pop_failures() == []

    def test_feasible_deadline_finishes(self, tiny_gqa_model, tiny_tokenizer):
        server = SpeContextServer(
            tiny_gqa_model, engine_config(tiny_tokenizer)
        )
        rid = server.add_request(
            filler_request(
                tiny_tokenizer, seed=4, max_new=4, total_deadline_s=50.0
            )
        )
        outputs = server.run()
        assert [o.request_id for o in outputs] == [rid]
        assert server.pop_failures() == []

    def test_expiry_schedule_is_deterministic(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        def run():
            config = engine_config(tiny_tokenizer, max_concurrency=2)
            server = SpeContextServer(tiny_gqa_model, config)
            for i in range(6):
                server.add_request(
                    filler_request(
                        tiny_tokenizer, seed=200 + i, max_new=6,
                        total_deadline_s=9.0,
                    )
                )
            outputs = server.run()
            return (
                [(o.request_id, o.token_ids) for o in outputs],
                [(f.request_id, f.code, f.clock)
                 for f in server.pop_failures()],
            )

        first, second = run(), run()
        assert first == second
        assert first[1]  # the workload does push someone past the deadline

    def test_expired_request_frees_blocks_under_pressure(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer, budget=48, max_concurrency=4
        )
        server = SpeContextServer(tiny_gqa_model, config)
        for i in range(6):
            server.add_request(
                filler_request(
                    tiny_tokenizer, seed=300 + i, n=16, max_new=6,
                    total_deadline_s=6.0,
                )
            )
        server.run()
        assert pool_fully_released(server)


# ---- executor failure plumbing ----------------------------------------------


class TestExecutorFailures:
    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_deadline_failures_translate_to_global_ids(
        self, executor_cls, tiny_gqa_model, tiny_tokenizer
    ):
        executor = executor_cls(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, max_concurrency=1),
            ClusterConfig(n_replicas=1, router="round_robin"),
        )
        try:
            executor.add_request(
                filler_request(tiny_tokenizer, seed=1, max_new=8)
            )
            doomed = executor.add_request(
                filler_request(
                    tiny_tokenizer, seed=2, max_new=8, total_deadline_s=4.0
                )
            )
            executor.run()
            failures = executor.pop_failures()
            assert [f.request_id for f in failures] == [doomed]
            assert failures[0].code == "deadline_exceeded"
            # Exactly once: a second drain returns nothing and the gid is
            # no longer in flight (can never be resubmitted).
            assert executor.pop_failures() == []
            assert not executor.has_unfinished
        finally:
            executor.shutdown()

    def test_pop_failures_merges_workers(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        with InProcessExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, max_concurrency=1),
            ClusterConfig(n_replicas=2, router="round_robin"),
        ) as executor:
            rids = []
            for i in range(4):
                rids.append(executor.add_request(
                    filler_request(
                        tiny_tokenizer, seed=20 + i, max_new=8,
                        total_deadline_s=4.0 if i >= 2 else None,
                    )
                ))
            while executor.has_unfinished:
                executor.step()
            failures = executor.pop_failures()
            assert sorted(f.request_id for f in failures) == rids[2:]
            assert executor.pop_failures() == []
            assert not executor.shedding()

    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_run_releases_every_per_request_entry(
        self, tiny_gqa_model, tiny_tokenizer, executor_cls
    ):
        """Finished, failed and aborted requests leave no per-request
        state behind; only ``outputs`` keeps the finished ones."""
        with executor_cls(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, max_concurrency=1),
            ClusterConfig(n_replicas=2, router="round_robin"),
        ) as executor:
            gids = [
                executor.add_request(filler_request(
                    tiny_tokenizer, seed=30 + i, max_new=8,
                    total_deadline_s=4.0 if i == 4 else None,
                ))
                for i in range(7)
            ]
            assert executor.abort(gids[5]) is True
            outputs = executor.run()
            [failure] = executor.pop_failures()
            assert failure.request_id == gids[4]
            finished = [g for g in gids if g not in (gids[4], gids[5])]
            assert [o.request_id for o in outputs] == finished
            assert [o.request_id for o in executor.outputs] == finished
            assert executor._inflight == {}
            assert executor._locals == [{}, {}]

    def test_failed_request_never_resubmitted_after_kill(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = InProcessExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, max_concurrency=1),
            ClusterConfig(n_replicas=2, router="round_robin"),
        )
        try:
            gids = [
                executor.add_request(
                    filler_request(
                        tiny_tokenizer, seed=10 + i, max_new=8,
                        total_deadline_s=4.0 if i == 1 else None,
                    )
                )
                for i in range(2)
            ]
            while executor.has_unfinished and not executor.pop_failures():
                executor.step()
            # The deadline failure has surfaced; now kill its old worker.
            executor.kill_worker(executor.worker_of(gids[0]) if gids[0]
                                 in executor._inflight else 0)
            executor.run()
            resubmitted = {gid for gid, _ in executor.resubmissions}
            assert gids[1] not in resubmitted
        finally:
            executor.shutdown()


# ---- watchdog and pipe retry -------------------------------------------------


class TestWatchdogAndPipe:
    def test_slow_worker_survives_watchdog(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = MultiprocExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            ClusterConfig(
                n_replicas=1, router="round_robin", heartbeat_s=1.0
            ),
        )
        try:
            executor.add_request(filler_request(tiny_tokenizer, seed=1))
            executor.inject_fault(0, "slow_step", duration_s=2.5)
            outputs = executor.run()
            assert len(outputs) == 1
            assert executor.n_alive == 1
            assert executor.resubmissions == []
        finally:
            executor.shutdown()

    def test_stalled_worker_is_quarantined_and_recovered(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = MultiprocExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            ClusterConfig(
                n_replicas=2, router="round_robin", heartbeat_s=1.0
            ),
        )
        try:
            gids = [
                executor.add_request(filler_request(tiny_tokenizer, seed=i))
                for i in (1, 2)
            ]
            executor.inject_fault(0, "stall", duration_s=4.0)
            outputs = executor.run()
            assert sorted(o.request_id for o in outputs) == sorted(gids)
            assert executor.n_alive == 1
            assert executor.degraded
            assert len(executor.resubmissions) >= 1
        finally:
            executor.shutdown()

    def test_pipe_drops_within_budget_are_absorbed(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = MultiprocExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            ClusterConfig(n_replicas=1, router="round_robin"),
        )
        try:
            executor.add_request(filler_request(tiny_tokenizer, seed=1))
            executor.inject_fault(0, "pipe_drop", drops=_PIPE_RETRIES)
            outputs = executor.run()
            assert len(outputs) == 1
            assert executor.n_alive == 1
        finally:
            executor.shutdown()

    def test_pipe_drops_beyond_budget_quarantine(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = MultiprocExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer),
            ClusterConfig(n_replicas=2, router="round_robin"),
        )
        try:
            gid = executor.add_request(filler_request(tiny_tokenizer, seed=1))
            executor.inject_fault(
                executor.worker_of(gid), "pipe_drop", drops=_PIPE_RETRIES + 1
            )
            outputs = executor.run()
            assert [o.request_id for o in outputs] == [gid]
            assert executor.degraded
        finally:
            executor.shutdown()


# ---- aborts during chunked prefill and speculation ---------------------------


class TestAbortRelease:
    def test_abort_mid_chunked_prefill_frees_blocks(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer, prefill_chunk_tokens=4, block_size=4
        )
        server = SpeContextServer(tiny_gqa_model, config)
        rid = server.add_request(
            filler_request(tiny_tokenizer, seed=1, n=30, max_new=4)
        )
        server.step()  # first chunk lands; prefill is mid-flight
        session = server._active[0]
        assert session.prefill_pos < session.prompt_len
        assert server.abort(rid)
        assert pool_fully_released(server)
        assert not server.has_unfinished
        # The pool stays usable: a fresh request runs to completion.
        rid2 = server.add_request(
            filler_request(tiny_tokenizer, seed=2, n=30, max_new=4)
        )
        assert [o.request_id for o in server.run()] == [rid2]

    def test_abort_mid_speculation_releases_reservations(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(tiny_tokenizer, spec_decode_k=2)
        server = SpeContextServer(tiny_gqa_model, config)
        rid = server.add_request(
            filler_request(tiny_tokenizer, seed=3, n=12, max_new=12)
        )
        for _ in range(3):  # prefill + a few speculative decode waves
            server.step()
        stats = server.pool.stats
        assert stats.spec_reserved > 0  # speculation actually ran
        assert server.abort(rid)
        # Every reservation was resolved: promoted or released, none leaked.
        assert stats.spec_reserved == stats.spec_promoted + stats.spec_released
        assert pool_fully_released(server)

    def test_executor_abort_mid_chunked_prefill(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        executor = InProcessExecutor(
            tiny_gqa_model,
            engine_config(tiny_tokenizer, prefill_chunk_tokens=4),
            ClusterConfig(n_replicas=2, router="round_robin"),
        )
        try:
            keep = executor.add_request(
                filler_request(tiny_tokenizer, seed=1, max_new=4)
            )
            victim = executor.add_request(
                filler_request(tiny_tokenizer, seed=2, n=30, max_new=4)
            )
            executor.step()
            assert executor.abort(victim)
            outputs = executor.run()
            assert [o.request_id for o in outputs] == [keep]
        finally:
            executor.shutdown()


# ---- session exits from every queue position ---------------------------------

POSITIONS = ("fresh", "mid_prefill", "ready", "swapped", "recompute")
EXITS = ("abort", "expire", "export")


def positioned_server(model, tokenizer, position):
    """A server whose target session sits at ``position``, beside a
    long-running companion that keeps the pool shared throughout."""
    config = engine_config(
        tokenizer, prefill_chunk_tokens=4, block_size=4,
        preempt_mode="recompute" if position == "recompute" else "swap",
    )
    server = SpeContextServer(model, config)
    server.add_request(filler_request(tokenizer, seed=40, max_new=40))
    server.step()
    target = filler_request(tokenizer, seed=41, n=30, max_new=12)
    rid = server.add_request(target)
    if position != "fresh":
        server.step()  # admitted; the first chunk lands
    if position in ("ready", "swapped", "recompute"):
        session = server._find(rid)
        while not session.steps_taken:
            server.step()
    session = server._find(rid)
    if position in ("swapped", "recompute"):
        # The transition pool pressure takes: free, requeue as a victim.
        server._preempt(session)
    expected_state = {
        "fresh": "fresh",
        "mid_prefill": "active",
        "ready": "active",
        "swapped": "swapped",
        "recompute": "recompute",
    }[position]
    assert session.state == expected_state
    assert session.prefill_done == (position not in ("fresh", "mid_prefill"))
    if position == "mid_prefill":
        assert 0 < session.prefill_pos < session.prompt_len - 1
    server.pop_stream_events()
    return server, rid, session


def solo_tokens(model, tokenizer, request) -> list[int]:
    server = SpeContextServer(model, engine_config(tokenizer))
    server.add_request(request)
    [output] = server.run()
    return list(output.token_ids)


class TestSessionExitMatrix:
    @pytest.mark.parametrize("exit_kind", EXITS)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_exit_leaves_no_trace(
        self, tiny_gqa_model, tiny_tokenizer, position, exit_kind
    ):
        """Every way out of every queue position frees the session's
        blocks, lifts exactly its ``peak_tokens`` charge and emits at
        most one terminal event; an exported session resumes elsewhere
        to the stream it would have produced alone."""
        server, rid, session = positioned_server(
            tiny_gqa_model, tiny_tokenizer, position
        )
        peak = session.request.peak_tokens
        reserved = server.reserved_tokens
        state = session.state
        if exit_kind == "abort":
            assert server.abort(rid)
        elif exit_kind == "expire":
            # Already late for the next step's earliest token.
            session.request.sampling = dataclasses.replace(
                session.sampling, total_deadline_s=0.5
            )
            server.step()  # the companion decodes on; it cannot finish
        else:
            export = server.export_session(rid)
            # An active session travels stashed, like a swap victim; a
            # waiting one keeps its resume state.
            assert export.session.state == (
                "swapped" if state == "active" else state
            )
        assert session not in server._waiting
        assert session not in server._active
        assert server._find(rid) is None
        assert server.reserved_tokens == reserved - peak
        server.audit_pool()
        events = [e for e in server.pop_stream_events() if e.request_id == rid]
        failures = [f for f in server.pop_failures() if f.request_id == rid]
        if exit_kind == "expire":
            [event] = events
            assert event.finished and event.error == "deadline_exceeded"
            assert [f.code for f in failures] == ["deadline_exceeded"]
        else:
            assert events == [] and failures == []
        if exit_kind == "export":
            dest = SpeContextServer(tiny_gqa_model, server.config)
            assert dest.import_session(export) == rid
            assert dest.reserved_tokens == peak
            outputs = dest.run()
            terminal = [
                e for e in dest.pop_stream_events()
                if e.request_id == rid and e.finished
            ]
            assert len(terminal) == 1
            [output] = outputs
            target = filler_request(
                tiny_tokenizer, seed=41, n=30, max_new=12
            )
            assert output.token_ids == solo_tokens(
                tiny_gqa_model, tiny_tokenizer, target
            )
            dest.audit_pool()
            assert pool_fully_released(dest)
        server.run()
        server.audit_pool()
        assert pool_fully_released(server)


# ---- HTTP robustness surfaces ------------------------------------------------


@contextlib.asynccontextmanager
async def running_server(model, tokenizer, config=None, n_workers=1):
    executor = InProcessExecutor(
        model,
        config or engine_config(tokenizer),
        ClusterConfig(n_replicas=n_workers, router="round_robin"),
    )
    server = HttpServer(AsyncEngine(executor), tokenizer)
    await server.start("127.0.0.1", 0)
    try:
        yield server, server.addresses[0][1]
    finally:
        await server.stop()
        await server.engine.close()


async def raw_request(port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    response = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
        await writer.wait_closed()
    return response


def http_post(path: str, obj) -> bytes:
    body = json.dumps(obj).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def http_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n".encode()


def parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


async def saturate(server, max_new_tokens=1024):
    """Deterministically fill a ``max_concurrency=1`` server.

    Submits one long request and waits for its first token (provably
    active and generating), then parks a second in the waiting queue.
    Until the first finishes — thousands of steps away — the queue stays
    full, so probes observe overload without sleeping. Returns the two
    global ids; callers abort them when done.
    """

    def slow_request():
        return GenerationRequest(
            prompt_ids=np.array([2, 3, 4], dtype=np.int64),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
        )

    active, queue = await server.engine.submit(slow_request())
    kind, _ = await queue.get()
    assert kind == "token"
    waiting, _ = await server.engine.submit(slow_request())
    return active, waiting


class TestHttpRobustness:
    def test_overloaded_maps_to_429_with_retry_after(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(
            tiny_tokenizer,
            max_concurrency=1,
            admission="queue_depth",
            admission_opts={"max_waiting": 1},
        )

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer, config
            ) as (server, port):
                # One request active, one parked in the waiting queue —
                # the next submission must be shed.
                gids = await saturate(server)
                probe = {"prompt": [2, 3, 4], "max_tokens": 1}
                response = parse_response(await raw_request(
                    port, http_post("/v1/completions", probe)
                ))
                for gid in gids:
                    await server.engine.abort(gid)
                return response

        status, headers, body = asyncio.run(scenario())
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        error = json.loads(body)["error"]
        assert error["code"] == "overloaded"
        assert error["type"] == "overloaded_error"

    def test_total_deadline_maps_to_504(self, tiny_gqa_model, tiny_tokenizer):
        config = engine_config(tiny_tokenizer, max_concurrency=1)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer, config
            ) as (server, port):
                slow = {"prompt": [2, 3, 4], "max_tokens": 16}
                doomed = {
                    "prompt": [2, 3, 4],
                    "max_tokens": 16,
                    "total_deadline_s": 4,
                }
                task1 = asyncio.create_task(
                    raw_request(port, http_post("/v1/completions", slow))
                )
                await asyncio.sleep(0.2)
                response = await raw_request(
                    port, http_post("/v1/completions", doomed)
                )
                await task1
                return parse_response(response)

        status, _, body = asyncio.run(scenario())
        assert status == 504
        error = json.loads(body)["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["type"] == "timeout_error"

    def test_stream_deadline_emits_error_chunk_then_done(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(tiny_tokenizer, max_concurrency=1)

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer, config
            ) as (server, port):
                slow = {"prompt": [2, 3, 4], "max_tokens": 16}
                doomed = {
                    "prompt": [2, 3, 4],
                    "max_tokens": 16,
                    "total_deadline_s": 4,
                    "stream": True,
                }
                task1 = asyncio.create_task(
                    raw_request(port, http_post("/v1/completions", slow))
                )
                await asyncio.sleep(0.2)
                response = await raw_request(
                    port, http_post("/v1/completions", doomed)
                )
                await task1
                return response

        raw = asyncio.run(scenario())
        status, _, body = parse_response(raw)
        assert status == 200  # headers were already out; error rides the SSE
        blocks = [b for b in body.split(b"\n\n") if b.startswith(b"data: ")]
        assert blocks[-1] == b"data: [DONE]"
        last = json.loads(blocks[-2][len(b"data: "):])
        assert last["error"]["code"] == "deadline_exceeded"
        assert last["choices"][0]["finish_reason"] == "deadline_exceeded"

    def test_healthz_reports_shedding(self, tiny_gqa_model, tiny_tokenizer):
        config = engine_config(
            tiny_tokenizer,
            max_concurrency=1,
            admission="queue_depth",
            admission_opts={"max_waiting": 1},
        )

        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer, config
            ) as (server, port):
                _, _, idle = parse_response(
                    await raw_request(port, http_get("/healthz"))
                )
                # One request active, one waiting: the queue-depth
                # policy is shedding until the active one finishes.
                gids = await saturate(server)
                _, _, raw = parse_response(
                    await raw_request(port, http_get("/healthz"))
                )
                busy = json.loads(raw)
                for gid in gids:
                    await server.engine.abort(gid)
                return json.loads(idle), busy

        idle, busy = asyncio.run(scenario())
        assert idle["shedding"] is False
        assert busy["shedding"] is True
        assert busy["status"] == "ok"

    def test_stats_answers_degraded_with_quarantined_worker(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        async def scenario():
            async with running_server(
                tiny_gqa_model, tiny_tokenizer, n_workers=2
            ) as (server, port):
                await server.engine.call(
                    server.engine.executor.kill_worker, 0
                )
                status, _, body = parse_response(
                    await raw_request(port, http_get("/stats"))
                )
                return status, json.loads(body)

        status, stats = asyncio.run(scenario())
        assert status == 200
        assert stats["degraded"] is True
        assert stats["alive_workers"] == 1
        assert "rejected" in stats
