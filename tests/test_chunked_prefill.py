"""Chunked prefill bit-identity suite.

The tentpole guarantee: splitting a prompt's prefill into budgeted chunks
interleaved with the decode wave NEVER changes what is generated. A
token's KV depends only on the tokens before it (the same argument behind
the prefix cache), so for every policy, chunk size and step budget the
chunked server's tokens, selection histories and transfer stats must
equal the monolithic reference exactly — including with prefix-cache hits
landing mid-chunk and preemption striking mid-prefill (swap and
recompute), with the preemption decisions under chunked pressure pinned.

With ``prefill_chunk_tokens >= prompt`` and no step budget the chunked
scheduler degenerates to the monolithic one step for step, so there the
*entire* observable state is pinned: preemption log, offload events,
meter timestamps and the clock itself.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.models import TransformerLM
from repro.models.attention import AttentionModule
from repro.serving import SpeContextServer, poisson_trace, replay_trace
from repro.serving.trace import solo_token_streams
from tests.test_serving_traces import (
    ALL_NAMES,
    assert_outputs_bit_identical,
    assert_same_generation,
    clone,
    filler_prompt,
    pool_config,
    solo_outputs,
)

warnings.filterwarnings("ignore", message="One of the clusters is empty")

# (prefill_chunk_tokens, max_step_tokens): exactly one pool block, an odd
# size that never aligns with block or prompt boundaries, a budgeted odd
# size, and a chunk covering any whole prompt (degenerates to monolithic).
CHUNK_GRID = [
    pytest.param(8, None, id="one-block"),
    pytest.param(7, None, id="odd"),
    pytest.param(13, 24, id="odd-budgeted"),
    pytest.param(10_000, None, id="ge-prompt"),
]


def eight_policy_requests(tokenizer, max_new_tokens=6):
    return [
        GenerationRequest(
            filler_prompt(tokenizer, 900 + i, 26 + 3 * i),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            policy=name,
            budget=48 if i % 2 else 64,
            priority=i % 3,
        )
        for i, name in enumerate(ALL_NAMES)
    ]


def run_trace(model, tokenizer, requests, trace_seed=11, **overrides):
    config = pool_config(tokenizer, **overrides)
    server = SpeContextServer(model, config)
    trace = poisson_trace(
        np.random.default_rng(trace_seed), [clone(r) for r in requests], 1.5
    )
    outputs = replay_trace(server, trace)
    return server, outputs


class TestChunkedEqualsMonolithic:
    @pytest.mark.parametrize("chunk,max_step", CHUNK_GRID)
    def test_all_policies_bit_identical(
        self, chunk, max_step, tiny_gqa_model, tiny_tokenizer
    ):
        requests = eight_policy_requests(tiny_tokenizer)
        _, mono = run_trace(tiny_gqa_model, tiny_tokenizer, requests)
        _, chunked = run_trace(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            prefill_chunk_tokens=chunk,
            max_step_tokens=max_step,
        )
        assert_same_generation(chunked, mono)

    def test_ge_prompt_chunk_degenerates_to_monolithic(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Chunk >= prompt and no budget: the chunked scheduler runs each
        prefill whole in its admission step, so the complete observable
        state — preemption log, meter timestamps, clock — is pinned to
        the monolithic server, not just the generated streams."""
        requests = eight_policy_requests(tiny_tokenizer, max_new_tokens=12)
        mono_server, mono = run_trace(
            tiny_gqa_model, tiny_tokenizer, requests, pool_blocks=14
        )
        chunk_server, chunked = run_trace(
            tiny_gqa_model,
            tiny_tokenizer,
            requests,
            pool_blocks=14,
            prefill_chunk_tokens=10_000,
        )
        assert len(mono_server.preemption_log) > 0  # pressure actually bit
        assert_outputs_bit_identical(chunked, mono)
        assert [
            (e.request_id, e.clock, e.mode, e.blocks_freed, e.kv_bytes)
            for e in chunk_server.preemption_log
        ] == [
            (e.request_id, e.clock, e.mode, e.blocks_freed, e.kv_bytes)
            for e in mono_server.preemption_log
        ]
        assert chunk_server.clock == mono_server.clock
        assert [
            (r.request_id, r.arrival_s, r.start_s, r.first_token_s, r.finish_s)
            for r in chunk_server.meter.finished
        ] == [
            (r.request_id, r.arrival_s, r.start_s, r.first_token_s, r.finish_s)
            for r in mono_server.meter.finished
        ]

    @pytest.mark.parametrize("chunk,max_step", CHUNK_GRID)
    def test_solo_engine_stream_unchanged(
        self, chunk, max_step, tiny_gqa_model, tiny_tokenizer
    ):
        """The single-request path (one request on a fresh server) is
        chunk-invariant too."""
        request = GenerationRequest(
            filler_prompt(tiny_tokenizer, 77, 40),
            sampling=SamplingParams(max_new_tokens=5),
            policy="specontext",
        )
        solo = solo_token_streams(
            tiny_gqa_model, pool_config(tiny_tokenizer), [request], clone
        )[0]
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer,
                prefill_chunk_tokens=chunk,
                max_step_tokens=max_step,
            ),
        )
        server.add_request(clone(request))
        assert server.run()[0].token_ids == solo


class TestTokenBudget:
    def test_prefill_respects_step_budget_and_decodes_keep_ticking(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """The head-of-line fix itself: while a long prompt streams in,
        (a) no step computes more prompt tokens than the budget allows,
        (b) already-running sessions emit tokens every step, and (c) the
        long prefill genuinely spans several steps."""
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer, prefill_chunk_tokens=8, max_step_tokens=12
            ),
        )
        short = GenerationRequest(
            filler_prompt(tiny_tokenizer, 1, 12),
            sampling=SamplingParams(max_new_tokens=24),
            policy="streaming",
        )
        server.add_request(short)
        server.step()  # short is prefilled and decoding
        long = GenerationRequest(
            filler_prompt(tiny_tokenizer, 2, 90),
            sampling=SamplingParams(max_new_tokens=4),
            policy="streaming",
        )
        long_id = server.add_request(long)
        def still_prefilling() -> bool:
            return any(
                not s.prefill_done
                for s in (*server._active, *server._waiting)
            )

        prefilling_steps = 0
        while still_prefilling():
            server.step()
            assert server.last_step_prefill_tokens <= 12
            events = server.pop_stream_events()
            # the short session's decode never stalls behind the prefill
            assert any(e.request_id != long_id for e in events)
            if still_prefilling():
                # first long token only after its final chunk lands
                assert all(e.request_id != long_id for e in events)
            prefilling_steps += 1
        assert prefilling_steps >= 90 // 12  # spread over many steps
        server.run()
        solo = solo_token_streams(
            tiny_gqa_model,
            pool_config(tiny_tokenizer),
            [short, long],
            clone,
        )
        by_id = {o.request_id: o.token_ids for o in server.outputs}
        assert by_id[0] == solo[0]
        assert by_id[long_id] == solo[1]

    def test_unbudgeted_chunking_advances_one_chunk_per_step(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(tiny_tokenizer, prefill_chunk_tokens=16),
        )
        server.add_request(
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 3, 60),
                sampling=SamplingParams(max_new_tokens=2),
                policy="full",
            )
        )
        seen = []
        while server.has_unfinished:
            server.step()
            seen.append(server.last_step_prefill_tokens)
        assert max(seen) <= 16
        assert sum(seen) == 60  # every non-reused prompt token computed once

    def test_max_step_tokens_requires_chunking(self):
        with pytest.raises(ValueError, match="requires prefill_chunk_tokens"):
            EngineConfig(max_step_tokens=32)


# (request_id, clock, blocks_freed, kv_bytes) of every preemption in the
# chunked-pressure trace, per scheduler.
CHUNKED_PRESSURE_PREEMPTIONS = {
    "fcfs": [(3, 20.0, 6, 163840), (3, 26.0, 6, 180224)],
    "priority": [(5, 20.0, 6, 188416), (5, 25.0, 7, 196608)],
    "sjf": [(3, 20.0, 6, 163840), (3, 26.0, 6, 180224)],
}


class TestMidPrefillPreemption:
    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_preempted_mid_prefill_resumes_exactly(
        self, mode, tiny_gqa_model, tiny_tokenizer
    ):
        """A decoder's growth evicts a peer whose prompt is still
        streaming in; the victim must resume at the correct chunk (swap)
        or rebuild from scratch (recompute) with streams bit-identical
        to solo runs. Two established decoders allocate growth blocks
        while the late long prompt trickles in under a tight budget, so
        pool exhaustion strikes while it is mid-prefill and fcfs picks
        it (the latest arrival) as victim."""
        shorts = [
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 40 + i, 12),
                sampling=SamplingParams(max_new_tokens=24),
                policy="streaming",
            )
            for i in range(2)
        ]
        long = GenerationRequest(
            filler_prompt(tiny_tokenizer, 50, 64),
            sampling=SamplingParams(max_new_tokens=4),
            policy="quest",
        )
        solo = solo_token_streams(
            tiny_gqa_model, pool_config(tiny_tokenizer), [*shorts, long], clone
        )
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer,
                pool_blocks=14,
                preempt_mode=mode,
                prefill_chunk_tokens=4,
                max_step_tokens=8,
            ),
        )
        for request in shorts:
            server.add_request(clone(request))
        server.step()
        server.step()
        server.add_request(clone(long))
        mid_prefill_preemptions = 0
        while server.has_unfinished:
            server.step()
            mid_prefill_preemptions += sum(
                1
                for s in server._waiting
                if s.preemptions and s.prefill_started and not s.prefill_done
            )
        assert len(server.preemption_log) > 0
        assert mid_prefill_preemptions > 0  # pressure hit a PREFILLING session
        outputs = sorted(server.outputs, key=lambda o: o.request_id)
        assert [o.token_ids for o in outputs] == solo

    @pytest.mark.parametrize("scheduler", ["fcfs", "priority", "sjf"])
    def test_chunked_pressure_matches_solo_with_pinned_preemptions(
        self, scheduler, tiny_gqa_model, tiny_tokenizer
    ):
        """The wave rule survives chunking: while prompts stream in chunk
        by chunk under pool pressure, outputs match solo runs and the
        preemption log is the one-session interleave's, event for event
        (the literals were recorded while a waves-of-one decode mode
        still existed and matched it)."""
        requests = eight_policy_requests(tiny_tokenizer, max_new_tokens=10)[:6]
        overrides = dict(
            pool_blocks=11,
            scheduler=scheduler,
            prefill_chunk_tokens=6,
            max_step_tokens=16,
        )
        server, outputs = run_trace(
            tiny_gqa_model, tiny_tokenizer, requests, **overrides
        )
        assert_same_generation(
            outputs,
            solo_outputs(
                tiny_gqa_model, pool_config(tiny_tokenizer, **overrides), requests
            ),
        )
        assert [
            (e.request_id, e.clock, e.blocks_freed, e.kv_bytes)
            for e in server.preemption_log
        ] == CHUNKED_PRESSURE_PREEMPTIONS[scheduler]


class TestPrefixCacheDuringPrefill:
    def test_follower_hits_blocks_of_still_prefilling_peer(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Chunk-aware publishing: full prompt blocks go into the prefix
        cache as chunks complete, so a request sharing the prefix reuses
        them while the donor is *still prefilling* — and its stream stays
        bit-identical to an uncached solo run."""
        prefix = [
            int(t)
            for t in tiny_tokenizer.random_filler_ids(
                np.random.default_rng(99), 48
            )
        ]
        donor = GenerationRequest(
            filler_prompt(tiny_tokenizer, 200, 40, prefix=prefix),
            sampling=SamplingParams(max_new_tokens=4),
            policy="full",
        )
        follower = GenerationRequest(
            filler_prompt(tiny_tokenizer, 201, 10, prefix=prefix),
            sampling=SamplingParams(max_new_tokens=4),
            policy="quest",
        )
        solo = solo_token_streams(
            tiny_gqa_model,
            pool_config(tiny_tokenizer, enable_prefix_cache=False),
            [follower],
            clone,
        )[0]
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer, prefill_chunk_tokens=8, max_step_tokens=16
            ),
        )
        server.add_request(clone(donor))
        server.step()
        server.step()
        donor_session = server._active[0]
        assert not donor_session.prefill_done  # donor genuinely mid-prefill
        published_at_submit = server.pool.stats.prefix_hits
        follower_id = server.add_request(clone(follower))
        outputs = server.run()
        out = next(o for o in outputs if o.request_id == follower_id)
        assert out.stats.prefix_reused_tokens > 0
        assert server.pool.stats.prefix_hits > published_at_submit
        assert out.token_ids == solo

    @pytest.mark.parametrize("chunk", [7, 8, 13])
    def test_prefix_reuse_lands_mid_chunk_for_every_policy(
        self, chunk, tiny_gqa_model, tiny_tokenizer
    ):
        """Cache hits advance the chunk cursor to a block boundary that
        need not align with the chunk size, so the resumed chunk starts
        mid-block-run; every policy must be unaffected."""
        prefix = [
            int(t)
            for t in tiny_tokenizer.random_filler_ids(
                np.random.default_rng(7), 32
            )
        ]
        for name in ALL_NAMES:
            follower = GenerationRequest(
                filler_prompt(tiny_tokenizer, 300, 20, prefix=prefix),
                sampling=SamplingParams(max_new_tokens=3),
                policy=name,
            )
            solo = solo_token_streams(
                tiny_gqa_model,
                pool_config(tiny_tokenizer, enable_prefix_cache=False),
                [follower],
                clone,
            )[0]
            server = SpeContextServer(
                tiny_gqa_model,
                pool_config(tiny_tokenizer, prefill_chunk_tokens=chunk),
            )
            donor = GenerationRequest(
                filler_prompt(tiny_tokenizer, 301, 16, prefix=prefix),
                sampling=SamplingParams(max_new_tokens=1),
                policy="full",
            )
            server.add_request(donor)
            server.run()
            server.add_request(clone(follower))
            output = server.run()[0]
            assert output.stats.prefix_reused_tokens > 0, name
            assert output.token_ids == solo, name


class _PrefillSpy:
    """What the model ran for each server prefill chunk.

    ``chunks`` holds the tokens of each ``_prefill_chunk`` and ``calls``
    those of each ``TransformerLM.prefill`` (the traced seam: one call per
    chunk); ``last_layer`` the ``first_output`` of each last-layer
    ``AttentionModule.prefill`` (``None``: K/V append only); ``head``
    the logits of each LM-head call made from inside a prefill.
    """

    def __init__(self, monkeypatch, model):
        self.chunks: list[int] = []
        self.calls: list[int] = []
        self.last_layer: list[int | None] = []
        self.head: list[np.ndarray] = []
        last = model.layers[-1].attention
        inside = []
        run_chunk = SpeContextServer._prefill_chunk
        run_prefill = TransformerLM.prefill
        run_attention = AttentionModule.prefill
        run_head = TransformerLM.logits_from_hidden_rows

        def chunk(server, session, max_tokens):
            taken = run_chunk(server, session, max_tokens)
            self.chunks.append(taken)
            return taken

        def prefill(lm, token_ids, cache, *args, **kwargs):
            self.calls.append(len(token_ids))
            inside.append(True)
            try:
                return run_prefill(lm, token_ids, cache, *args, **kwargs)
            finally:
                inside.pop()

        def attention(attn, x, positions, cache, first_output=0):
            if attn is last:
                self.last_layer.append(first_output)
            return run_attention(attn, x, positions, cache, first_output)

        def head(lm, hidden):
            logits = run_head(lm, hidden)
            if inside:
                self.head.append(logits)
            return logits

        monkeypatch.setattr(SpeContextServer, "_prefill_chunk", chunk)
        monkeypatch.setattr(TransformerLM, "prefill", prefill)
        monkeypatch.setattr(AttentionModule, "prefill", attention)
        monkeypatch.setattr(TransformerLM, "logits_from_hidden_rows", head)

    def assert_logit_free(self):
        """Every chunk filled the cache and stopped: one model prefill
        per chunk, no last-layer attention, no LM head."""
        assert self.chunks and self.calls == self.chunks
        assert self.last_layer == [None] * len(self.chunks)
        assert self.head == []


class TestLogitFreePrefill:
    """Prompts of 2+ tokens prefill ``prompt[:-1]`` and decode the last
    token as the first policy step, so no prefill chunk's logits are read
    and none are computed: the last layer only appends its K/V."""

    def test_chunked(self, tiny_gqa_model, tiny_tokenizer, monkeypatch):
        spy = _PrefillSpy(monkeypatch, tiny_gqa_model)
        server = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer, prefill_chunk_tokens=8)
        )
        requests = eight_policy_requests(tiny_tokenizer, max_new_tokens=3)[:3]
        for request in requests:
            server.add_request(clone(request))
        outputs = server.run()
        assert len(spy.chunks) > len(requests)  # every prompt took chunks
        spy.assert_logit_free()
        assert all(o.n_generated == 3 for o in outputs)

    def test_prefix_hit(self, tiny_gqa_model, tiny_tokenizer, monkeypatch):
        prefix = [
            int(t)
            for t in tiny_tokenizer.random_filler_ids(np.random.default_rng(7), 32)
        ]
        server = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer, prefill_chunk_tokens=7)
        )
        donor, follower = (
            GenerationRequest(
                filler_prompt(tiny_tokenizer, seed, n, prefix=prefix),
                sampling=SamplingParams(max_new_tokens=3),
            )
            for seed, n in ((301, 16), (300, 20))
        )
        server.add_request(donor)
        server.run()  # the donor publishes its prefix blocks
        spy = _PrefillSpy(monkeypatch, tiny_gqa_model)
        server.add_request(follower)
        (follower,) = server.run()
        assert follower.stats.prefix_reused_tokens > 0
        spy.assert_logit_free()

    def test_recompute_preemption(self, tiny_gqa_model, tiny_tokenizer, monkeypatch):
        spy = _PrefillSpy(monkeypatch, tiny_gqa_model)
        server = SpeContextServer(
            tiny_gqa_model,
            pool_config(
                tiny_tokenizer,
                pool_blocks=14,
                preempt_mode="recompute",
                prefill_chunk_tokens=4,
                max_step_tokens=8,
            ),
        )
        for i in range(2):
            server.add_request(
                GenerationRequest(
                    filler_prompt(tiny_tokenizer, 40 + i, 12),
                    sampling=SamplingParams(max_new_tokens=24),
                    policy="streaming",
                )
            )
        server.step()
        server.step()
        server.add_request(
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 50, 64),
                sampling=SamplingParams(max_new_tokens=4),
                policy="quest",
            )
        )
        server.run()
        assert {e.mode for e in server.preemption_log} == {"recompute"}
        assert sum(spy.chunks) > 12 + 12 + 64  # a victim re-prefilled
        spy.assert_logit_free()

    def test_one_token_prompt_samples_from_prefill_logits(
        self, tiny_gqa_model, tiny_tokenizer, monkeypatch
    ):
        """A 1-token prompt has no earlier token to decode from: its
        first token is the argmax of the prefill's logits, and only its
        chunk attends in the last layer (for the final row's tile)."""
        spy = _PrefillSpy(monkeypatch, tiny_gqa_model)
        server = SpeContextServer(
            tiny_gqa_model, pool_config(tiny_tokenizer, prefill_chunk_tokens=8)
        )
        one = server.add_request(
            GenerationRequest(
                np.array([tiny_tokenizer.bos_id]),
                sampling=SamplingParams(max_new_tokens=2),
            )
        )
        server.add_request(
            GenerationRequest(
                filler_prompt(tiny_tokenizer, 5, 20),
                sampling=SamplingParams(max_new_tokens=2),
            )
        )
        outputs = {o.request_id: o for o in server.run()}
        assert spy.calls == spy.chunks
        assert spy.last_layer.count(0) == 1
        assert spy.last_layer.count(None) == len(spy.chunks) - 1
        (logits,) = spy.head
        assert outputs[one].token_ids[0] == int(np.argmax(logits))
