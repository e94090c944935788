"""A served session keeps no per-step selection state.

Elastic-loading accounting is fed once per committed step, so a session
carries its KV, the retrieval head's K cache, its tokens and a running
transfer account — not the selections themselves. The account's per-step
cost is one float64 overlap per tracker (8 bytes); the only other thing in
it that grows is the previous step's position mask, one byte per context
token, which grows like the KV does.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest

from repro.api import EngineConfig, GenerationRequest, SamplingParams
from repro.serving import SpeContextServer
from tests.test_serving_traces import filler_prompt, tracked

CHECKPOINTS = (50, 300)


class _ArrayCounter(pickle.Pickler):
    """Pickles an object and counts the distinct ndarrays it reaches."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: set[int] = set()

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays.add(id(obj))
        return None


def arrays_reachable(obj) -> int:
    counter = _ArrayCounter(io.BytesIO())
    counter.dump(obj)
    return len(counter.arrays)


def migrate(server: SpeContextServer, request_id: int):
    """Export, pickle and re-import one session; returns its new record
    and the number of ndarrays its pickled export reached."""
    export = server.export_session(request_id)
    arrays = arrays_reachable(export)
    export = pickle.loads(pickle.dumps(export))
    server.import_session(export)
    return export.session, arrays


def assert_no_selection_state(session):
    assert session.result.selections == []
    history = getattr(session.policy, "selection_history", None)
    assert history is None or history == []


@pytest.mark.parametrize(
    "policy,spec_k",
    [("specontext", 0), ("quest", 0), ("specontext", 4)],
)
def test_session_keeps_no_per_step_selections(
    policy, spec_k, tiny_gqa_model, tiny_tokenizer
):
    server = SpeContextServer(
        tiny_gqa_model,
        EngineConfig(
            budget=16,  # far below the 48-token prompt: every step selects
            bos_id=tiny_tokenizer.bos_id,
            block_size=8,
            spec_decode_k=spec_k,
            enable_prefix_cache=False,  # no prefix chain rides the export
            seed=0,
        ),
    )
    session = tracked(
        server,
        GenerationRequest(
            filler_prompt(tiny_tokenizer, 5, 47),
            SamplingParams(max_new_tokens=CHECKPOINTS[-1] + 20),
            policy=policy,
        ),
    )
    request_id = session.request_id
    readings = []
    for checkpoint in CHECKPOINTS:
        while session.steps_taken < checkpoint:
            server.step()
            assert_no_selection_state(session)
        steps = session.steps_taken
        account = len(pickle.dumps(session.transfer))
        trackers = len(session.transfer)
        session, arrays = migrate(server, request_id)
        assert_no_selection_state(session)
        readings.append((steps, account, trackers, arrays))

    (steps_a, account_a, trackers, arrays_a), (steps_b, account_b, _, arrays_b) = (
        readings
    )
    n_layers = tiny_gqa_model.config.n_layers
    assert trackers == (1 if policy == "specontext" else n_layers)
    assert arrays_a == arrays_b
    # Per tracker and step: 8 bytes of overlap and at most 1 byte of
    # last-step mask. Plus a constant: pickle's length and integer opcodes
    # widen once the arrays pass 255 bytes.
    per_step = 9 * (steps_b - steps_a)
    assert account_b - account_a <= trackers * (per_step + 16)

    [output] = server.run()
    assert output.stats.bytes_transferred > 0
    assert output.stats.result.selection_digest
    assert_no_selection_state(session)


@pytest.mark.parametrize("spec_k", [0, 4])
def test_pickled_head_ships_the_rows_it_holds(spec_k, tiny_gqa_model, tiny_tokenizer):
    """The head's key blocks are reserved to the request's peak at its
    first prefill chunk, but an export ships only the rows it holds: one
    float64 row per induction head and one float32 sink row per token."""
    server = SpeContextServer(
        tiny_gqa_model,
        EngineConfig(
            budget=16,
            bos_id=tiny_tokenizer.bos_id,
            block_size=8,
            spec_decode_k=spec_k,
            enable_prefix_cache=False,
            seed=0,
        ),
    )
    request = GenerationRequest(
        filler_prompt(tiny_tokenizer, 5, 47),
        SamplingParams(max_new_tokens=CHECKPOINTS[-1] + 20),
        policy="specontext",
    )
    session = tracked(server, request)
    while session.steps_taken < CHECKPOINTS[0]:
        server.step()
    head = session.policy.head
    seq = len(head)
    assert head._sink.shape[0] == request.peak_tokens + spec_k  # reserved
    assert seq < request.peak_tokens // 2
    # The shared weights, RoPE rows and position tables pickle alike for
    # an empty view of the same head; the difference is the session's own.
    own = len(pickle.dumps(head)) - len(pickle.dumps(head.view()))
    n_induction, dc = len(head._induction), head.dc
    token_ids = len(pickle.dumps(head._token_ids))
    assert own <= seq * (n_induction * dc * 8 + dc * 4) + token_ids + 256

    migrated, _ = migrate(server, session.request_id)
    assert migrated.policy.head._sink.shape[0] == request.peak_tokens + spec_k
    [output] = server.run()
    assert len(output.stats.result.token_ids) == request.sampling.max_new_tokens
