"""Golden seed-0 streams and transfer accounting of the bench workloads.

Every workload in :mod:`bench.workloads` is replayed at seed 0 through
:func:`bench.harness.drive_open_loop` on an in-process
:class:`~repro.serving.server.SpeContextServer` (``http_stream`` included:
its streams do not depend on the transport). Two things are pinned per
workload:

- the stream digest, :func:`bench.harness.stream_digest` over every
  request's tokens. The ``--tiny`` shapes are pinned here; the full-size
  digests are read from ``bench/results/seed.json`` (``-m slow``);
- a fingerprint of every request's elastic-loading accounting: the exact
  ``bytes_transferred``, ``transfer_reduction`` and
  ``mean_selection_overlap`` of its :class:`GenerationStats`, in request
  order, floats by their hex form, so a last-bit change shows.

A change that moves any of these changes what the system computes, and
must re-record the constants below on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from bench import harness
from bench.workloads import WORKLOADS

from repro.experiments.common import make_functional_setup
from repro.serving.server import SpeContextServer

SEED_JSON = Path(__file__).resolve().parents[1] / "bench" / "results" / "seed.json"

# workload -> (stream digest, transfer fingerprint), --tiny shapes.
TINY = {
    "decode_heavy": ("903a2e2d6b319449", "5cee30b55b9702ea"),
    "prefill_heavy": ("00e7958cc9bb6b44", "a21bdc0340abda27"),
    "shared_prefix": ("4456762e4975308a", "967e82e398dfb102"),
    "pool_pressure": ("ae57c024f2a0c1c5", "86fe1935ace3e541"),
    "spec_mixed": ("faac8666531ac5da", "19e5a6eba6ff9399"),
    "http_stream": ("3d5a3846bbc58f6e", "1a4666dc98f0d9bc"),
}

# workload -> (transfer fingerprint, summed bytes_transferred), full size.
FULL_TRANSFER = {
    "decode_heavy": ("6a52aa80d71a89fd", 171_862_016),
    "prefill_heavy": ("f3d1a0354ca4b827", 5_199_872),
    "shared_prefix": ("745fbe8dd58208be", 113_664_000),
    "pool_pressure": ("505215e402e54595", 84_580_352),
    "spec_mixed": ("54e9795d0e639417", 19_294_208),
    "http_stream": ("2f733e820e164b56", 6_631_424),
}


@pytest.fixture(scope="module")
def setup():
    return make_functional_setup()


def replay(setup, name: str, tiny: bool) -> tuple[str, str, int]:
    """(stream digest, transfer fingerprint, summed bytes) of one workload."""
    workload = WORKLOADS[name]
    entries = workload.entries(setup.tokenizer, 0, tiny)
    server = SpeContextServer(
        setup.model, workload.engine_config(setup.tokenizer, entries, tiny)
    )
    result = harness.drive_open_loop(server, entries)
    digest = harness.stream_digest([t.token_ids for t in result.traces])
    stats = [o.stats for o in sorted(server.outputs, key=lambda o: o.request_id)]
    assert len(stats) == len(entries)
    rows = [
        [
            s.bytes_transferred,
            s.transfer_reduction.hex(),
            s.mean_selection_overlap.hex(),
        ]
        for s in stats
    ]
    fingerprint = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return digest, fingerprint, sum(s.bytes_transferred for s in stats)


def test_every_workload_is_pinned():
    assert set(TINY) == set(FULL_TRANSFER) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_streams_and_transfers(setup, name):
    digest, fingerprint, _ = replay(setup, name, tiny=True)
    assert (digest, fingerprint) == TINY[name]


def _seed_digests() -> dict[str, str]:
    rows = json.loads(SEED_JSON.read_text())["rows"]
    return {
        r["workload"]: r["stream_digest"]
        for r in rows
        if r["seed"] == 0 and r["mode"] == "timed"
    }


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FULL_TRANSFER))
def test_full_streams_and_transfers(setup, name):
    digest, fingerprint, total = replay(setup, name, tiny=False)
    assert digest == _seed_digests()[name]
    assert (fingerprint, total) == FULL_TRANSFER[name]
