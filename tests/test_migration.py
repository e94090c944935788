"""Live KV migration tests: chain invariants, bit-identity matrix, chaos.

The migration contract under test:

- ``PagedKVPool.export_chain`` is read-only on the source pool, and an
  ``import_chain`` round-trip publishes blocks indistinguishable from
  locally published entries (audit-visible, refcount-exact, evictable,
  deduplicated on re-import);
- ``export_session``/``import_session`` moves a session wholesale, so
  every migrated request's token stream is bit-identical to a solo run
  — across all 8 KV policies, monolithic and chunked prefill, on both
  executors (the ``export_kv``/``import_kv`` worker ops, including the
  multiprocess pickle path);
- pool refcounts and the free stack stay exact while migrations
  interleave with preemptions (audited after every cluster step), and
  a chaos kill of the migration *source* recovers its remaining work
  without disturbing already-migrated streams.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    EngineConfig,
    GenerationRequest,
    SamplingParams,
)
from repro.distill.dlm import DraftContext
from repro.kvcache.pool import BlockTable, PagedKVPool
from repro.serving import SpeContextServer, poisson_trace, replay_trace
from repro.serving.engine import InProcessExecutor, MultiprocExecutor
from repro.serving.server import _Session, _SessionState
from repro.serving.trace import solo_token_streams
from tests.conftest import free_order, make_recall_prompt

ALL_NAMES = (
    "specontext", "quest", "h2o", "shadowkv", "clusterkv",
    "streaming", "sliding", "full",
)

EXECUTORS = (InProcessExecutor, MultiprocExecutor)

BLOCK = 4


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


def shared_prefix_requests(
    tokenizer, policy: str, n: int = 4, prefix_len: int = 24, max_new: int = 5
) -> list[GenerationRequest]:
    """n requests sharing a system prefix ahead of unique suffixes."""
    prefix_rng = np.random.default_rng(7)
    prefix = [int(t) for t in tokenizer.random_filler_ids(prefix_rng, prefix_len)]
    requests = []
    for i in range(n):
        rng = np.random.default_rng(300 + i)
        suffix = [int(t) for t in tokenizer.random_filler_ids(rng, 8 + i)]
        requests.append(GenerationRequest(
            np.array([tokenizer.bos_id] + prefix + suffix),
            sampling=SamplingParams(max_new_tokens=max_new),
            policy=policy,
            budget=48,
        ))
    return requests


def policy_spread_requests(tokenizer, max_new: int = 4) -> list[GenerationRequest]:
    """One shared-prefix request per KV policy (the 8-policy matrix row)."""
    requests = []
    for i, name in enumerate(ALL_NAMES):
        request = shared_prefix_requests(tokenizer, name, n=i + 1)[i]
        request.sampling = SamplingParams(max_new_tokens=max_new)
        requests.append(request)
    return requests


def clone(request: GenerationRequest) -> GenerationRequest:
    return GenerationRequest(
        request.prompt_ids.copy(),
        sampling=request.sampling,
        policy=request.policy,
        budget=request.budget,
        priority=request.priority,
    )


# ---- pool block-chain export/import ------------------------------------------


def payload_for(i: int):
    keys = np.full((1, 1, BLOCK, 2), float(i + 1))
    values = np.full((1, 1, BLOCK, 2), -float(i + 1))
    return [(keys, values)]


def published_chain(n_blocks: int = 8, chain_blocks: int = 3):
    """A pool holding one sequence whose first ``chain_blocks`` are published."""
    pool = PagedKVPool(n_blocks, block_size=BLOCK)
    token_ids = np.arange(1, chain_blocks * BLOCK + 1, dtype=np.int64)
    table = BlockTable()
    for i in range(chain_blocks):
        table.block_ids.append(pool.allocate())
        pool.write_block(table, i, payload_for(i))
    pool.publish_prefix(token_ids, table, chain_blocks)
    return pool, table, token_ids


class TestChainExportImport:
    def test_export_is_read_only_on_the_source(self):
        pool, table, token_ids = published_chain()
        free_before = free_order(pool)
        refs_before = [pool.ref_count(b) for b in range(pool.capacity)]
        index_before = list(pool._prefix_index.items())
        export = pool.export_chain(token_ids, table, 3)
        assert export.n_blocks == 3
        assert free_order(pool) == free_before
        assert [pool.ref_count(b) for b in range(pool.capacity)] == refs_before
        assert list(pool._prefix_index.items()) == index_before
        pool.audit(tables=[table])
        # Deep copies: mutating the export never touches resident payloads.
        export.payloads[0][0][0][:] = 0.0
        assert np.all(pool.read_block(table.block_ids[0])[0][0] == 1.0)

    def test_roundtrip_publishes_audit_exact_blocks(self):
        pool, table, token_ids = published_chain()
        export = pool.export_chain(token_ids, table, 3)
        dest = PagedKVPool(8, block_size=BLOCK)
        assert dest.import_chain(export) == 3
        dest.audit(tables=[])
        assert dest.n_used == 3
        assert dest.longest_prefix_match(token_ids) == 3 * BLOCK
        chain = dest.match_prefix(token_ids, token_ids.size)
        assert len(chain) == 3
        for i, block_id in enumerate(chain):
            assert dest.ref_count(block_id) == 1  # cache's own hold
            got = dest.read_block(block_id)
            want = payload_for(i)
            assert np.array_equal(got[0][0], want[0][0])
            assert np.array_equal(got[0][1], want[0][1])

    def test_reimport_deduplicates(self):
        pool, table, token_ids = published_chain()
        export = pool.export_chain(token_ids, table, 3)
        dest = PagedKVPool(8, block_size=BLOCK)
        assert dest.import_chain(export) == 3
        assert dest.import_chain(export) == 0
        assert dest.n_used == 3
        dest.audit(tables=[])

    def test_import_under_pressure_evicts_lru_then_stops(self):
        pool, table, token_ids = published_chain()
        export = pool.export_chain(token_ids, table, 3)
        # Imported blocks are cache-only (evictable), so a full but
        # unreferenced pool keeps importing by recycling its own LRU
        # entries — ending with the *latest* blocks resident and the
        # prefix chain broken at the evicted head.
        small = PagedKVPool(2, block_size=BLOCK)
        assert small.import_chain(export) == 3
        assert small.n_used == 2
        assert small.stats.prefix_evictions == 1
        assert small.longest_prefix_match(token_ids) == 0
        small.audit(tables=[])
        # Table-held blocks pin the pool: the import stops quietly.
        pinned = PagedKVPool(2, block_size=BLOCK)
        held = BlockTable()
        held.block_ids.append(pinned.allocate())
        held.block_ids.append(pinned.allocate())
        assert pinned.import_chain(export) == 0
        pinned.audit(tables=[held])

    def test_block_size_mismatch_rejected(self):
        pool, table, token_ids = published_chain()
        export = pool.export_chain(token_ids, table, 3)
        with pytest.raises(ValueError, match="block_size"):
            PagedKVPool(4, block_size=2 * BLOCK).import_chain(export)

    def test_export_stops_at_first_payloadless_block(self):
        pool, table, token_ids = published_chain()
        # A trailing block the sequence holds but never wrote through
        # write_block (the in-progress tail) carries no transferable data.
        table.block_ids.append(pool.allocate())
        export = pool.export_chain(token_ids, table, 4)
        assert export.n_blocks == 3
        pool.free_table(table)
        pool.audit(tables=[])

    def test_imported_blocks_are_evictable_and_drain_to_empty(self):
        pool, table, token_ids = published_chain()
        export = pool.export_chain(token_ids, table, 3)
        # Source hand-off complete: the ordinary free path drains it.
        pool.free_table(table)
        assert pool.evict_all_unreferenced() == 3
        assert pool.n_used == 0
        assert pool.stats.allocated == pool.stats.freed
        pool.audit(tables=[])
        dest = PagedKVPool(8, block_size=BLOCK)
        dest.import_chain(export)
        assert dest.evict_all_unreferenced() == 3
        assert dest.n_used == 0
        dest.audit(tables=[])


def _same(a, b) -> bool:
    """Structural equality over session state (arrays, rngs, objects)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, np.random.Generator):  # same state <=> same next draws
        return _same(*(copy.deepcopy(g).integers(2**63, size=4) for g in (a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


# ---- KV travels as stored ----------------------------------------------------


def _assert_float32_payload(payload):
    assert payload
    for k, v in payload:
        assert k.dtype == v.dtype == np.float32


def _assert_float32_cache(cache):
    for layer in cache.layers:
        assert layer.keys.dtype == layer.values.dtype == np.float32


class TestKVTravelsAsStored:
    """KV is stored float32, and the pool, swap and migration carry the
    stored values: no upcast copy ever leaves the attention kernels."""

    def test_published_blocks_and_gathered_chains_are_float32(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, engine_config(tiny_tokenizer))
        requests = shared_prefix_requests(tiny_tokenizer, "specontext", n=3)
        for request in requests:
            server.add_request(clone(request))
        outputs = server.run()
        assert sum(o.stats.prefix_reused_tokens for o in outputs) > 0
        prompt = requests[0].prompt_ids
        chain = server.pool.match_prefix(prompt, prompt.size)
        assert chain
        for block_id in chain:
            _assert_float32_payload(server.pool.read_block(block_id))
        _assert_float32_payload(server.pool.gather_chain(chain))

    def test_swapped_session_keeps_float32_cache(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(tiny_tokenizer, pool_blocks=12, preempt_mode="swap")
        server = SpeContextServer(tiny_gqa_model, config)
        for request in shared_prefix_requests(
            tiny_tokenizer, "quest", n=4, max_new=24
        ):
            server.add_request(clone(request))
        swapped = 0
        while server.has_unfinished:
            server.step()
            for session in server._waiting:
                if session.state is _SessionState.SWAPPED:
                    _assert_float32_cache(session.cache)
                    swapped += 1
        assert swapped > 0

    def test_exported_session_kv_is_float32(self, tiny_gqa_model, tiny_tokenizer):
        source = SpeContextServer(tiny_gqa_model, engine_config(tiny_tokenizer))
        for request in shared_prefix_requests(tiny_tokenizer, "specontext", n=2):
            source.add_request(clone(request))
        source.step()
        export = source.export_session(0)
        assert export is not None and export.chain is not None
        _assert_float32_cache(export.session.cache)
        for payload in export.chain.payloads:
            _assert_float32_payload(payload)


# ---- server-level session round-trip -----------------------------------------


class TestSessionRoundTrip:
    def test_export_import_roundtrip_audits_and_matches_solo(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        config = engine_config(tiny_tokenizer)
        requests = shared_prefix_requests(
            tiny_tokenizer, "specontext", n=3, max_new=8
        )
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        source = SpeContextServer(tiny_gqa_model, config)
        dest = SpeContextServer(tiny_gqa_model, config)
        for request in requests:
            source.add_request(clone(request))
        for _ in range(3):
            source.step()
        export = source.export_session(1)
        assert export is not None
        assert export.request_id == 1
        source.audit_pool()  # the drained table left no dangling refs
        assert source.migrated_out == 1
        # The published prefix chain travels with the session and warms
        # the destination's cache before the session even resumes.
        assert export.chain is not None and export.chain.n_blocks > 0
        dest.import_session(export)
        dest.audit_pool()
        assert dest.migrated_in == 1
        assert (
            dest.pool.longest_prefix_match(requests[1].prompt_ids)
            >= dest.pool.block_size
        )
        with pytest.raises(ValueError, match="already in flight"):
            dest.import_session(export)
        source.run()
        dest.run()
        merged = sorted(
            source.outputs + dest.outputs, key=lambda o: o.request_id
        )
        assert [o.token_ids for o in merged] == solo
        source.audit_pool()
        dest.audit_pool()

    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_every_session_field_survives_migration(
        self, executor_cls, tiny_gqa_model, tiny_tokenizer
    ):
        """The session record itself is the export: whatever fields
        ``_Session`` has (or grows) arrive at the destination unchanged —
        only the block table stays behind. Read back through the worker
        ops, so the multiprocess case covers the pickle legs too."""
        config = engine_config(tiny_tokenizer, prefill_chunk_tokens=16)
        requests = shared_prefix_requests(tiny_tokenizer, "specontext", n=2)
        cluster = ClusterConfig(n_replicas=2, router="round_robin")
        with executor_cls(tiny_gqa_model, config, cluster) as executor:
            gids = [executor.add_request(clone(r)) for r in requests]
            for _ in range(3):
                executor.step()  # prefilled in two chunks, then decoding
            record = executor._inflight[gids[0]]
            source, old_lid = record.worker, record.lid
            target = 1 - source
            export = executor._handles[source].call("export_kv", old_lid)
            sent = copy.deepcopy(export.session)
            assert sent.state == "swapped" and sent.steps_taken > 0
            assert len(sent.block_table) == 0
            new_lid = executor._handles[target].call("import_kv", export)
            sent.request.request_id = new_lid  # re-keyed by import_kv
            adopted = executor._handles[target].call(
                "export_kv", new_lid
            ).session
        for spec in dataclasses.fields(_Session):
            if spec.name != "block_table":
                assert _same(
                    getattr(sent, spec.name), getattr(adopted, spec.name)
                ), spec.name

    def test_speculating_session_migrates_with_its_draft_context(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A draft context travels as its tokens and refills at the
        destination. Streams cannot show a stale or dropped context
        (speculation is exact); the drafted and accepted counts can, so
        both must match a never-migrated run."""
        config = engine_config(tiny_tokenizer, spec_decode_k=4)
        requests = [
            GenerationRequest(
                make_recall_prompt(
                    tiny_tokenizer, np.random.default_rng(300 + i), n_filler=100
                )[0],
                sampling=SamplingParams(max_new_tokens=24),
                policy="specontext",
            )
            for i in range(3)
        ]
        reference = SpeContextServer(tiny_gqa_model, config)
        for request in requests:
            reference.add_request(clone(request))
        expected = [o.token_ids for o in reference.run()]
        assert reference.spec_stats.accepted > 0
        source = SpeContextServer(tiny_gqa_model, config)
        dest = SpeContextServer(tiny_gqa_model, config)
        for request in requests:
            source.add_request(clone(request))
        for _ in range(2):
            source.step()
        export = source.export_session(1)
        assert export is not None
        context = export.session.draft_context
        assert 0 < export.session.steps_taken < 24 and context.filled > 0
        # The rows (2 x dc floats per token) stay behind: the export
        # pickles to the same bytes as one whose context never drafted.
        unfilled = dataclasses.replace(
            export,
            session=dataclasses.replace(
                export.session,
                draft_context=DraftContext(
                    context.tokens[: len(context)], context.tokens.size
                ),
            ),
        )
        sent = pickle.dumps(export)
        assert len(sent) == len(pickle.dumps(unfilled))
        dest.import_session(pickle.loads(sent))
        source.run()
        dest.run()
        merged = sorted(
            source.outputs + dest.outputs, key=lambda o: o.request_id
        )
        assert [o.token_ids for o in merged] == expected
        for counter in ("drafted", "accepted"):
            assert getattr(source.spec_stats, counter) + getattr(
                dest.spec_stats, counter
            ) == getattr(reference.spec_stats, counter), counter

    def test_export_of_unknown_or_finished_session_is_none(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        server = SpeContextServer(tiny_gqa_model, engine_config(tiny_tokenizer))
        assert server.export_session(0) is None
        request = shared_prefix_requests(tiny_tokenizer, "streaming", n=1)[0]
        rid = server.add_request(request)
        server.run()
        assert server.export_session(rid) is None

    def test_waiting_session_migrates_before_first_step(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """A queued session that never ran still round-trips exactly."""
        config = engine_config(tiny_tokenizer, max_concurrency=1)
        requests = shared_prefix_requests(tiny_tokenizer, "quest", n=2)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        source = SpeContextServer(tiny_gqa_model, config)
        dest = SpeContextServer(tiny_gqa_model, config)
        for request in requests:
            source.add_request(clone(request))
        source.step()  # request 0 active; request 1 still waiting
        export = source.export_session(1)
        assert export is not None
        dest.import_session(export)
        source.run()
        dest.run()
        merged = sorted(
            source.outputs + dest.outputs, key=lambda o: o.request_id
        )
        assert [o.token_ids for o in merged] == solo
        source.audit_pool()
        dest.audit_pool()


# ---- refcount/free-stack exactness under migration + preemption --------------


class TestMidMigrationPreemption:
    def test_pools_stay_exact_while_migrations_meet_preemptions(
        self, tiny_gqa_model, tiny_tokenizer
    ):
        """Rebalance passes interleave with pool-pressure preemptions; the
        full table-cross-checked audit runs after every cluster step and
        both pools drain to exactly empty, so no migration path leaks or
        double-frees a block."""
        requests = policy_spread_requests(tiny_tokenizer, max_new=40)
        config = engine_config(tiny_tokenizer)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        probe = SpeContextServer(tiny_gqa_model, config).pool
        prompt_blocks = max(
            probe.blocks_for_tokens(r.prompt_len) for r in requests
        )
        pressured = engine_config(
            tiny_tokenizer, pool_blocks=2 * prompt_blocks + 1
        )
        cluster = ClusterConfig(
            n_replicas=2,
            router="prefix_affinity",
            stickiness_tokens=8,
            rebalance_every=1,
            rebalance_ratio=1.0,
            max_migrations_per_pass=2,
        )
        trace = poisson_trace(
            np.random.default_rng(9), [clone(r) for r in requests], 1.0
        )
        with InProcessExecutor(tiny_gqa_model, pressured, cluster) as executor:
            outputs = replay_trace(
                executor, trace, lambda e: e.audit_pools()
            )
            assert executor.migrations, "no migration ever triggered"
            assert {m.reason for m in executor.migrations} == {"rebalance"}
            assert len(executor.preemption_log) > 0, "no preemption pressure"
            assert [o.token_ids for o in outputs] == solo
            for handle in executor._handles:
                pool = handle._core.server.pool
                pool.evict_all_unreferenced()
                assert pool.n_used == 0
                assert pool.stats.allocated == pool.stats.freed


# ---- chaos: kill the migration source ----------------------------------------


class TestChaosKillSource:
    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_source_death_after_handoffs_keeps_streams_identical(
        self, tiny_gqa_model, tiny_tokenizer, executor_cls
    ):
        """Kill the prefill worker right after its first handoffs land:
        already-migrated sessions keep decoding (their KV moved), the
        still-resident remainder replays deterministically on the mixed
        survivor, and every stream matches its solo run exactly once.
        ``max_concurrency=2`` keeps a queue on the prefill worker so the
        kill lands while it still holds un-prefilled work."""
        config = engine_config(tiny_tokenizer, max_concurrency=2)
        requests = policy_spread_requests(tiny_tokenizer, max_new=6)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        cluster = ClusterConfig(
            n_replicas=3, roles=("prefill", "decode", "mixed")
        )
        with executor_cls(tiny_gqa_model, config, cluster) as executor:
            gids = [executor.add_request(clone(r)) for r in requests]
            tokens: dict[int, list[int]] = {gid: [] for gid in gids}
            killed = False
            while executor.has_unfinished:
                executor.step()
                for event in executor.pop_stream_events():
                    if event.error is None:
                        tokens[event.request_id].append(event.token_id)
                if not killed and executor.migrations:
                    source = executor.migrations[0].source
                    assert source == 0  # the only prefill-role worker
                    executor.kill_worker(source)
                    killed = True
            assert killed, "no handoff ever happened"
            assert all(
                m.reason == "prefill_handoff" for m in executor.migrations
            )
            assert executor.resubmissions  # the source died holding work
            assert [tokens[gid] for gid in gids] == solo
            assert executor.pop_failures() == []
            assert executor.audit_pools() == 2  # both survivors exact


# ---- bit-identity matrix: policies x surface x prefill mode -------------------


# A 16-token chunk splits every matrix prompt (33-40 tokens) into 3 chunks.
PREFILL_CHUNKS = (None, 16)
PREFILL_IDS = ("monolithic", "chunked")
# Chunked, sessions 2 and 3 finish prefill in the first step: their first
# chunk reuses the 24-token shared prefix that sessions 0 and 1 published
# earlier in that same step, leaving at most 11 tokens to compute.
HANDOFF_ORDER = {None: (0, 1, 2, 3), 16: (2, 3, 0, 1)}


class TestMigrationBitIdentityMatrix:
    """Every policy, both executors, monolithic and chunked prefill on
    the prefill-role worker."""

    @pytest.mark.parametrize("chunk", PREFILL_CHUNKS, ids=PREFILL_IDS)
    @pytest.mark.parametrize("policy", ALL_NAMES)
    def test_disaggregated_handoff_streams_identical(
        self, tiny_gqa_model, tiny_tokenizer, policy, chunk
    ):
        config = engine_config(tiny_tokenizer, prefill_chunk_tokens=chunk)
        requests = shared_prefix_requests(tiny_tokenizer, policy, n=4)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        cluster = ClusterConfig(n_replicas=2, roles=("prefill", "decode"))
        with InProcessExecutor(tiny_gqa_model, config, cluster) as executor:
            for request in requests:
                executor.add_request(clone(request))
            outputs = executor.run()
            # Every session prefilled on worker 0 and finished on worker 1,
            # handed off in the order its prefill completed.
            assert [
                (m.request_id, m.source, m.target, m.reason)
                for m in executor.migrations
            ] == [(i, 0, 1, "prefill_handoff") for i in HANDOFF_ORDER[chunk]]
            assert [o.token_ids for o in outputs] == solo
            assert executor.audit_pools() == 2

    @pytest.mark.parametrize("chunk", PREFILL_CHUNKS, ids=PREFILL_IDS)
    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_executor_handoff_all_policies(
        self, tiny_gqa_model, tiny_tokenizer, executor_cls, chunk
    ):
        """The export_kv/import_kv ops (and, multiprocess, the pickled
        chain riding the worker pipe) preserve every policy's stream."""
        config = engine_config(tiny_tokenizer, prefill_chunk_tokens=chunk)
        requests = policy_spread_requests(tiny_tokenizer)
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        cluster = ClusterConfig(n_replicas=2, roles=("prefill", "decode"))
        with executor_cls(tiny_gqa_model, config, cluster) as executor:
            gids = [executor.add_request(clone(r)) for r in requests]
            tokens: dict[int, list[int]] = {gid: [] for gid in gids}
            while executor.has_unfinished:
                executor.step()
                for event in executor.pop_stream_events():
                    if event.error is None:
                        tokens[event.request_id].append(event.token_id)
            assert executor.migrations
            assert all(
                m.reason == "prefill_handoff" for m in executor.migrations
            )
            assert [tokens[gid] for gid in gids] == solo
            assert executor.audit_pools() == 2

    @pytest.mark.parametrize("executor_cls", EXECUTORS)
    def test_manual_migrate_round_trip_and_edge_cases(
        self, tiny_gqa_model, tiny_tokenizer, executor_cls
    ):
        config = engine_config(tiny_tokenizer)
        requests = shared_prefix_requests(
            tiny_tokenizer, "shadowkv", n=2, max_new=10
        )
        solo = solo_token_streams(tiny_gqa_model, config, requests, clone)
        cluster = ClusterConfig(n_replicas=3, router="round_robin")
        with executor_cls(tiny_gqa_model, config, cluster) as executor:
            for request in requests:
                executor.add_request(clone(request))
            executor.step()
            executor.step()
            assert executor.migrate(0, 1) is True  # worker 0 -> 1, mid-decode
            assert executor.worker_of(0) == 1
            executor.step()
            assert executor.migrate(0, 0) is True  # and back again
            assert executor.migrate(0, 0) is False  # already there
            assert executor.migrate(99, 1) is False  # unknown id
            with pytest.raises(IndexError, match="out of range"):
                executor.migrate(1, 5)
            executor.kill_worker(2)  # idle: nothing to recover
            assert executor.migrate(1, 2) is False  # quarantined target
            outputs = executor.run()
            assert executor.migrate(0, 1) is False  # finished
            assert [o.token_ids for o in outputs] == solo
            assert [
                (m.source, m.target, m.reason) for m in executor.migrations
            ] == [(0, 1, "manual"), (1, 0, "manual")]
            assert executor.resubmissions == []
            assert executor.audit_pools() == 2
