"""Property-based tests for the shared paged KV pool.

The pool is the server's memory-safety foundation, so its invariants are
pinned with randomized sequences, not just examples: random
alloc/free/fork/write interleavings never leak blocks, refcounts stay
consistent with who holds what, copy-on-write forks preserve the values
readers see, and freed-block reuse is a deterministic function of the
operation history.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.pool import (
    BlockChainExport,
    BlockTable,
    PagedKVPool,
    PoolAuditError,
    PoolExhausted,
    _Block,
    hash_token_prefix,
)
from tests.conftest import free_order


def payload_of(value: float, n_layers: int = 2, block: int = 4):
    """A recognizable block payload: arrays filled with ``value``."""
    shape = (1, 2, block, 3)
    return [
        (np.full(shape, value + layer), np.full(shape, -(value + layer)))
        for layer in range(n_layers)
    ]


def payload_value(payload) -> float:
    """Recover the fill value written by :func:`payload_of`."""
    return float(payload[0][0].flat[0])


class PoolModel:
    """Shadow model: tables of expected per-slot values, driven by ops.

    The real pool and this model interpret the same operation stream; the
    model tracks only what each table should *read* — the property under
    test is that sharing and CoW never let one table's writes reach
    another's reads.
    """

    def __init__(self, pool: PagedKVPool):
        self.pool = pool
        self.tables: list[BlockTable] = []
        self.expected: list[list[float | None]] = []

    def op_new_table(self) -> None:
        self.tables.append(BlockTable())
        self.expected.append([])

    def op_alloc(self, t: int) -> None:
        try:
            block_id = self.pool.allocate()
        except PoolExhausted:
            return
        self.tables[t].block_ids.append(block_id)
        self.expected[t].append(None)

    def op_fork(self, t: int) -> None:
        if self.pool.n_free < 1 and len(self.tables[t]) > 0:
            # A post-fork CoW write would need a free block; forking is
            # still legal, but keep the random walk away from dead ends.
            return
        self.tables.append(self.pool.fork_table(self.tables[t]))
        self.expected.append(list(self.expected[t]))

    def op_write(self, t: int, slot: int, value: float) -> None:
        table = self.tables[t]
        if not table.block_ids:
            return
        slot %= len(table.block_ids)
        shared = self.pool.ref_count(table.block_ids[slot]) > 1
        if shared and self.pool.n_free == 0:
            return  # CoW fork would exhaust the pool
        self.pool.write_block(table, slot, payload_of(value))
        self.expected[t][slot] = value

    def op_free(self, t: int) -> None:
        self.pool.free_table(self.tables[t])
        self.expected[t] = []

    def check(self) -> None:
        # Full invariant audit against the live tables: refcount totals,
        # free-stack disjointness, prefix-index health, spec accounting.
        self.pool.audit(tables=self.tables)
        held = sum(len(t) for t in self.tables)
        # Every held reference is backed by an in-use block and vice versa
        # (no cached blocks in this walk, so refs come only from tables).
        in_use = {b for t in self.tables for b in t.block_ids}
        assert self.pool.n_used == len(in_use)
        for block_id in in_use:
            refs = sum(t.block_ids.count(block_id) for t in self.tables)
            assert self.pool.ref_count(block_id) == refs
        assert held >= self.pool.n_used
        for t, table in enumerate(self.tables):
            for slot, value in enumerate(self.expected[t]):
                if value is None:
                    continue
                got = self.pool.read_block(table.block_ids[slot])
                assert got is not None and payload_value(got) == value, (
                    f"table {t} slot {slot}: expected {value}"
                )


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["new", "alloc", "fork", "write", "free"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=60,
)


class TestPoolProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy, n_blocks=st.integers(min_value=1, max_value=24))
    def test_random_walk_never_leaks_and_cow_isolates(self, ops, n_blocks):
        model = PoolModel(PagedKVPool(n_blocks, block_size=4))
        model.op_new_table()
        value = 0.0
        for name, a, b in ops:
            if name == "new":
                model.op_new_table()
            elif name == "alloc":
                model.op_alloc(a % len(model.tables))
            elif name == "fork":
                model.op_fork(a % len(model.tables))
            elif name == "write":
                value += 1.0
                model.op_write(a % len(model.tables), b, value)
            elif name == "free":
                model.op_free(a % len(model.tables))
            model.check()
        for t in range(len(model.tables)):
            model.op_free(t)
        model.check()
        assert model.pool.n_free == model.pool.capacity  # nothing leaked
        assert model.pool.stats.allocated == model.pool.stats.freed

    @settings(max_examples=40, deadline=None)
    @given(ops=ops_strategy)
    def test_freed_block_reuse_is_deterministic(self, ops):
        """Two pools fed the same op stream hand out identical block ids."""

        def run(pool: PagedKVPool) -> list[int]:
            tables = [BlockTable()]
            trace: list[int] = []
            for name, a, _ in ops:
                t = a % len(tables)
                if name == "new":
                    tables.append(BlockTable())
                elif name == "fork":
                    tables.append(pool.fork_table(tables[t]))
                elif name == "free":
                    pool.free_table(tables[t])
                else:  # alloc and write both exercise the free stack
                    try:
                        block_id = pool.allocate()
                    except PoolExhausted:
                        continue
                    tables[t].block_ids.append(block_id)
                    trace.append(block_id)
            return trace

        assert run(PagedKVPool(12, block_size=4)) == run(
            PagedKVPool(12, block_size=4)
        )

    def test_cow_fork_preserves_read_values(self):
        pool = PagedKVPool(8, block_size=4)
        original = BlockTable()
        original.block_ids.append(pool.allocate())
        pool.write_block(original, 0, payload_of(1.0))
        forked = pool.fork_table(original)
        assert forked.block_ids == original.block_ids
        assert pool.ref_count(original.block_ids[0]) == 2

        written_id = pool.write_block(forked, 0, payload_of(2.0))
        assert written_id != original.block_ids[0]  # CoW forked a copy
        assert pool.stats.cow_forks == 1
        assert payload_value(pool.read_block(original.block_ids[0])) == 1.0
        assert payload_value(pool.read_block(forked.block_ids[0])) == 2.0
        pool.free_table(original)
        pool.free_table(forked)
        assert pool.n_free == pool.capacity

    def test_lifo_reuse_order(self):
        """Freed blocks are reused most-recently-freed first."""
        pool = PagedKVPool(4, block_size=4)
        table = BlockTable()
        ids = [pool.allocate() for _ in range(3)]
        table.block_ids.extend(ids)
        pool.release(ids[1])
        table.block_ids.remove(ids[1])
        pool.release(ids[0])
        table.block_ids.remove(ids[0])
        assert pool.allocate() == ids[0]  # last freed, first reused
        assert pool.allocate() == ids[1]


class TestPoolApi:
    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVPool(0)
        with pytest.raises(ValueError):
            PagedKVPool(4, block_size=0)
        pool = PagedKVPool(2)
        with pytest.raises(ValueError):
            pool.retain(0)  # free block
        with pytest.raises(ValueError):
            pool.release(0)

    @pytest.mark.parametrize("block_id", [-1, -2, 2])
    @pytest.mark.parametrize(
        "method", ["retain", "release", "ref_count", "read_block"]
    )
    def test_ids_outside_capacity_are_rejected(self, method, block_id):
        # A negative id must not wrap onto another block's record.
        pool = PagedKVPool(2)
        pool.allocate()
        pool.allocate()
        with pytest.raises(IndexError, match="outside pool"):
            getattr(pool, method)(block_id)
        assert [pool.ref_count(b) for b in range(2)] == [1, 1]
        pool.audit()

    def test_untouched_ids_are_free(self):
        pool = PagedKVPool(4)
        pool.allocate()
        assert pool.ref_count(3) == 0
        for method in ("retain", "release", "read_block"):
            with pytest.raises(ValueError, match="free block 3"):
                getattr(pool, method)(3)
        with pytest.raises(ValueError, match="not a live spec reservation"):
            pool.release_spec([3])

    def test_exhaustion_raises(self):
        pool = PagedKVPool(2, block_size=4)
        pool.allocate()
        pool.allocate()
        with pytest.raises(PoolExhausted):
            pool.allocate()

    def test_blocks_for_tokens(self):
        pool = PagedKVPool(8, block_size=16)
        assert pool.blocks_for_tokens(0) == 0
        assert pool.blocks_for_tokens(1) == 1
        assert pool.blocks_for_tokens(16) == 1
        assert pool.blocks_for_tokens(17) == 2


class TestPrefixCache:
    def publish(self, pool: PagedKVPool, prompt: np.ndarray, n_blocks: int):
        table = BlockTable()
        for i in range(n_blocks):
            table.block_ids.append(pool.allocate())
            pool.write_block(table, i, payload_of(float(i)))
        pool.publish_prefix(prompt, table, n_blocks)
        return table

    def test_hash_covers_whole_prefix(self):
        a = np.arange(32)
        b = np.arange(32)
        b[0] = 99  # differs before the final block
        assert hash_token_prefix(a, 32) != hash_token_prefix(b, 32)
        assert hash_token_prefix(a, 16) == hash_token_prefix(a.copy(), 16)

    def test_match_returns_longest_chain_then_stops(self):
        pool = PagedKVPool(16, block_size=4)
        prompt = np.arange(100, 120)
        self.publish(pool, prompt, 3)
        sharing = np.concatenate([prompt[:8], np.arange(500, 512)])
        chain = pool.match_prefix(sharing, sharing.size)
        assert len(chain) == 2  # blocks 0-1 shared, block 2 diverges
        assert pool.stats.prefix_hits == 1
        table = BlockTable()
        pool.acquire_prefix(chain, table)
        assert [payload_value(pool.read_block(b)) for b in table] == [0.0, 1.0]
        assert all(pool.ref_count(b) == 3 for b in chain)  # donor+cache+us

    def test_match_respects_max_tokens_cap(self):
        pool = PagedKVPool(16, block_size=4)
        prompt = np.arange(16)
        self.publish(pool, prompt, 4)
        assert len(pool.match_prefix(prompt, 15)) == 3  # 4th block > cap
        assert len(pool.match_prefix(prompt, 16)) == 4

    def test_cached_blocks_evicted_lru_only_when_unreferenced(self):
        pool = PagedKVPool(4, block_size=4)
        donor = self.publish(pool, np.arange(100, 108), 2)
        pool.free_table(donor)  # cache is now the only holder
        assert pool.n_free == 2 and pool.n_evictable() == 2
        # Exhaust free blocks, then two more allocations evict LRU entries.
        held = [pool.allocate() for _ in range(4)]
        assert pool.stats.prefix_evictions == 2
        assert pool.match_prefix(np.arange(100, 108), 8) == []
        for block_id in held:
            pool.release(block_id)
        pool.audit(tables=[])

    def test_referenced_cached_blocks_never_evicted(self):
        pool = PagedKVPool(3, block_size=4)
        donor = self.publish(pool, np.arange(8), 2)  # donor + cache hold them
        pool.allocate()
        with pytest.raises(PoolExhausted):
            pool.allocate()  # nothing evictable: donor still references
        assert len(pool.match_prefix(np.arange(8), 8)) == 2
        assert pool.ref_count(donor.block_ids[0]) >= 2

    def test_publish_requires_payload(self):
        pool = PagedKVPool(4, block_size=4)
        table = BlockTable()
        table.block_ids.append(pool.allocate())
        with pytest.raises(ValueError, match="payload"):
            pool.publish_prefix(np.arange(4), table, 1)


class TestPoolAudit:
    """The audit must *fail* on seeded corruption, not just pass clean."""

    def test_clean_pool_passes_with_tables(self):
        pool = PagedKVPool(8, block_size=4)
        table = BlockTable()
        table.block_ids.extend(pool.allocate() for _ in range(3))
        pool.audit(tables=[table])
        pool.free_table(table)
        pool.audit(tables=[])

    def test_orphaned_spec_reservation_is_caught(self):
        pool = PagedKVPool(8, block_size=4)
        reserved = pool.reserve_spec(2)
        assert len(reserved) == 2
        # Mid-wave callers may carry reservations across the check...
        pool.audit(allow_spec_outstanding=True)
        # ...but a wave that ends without promote/release is a leak.
        with pytest.raises(PoolAuditError, match="orphaned spec"):
            pool.audit()
        pool.release_spec(reserved)
        pool.audit()

    def test_refcount_drift_vs_tables_is_caught(self):
        pool = PagedKVPool(8, block_size=4)
        table = BlockTable()
        table.block_ids.append(pool.allocate())
        # Simulate a lost-reference bug: a table chains a block the pool
        # no longer counts a holder for.
        pool._blocks[table.block_ids[0]].ref_count += 1
        with pytest.raises(PoolAuditError, match="refcount"):
            pool.audit(tables=[table])

    def test_free_stack_corruption_is_caught(self):
        pool = PagedKVPool(8, block_size=4)
        block_id = pool.allocate()
        # Simulate a double-free: a live block pushed back on the stack.
        pool._free.append(block_id)
        with pytest.raises(PoolAuditError):
            pool.audit()

    def test_recycled_id_above_high_water_mark_is_caught(self):
        pool = PagedKVPool(8, block_size=4)
        pool.allocate()
        # An untouched id is implicitly free; stacking it too would hand
        # it out twice.
        pool._free.append(len(pool._blocks))
        with pytest.raises(PoolAuditError, match="high-water mark"):
            pool.audit()

    def test_chained_untouched_block_is_caught(self):
        pool = PagedKVPool(8, block_size=4)
        table = BlockTable([pool.allocate(), 5])
        with pytest.raises(PoolAuditError, match="chained block 5 sits on"):
            pool.audit(tables=[table])

    def test_spec_counter_identity_is_checked(self):
        pool = PagedKVPool(8, block_size=4)
        reserved = pool.reserve_spec(1)
        table = BlockTable()
        pool.promote_spec(table, reserved)
        pool.audit(tables=[table])
        # Promotions count as allocations; the identity must notice if
        # the counters drift from the outstanding set.
        pool.stats.spec_promoted += 1
        with pytest.raises(PoolAuditError, match="spec counters"):
            pool.audit(tables=[table])


# ---- lazy records vs the eager free stack --------------------------------------


class EagerPool(PagedKVPool):
    """Reference: every record built up front, one ``[n-1, ..., 0]`` stack.

    Only the free-stack representation differs from :class:`PagedKVPool`,
    so identical ids under identical histories pin that materialising
    records on first allocation never changes the allocation order.
    """

    def __init__(self, n_blocks: int, block_size: int = 16):
        super().__init__(n_blocks, block_size)
        self._blocks = [_Block(block_id=i) for i in range(n_blocks)]
        self._free = list(range(n_blocks - 1, -1, -1))


def doc_tokens(doc: int, block: int = 4) -> np.ndarray:
    """Tokens of one of a few documents; tables over one doc share prefixes."""
    return np.arange(16 * block, dtype=np.int64) + 1000 * doc


def drive_pool(pool: PagedKVPool, ops) -> list:
    """Apply a mixed op stream; record every returned id and the free order.

    Tables over the same document share prefix keys, so publishes
    deduplicate, matches hit, and allocations under pressure evict LRU
    cache entries; imports warm keys no table ever published.
    """
    tables = [BlockTable()]
    docs = [0]
    trace: list = []
    for name, a, b in ops:
        t = a % len(tables)
        table, tokens = tables[t], doc_tokens(docs[t])
        result = None
        try:
            if name == "new":
                tables.append(BlockTable())
                docs.append(b % 3)
            elif name == "alloc":
                result = pool.allocate()
                table.block_ids.append(result)
            elif name == "release":
                if table.block_ids:
                    result = pool.release(table.block_ids.pop())
            elif name == "free":
                pool.free_table(table)
            elif name == "spec":
                result = pool.reserve_spec(b % 4)
                keep = a % (len(result) + 1)
                pool.promote_spec(table, result[:keep])
                pool.release_spec(result[keep:])
            elif name == "publish":
                for slot in range(len(table)):
                    pool.write_block(table, slot, payload_of(float(slot)))
                result = pool.publish_prefix(tokens, table, len(table))
            elif name == "match":
                result = pool.match_prefix(tokens, tokens.size)
                tables.append(BlockTable())
                docs.append(docs[t])
                pool.acquire_prefix(result, tables[-1])
            elif name == "import":
                export = BlockChainExport(
                    block_size=pool.block_size,
                    token_ids=doc_tokens(3 + b % 2),
                    start_block=0,
                    payloads=[payload_of(float(i)) for i in range(a % 4 + 1)],
                )
                result = pool.import_chain(export)
        except PoolExhausted:
            result = "exhausted"
        trace.append((name, result, free_order(pool)))
        pool.audit(tables=tables)
    for table in tables:
        pool.free_table(table)
    pool.evict_all_unreferenced()
    trace.append(("drain", pool.n_free, free_order(pool)))
    return trace


mixed_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "new", "alloc", "alloc", "release", "free",
                "spec", "publish", "match", "import",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=80,
)


class TestLazyRecords:
    @settings(max_examples=80, deadline=None)
    @given(ops=mixed_ops, n_blocks=st.integers(min_value=1, max_value=12))
    def test_allocation_order_equals_eager_pool(self, ops, n_blocks):
        lazy = PagedKVPool(n_blocks, block_size=4)
        eager = EagerPool(n_blocks, block_size=4)
        assert drive_pool(lazy, ops) == drive_pool(eager, ops)
        assert lazy.stats == eager.stats
        assert lazy.n_free == eager.n_free == n_blocks
        assert len(lazy._blocks) <= n_blocks

    def test_records_grow_only_with_allocation(self):
        pool = PagedKVPool(1_000_000, block_size=4)
        assert pool._blocks == [] and pool.n_free == pool.capacity == 1_000_000
        ids = [pool.allocate() for _ in range(3)]
        assert ids == [0, 1, 2] and len(pool._blocks) == 3
        pool.release(ids[1])
        assert pool.allocate() == 1  # recycled first, no new record
        assert len(pool._blocks) == 3
        assert pool.n_used == 3
        pool.audit()
