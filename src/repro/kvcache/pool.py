"""Server-wide paged KV block pool: refcounting, copy-on-write, prefix cache.

Production engines (vLLM, aphrodite-engine) treat GPU KV memory as one
fixed pool of fixed-size blocks shared by every in-flight sequence, not as
per-request private caches. This module brings that discipline to the
functional server:

- :class:`PagedKVPool` owns a *capacity* of ``n_blocks`` blocks of
  ``block_size`` tokens each; every allocation and free goes through it,
  so aggregate occupancy is observable and bounded by construction.
- A block's record is created the first time an allocation takes its id,
  so building and auditing a pool costs what the workload has touched,
  not the capacity (which a memory model may size at millions of tokens).
- Blocks are **refcounted**: a sequence's :class:`BlockTable` and the
  prefix cache can hold the same physical block. Writes to a shared block
  go through :meth:`PagedKVPool.write_block`, which forks a private copy
  first (**copy-on-write**), so readers never observe the writer's data.
- **Prefix caching**: full blocks of a prompt are published under a
  chained hash of the token ids they cover. A later request whose prompt
  shares that prefix re-references the resident blocks instead of
  allocating (and recomputing) them — the classic shared-system-prompt
  saving. Entries are evicted LRU when the pool runs dry, but only while
  no sequence still references them.
- The free list is a **stack** (LIFO): the ids an allocation returns are a
  pure function of the alloc/free history, which makes pool behaviour
  reproducible run-to-run — a property the trace tests pin. The stack
  holds only *recycled* ids; never-touched ids sit implicitly below them
  in ascending allocation order (id ``len(records)`` comes next), which
  is exactly the order an eager ``[n-1, ..., 0]`` stack would yield.

The pool tracks *capacity and sharing*; the dense per-session
:class:`~repro.kvcache.cache.ModelKVCache` remains the compute-side view.
Block payloads (one ``(keys, values)`` pair per layer) are attached where
sharing needs real data: prefix-cache entries and CoW forks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# Payload: one (keys, values) array pair per transformer layer, each shaped
# (batch, kv_heads, block_tokens, head_dim) — a slice of a ModelKVCache.
BlockPayload = list[tuple[np.ndarray, np.ndarray]]


class PoolExhausted(RuntimeError):
    """No free block available (after evicting unreferenced cached blocks)."""


class PoolAuditError(AssertionError):
    """Internal pool bookkeeping disagrees with itself (see audit())."""


@dataclass
class PoolStats:
    """Counters the serving layer and the trace tests read.

    ``prefill_blocks_allocated`` counts only blocks allocated to cover
    prompt KV (the prefix cache's savings target); ``prefix_blocks_reused``
    counts prompt blocks satisfied by a cache hit instead.
    """

    allocated: int = 0
    freed: int = 0
    cow_forks: int = 0
    prefill_blocks_allocated: int = 0
    prefix_blocks_reused: int = 0
    prefix_queries: int = 0
    prefix_hits: int = 0
    prefix_evictions: int = 0
    # Speculative-decode reservations. Promoted blocks are *also* counted
    # in ``allocated`` (they stand in for the allocations a never-drafted
    # run would have made), so allocated/freed match the non-speculative
    # reference; the spec_* counters are pure observability on top.
    spec_reserved: int = 0
    spec_promoted: int = 0
    spec_released: int = 0
    # Live-migration chain traffic (export_chain / import_chain).
    chain_exports: int = 0
    chain_blocks_exported: int = 0
    chain_blocks_imported: int = 0

    @property
    def prefix_hit_rate(self) -> float:
        if self.prefix_queries == 0:
            return 0.0
        return self.prefix_hits / self.prefix_queries


@dataclass
class BlockTable:
    """One sequence's logical-to-physical block mapping."""

    block_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.block_ids)

    def __iter__(self):
        return iter(self.block_ids)


@dataclass
class BlockChainExport:
    """Portable snapshot of one sequence's full-block chain.

    Produced by :meth:`PagedKVPool.export_chain`, consumed by
    :meth:`PagedKVPool.import_chain` on another replica's pool. Payloads
    are deep copies, so the export stays valid after the source frees the
    blocks; everything here pickles, so the chain can ride a worker pipe.

    ``token_ids`` covers the whole prefix up to the last exported block
    (prefix keys hash the *entire* covered prefix); ``start_block`` is
    the logical index of ``payloads[0]`` within that prefix.
    """

    block_size: int
    token_ids: np.ndarray
    start_block: int
    payloads: list[BlockPayload]

    @property
    def n_blocks(self) -> int:
        return len(self.payloads)


def hash_token_prefix(token_ids: np.ndarray, n_tokens: int) -> bytes:
    """Stable content digest of ``token_ids[:n_tokens]``.

    Prefix-cache keys must depend on the *entire* prefix up to the block's
    end (a block's KV values are a function of every token before it), so
    the key hashes the full covered prefix, not just the block's own ids.
    A 16-byte blake2b digest makes accidental aliasing (which would splice
    wrong KV values into a request) cryptographically unlikely, and is
    stable across processes (unlike ``hash()`` under PYTHONHASHSEED).
    """
    chunk = np.ascontiguousarray(np.asarray(token_ids[:n_tokens], dtype=np.int64))
    digest = hashlib.blake2b(chunk.tobytes(), digest_size=16)
    digest.update(n_tokens.to_bytes(8, "little"))
    return digest.digest()


@dataclass
class _Block:
    block_id: int
    ref_count: int = 0
    payload: BlockPayload | None = None
    prefix_key: bytes | None = None  # set while published in the prefix cache


class PagedKVPool:
    """Fixed-capacity block pool with refcounts, CoW and a prefix cache.

    The pool owns ids ``[0, capacity)`` but keeps records and a free stack
    for *touched* ids only: ``_blocks[i]`` exists once id ``i`` has been
    allocated (fresh ids are taken in ascending order, so
    ``len(_blocks)`` is the high-water mark), and ``_free`` holds recycled
    ids below that mark. Ids at or above it are free with refcount 0.
    """

    def __init__(self, n_blocks: int, block_size: int = 16):
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self._capacity = n_blocks
        # Records of touched ids, indexed by id; grows on first allocation.
        self._blocks: list[_Block] = []
        # LIFO stack of recycled ids; untouched ids come after it, lowest
        # first, so block 0 is allocated first.
        self._free: list[int] = []
        # prefix key -> block id, in insertion order (dict preserves it);
        # re-publication moves a key to the back, giving LRU eviction.
        self._prefix_index: dict[bytes, int] = {}
        # Block ids taken by reserve_spec and not yet promoted/released.
        # A draft-verify step must zero this before the wave ends; audit()
        # treats anything left here between waves as an orphaned leak.
        self._spec_outstanding: set[int] = set()
        self.stats = PoolStats()

    # ---- capacity --------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def n_free(self) -> int:
        return len(self._free) + self._capacity - len(self._blocks)

    @property
    def n_used(self) -> int:
        return self.capacity - self.n_free

    def blocks_for_tokens(self, n_tokens: int) -> int:
        """Blocks needed to hold ``n_tokens`` tokens."""
        return -(-max(n_tokens, 0) // self.block_size)

    def n_evictable(self) -> int:
        """Cached blocks held only by the prefix cache (freeable on demand)."""
        return sum(
            1
            for block_id in self._prefix_index.values()
            if self._blocks[block_id].ref_count == 1
        )

    def can_allocate(self, n: int) -> bool:
        """Whether ``n`` blocks could be produced (free + evictable)."""
        return self.n_free + self.n_evictable() >= n

    def ref_count(self, block_id: int) -> int:
        block = self._record(block_id)
        return 0 if block is None else block.ref_count

    def _record(self, block_id: int) -> _Block | None:
        """The record of ``block_id``, or None while it was never allocated.

        Every id a caller passes in goes through here, so an id outside
        ``[0, capacity)`` raises instead of wrapping onto another block.
        """
        if not 0 <= block_id < self._capacity:
            raise IndexError(
                f"block id {block_id} outside pool [0, {self._capacity})"
            )
        return self._blocks[block_id] if block_id < len(self._blocks) else None

    def _live(self, block_id: int, action: str) -> _Block:
        """The record of a referenced block; ValueError if it is free."""
        block = self._record(block_id)
        if block is None or block.ref_count < 1:
            raise ValueError(f"{action} of free block {block_id}")
        return block

    def _reservation(self, block_id: int) -> _Block:
        """The record of a block held at refcount 1 (a spec reservation)."""
        block = self._record(block_id)
        if block is None or block.ref_count != 1:
            raise ValueError(
                f"block {block_id} is not a live spec reservation "
                f"(ref_count={self.ref_count(block_id)})"
            )
        return block

    def _take_free(self) -> int:
        """Pop the top free id (recycled first, then the lowest untouched)."""
        if self._free:
            block = self._blocks[self._free.pop()]
        else:
            block = _Block(block_id=len(self._blocks))
            self._blocks.append(block)
        assert block.ref_count == 0
        block.ref_count = 1
        block.payload = None
        block.prefix_key = None
        return block.block_id

    # ---- allocate / retain / release -------------------------------------------

    def allocate(self) -> int:
        """Pop one free block (refcount 1), evicting cached blocks if needed."""
        if not self.n_free and not self._evict_one_unreferenced():
            raise PoolExhausted(
                f"pool exhausted: {self.capacity} blocks all referenced"
            )
        self.stats.allocated += 1
        return self._take_free()

    def retain(self, block_id: int) -> None:
        """Add one reference to an allocated block."""
        self._live(block_id, "retain").ref_count += 1

    def release(self, block_id: int) -> bool:
        """Drop one reference; returns True when the block was freed."""
        block = self._live(block_id, "release")
        block.ref_count -= 1
        if block.ref_count == 0:
            if block.prefix_key is not None:
                # Last holder was the prefix cache itself (unpublish path).
                self._prefix_index.pop(block.prefix_key, None)
                block.prefix_key = None
            block.payload = None
            self._free.append(block_id)
            self.stats.freed += 1
            return True
        return False

    def free_table(self, table: BlockTable) -> None:
        """Release every block a sequence holds and clear its table."""
        for block_id in table.block_ids:
            self.release(block_id)
        table.block_ids.clear()

    # ---- speculative reservations ----------------------------------------------

    def reserve_spec(self, n: int) -> list[int]:
        """Take up to ``n`` blocks off the free stack for a draft-verify step.

        Speculation is strictly opportunistic: this never evicts prefix-cache
        blocks, never preempts anyone and never raises — it returns however
        many blocks the free stack could supply (possibly zero) and the
        caller trims its draft length to match. Reserved blocks are held at
        refcount 1 outside any table until :meth:`promote_spec` moves them
        into a sequence (accepted tokens) or :meth:`release_spec` puts them
        back. Neither ``stats.allocated`` nor ``stats.freed`` move here, so
        a fully rejected speculation leaves the pool counters exactly as a
        never-drafted run would.
        """
        if n < 0:
            raise ValueError(f"reserve count must be non-negative, got {n}")
        taken: list[int] = []
        while len(taken) < n and self.n_free:
            block_id = self._take_free()
            taken.append(block_id)
            self._spec_outstanding.add(block_id)
            self.stats.spec_reserved += 1
        return taken

    def promote_spec(self, table: BlockTable, block_ids: list[int]) -> None:
        """Move reserved blocks into a sequence's table (accepted tokens).

        Each promotion counts as an ordinary allocation: it is the block the
        non-speculative run would have allocated for the same token growth,
        so final :class:`PoolStats` match the never-drafted reference.
        """
        for block_id in block_ids:
            self._reservation(block_id)
            self._spec_outstanding.discard(block_id)
            table.block_ids.append(block_id)
            self.stats.allocated += 1
            self.stats.spec_promoted += 1

    def release_spec(self, block_ids: list[int]) -> None:
        """Return unused reservations, restoring the exact free-stack order.

        Blocks are pushed back in reverse reservation order, so the stack —
        and therefore every future allocation's block id — is bit-identical
        to the state before :meth:`reserve_spec` (minus any promoted
        blocks, which the reference run would have consumed too).
        """
        for block_id in reversed(block_ids):
            block = self._reservation(block_id)
            self._spec_outstanding.discard(block_id)
            block.ref_count = 0
            self._free.append(block_id)
            self.stats.spec_released += 1

    # ---- payload access & copy-on-write ----------------------------------------

    def read_block(self, block_id: int) -> BlockPayload | None:
        return self._live(block_id, "read").payload

    def gather_chain(self, block_ids: list[int]) -> BlockPayload | None:
        """Batch-gather a resident block chain into one payload per layer.

        Concatenates the chain's per-layer (keys, values) pairs along the
        token axis, so a prefix-cache hit loads with **one** cache append
        per layer instead of one per (block, layer) — the values written
        are exactly the per-block payloads, in chain order. Returns None
        for an empty chain; raises if any block has no payload attached.
        """
        if not block_ids:
            return None
        payloads = []
        for block_id in block_ids:
            payload = self.read_block(block_id)
            if payload is None:
                raise ValueError(
                    f"block {block_id} has no payload; only written blocks "
                    "(prefix cache, CoW forks) can be gathered"
                )
            payloads.append(payload)
        return [
            (
                np.concatenate([p[layer][0] for p in payloads], axis=2),
                np.concatenate([p[layer][1] for p in payloads], axis=2),
            )
            for layer in range(len(payloads[0]))
        ]

    def write_block(
        self, table: BlockTable, logical_index: int, payload: BlockPayload
    ) -> int:
        """Write a payload through a table slot, forking shared blocks (CoW).

        If the physical block is referenced by anyone else (another table,
        the prefix cache), a fresh block is allocated, the table is
        repointed at it, and the old block loses one reference — readers of
        the shared block keep seeing the original payload. Returns the
        physical block id written.
        """
        block_id = table.block_ids[logical_index]
        block = self._live(block_id, "write")
        if block.ref_count > 1:
            fresh = self.allocate()
            self.stats.cow_forks += 1
            table.block_ids[logical_index] = fresh
            block.ref_count -= 1
            block_id = fresh
            block = self._blocks[fresh]
        block.payload = [(k.copy(), v.copy()) for k, v in payload]
        return block_id

    def fork_table(self, table: BlockTable) -> BlockTable:
        """Share every block with a new table (beam-search-style fork)."""
        for block_id in table.block_ids:
            self.retain(block_id)
        return BlockTable(block_ids=list(table.block_ids))

    # ---- prefix cache ----------------------------------------------------------

    def publish_prefix(
        self,
        token_ids: np.ndarray,
        table: BlockTable,
        n_full_blocks: int,
        start_block: int = 0,
    ) -> int:
        """Publish a sequence's first ``n_full_blocks`` blocks for reuse.

        Each published block gains one reference held by the cache and is
        indexed by the chained hash of the token prefix it completes.
        Blocks whose key is already cached are skipped. The block payloads
        must have been attached (via :meth:`write_block`) by the caller.
        Returns the number of newly published blocks.

        ``start_block`` skips blocks below that logical index entirely —
        chunked prefill publishes incrementally as chunks complete, and a
        session resuming after preemption must not re-publish its earlier
        blocks (its fresh table slots there carry no payload).
        """
        published = 0
        for i in range(start_block, min(n_full_blocks, len(table.block_ids))):
            key = hash_token_prefix(token_ids, (i + 1) * self.block_size)
            if key in self._prefix_index:
                # Refresh LRU position.
                self._prefix_index[key] = self._prefix_index.pop(key)
                continue
            block_id = table.block_ids[i]
            block = self._record(block_id)
            if block is None or block.payload is None:
                raise ValueError(
                    f"block {block_id} has no payload; write_block before "
                    "publishing"
                )
            self.retain(block_id)
            block.prefix_key = key
            self._prefix_index[key] = block_id
            published += 1
        return published

    def match_prefix(self, token_ids: np.ndarray, max_tokens: int) -> list[int]:
        """Longest chain of cached blocks covering a prefix of ``token_ids``.

        Only full blocks ending at or before ``max_tokens`` are considered
        (the caller caps this below the prefill length so at least one
        prompt token is always computed). Returns the physical block ids of
        the chain, longest match first broken at the first miss.
        """
        self.stats.prefix_queries += 1
        chain: list[int] = []
        token_ids = np.asarray(token_ids)
        n_candidates = min(token_ids.size, max_tokens) // self.block_size
        for i in range(n_candidates):
            key = hash_token_prefix(token_ids, (i + 1) * self.block_size)
            block_id = self._prefix_index.get(key)
            if block_id is None:
                break
            # Refresh LRU position on hit.
            self._prefix_index[key] = self._prefix_index.pop(key)
            chain.append(block_id)
        if chain:
            self.stats.prefix_hits += 1
        return chain

    def longest_prefix_match(
        self, token_ids: np.ndarray, max_tokens: int | None = None
    ) -> int:
        """Tokens of ``token_ids`` covered by the cached block chain.

        A read-only probe for routing decisions (the executor asks
        every replica before placing a request): unlike
        :meth:`match_prefix` it counts no query, scores no hit and does
        not refresh LRU positions, so probing N replicas leaves all N
        prefix caches in exactly the state a solo submission would see.
        """
        token_ids = np.asarray(token_ids)
        cap = token_ids.size if max_tokens is None else max_tokens
        matched = 0
        for i in range(min(token_ids.size, cap) // self.block_size):
            key = hash_token_prefix(token_ids, (i + 1) * self.block_size)
            if key not in self._prefix_index:
                break
            matched += self.block_size
        return matched

    def acquire_prefix(self, block_ids: list[int], table: BlockTable) -> None:
        """Attach matched prefix blocks to a sequence's table (refcounted)."""
        for block_id in block_ids:
            self.retain(block_id)
            table.block_ids.append(block_id)
        self.stats.prefix_blocks_reused += len(block_ids)

    # ---- live migration: block-chain export / import ----------------------------

    def export_chain(
        self,
        token_ids: np.ndarray,
        table: BlockTable,
        n_full_blocks: int,
        start_block: int = 0,
    ) -> "BlockChainExport":
        """Snapshot a sequence's published-eligible block chain for migration.

        Deep-copies the payloads of the table's blocks in
        ``[start_block, n_full_blocks)`` together with the token prefix
        that keys them, producing a picklable :class:`BlockChainExport` a
        destination pool can :meth:`import_chain`. The walk stops at the
        first block without an attached payload (only written blocks —
        prefix-cache entries and CoW forks — carry transferable data).

        Read-only on this pool: refcounts, the free stack and the prefix
        index are untouched; the caller frees the source table separately
        (via the ordinary preempt/abort paths) once the move commits.
        """
        payloads: list[BlockPayload] = []
        end = min(n_full_blocks, len(table.block_ids))
        for i in range(start_block, end):
            payload = self.read_block(table.block_ids[i])
            if payload is None:
                break
            payloads.append([(k.copy(), v.copy()) for k, v in payload])
        n_tokens = (start_block + len(payloads)) * self.block_size
        export = BlockChainExport(
            block_size=self.block_size,
            token_ids=np.ascontiguousarray(
                np.asarray(token_ids[:n_tokens], dtype=np.int64)
            ),
            start_block=start_block,
            payloads=payloads,
        )
        self.stats.chain_exports += 1
        self.stats.chain_blocks_exported += len(payloads)
        return export

    def import_chain(self, export: "BlockChainExport") -> int:
        """Re-publish an exported block chain into this pool's prefix cache.

        Each exported block is keyed exactly as :meth:`publish_prefix`
        would key it (chained hash of the full covered prefix), so a chain
        that migrates with a session warms the destination's prefix cache
        for every later request sharing the prefix. Blocks whose key is
        already cached are deduplicated (LRU position refreshed, no new
        allocation). Import is opportunistic like any cache warm: it stops
        quietly when the pool cannot produce another block, and returns
        the number of blocks newly published.

        Imported blocks are held by the prefix cache alone (refcount 1),
        indistinguishable from locally published entries: evictable under
        pressure, acquirable by later sequences, visible to audit().
        """
        if export.block_size != self.block_size:
            raise ValueError(
                f"chain block_size {export.block_size} != pool block_size "
                f"{self.block_size}"
            )
        imported = 0
        for i, payload in enumerate(export.payloads):
            logical = export.start_block + i
            key = hash_token_prefix(
                export.token_ids, (logical + 1) * self.block_size
            )
            if key in self._prefix_index:
                # Already resident here: refresh LRU, keep the local copy.
                self._prefix_index[key] = self._prefix_index.pop(key)
                continue
            if not self.can_allocate(1):
                break
            block_id = self.allocate()
            block = self._blocks[block_id]
            # allocate() hands back refcount 1; that single reference is
            # the prefix cache's own hold, exactly as a locally published
            # block ends up once its table releases it.
            block.payload = [(k.copy(), v.copy()) for k, v in payload]
            block.prefix_key = key
            self._prefix_index[key] = block_id
            imported += 1
        self.stats.chain_blocks_imported += imported
        return imported

    def _evict_one_unreferenced(self) -> bool:
        """Drop the least-recently-used cache-only block; True on success."""
        for key, block_id in self._prefix_index.items():
            block = self._blocks[block_id]
            if block.ref_count == 1:  # held only by the cache
                del self._prefix_index[key]
                block.prefix_key = None
                self.release(block_id)
                self.stats.prefix_evictions += 1
                return True
        return False

    def evict_all_unreferenced(self) -> int:
        """Flush every cache-only block (e.g. on reconfiguration)."""
        n = 0
        while self._evict_one_unreferenced():
            n += 1
        return n

    # ---- invariant audit (tests + chaos harness) -------------------------------

    def audit(
        self,
        tables: "list[BlockTable] | None" = None,
        allow_spec_outstanding: bool = False,
    ) -> None:
        """Raise :class:`PoolAuditError` if internal bookkeeping disagrees.

        Always checked:

        - free-stack integrity: unique recycled ids below the high-water
          mark, refcount 0, no payload or prefix key attached (ids at or
          above the mark were never allocated and count as free);
        - every non-free block has a positive refcount (no limbo blocks);
        - the prefix index points at live blocks whose back-pointer
          matches, and is disjoint from the free stack;
        - counter identity: ``n_used == allocated - freed + outstanding``
          (promotions count as allocations, so outstanding spec
          reservations are the only used-but-uncounted blocks), and the
          spec counters themselves balance;
        - no orphaned spec reservations: outstanding reservations must
          be refcount 1, unpublished, and — unless
          ``allow_spec_outstanding`` (mid-wave callers) — empty, since
          every draft-verify step promotes or releases before it ends.

        With ``tables`` (every live sequence's :class:`BlockTable`), also
        cross-checks full reference accounting: each block's refcount must
        equal its appearances across tables + 1 if published + 1 if an
        outstanding reservation, and every chained block must be off the
        free stack.
        """

        def ensure(cond: bool, message: str) -> None:
            if not cond:
                raise PoolAuditError(f"pool audit: {message}")

        touched = len(self._blocks)
        free_set = set(self._free)
        ensure(len(free_set) == len(self._free), "duplicate ids on free stack")
        stray = sorted(b for b in self._free if not 0 <= b < touched)
        ensure(
            not stray,
            f"recycled ids {stray} at or above the high-water mark {touched}",
        )

        def is_free(block_id: int) -> bool:
            # Ids at or above the high-water mark were never allocated.
            return not 0 <= block_id < touched or block_id in free_set

        for block in self._blocks:
            if block.block_id in free_set:
                ensure(
                    block.ref_count == 0,
                    f"free block {block.block_id} has refcount "
                    f"{block.ref_count}",
                )
                ensure(
                    block.payload is None and block.prefix_key is None,
                    f"free block {block.block_id} still carries payload/key",
                )
            else:
                ensure(
                    block.ref_count > 0,
                    f"block {block.block_id} is neither free nor referenced",
                )
        for key, block_id in self._prefix_index.items():
            ensure(not is_free(block_id), f"cached block {block_id} is free")
            ensure(
                self._blocks[block_id].prefix_key == key,
                f"stale prefix back-pointer on block {block_id}",
            )

        outstanding = self._spec_outstanding
        ensure(
            len(outstanding)
            == self.stats.spec_reserved
            - self.stats.spec_promoted
            - self.stats.spec_released,
            "spec counters disagree with outstanding reservations",
        )
        ensure(
            self.n_used == self.stats.allocated - self.stats.freed
            + len(outstanding),
            f"{self.n_used} used blocks but allocated-freed+outstanding = "
            f"{self.stats.allocated - self.stats.freed + len(outstanding)}",
        )
        for block_id in sorted(outstanding):
            ensure(
                not is_free(block_id),
                f"spec reservation {block_id} sits on the free stack",
            )
            block = self._blocks[block_id]
            ensure(
                block.ref_count == 1 and block.prefix_key is None,
                f"spec reservation {block_id} was shared or published",
            )
        if not allow_spec_outstanding:
            ensure(
                not outstanding,
                f"orphaned spec reservations {sorted(outstanding)}: a "
                "draft-verify step ended without promote/release",
            )

        if tables is not None:
            expected = [0] * touched
            for table in tables:
                for block_id in table.block_ids:
                    ensure(
                        not is_free(block_id),
                        f"chained block {block_id} sits on the free stack",
                    )
                    expected[block_id] += 1
            for block_id in self._prefix_index.values():
                expected[block_id] += 1
            for block_id in outstanding:
                expected[block_id] += 1
            for block in self._blocks:
                ensure(
                    block.ref_count == expected[block.block_id],
                    f"block {block.block_id} refcount {block.ref_count} != "
                    f"{expected[block.block_id]} references "
                    "(tables + prefix cache + spec reservations)",
                )
