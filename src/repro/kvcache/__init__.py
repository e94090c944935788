"""KV-cache substrate: dense per-layer caches plus the server-wide pool.

The paper's three challenges are all KV-cache lifecycle problems, so the
cache is a first-class subsystem here rather than an array inside the model:

- ``LayerKVCache`` / ``ModelKVCache`` (:mod:`repro.kvcache.cache`): the
  dense append/gather cache every attention variant uses, one per layer.
- ``PagedKVPool`` (:mod:`repro.kvcache.pool`): the server-wide block pool —
  refcounted copy-on-write blocks, hash-chained prefix caching,
  deterministic free-list reuse — with ``BlockTable`` per sequence and
  ``BlockChainExport`` for moving a chain between pools.
"""

from repro.kvcache.cache import LayerKVCache, ModelKVCache
from repro.kvcache.pool import (
    BlockChainExport,
    BlockTable,
    PagedKVPool,
    PoolExhausted,
    PoolStats,
    hash_token_prefix,
)

__all__ = [
    "BlockChainExport",
    "BlockTable",
    "LayerKVCache",
    "ModelKVCache",
    "PagedKVPool",
    "PoolExhausted",
    "PoolStats",
    "hash_token_prefix",
]
