"""Per-layer measurement from outside: spans around public layer methods.

The traced run wraps *public* methods of the layer classes listed in
:func:`_traced_methods`. Wrappers are installed on class attributes only, removed
afterwards (the class ``__dict__`` entries are identity-equal to the
originals again), and never touch a ``_private`` name. Spans are kept in
memory and written out once as a Chrome trace; a layer's *self time* is
its span minus the part its direct child spans cover. Tracing inside the
program is a later change (ROADMAP item 1).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

STEP = "serving.server.step"


def _traced_methods() -> list[tuple[str, type, str, Callable | None]]:
    """(span name, class, public method, work function) for every wrapped call.

    The work function, where given, maps ``(args, result)`` of one call to
    the bytes it moved, computed from array shapes — never timed.
    """
    from repro.core.adaptive import AdaptiveMemoryManager
    from repro.core.elastic import ElasticTransferTracker
    from repro.core.retrieval_head import LightweightRetrievalHead, SpeContextPolicy
    from repro.distill.dlm import DraftModel
    from repro.kvcache.cache import LayerKVCache
    from repro.kvcache.pool import PagedKVPool
    from repro.models.attention import AttentionModule
    from repro.models.llm import TransformerLM
    from repro.serving.engine import ExecutorBase
    from repro.serving.placement import PlacementEngine
    from repro.serving.server import SpeContextServer
    from repro.tensor.rope import RotaryEmbedding

    def kv_pair_bytes(args, result):
        return result[0].nbytes + result[1].nbytes

    def gather_into_bytes(args, result):  # (self, indices, k_out, v_out)
        return args[2].nbytes + args[3].nbytes

    def copy_into_bytes(args, result):  # (self, k_out, v_out, limit=None)
        return args[1].nbytes + args[2].nbytes

    def chain_bytes(args, result):
        return sum(k.nbytes + v.nbytes for k, v in result or ())

    def block_bytes(args, result):  # write_block(self, table, index, payload)
        return sum(k.nbytes + v.nbytes for k, v in args[3])

    def rope_bytes(args, result):
        return args[1].nbytes + result.nbytes

    def events_popped(args, result):  # a count, not bytes: marks non-empty pops
        return len(result)

    rows: list[tuple[str, type, str, Callable | None]] = [
        ("serving.engine.add_request", ExecutorBase, "add_request", None),
        ("serving.engine.step", ExecutorBase, "step", None),
        ("serving.engine.pop_stream_events", ExecutorBase, "pop_stream_events", events_popped),
        ("serving.placement.place", PlacementEngine, "place", None),
        ("serving.server.add_request", SpeContextServer, "add_request", None),
        (STEP, SpeContextServer, "step", None),
        ("core.retrieval_head.build", LightweightRetrievalHead, "from_teacher", None),
        ("core.retrieval_head.begin_generation", SpeContextPolicy, "begin_generation", None),
        ("core.retrieval_head.pre_step", SpeContextPolicy, "pre_step", None),
        ("core.retrieval_head.spec_commit", SpeContextPolicy, "spec_commit", None),
        ("core.elastic.observe", ElasticTransferTracker, "observe", None),
        ("core.adaptive.advance", AdaptiveMemoryManager, "advance", None),
        ("kvcache.cache.gather", LayerKVCache, "gather", kv_pair_bytes),
        ("kvcache.cache.gather", LayerKVCache, "gather_into", gather_into_bytes),
        ("kvcache.cache.gather", LayerKVCache, "copy_kv_into", copy_into_bytes),
        ("models.llm.prefill", TransformerLM, "prefill", None),
        ("models.llm.decode_batch", TransformerLM, "decode_step_batch", None),
        ("models.llm.decode_spec", TransformerLM, "decode_spec_batch", None),
        ("models.attention.prefill", AttentionModule, "prefill", None),
        ("models.attention.decode_rows", AttentionModule, "decode_rows", None),
        ("tensor.rope_apply", RotaryEmbedding, "apply", rope_bytes),
        ("distill.dlm.draft_batch", DraftModel, "draft_batch", None),
    ]
    pool_reads = ("match_prefix", "acquire_prefix", "read_block")
    pool_writes = (
        "allocate", "release", "free_table", "publish_prefix",
        "reserve_spec", "promote_spec", "release_spec",
    )
    rows += [("kvcache.pool.read", PagedKVPool, m, None) for m in pool_reads]
    rows.append(("kvcache.pool.read", PagedKVPool, "gather_chain", chain_bytes))
    rows += [("kvcache.pool.write", PagedKVPool, m, None) for m in pool_writes]
    rows.append(("kvcache.pool.write", PagedKVPool, "write_block", block_bytes))
    return rows


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same thread's span list, -1 for a root
    thread: int
    work_bytes: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, collects spans, derives per-layer numbers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[type, str, object]] = []

    # ---- install / remove ----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, cls, method, work in _traced_methods():
            if method.startswith("_"):
                raise ValueError(f"refusing to wrap private name {cls.__name__}.{method}")
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, work))
            else:
                wrapped = self._wrap(original, name, work)
            setattr(cls, method, wrapped)

    def remove(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def _wrap(self, fn: Callable, name: str, work: Callable | None) -> Callable:
        clock = time.perf_counter
        state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            moved = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if work is not None:
                    moved = work(args, result)
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                spans[index] = (name, start, end, parent, moved)

        return traced

    # ---- read side -----------------------------------------------------------

    def spans(self) -> list[list[Span]]:
        """Finished spans, one list per thread (parents index that list)."""
        out = []
        for thread, raw in enumerate(self._threads):
            out.append([Span(s[0], s[1], s[2], s[3], thread, s[4]) for s in raw])
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor."""
    top: list[int] = []
    for i, s in enumerate(spans):
        top.append(i if s.parent < 0 else top[s.parent])
    return top


@dataclass
class LayerTimes:
    """Per-span-name aggregates over one traced pass."""

    durations: dict[str, list[float]]
    outer_durations: dict[str, list[float]]  # spans not nested in a same-name span
    self_total: dict[str, float]
    self_in_step: dict[str, float]
    work_bytes: dict[str, int]
    step_self: list[float]
    step_total: float


def aggregate(per_thread: list[list[Span]]) -> LayerTimes:
    durations: dict[str, list[float]] = defaultdict(list)
    outer: dict[str, list[float]] = defaultdict(list)
    self_total: dict[str, float] = defaultdict(float)
    self_in_step: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    step_self: list[float] = []
    step_total = 0.0
    for spans in per_thread:
        own = self_times(spans)
        top = roots(spans)
        for i, s in enumerate(spans):
            durations[s.name].append(s.duration)
            if s.parent < 0 or spans[s.parent].name != s.name:
                outer[s.name].append(s.duration)
            self_total[s.name] += own[i]
            work[s.name] += s.work_bytes
            if spans[top[i]].name == STEP:
                self_in_step[s.name] += own[i]
            if s.name == STEP:
                step_self.append(own[i])
                step_total += s.duration
    return LayerTimes(
        dict(durations), dict(outer), dict(self_total), dict(self_in_step),
        dict(work), step_self, step_total,
    )


def chrome_trace(per_thread: list[list[Span]], origin: float) -> dict:
    """Chrome ``traceEvents`` JSON (load in chrome://tracing or Perfetto)."""

    def events() -> Iterator[dict]:
        for spans in per_thread:
            for s in spans:
                yield {
                    "name": s.name.rsplit(".", 1)[-1],
                    "cat": s.name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": round((s.start - origin) * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "pid": 0,
                    "tid": s.thread,
                    "args": {"bytes": s.work_bytes} if s.work_bytes else {},
                }

    return {"traceEvents": list(events()), "displayTimeUnit": "ms"}


def write_chrome_trace(path, per_thread: list[list[Span]], origin: float) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(per_thread, origin), fh, separators=(",", ":"))
