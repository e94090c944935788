"""Throughput and latency accounting for serving runs.

The server produces one immutable :class:`RequestRecord` per terminal
request and files it as finished or rejected. Latency aggregates are
computed **only** over finished records with valid timestamps. Rejected
records (which legitimately carry unset ``start_s``/``finish_s``) are
counted separately and can never skew latency or throughput numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RequestRecord:
    """One terminal request on the serving clock.

    ``request_id`` is None for a request shed at submission, which never
    gets one. ``out_len`` counts generated tokens when finished and
    requested tokens when rejected; a rejected record leaves ``start_s``
    and ``finish_s`` unset. ``first_token_s`` is None when not stamped.
    """

    request_id: int | None
    in_len: int
    out_len: int
    arrival_s: float = 0.0
    start_s: float = 0.0
    finish_s: float = 0.0
    first_token_s: float | None = None

    def __post_init__(self):
        if self.in_len < 1 or self.out_len < 1:
            raise ValueError("in_len and out_len must be positive")

    @property
    def latency_s(self) -> float:
        """Queue + execution latency (arrival -> finish)."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> float | None:
        """Time to first token (arrival -> first emitted token), if recorded."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def queueing_delay_s(self) -> float:
        """Time spent waiting before first activation (arrival -> start)."""
        return self.start_s - self.arrival_s


@dataclass
class ThroughputMeter:
    """Aggregates completed requests into serving metrics."""

    finished: list[RequestRecord] = field(default_factory=list)
    rejected: list[RequestRecord] = field(default_factory=list)

    @classmethod
    def merge(cls, *meters: "ThroughputMeter") -> "ThroughputMeter":
        """One meter over the union of several meters' records.

        An executor has one :class:`ThroughputMeter` per
        replica (each server stamps its own completions); a merged view is
        needed for cluster-wide percentiles, which are *not* derivable
        from per-replica aggregates (a p95 of p95s is not the p95 of the
        union). Records are shared, not copied; recording into the merged
        meter does not touch the sources.
        """
        merged = cls()
        for meter in meters:
            merged.finished.extend(meter.finished)
            merged.rejected.extend(meter.rejected)
        return merged

    def record_finished(self, record: RequestRecord) -> None:
        if record.finish_s < record.start_s or record.finish_s < record.arrival_s:
            raise ValueError(
                f"request {record.request_id} recorded as finished with "
                f"unset/inverted timestamps (arrival={record.arrival_s}, "
                f"start={record.start_s}, finish={record.finish_s})"
            )
        if record.first_token_s is not None and (
            record.first_token_s < record.arrival_s
            or record.first_token_s > record.finish_s
        ):
            raise ValueError(
                f"request {record.request_id} recorded with first token "
                f"outside its lifetime (arrival={record.arrival_s}, "
                f"first_token={record.first_token_s}, "
                f"finish={record.finish_s})"
            )
        self.finished.append(record)

    def record_rejected(self, record: RequestRecord) -> None:
        self.rejected.append(record)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def completion_rate(self) -> float:
        """Fraction of recorded requests that finished (1.0 when none)."""
        total = len(self.finished) + len(self.rejected)
        if total == 0:
            return 1.0
        return len(self.finished) / total

    @property
    def makespan_s(self) -> float:
        """Wall time from first arrival to last completion."""
        if not self.finished:
            return 0.0
        start = min(r.arrival_s for r in self.finished)
        end = max(r.finish_s for r in self.finished)
        return end - start

    @property
    def generated_tokens(self) -> int:
        return sum(r.out_len for r in self.finished)

    @property
    def tokens_per_second(self) -> float:
        """Aggregate decode-token throughput over the makespan."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return self.generated_tokens / span

    @property
    def busy_s(self) -> float:
        """Total time with at least one request in service.

        The union of the finished requests' ``[start_s, finish_s]``
        intervals. Trace replay jumps the clock across arrival gaps
        (``advance_clock_to``), which inflates the makespan without the
        server doing any work; the busy span excludes those injected
        idle gaps.
        """
        intervals = sorted((r.start_s, r.finish_s) for r in self.finished)
        busy = 0.0
        span_start: float | None = None
        span_end = 0.0
        for start, end in intervals:
            if span_start is None or start > span_end:
                if span_start is not None:
                    busy += span_end - span_start
                span_start, span_end = start, end
            else:
                span_end = max(span_end, end)
        if span_start is not None:
            busy += span_end - span_start
        return busy

    @property
    def busy_tokens_per_second(self) -> float:
        """Decode-token throughput over busy periods only.

        The makespan-based :attr:`tokens_per_second` punishes sparse
        traces for their idle gaps; this is the rate while the server was
        actually serving, the number to compare across trace densities.
        """
        busy = self.busy_s
        if busy <= 0:
            return 0.0
        return self.generated_tokens / busy

    def latency_percentile(self, q: float) -> float:
        """q-th percentile of end-to-end request latency (q in [0, 100])."""
        return _percentile([r.latency_s for r in self.finished], q)

    @property
    def mean_latency_s(self) -> float:
        return _mean([r.latency_s for r in self.finished])

    def _ttft_samples(self) -> list[float]:
        return [r.ttft_s for r in self.finished if r.first_token_s is not None]

    def ttft_percentile(self, q: float) -> float:
        """q-th percentile of time-to-first-token (q in [0, 100]).

        Only records whose first-token time was recorded contribute;
        the server stamps every finished request, records built without
        one are simply excluded.
        """
        return _percentile(self._ttft_samples(), q)

    @property
    def mean_ttft_s(self) -> float:
        return _mean(self._ttft_samples())

    def queueing_delay_percentile(self, q: float) -> float:
        """q-th percentile of arrival->activation delay (q in [0, 100])."""
        return _percentile([r.queueing_delay_s for r in self.finished], q)

    @property
    def mean_queueing_delay_s(self) -> float:
        return _mean([r.queueing_delay_s for r in self.finished])


def _percentile(samples: list[float], q: float) -> float:
    """q-th percentile of ``samples``; 0.0 when there are none."""
    return float(np.percentile(samples, q)) if samples else 0.0


def _mean(samples: list[float]) -> float:
    """Mean of ``samples``; 0.0 when there are none."""
    return float(np.mean(samples)) if samples else 0.0
