"""Throughput and latency accounting for serving runs.

Latency aggregates are computed **only** over requests that are finished
with valid timestamps. Rejected requests (which legitimately carry unset
``start_s``/``finish_s``) are counted separately and can never skew
latency or throughput numbers; a record whose state is mutated after being
recorded (e.g. a finished request requeued for a retry pass) is likewise
excluded at read time instead of crashing or contributing a stale sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.request import Request, RequestState


@dataclass
class ThroughputMeter:
    """Aggregates completed requests into serving metrics."""

    finished: list[Request] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)

    @classmethod
    def merge(cls, *meters: "ThroughputMeter") -> "ThroughputMeter":
        """One meter over the union of several meters' records.

        An executor has one :class:`ThroughputMeter` per
        replica (each server stamps its own completions); a merged view is
        needed for cluster-wide percentiles, which are *not* derivable
        from per-replica aggregates (a p95 of p95s is not the p95 of the
        union). Records are shared, not copied — the merged meter is a
        read-side view, and mutating it (``record``/``clear``) does not
        touch the sources.
        """
        merged = cls()
        for meter in meters:
            merged.finished.extend(meter.finished)
            merged.rejected.extend(meter.rejected)
        return merged

    def record(self, request: Request) -> None:
        if request.state is RequestState.FINISHED:
            if request.finish_s < request.start_s or (
                request.finish_s < request.arrival_s
            ):
                raise ValueError(
                    f"request {request.request_id} recorded as finished with "
                    f"unset/inverted timestamps (arrival={request.arrival_s}, "
                    f"start={request.start_s}, finish={request.finish_s})"
                )
            if request.first_token_s is not None and (
                request.first_token_s < request.arrival_s
                or request.first_token_s > request.finish_s
            ):
                raise ValueError(
                    f"request {request.request_id} recorded with first token "
                    f"outside its lifetime (arrival={request.arrival_s}, "
                    f"first_token={request.first_token_s}, "
                    f"finish={request.finish_s})"
                )
            self.finished.append(request)
        elif request.state is RequestState.REJECTED:
            self.rejected.append(request)
        else:
            raise ValueError(f"request {request.request_id} still {request.state}")

    def _completed(self) -> list[Request]:
        """Finished records that are *still* finished (state re-checked)."""
        return [r for r in self.finished if r.state is RequestState.FINISHED]

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def completion_rate(self) -> float:
        """Fraction of recorded requests that finished (1.0 when none)."""
        total = len(self.finished) + len(self.rejected)
        if total == 0:
            return 1.0
        return len(self._completed()) / total

    @property
    def makespan_s(self) -> float:
        """Wall time from first arrival to last completion."""
        completed = self._completed()
        if not completed:
            return 0.0
        start = min(r.arrival_s for r in completed)
        end = max(r.finish_s for r in completed)
        return end - start

    @property
    def generated_tokens(self) -> int:
        return sum(r.out_len for r in self._completed())

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

        The union of the completed requests' ``[start_s, finish_s]``
        intervals. Trace replay jumps the clock across arrival gaps
        (``advance_clock_to``), which inflates the makespan without the
        server doing any work; the busy span excludes those injected
        idle gaps.
        """
        completed = self._completed()
        intervals = sorted((r.start_s, r.finish_s) for r in completed)
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
        completed = self._completed()
        if not completed:
            return 0.0
        return float(np.percentile([r.latency_s for r in completed], q))

    @property
    def mean_latency_s(self) -> float:
        completed = self._completed()
        if not completed:
            return 0.0
        return float(np.mean([r.latency_s for r in completed]))

    def _ttft_samples(self) -> list[float]:
        return [
            r.ttft_s for r in self._completed() if r.first_token_s is not None
        ]

    def ttft_percentile(self, q: float) -> float:
        """q-th percentile of time-to-first-token (q in [0, 100]).

        Only requests whose first-token time was recorded contribute;
        the server stamps every finished request, legacy/synthetic
        records without one are simply excluded.
        """
        samples = self._ttft_samples()
        if not samples:
            return 0.0
        return float(np.percentile(samples, q))

    @property
    def mean_ttft_s(self) -> float:
        samples = self._ttft_samples()
        if not samples:
            return 0.0
        return float(np.mean(samples))

    def queueing_delay_percentile(self, q: float) -> float:
        """q-th percentile of arrival->activation delay (q in [0, 100])."""
        completed = self._completed()
        if not completed:
            return 0.0
        return float(np.percentile([r.queueing_delay_s for r in completed], q))

    @property
    def mean_queueing_delay_s(self) -> float:
        completed = self._completed()
        if not completed:
            return 0.0
        return float(np.mean([r.queueing_delay_s for r in completed]))
