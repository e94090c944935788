"""Tests for the serving meter and its request records."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.serving.meter import RequestRecord, ThroughputMeter


def record(
    request_id=0, *, out_len=10, arrival=0.0, start=0.0, finish=0.0, first=None
) -> RequestRecord:
    return RequestRecord(
        request_id=request_id,
        in_len=10,
        out_len=out_len,
        arrival_s=arrival,
        start_s=start,
        finish_s=finish,
        first_token_s=first,
    )


def meter_of(*records: RequestRecord) -> ThroughputMeter:
    meter = ThroughputMeter()
    for r in records:
        meter.record_finished(r)
    return meter


class TestRequestRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestRecord(request_id=0, in_len=0, out_len=10)

    @pytest.mark.parametrize(
        "in_len, out_len", [(10, 0), (-1, 10), (10, -5)],
        ids=["zero-output", "negative-input", "negative-output"],
    )
    def test_rejects_nonpositive_lengths(self, in_len, out_len):
        with pytest.raises(ValueError, match="positive"):
            RequestRecord(request_id=0, in_len=in_len, out_len=out_len)

    @pytest.mark.parametrize(
        "first, latency, ttft, queueing",
        [(5.0, 11.0, 4.0, 2.0), (None, 11.0, None, 2.0)],
        ids=["stamped", "unstamped"],
    )
    def test_derived_times(self, first, latency, ttft, queueing):
        r = record(arrival=1.0, start=3.0, first=first, finish=12.0)
        assert r.latency_s == pytest.approx(latency)
        assert r.ttft_s == (None if ttft is None else pytest.approx(ttft))
        assert r.queueing_delay_s == pytest.approx(queueing)


class TestMeter:
    def test_throughput_math(self):
        meter = meter_of(record(out_len=100, finish=10.0))
        assert meter.generated_tokens == 100
        assert meter.tokens_per_second == pytest.approx(10.0)
        assert meter.latency_percentile(50) == pytest.approx(10.0)

    def test_empty_meter_zeroes(self):
        meter = ThroughputMeter()
        assert meter.tokens_per_second == 0.0
        assert meter.mean_latency_s == 0.0
        assert meter.completion_rate == 1.0

    def test_rejected_requests_never_skew_latency_aggregates(self):
        """Rejected requests carry unset start_s/finish_s (0.0); they must
        be counted as rejections, not as zero-latency samples."""
        meter = meter_of(record(0, out_len=50, arrival=2.0, start=4.0, finish=12.0))
        meter.record_rejected(record(1, out_len=50, arrival=3.0))

        assert meter.n_rejected == 1
        assert meter.completion_rate == pytest.approx(0.5)
        # All latency/throughput aggregates come from the finished request
        # alone; the rejected one would otherwise contribute a bogus
        # negative latency (0.0 - 3.0) and drag the makespan start to 0.
        assert meter.mean_latency_s == pytest.approx(10.0)
        assert meter.latency_percentile(0) == pytest.approx(10.0)
        assert meter.makespan_s == pytest.approx(10.0)
        assert meter.generated_tokens == 50

    @pytest.mark.parametrize(
        "bad, match",
        [
            # start_s/finish_s left at 0.0 after a later arrival.
            (record(arrival=5.0), "timestamps"),
            # First token stamped before the request arrived.
            (record(arrival=4.0, start=4.0, finish=10.0, first=2.0), "first token"),
            # Finished before it was activated.
            (record(arrival=0.0, start=5.0, finish=3.0), "inverted"),
            # First token stamped after the request finished.
            (record(arrival=0.0, start=0.0, finish=6.0, first=7.0), "first token"),
        ],
        ids=[
            "unset-timestamps",
            "first-token-before-arrival",
            "finish-before-start",
            "first-token-after-finish",
        ],
    )
    def test_finished_record_rejects_invalid_timestamps(self, bad, match):
        meter = ThroughputMeter()
        with pytest.raises(ValueError, match=match):
            meter.record_finished(bad)
        assert meter.finished == []

    @pytest.mark.parametrize(
        "boundary",
        [
            record(arrival=2.0, start=2.0, first=2.0, finish=6.0),
            # A one-token request: its first token is its last.
            record(arrival=2.0, start=3.0, first=6.0, finish=6.0),
            record(arrival=2.0, start=2.0, first=2.0, finish=2.0),
        ],
        ids=["first-token-at-arrival", "first-token-at-finish", "zero-duration"],
    )
    def test_finished_record_accepts_boundary_timestamps(self, boundary):
        meter = meter_of(boundary)
        assert meter.finished == [boundary]

    def test_shed_record_carries_no_id(self):
        """A request shed at submission never got an id; a rejected-only
        meter reports zero completion and zero latency."""
        meter = ThroughputMeter()
        meter.record_rejected(record(None, out_len=8, arrival=3.0))
        assert meter.rejected[0].request_id is None
        assert meter.n_rejected == 1
        assert meter.completion_rate == 0.0
        assert meter.mean_latency_s == 0.0
        assert meter.generated_tokens == 0

    @pytest.mark.parametrize(
        "records, makespan, tps, busy, busy_tps",
        [
            # Trace replay jumps the clock across arrival gaps: two 10-step
            # busy periods of 100 tokens each around an 80-step idle gap.
            # Makespan throughput sees 100 steps, busy throughput the 20
            # the server actually served.
            (
                [
                    record(0, out_len=100, finish=10.0),
                    record(1, out_len=100, arrival=90.0, start=90.0, finish=100.0),
                ],
                100.0, 2.0, 20.0, 10.0,
            ),
            # Concurrent sessions must not double-count their overlap.
            (
                [
                    record(0, out_len=40, finish=6.0),
                    record(1, out_len=40, arrival=2.0, start=2.0, finish=8.0),
                ],
                8.0, 10.0, 8.0, 10.0,
            ),
        ],
        ids=["gapped-trace", "overlapping-intervals"],
    )
    def test_busy_period_throughput(self, records, makespan, tps, busy, busy_tps):
        meter = meter_of(*records)
        assert meter.makespan_s == pytest.approx(makespan)
        assert meter.tokens_per_second == pytest.approx(tps)
        assert meter.busy_s == pytest.approx(busy)
        assert meter.busy_tokens_per_second == pytest.approx(busy_tps)

    def test_ttft_and_queueing_delay_percentiles(self):
        meter = meter_of(
            record(0, arrival=0.0, start=0.0, first=2.0, finish=10.0),
            record(1, arrival=1.0, start=3.0, first=5.0, finish=12.0),
            record(2, arrival=2.0, start=8.0, first=16.0, finish=20.0),
        )
        # TTFT samples: 2, 4, 14; queueing delays: 0, 2, 6.
        assert meter.ttft_percentile(50) == pytest.approx(4.0)
        assert meter.ttft_percentile(100) == pytest.approx(14.0)
        assert meter.mean_ttft_s == pytest.approx(20.0 / 3)
        assert meter.queueing_delay_percentile(50) == pytest.approx(2.0)
        assert meter.mean_queueing_delay_s == pytest.approx(8.0 / 3)

    def test_ttft_skips_records_without_first_token(self):
        """Records built without a first-token time must drop out of TTFT
        aggregates instead of polluting them."""
        meter = meter_of(record(0, finish=5.0))
        assert meter.ttft_percentile(95) == 0.0
        assert meter.mean_ttft_s == 0.0
        meter.record_finished(record(1, finish=5.0, first=3.0))
        assert meter.mean_ttft_s == pytest.approx(3.0)

    def test_recorded_record_is_frozen(self):
        """A filed record cannot be re-stated behind the meter's back, so
        the aggregates never need to re-check what they read."""
        meter = meter_of(record(out_len=20, finish=4.0))
        with pytest.raises(FrozenInstanceError):
            meter.finished[0].finish_s = 8.0
        assert meter.mean_latency_s == pytest.approx(4.0)
