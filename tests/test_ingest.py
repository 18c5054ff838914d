"""Tests for the reorder buffer and noisy-clock ingestion (Section 6)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BackpressureError, WorkloadError
from repro.events import Event
from repro.ingest import (
    ArrivingEvent,
    ReorderBuffer,
    bin_timestamp,
    late_event_tradeoff,
    noisy_observations,
)


def arr(ts: float, source: str, value, arrival: float) -> ArrivingEvent:
    return ArrivingEvent(Event(ts, source, value), arrival)


class TestArrivingEvent:
    def test_arrival_before_generation_rejected(self):
        with pytest.raises(WorkloadError):
            arr(5.0, "a", 1, arrival=4.0)

    @pytest.mark.parametrize("arrival", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        # An arrival of inf would move the watermark past every later
        # event: each one would read as late.
        with pytest.raises(WorkloadError, match="not finite"):
            arr(0.0, "a", 1, arrival=arrival)


class TestReorderBuffer:
    def test_in_order_events_seal_after_wait(self):
        buf = ReorderBuffer(wait=1.0)
        assert buf.offer(arr(0.0, "a", 1, arrival=0.2)) == []
        # Arrival 1.5 pushes the watermark to 0.5 >= timestamp 0: sealed.
        sealed = buf.offer(arr(1.0, "a", 2, arrival=1.5))
        assert [p.timestamp for p in sealed] == [0.0]

    def test_watermark_semantics(self):
        buf = ReorderBuffer(wait=2.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        # Watermark = 0.1 - 2.0 < 0: nothing sealed.
        assert buf.watermark < 0
        sealed = buf.offer(arr(3.0, "a", 2, arrival=3.1))
        # Watermark = 1.1: timestamp 0 seals, timestamp 3 still pending.
        assert [p.timestamp for p in sealed] == [0.0]
        assert sealed[0].values == {"a": 1}

    def test_out_of_order_event_recovered_within_wait(self):
        buf = ReorderBuffer(wait=2.0)
        buf.offer(arr(1.0, "a", "later", arrival=1.1))
        buf.offer(arr(0.0, "b", "earlier", arrival=1.2))  # late but in window
        sealed = buf.offer(arr(4.0, "a", "x", arrival=4.0))
        assert [p.timestamp for p in sealed] == [0.0, 1.0]
        assert sealed[0].values == {"b": "earlier"}

    def test_late_event_dropped_and_counted(self):
        buf = ReorderBuffer(wait=0.5)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        buf.offer(arr(5.0, "a", 2, arrival=5.0))  # seals ts 0
        assert buf.late_count == 0
        buf.offer(arr(0.0, "b", 3, arrival=5.1))  # for sealed ts: late
        assert buf.late_count == 1
        assert buf.accepted == 2

    def test_same_bin_groups_jittered_clocks(self):
        buf = ReorderBuffer(wait=1.0, quantum=1.0)
        buf.offer(arr(0.95, "a", 1, arrival=1.0))
        buf.offer(arr(1.04, "b", 2, arrival=1.1))
        sealed = buf.flush()
        assert len(sealed) == 1
        assert sealed[0].values == {"a": 1, "b": 2}

    def test_phases_numbered_sequentially(self):
        buf = ReorderBuffer(wait=0.0)
        all_sealed = []
        for t in (0.0, 1.0, 2.0, 3.0):
            all_sealed.extend(buf.offer(arr(t, "a", t, arrival=t + 0.01)))
        all_sealed.extend(buf.flush())
        assert [p.phase for p in all_sealed] == [1, 2, 3, 4]
        assert [p.timestamp for p in all_sealed] == [0.0, 1.0, 2.0, 3.0]

    def test_flush_seals_everything(self):
        buf = ReorderBuffer(wait=100.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        buf.offer(arr(1.0, "a", 2, arrival=1.1))
        sealed = buf.flush()
        assert len(sealed) == 2

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ReorderBuffer(wait=-1)
        with pytest.raises(WorkloadError):
            ReorderBuffer(wait=1, quantum=0)

    @pytest.mark.parametrize(
        "wait, quantum",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_wait_or_quantum_is_refused(self, wait, quantum):
        # Regression: a NaN or infinite wait sealed nothing, so a bounded
        # buffer took max_buffered rows and then answered backpressure
        # for good; a NaN quantum failed the first row and an infinite
        # one binned every row to NaN, each opening a bin of its own.
        with pytest.raises(WorkloadError, match="finite"):
            ReorderBuffer(wait=wait, quantum=quantum, max_buffered=8)

    def test_serve_session_refuses_a_non_finite_wait(self):
        from repro.serve import ServeConfig, ServeSession

        from tests.conftest import make_chain_program

        program = make_chain_program(2, {})
        with pytest.raises(WorkloadError, match="finite"):
            ServeSession(program, ServeConfig(wait=math.nan))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),  # true tick
                st.floats(0.0, 5.0, allow_nan=False),  # delay
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.0, 6.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_no_event_lost_or_duplicated(self, raw, wait):
        """accepted + late == offered, sealed phase timestamps strictly
        increase, and with wait >= max delay nothing is ever late."""
        arrivals = sorted(
            (ArrivingEvent(Event(float(t), "s", i), float(t) + d)
             for i, (t, d) in enumerate(raw)),
            key=lambda a: a.arrival,
        )
        buf = ReorderBuffer(wait=wait)
        sealed = []
        for a in arrivals:
            sealed.extend(buf.offer(a))
        sealed.extend(buf.flush())
        assert buf.accepted + buf.late_count == len(arrivals)
        times = [p.timestamp for p in sealed]
        assert times == sorted(set(times))
        max_delay = max(d for _t, d in raw)
        # Strict margin: (t + d) - d can exceed t in floating point, so a
        # wait exactly equal to the max delay can seal a hair early.
        if wait >= max_delay + 1e-6:
            assert buf.late_count == 0


class TestBinning:
    """Regression: binning used Python's round(), which is banker's
    round-half-even — exact half-quantum stamps binned by *parity*
    (0.5 -> 0.0 but 1.5 -> 2.0), so identical sensor offsets landed in
    different snapshots.  Binning is now explicit half-up."""

    def test_half_quantum_stamps_bin_uniformly(self):
        # These fail under round(): round(0.5) == 0 but round(1.5) == 2.
        assert bin_timestamp(0.5, 1.0) == 1.0
        assert bin_timestamp(1.5, 1.0) == 2.0
        assert bin_timestamp(2.5, 1.0) == 3.0
        assert bin_timestamp(3.5, 1.0) == 4.0

    def test_identical_offsets_same_relative_bin(self):
        # Two sensors with the same +0.5 clock offset at consecutive
        # ticks must land the same distance from their true instant.
        assert bin_timestamp(0.5, 1.0) - 0.0 == bin_timestamp(1.5, 1.0) - 1.0

    def test_nearest_instant_semantics_preserved(self):
        assert bin_timestamp(0.95, 1.0) == 1.0
        assert bin_timestamp(1.04, 1.0) == 1.0
        assert bin_timestamp(1.49, 1.0) == 1.0
        assert bin_timestamp(-0.4, 1.0) == 0.0

    def test_non_unit_quantum(self):
        assert bin_timestamp(0.25, 0.5) == 0.5
        assert bin_timestamp(0.74, 0.5) == 0.5
        assert bin_timestamp(0.76, 0.5) == 1.0

    def test_buffer_groups_half_quantum_siblings(self):
        # End-to-end through the buffer: ts 0.5 and 1.5 (consecutive
        # ticks, same offset) must seal as *different* consecutive
        # phases 1.0 and 2.0 — under round() they collapsed 0.5 into
        # the 0.0 bin while 1.5 went up to 2.0, skipping a phase.
        buf = ReorderBuffer(wait=0.0, quantum=1.0)
        sealed = []
        sealed += buf.offer(arr(0.5, "a", "x", arrival=0.5))
        sealed += buf.offer(arr(1.5, "a", "y", arrival=1.5))
        sealed += buf.flush()
        assert [p.timestamp for p in sealed] == [1.0, 2.0]


class TestNoisyObservations:
    def test_deterministic(self):
        a = noisy_observations(["x", "y"], 20, seed=3)
        b = noisy_observations(["x", "y"], 20, seed=3)
        assert a == b

    def test_arrival_ordered(self):
        arrivals = noisy_observations(["x", "y", "z"], 30, seed=1)
        times = [a.arrival for a in arrivals]
        assert times == sorted(times)

    def test_generation_order_scrambled(self):
        arrivals = noisy_observations(
            ["x", "y"], 40, delay_mean=0.5, delay_jitter=2.0, seed=2
        )
        stamps = [a.event.timestamp for a in arrivals]
        assert stamps != sorted(stamps)  # that's the whole problem

    def test_counts(self):
        arrivals = noisy_observations(["a", "b", "c"], 10, seed=0)
        assert len(arrivals) == 30


class TestTradeoff:
    def test_longer_wait_fewer_late_higher_latency(self):
        arrivals = noisy_observations(
            ["a", "b", "c"], 150, clock_noise=0.05,
            delay_mean=0.5, delay_jitter=2.0, seed=7,
        )
        points = late_event_tradeoff(arrivals, waits=[0.0, 1.0, 3.0])
        late = [p.late_rate for p in points]
        latency = [p.mean_sealing_latency for p in points]
        assert late[0] > late[-1]
        assert latency[0] < latency[-1]
        assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(late, late[1:]))

    def test_section6_sweep(self):
        """Three noisy sensors, 120 ticks, waits 0-8 (EXPERIMENTS.md
        records the 400-tick table): a zero wait loses events, the
        longest loses none, and staleness is the price."""
        arrivals = noisy_observations(
            ["radar", "rfid", "ticker"], ticks=120, clock_noise=0.05,
            delay_mean=0.5, delay_jitter=3.0, seed=17,
        )
        points = late_event_tradeoff(arrivals, [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
        late = [p.late_rate for p in points]
        latency = [p.mean_sealing_latency for p in points]
        assert all(a >= b - 1e-12 for a, b in zip(late, late[1:]))
        assert late[0] > 0.1
        assert late[-1] == 0.0
        assert latency[-1] > latency[0]

    def test_huge_wait_loses_nothing(self):
        arrivals = noisy_observations(["a", "b"], 60, seed=4)
        (point,) = late_event_tradeoff(arrivals, waits=[50.0])
        assert point.late_rate == 0.0
        assert point.events_accepted == 120


class TestWatermarkBoundary:
    """Exact-boundary semantics: an event whose delay equals the wait
    arrives when watermark == its timestamp and must still be admitted
    (the wait >= max-delay guarantee of zero lateness depends on it)."""

    def test_event_arriving_exactly_at_seal_time_admitted(self):
        buf = ReorderBuffer(wait=1.0)
        # Arrival 1.0 puts the watermark at exactly 0.0 == the event's
        # own timestamp: strictly-below sealing must NOT seal it yet.
        sealed = buf.offer(arr(0.0, "a", "on-time", arrival=1.0))
        assert sealed == []
        assert buf.watermark == 0.0
        assert buf.accepted == 1
        assert buf.late_count == 0
        # A same-timestamp sibling arriving while watermark == ts is
        # still admitted into the open snapshot, not counted late.
        assert buf.offer(arr(0.0, "b", "sibling", arrival=1.0)) == []
        assert buf.accepted == 2
        assert buf.late_count == 0
        # Only a *later* arrival pushes the watermark past 0 and seals
        # the complete two-source snapshot.
        sealed = buf.offer(arr(2.0, "a", "next", arrival=3.0))
        assert [p.timestamp for p in sealed] == [0.0]
        assert sealed[0].values == {"a": "on-time", "b": "sibling"}

    def test_boundary_timestamp_equal_to_sealed_upto_is_late(self):
        buf = ReorderBuffer(wait=1.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.5))
        sealed = buf.offer(arr(2.0, "a", 2, arrival=3.5))  # watermark 2.5
        assert [p.timestamp for p in sealed] == [0.0, 2.0]
        # ts == sealed_upto (2.0): exactly on the boundary -> late.
        buf.offer(arr(2.0, "b", 3, arrival=3.6))
        assert buf.late_count == 1
        assert buf.late_events[0].event.value == 3

    def test_wait_zero_late_counting(self):
        # wait=0: the watermark IS the max arrival time, so any event
        # whose timestamp trails a sealed sibling's is counted late.
        buf = ReorderBuffer(wait=0.0)
        assert buf.offer(arr(0.0, "a", 1, arrival=0.0)) == []
        # Arrival 1.0 moves the watermark to 1.0: ts 0.0 seals.
        sealed = buf.offer(arr(1.0, "a", 2, arrival=1.0))
        assert [p.timestamp for p in sealed] == [0.0]
        # Out-of-order straggler for the sealed instant: late, excluded.
        assert buf.offer(arr(0.0, "b", 9, arrival=1.5)) == []
        assert buf.late_count == 1
        assert buf.accepted == 2
        # The sealed phase was not revised to include the straggler.
        assert sealed[0].values == {"a": 1}
        # Pending ts 1.0 is untouched by lateness bookkeeping: flushing
        # recovers it.
        flushed = buf.flush()
        assert [p.timestamp for p in flushed] == [1.0]

    def test_flush_then_offer_counts_late(self):
        """After flush() the stream is closed: a straggler must be
        recorded late, seal nothing, and not resurrect phase numbering."""
        buf = ReorderBuffer(wait=1.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        flushed = buf.flush()
        assert [p.timestamp for p in flushed] == [0.0]
        assert buf.offer(arr(3.0, "b", 2, arrival=3.0)) == []
        assert buf.late_count == 1
        assert buf.accepted == 1
        # Phase numbering is undisturbed: a second flush seals nothing.
        assert buf.flush() == []
        assert buf._next_phase == 2

    def test_flush_on_empty_buffer(self):
        buf = ReorderBuffer(wait=1.0)
        assert buf.flush() == []
        # Even with nothing ever offered, post-flush offers are late.
        assert buf.offer(arr(0.0, "a", 1, arrival=0.5)) == []
        assert buf.late_count == 1

    def test_wait_zero_simultaneous_arrivals_not_late(self):
        # With wait=0 an event arriving exactly when the watermark
        # reaches its timestamp (delay 0, perfectly on time) is still
        # admitted: sealing is strictly below the watermark.
        buf = ReorderBuffer(wait=0.0)
        assert buf.offer(arr(1.0, "a", "x", arrival=1.0)) == []
        assert buf.offer(arr(1.0, "b", "y", arrival=1.0)) == []
        assert buf.late_count == 0
        sealed = buf.flush()
        assert [p.timestamp for p in sealed] == [1.0]
        assert sealed[0].values == {"a": "x", "b": "y"}


class TestBoundedBuffer:
    """max_buffered: the serve layer's ingest backpressure seam."""

    def test_new_bin_past_cap_rejected(self):
        buf = ReorderBuffer(wait=10.0, max_buffered=2)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        buf.offer(arr(1.0, "a", 2, arrival=1.1))
        with pytest.raises(BackpressureError):
            buf.offer(arr(2.0, "a", 3, arrival=2.1))
        # Nothing about the rejected offer was recorded.
        assert buf.accepted == 2
        assert buf.late_count == 0
        assert buf.pending_bins == 2

    def test_existing_bin_accepts_at_cap(self):
        buf = ReorderBuffer(wait=10.0, max_buffered=2)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        buf.offer(arr(1.0, "a", 2, arrival=1.1))
        # Same bins, different sources: no new bin, always admitted.
        buf.offer(arr(0.0, "b", 3, arrival=1.2))
        buf.offer(arr(1.0, "b", 4, arrival=1.3))
        assert buf.accepted == 4
        assert buf.pending_bins == 2

    def test_half_up_binning_at_the_cap(self):
        # quantum=1.0 bins half-up: ts 1.49 joins bin 1.0 (admitted at
        # the cap), ts 1.5 opens bin 2.0 (rejected at the cap).
        buf = ReorderBuffer(wait=10.0, quantum=1.0, max_buffered=2)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        buf.offer(arr(1.0, "a", 2, arrival=1.1))
        buf.offer(arr(1.49, "b", 3, arrival=1.6))  # bin 1.0: existing
        assert buf.pending_bins == 2
        with pytest.raises(BackpressureError):
            buf.offer(arr(1.5, "c", 4, arrival=1.6))  # bin 2.0: new
        sealed = buf.flush()
        assert [p.timestamp for p in sealed] == [0.0, 1.0]
        assert sealed[1].values == {"a": 2, "b": 3}

    def test_late_events_never_backpressured(self):
        buf = ReorderBuffer(wait=0.0, max_buffered=1)
        buf.offer(arr(0.0, "a", 1, arrival=0.0))
        sealed = buf.advance_watermark(0.5)
        assert [p.timestamp for p in sealed] == [0.0]
        buf.offer(arr(1.0, "a", 2, arrival=1.0))  # buffer full again
        # Straggler for the sealed instant: the late path runs before
        # the capacity check, so a full buffer never rejects it.
        assert buf.offer(arr(0.0, "b", 9, arrival=1.5)) == []
        assert buf.late_count == 1
        assert buf.accepted == 2

    def test_sealing_frees_capacity(self):
        buf = ReorderBuffer(wait=0.5, max_buffered=1)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        with pytest.raises(BackpressureError):
            buf.offer(arr(1.0, "a", 2, arrival=1.1))
        # Advancing the watermark seals bin 0.0; the next bin fits.
        sealed = buf.advance_watermark(1.0)
        assert [p.timestamp for p in sealed] == [0.0]
        assert buf.offer(arr(1.0, "a", 2, arrival=1.2)) == []
        assert buf.pending_bins == 1

    def test_rejected_offer_can_be_retried(self):
        buf = ReorderBuffer(wait=0.5, max_buffered=1)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))
        ev = arr(1.0, "a", 2, arrival=1.2)
        with pytest.raises(BackpressureError):
            buf.offer(ev)
        buf.advance_watermark(1.0)
        # The identical event object is admitted after drain: rejection
        # left no trace.
        assert buf.offer(ev) == []
        assert buf.accepted == 2

    def test_max_late_kept_caps_retention_not_count(self):
        buf = ReorderBuffer(wait=0.0, max_late_kept=2)
        buf.offer(arr(0.0, "a", 1, arrival=0.0))
        buf.offer(arr(5.0, "a", 2, arrival=5.0))  # seals ts 0.0
        for i in range(5):
            buf.offer(arr(0.0, f"s{i}", i, arrival=6.0 + i))
        assert buf.late_count == 5
        assert len(buf.late_events) == 2
        # The retained sample is the earliest stragglers, not the last.
        assert [a.event.source for a in buf.late_events] == ["s0", "s1"]

    def test_max_late_kept_zero_keeps_nothing(self):
        buf = ReorderBuffer(wait=0.0, max_late_kept=0)
        buf.offer(arr(0.0, "a", 1, arrival=0.0))
        buf.offer(arr(5.0, "a", 2, arrival=5.0))
        buf.offer(arr(0.0, "b", 3, arrival=6.0))
        assert buf.late_count == 1
        assert buf.late_events == []

    def test_invalid_caps_rejected(self):
        with pytest.raises(WorkloadError):
            ReorderBuffer(wait=1.0, max_buffered=0)
        with pytest.raises(WorkloadError):
            ReorderBuffer(wait=1.0, max_late_kept=-1)


class TestAdvanceWatermark:
    def test_advance_seals_strictly_below(self):
        buf = ReorderBuffer(wait=10.0)  # offers alone seal nothing
        buf.offer(arr(0.0, "a", 1, arrival=0.0))
        buf.offer(arr(1.0, "a", 2, arrival=1.0))
        sealed = buf.advance_watermark(1.0)
        # Sealing is strictly below the watermark: bin 1.0 stays open.
        assert [p.timestamp for p in sealed] == [0.0]
        assert buf.pending_bins == 1
        assert buf.advance_watermark(1.0 + 1e-9)[0].timestamp == 1.0

    def test_advance_never_moves_backwards(self):
        buf = ReorderBuffer(wait=0.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.0))
        buf.advance_watermark(5.0)
        assert buf.advance_watermark(1.0) == []
        assert buf.watermark == 5.0

    def test_advance_sets_watermark_directly(self):
        # advance_watermark(to) takes the watermark itself — the caller
        # subtracts its own wait ("it is now t, seal below t - wait").
        # It is not re-discounted by the buffer's wait.
        buf = ReorderBuffer(wait=2.0)
        buf.offer(arr(0.0, "a", 1, arrival=0.1))  # watermark -1.9
        assert buf.advance_watermark(0.0) == []
        sealed = buf.advance_watermark(0.5)
        assert [p.timestamp for p in sealed] == [0.0]
        assert buf.watermark == 0.5

    def test_a_nan_watermark_is_ignored(self):
        # NaN compares false against everything: stored, it would stop
        # every later arrival from sealing a phase.
        def sealed_after(buf):
            return sum(
                len(buf.offer(arr(float(t), "a", t, arrival=float(t))))
                for t in range(10)
            )

        buf = ReorderBuffer(wait=1.0)
        assert buf.advance_watermark(float("nan")) == []
        assert buf.watermark == float("-inf")
        assert sealed_after(buf) == sealed_after(ReorderBuffer(wait=1.0)) == 8
