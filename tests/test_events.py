"""Tests for events and phase assembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PhaseOrderError
from repro.events import (
    Event,
    PhaseAssembler,
    PhaseInput,
    assemble_phases,
)


class TestEvent:
    def test_fields(self):
        e = Event(1.5, "sensor", 42)
        assert (e.timestamp, e.source, e.value) == (1.5, "sensor", 42)

    def test_frozen(self):
        e = Event(0.0, "a", 1)
        with pytest.raises(AttributeError):
            e.value = 2  # type: ignore[misc]

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            Event(0.0, "", 1)

    def test_non_string_source_rejected(self):
        with pytest.raises(ValueError):
            Event(0.0, 3, 1)  # type: ignore[arg-type]


class TestPhaseInput:
    def test_value_for(self):
        pi = PhaseInput(1, 0.0, {"a": 10})
        assert pi.value_for("a") == 10
        assert pi.value_for("b") is None
        assert pi.value_for("b", default=-1) == -1

    def test_contains(self):
        pi = PhaseInput(1, 0.0, {"a": 10})
        assert "a" in pi
        assert "b" not in pi


class TestPhaseAssembler:
    def test_same_timestamp_one_phase(self):
        phases = assemble_phases(
            [Event(0.0, "a", 1), Event(0.0, "b", 2), Event(1.0, "a", 3)]
        )
        assert len(phases) == 2
        assert phases[0].values == {"a": 1, "b": 2}
        assert phases[1].values == {"a": 3}

    def test_sequential_numbering_from_one(self):
        phases = assemble_phases(
            [Event(t, "a", t) for t in (0.5, 2.0, 7.25)]
        )
        assert [p.phase for p in phases] == [1, 2, 3]
        assert [p.timestamp for p in phases] == [0.5, 2.0, 7.25]

    def test_out_of_order_rejected(self):
        pa = PhaseAssembler()
        pa.add(Event(5.0, "a", 1))
        with pytest.raises(PhaseOrderError):
            pa.add(Event(3.0, "a", 2))

    def test_regression_after_flush_rejected(self):
        pa = PhaseAssembler()
        pa.add(Event(1.0, "a", 1))
        pa.add(Event(2.0, "a", 2))  # seals phase 1
        pa.flush()
        with pytest.raises(PhaseOrderError):
            pa.add(Event(1.0, "b", 3))

    def test_flush_keeps_open_phase(self):
        pa = PhaseAssembler()
        pa.add(Event(0.0, "a", 1))
        assert pa.flush() == []  # phase 1 not sealed yet
        pa.add(Event(1.0, "a", 2))
        sealed = pa.flush()
        assert len(sealed) == 1
        assert sealed[0].values == {"a": 1}

    def test_finish_seals_last_phase(self):
        pa = PhaseAssembler()
        pa.add(Event(0.0, "a", 1))
        phases = pa.finish()
        assert len(phases) == 1

    def test_later_same_phase_value_wins(self):
        phases = assemble_phases([Event(0.0, "a", 1), Event(0.0, "a", 9)])
        assert phases[0].values == {"a": 9}

    def test_empty_stream(self):
        assert assemble_phases([]) == []

    def test_next_phase_property(self):
        pa = PhaseAssembler()
        assert pa.next_phase == 1
        pa.add(Event(0.0, "a", 1))
        pa.add(Event(1.0, "a", 2))
        pa.finish()
        assert pa.next_phase == 3

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.sampled_from(["a", "b", "c"]),
                st.integers(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_phases_partition_events(self, raw):
        """Sorted events assemble into phases that (a) are numbered 1..K,
        (b) have strictly increasing timestamps, (c) preserve the last
        value per (timestamp, source)."""
        raw.sort(key=lambda t: t[0])
        events = [Event(t, s, v) for t, s, v in raw]
        phases = assemble_phases(events)
        assert [p.phase for p in phases] == list(range(1, len(phases) + 1))
        times = [p.timestamp for p in phases]
        assert times == sorted(set(times))
        expected_last = {}
        for e in events:
            expected_last[(e.timestamp, e.source)] = e.value
        for p in phases:
            for source, value in p.values.items():
                assert expected_last[(p.timestamp, source)] == value
