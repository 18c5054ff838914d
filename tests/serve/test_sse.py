"""SSE wire formatting and listener fan-out."""

import json
import time

import pytest

from repro.serve import MessageAnnouncer, format_sse
from repro.serve.session import phase_frame

from .conftest import parse_sse


class TestFormatSse:
    def test_dict_payload_is_sorted_json(self):
        msg = format_sse({"b": 1, "a": 2})
        assert msg == 'data: {"a": 2, "b": 1}\n\n'

    def test_event_and_id_lines(self):
        msg = format_sse({"x": 1}, event="phase", id="7")
        assert msg.rstrip("\n").splitlines() == [
            "event: phase", "id: 7", 'data: {"x": 1}'
        ]
        assert msg.endswith("\n\n")

    def test_string_passthrough(self):
        assert format_sse("hello") == "data: hello\n\n"

    def test_multiline_string_gets_data_prefix_per_line(self):
        msg = format_sse("a\nb")
        assert msg == "data: a\ndata: b\n\n"
        _, _, data = parse_sse(format_sse('{"k":\n1}'))
        assert data == {"k": 1}

    def test_roundtrip_through_parser(self):
        event, sse_id, data = parse_sse(
            format_sse({"phase": 3, "records": [["v", [1, 2]]]},
                       event="phase", id="3")
        )
        assert (event, sse_id) == ("phase", "3")
        assert data == {"phase": 3, "records": [["v", [1, 2]]]}


class TestMessageAnnouncer:
    def test_fan_out_to_all_listeners(self):
        ann = MessageAnnouncer()
        q1, q2 = ann.listen(), ann.listen()
        ann.announce("m1")
        assert q1.get_nowait() == b"m1"
        assert q2.get_nowait() == b"m1"
        assert ann.announced == 1

    def test_unlisten_stops_delivery_and_is_idempotent(self):
        ann = MessageAnnouncer()
        q = ann.listen()
        ann.unlisten(q)
        ann.unlisten(q)
        ann.announce("m")
        assert q.empty()

    def test_full_listener_drops_instead_of_blocking(self):
        ann = MessageAnnouncer(max_queue=2)
        q = ann.listen()
        for i in range(5):
            ann.announce(f"m{i}")
        # The slow listener lost messages; the announcer never stalled.
        assert ann.dropped == 3
        assert [q.get_nowait() for _ in range(2)] == [b"m0", b"m1"]

    def test_drop_is_per_listener(self):
        ann = MessageAnnouncer(max_queue=1)
        slow, fast = ann.listen(), ann.listen()
        ann.announce("m0")
        fast.get_nowait()
        ann.announce("m1")
        assert ann.dropped == 1  # only the slow queue overflowed
        assert fast.get_nowait() == b"m1"
        assert slow.get_nowait() == b"m0"

    def test_invalid_queue_size(self):
        with pytest.raises(ValueError):
            MessageAnnouncer(max_queue=0)

    def test_encodes_once_and_shares_the_bytes(self):
        ann = MessageAnnouncer()
        q1, q2 = ann.listen(), ann.listen()
        ann.announce(format_sse({"k": "é"}))
        wire = q1.get_nowait()
        assert wire == 'data: {"k": "\\u00e9"}\n\n'.encode("utf-8")
        assert q2.get_nowait() is wire

    def test_listener_that_never_reads_costs_drops_not_time(self):
        ann = MessageAnnouncer(max_queue=8)
        ann.listen()  # never read
        began = time.perf_counter()
        for i in range(2000):
            ann.announce(f"m{i}")
        assert time.perf_counter() - began < 1.0
        assert (ann.announced, ann.dropped) == (2000, 1992)


class _Opaque:
    def __repr__(self):
        return "<opaque>"


def _two_pass_frame(phase, ts, entries, spot_check=None):
    """The frame as built before the single-pass serialiser: probe every
    record value with a throw-away ``json.dumps``, then dump the payload."""

    def jsonable(value):
        try:
            json.dumps(value)
            return value
        except (TypeError, ValueError):
            return repr(value)

    payload = {
        "phase": phase,
        "timestamp": ts,
        "records": [[name, jsonable(value)] for name, value in entries],
    }
    if spot_check is not None:
        payload["spot_check"] = "pass" if spot_check else "fail"
    return format_sse(payload, event="phase", id=str(phase))


class TestPhaseFrame:
    ENCODABLE = [
        ("a", {"key": "k1", "sum": 12.5, "n": 3}),
        ("b", (1, 2.0, None, True, "é\n")),
        ("c", [{"nested": [1, (2, 3)]}, float("inf")]),
        ("d", None),
    ]
    UNENCODABLE = [
        ("s", {1, 2}),
        ("o", _Opaque()),
        ("k", {(1, 2): "tuple key"}),
        ("deep", [1, {"x": _Opaque()}]),
    ]

    @pytest.mark.parametrize("verdict", [None, True, False])
    def test_encodable_records_same_text(self, verdict):
        got = phase_frame(7, 3.5, self.ENCODABLE, verdict)
        assert got == _two_pass_frame(7, 3.5, self.ENCODABLE, verdict)

    def test_exact_text(self):
        assert phase_frame(2, 1.0, [("v", (1, "x"))], True) == (
            "event: phase\nid: 2\n"
            'data: {"phase": 2, "records": [["v", [1, "x"]]], '
            '"spot_check": "pass", "timestamp": 1.0}\n\n'
        )

    def test_empty_phase(self):
        assert phase_frame(1, 0.0, []) == _two_pass_frame(1, 0.0, [])

    @pytest.mark.parametrize("name,value", UNENCODABLE)
    def test_unencodable_record_becomes_its_repr(self, name, value):
        entries = [("a", 1), (name, value), ("z", {"ok": True})]
        got = phase_frame(4, 2.0, entries)
        assert got == _two_pass_frame(4, 2.0, entries)
        _, _, data = parse_sse(got)
        # Only the offending record degrades; its neighbours stay JSON.
        assert data["records"] == [
            ["a", 1], [name, repr(value)], ["z", {"ok": True}]
        ]

    def test_entries_are_not_mutated(self):
        entries = [("s", {1}), ("a", (1, 2))]
        before = list(entries)
        phase_frame(1, 0.0, entries)
        assert entries == before
