"""One POST body is one admission: the body path against a per-line reference.

:meth:`ServeSession.offer_body` decodes a whole NDJSON body, bins its rows
under one ingest-lock hold and hands every phase it sealed to the engine
in one :meth:`PhaseFeed.put`.  The reference below is the per-line
ingest it replaced, kept here: each line parsed on its own and offered
as one :class:`ArrivingEvent` — same status, same reply, same counters,
same sealed phases, same retired records, on a generated corpus of
valid, blank, malformed, late and backpressured lines.  Likewise
:meth:`ReorderBuffer.offer_rows` is held against the one-event-at-a-time
sealing rule it replaced.
"""

import http.client
import json
import math
import random

import pytest

from repro.errors import BackpressureError, ServeError
from repro.events import Event, PhaseInput
from repro.ingest import ArrivingEvent, ReorderBuffer, bin_timestamp
from repro.serve import ServeConfig, ServeServer, ServeSession
from repro.spec import load_spec

SPEC = "specs/serve_accounts.xml"
SOURCES = ["txn[a0]", "txn[a1]", "txn[a2]"]

# -- the per-line reference ---------------------------------------------------


def _json_number(value):
    """A JSON number as a float; a string or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def reference_line(line):
    """One NDJSON line as the per-line path parsed it."""
    text = line.strip()
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ServeError(f"bad NDJSON event: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServeError(
            f"NDJSON event must be an object, got {type(obj).__name__}"
        )
    try:
        ts = _json_number(obj["timestamp"])
        source = obj["source"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ServeError(
            f"NDJSON event needs numeric 'timestamp' and 'source': {exc}"
        ) from exc
    try:
        arrival = _json_number(obj.get("arrival", ts))
    except (TypeError, OverflowError) as exc:
        raise ServeError(f"bad 'arrival': {exc}") from exc
    if not math.isfinite(arrival):
        raise ServeError(f"bad 'arrival': {arrival} is not finite")
    try:
        event = Event(ts, source, obj.get("value"))
    except ValueError as exc:
        raise ServeError(str(exc)) from exc
    return ArrivingEvent(event, arrival=max(arrival, ts))


def reference_post(session, body):
    """``(status, reply)`` of the per-line ``POST /events`` handler."""
    accepted = late = sealed = 0
    for lineno, line in enumerate(body.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            out = session.offer(reference_line(line))
        except BackpressureError:
            return 429, {
                "error": "backpressure: reorder buffer full",
                "accepted": accepted,
                "late": late,
                "sealed": sealed,
                "rejected_line": lineno,
            }
        except ServeError as exc:
            return 400, {"error": str(exc), "bad_line": lineno}
        accepted += 1 if out["accepted"] else 0
        late += 1 if out["late"] else 0
        sealed += out["sealed"]
    return 200, {"accepted": accepted, "late": late, "sealed": sealed}


# -- the corpus ---------------------------------------------------------------

MALFORMED = [
    '{"x":[{}', "{}]}", "{},{}", "not json", '{"timestamp": 1,}',
    '{"timestamp": 1.0, "source": "txn[a0]"} trailing', "\ufeff{}",
]
NOT_OBJECTS = ["[1, 2]", '"txn[a0]"', "42", "null", "true"]


def _event(ts, source, value=50.0, arrival=None, **extra):
    obj = {"timestamp": ts, "source": source, "value": value, **extra}
    if arrival is not None:
        obj["arrival"] = arrival
    return json.dumps(obj)


def _bad_line(rng, now):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(MALFORMED)
    if kind == 1:
        return rng.choice(NOT_OBJECTS)
    if kind == 2:  # timestamp missing or not a number
        return rng.choice([
            json.dumps({"source": "txn[a0]", "value": 1.0}),
            _event("soon", "txn[a1]"),
            _event(None, "txn[a1]"),
            _event([now], "txn[a2]"),
            _event(str(now), "txn[a0]"),
            _event(True, "txn[a1]"),
            json.dumps({"timestamp": now, "value": 1.0}),
        ])
    if kind == 3:  # arrival not a finite JSON number
        return rng.choice([
            _event(now, "txn[a0]", arrival="soon"),
            _event(now, "txn[a0]", arrival=None),
            _event(now, "txn[a0]", arrival={"at": now}),
            _event(now, "txn[a1]", arrival=str(now + 5.0)),
            _event(now, "txn[a2]", arrival=False),
            _event(now, "txn[a0]", arrival=math.inf),  # "Infinity"
            _event(now, "txn[a1]", arrival=-math.inf),
            _event(now, "txn[a2]", arrival=math.nan),
            _event(now, "txn[a0]")[:-1] + ', "arrival": 1e400}',
        ])
    # a source that is empty, not a string, or not a source vertex
    return _event(now, rng.choice(["", 5, ["txn[a0]"], "nosuch", "watch[a1]"]))


def random_case(seed):
    """``(config, bodies)``: one session's worth of POST bodies."""
    rng = random.Random(f"body-ingest|{seed}")
    config = {
        "wait": rng.choice([0.0, 1.0, 3.0]),
        "max_buffered": rng.choice([64, 2, 3]),
    }
    now = 0.0
    bodies = []
    for _ in range(rng.randint(1, 4)):
        lines = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.08:
                lines.append(rng.choice(["", "   ", "\t"]))
            elif roll < 0.16:  # behind the watermark: late, or a sealed bin
                lines.append(_event(max(0.0, now - 4.0), rng.choice(SOURCES)))
            elif roll < 0.22:
                lines.append(_bad_line(rng, now))
            else:
                now += rng.choice([0.0, 0.3, 1.0, 2.0])
                value = round(40.0 + 20.0 * rng.random(), 3)
                ts = round(now + rng.gauss(0.0, 0.2), 3)
                arrival = round(now + rng.random(), 3)
                if rng.random() < 0.1:
                    arrival = ts - 0.5  # clamped up to the timestamp
                stamp = str(ts) if rng.random() < 0.05 else ts
                lines.append(
                    _event(stamp, rng.choice(SOURCES), value, arrival=arrival)
                )
        bodies.append("\n".join(lines) + rng.choice(["", "\n", "\r\n"]))
    return config, bodies


def _lines(*events):
    return "\n".join(events) + "\n"


NAMED_CASES = {
    # A malformed line at k: lines before it are ingested, none after.
    "malformed-at-3": ({"wait": 1.0, "max_buffered": 64}, [
        _lines(_event(0.0, "txn[a0]"), _event(1.0, "txn[a1]"), '{"x":[{}',
               _event(2.0, "txn[a2]")),
    ]),
    # Three lines that one json.loads over "[" + ",".join(lines) + "]"
    # would read as three objects: each is malformed on its own.
    "joined-array-trap": ({"wait": 1.0, "max_buffered": 64}, [
        _lines('{"x":[{}', "{}]}", "{},{}"),
    ]),
    "not-an-object": ({"wait": 0.0, "max_buffered": 64}, [
        _lines(_event(0.0, "txn[a0]"), "[1, 2]"),
    ]),
    "empty-source": ({"wait": 0.0, "max_buffered": 64}, [
        _lines(_event(0.0, "txn[a0]"), _event(0.0, "")),
    ]),
    "unknown-and-inner-source": ({"wait": 0.0, "max_buffered": 64}, [
        _lines(_event(0.0, "nosuch")),
        _lines(_event(1.0, "txn[a0]"), _event(1.0, "case[a0]")),
    ]),
    "late": ({"wait": 0.0, "max_buffered": 64}, [
        _lines(_event(0.0, "txn[a0]"), _event(3.0, "txn[a1]")),
        _lines(_event(0.0, "txn[a2]", arrival=4.0), _event(4.0, "txn[a0]")),
    ]),
    # max_buffered 2 and a long wait: the third distinct bin is refused.
    "backpressure-at-3": ({"wait": 100.0, "max_buffered": 2}, [
        _lines(_event(0.0, "txn[a0]"), _event(1.0, "txn[a0]"),
               _event(2.0, "txn[a0]"), _event(3.0, "txn[a0]")),
    ]),
    "backpressure-before-malformed": ({"wait": 100.0, "max_buffered": 2}, [
        _lines(_event(0.0, "txn[a0]"), _event(1.0, "txn[a1]"),
               _event(2.0, "txn[a2]"), "not json"),
    ]),
    "blank-lines-count": ({"wait": 0.0, "max_buffered": 64}, [
        "\n\n" + _lines(_event(0.0, "txn[a0]"), "", "  ", "oops"),
    ]),
}
CASES = {**NAMED_CASES, **{f"random-{i}": random_case(i) for i in range(40)}}


# -- the harness --------------------------------------------------------------


def _session(config):
    """A started session whose admitted phases and retired records are
    logged; ``check_sample=1`` holds every phase against the oracle."""
    retired = []
    session = ServeSession(
        load_spec(SPEC).program,
        ServeConfig(check_sample=1, **config),
        on_retired=lambda p, ts, entries: retired.append((p, ts, entries)),
    )
    admitted = []
    put = session.feed.put

    def logged_put(phases, timeout=None):
        admitted.extend(phases)
        return put(phases, timeout)

    session.feed.put = logged_put
    session.start()
    return session, admitted, retired


def _post(server, body):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/events", body=body.encode("utf-8"))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


#: The ``stats()["serve"]`` counters ingest decides.  The feed's
#: ``feed_stalls`` / ``feed_high_water`` (and so ``backpressure_stalls``)
#: depend on how fast the engine thread takes phases, on either path.
INGEST_COUNTERS = (
    "phases_ingested", "events_accepted", "late_events", "buffer_rejects",
    "buffer_high_water",
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_body_path_equals_per_line_reference(case):
    config, bodies = CASES[case]
    ref, ref_admitted, ref_retired = _session(config)
    got, got_admitted, got_retired = _session(config)
    try:
        with ServeServer(got) as server:
            for body in bodies:
                want = reference_post(ref, body)
                assert _post(server, body) == want, body
                ref_serve, got_serve = ref.stats()["serve"], got.stats()["serve"]
                for key in INGEST_COUNTERS:
                    assert got_serve[key] == ref_serve[key], key
                assert got_admitted == ref_admitted
    finally:
        ref_final, got_final = ref.close()["serve"], got.close()["serve"]
    assert got_admitted == ref_admitted
    assert got_retired == ref_retired
    assert got_final["phases_retired"] == ref_final["phases_retired"]
    assert got_final["spot_checks_failed"] == ref_final["spot_checks_failed"] == 0
    assert got_final["spot_checks_passed"] == len(got_retired)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_only_a_newline_ends_a_line(separator):
    # Regression: the body was split with str.splitlines(), which also
    # breaks at U+2028, U+2029 and U+0085 — characters a JSON string may
    # hold raw — so a valid event read as "Unterminated string" (400).
    noted = json.dumps(
        {"timestamp": 0.0, "source": "txn[a0]", "value": 50.0,
         "note": f"a{separator}b"},
        ensure_ascii=False,
    )
    assert separator in noted
    session, admitted, _ = _session({"wait": 0.0, "max_buffered": 64})
    try:
        with ServeServer(session) as server:
            status, reply = _post(server, _lines(noted, _event(1.0, "txn[a1]")))
    finally:
        session.close()
    assert status == 200, reply
    assert reply["accepted"] == 2
    assert admitted[0].values == {"txn[a0]": 50.0}


def test_an_infinite_arrival_is_a_bad_line_not_a_watermark():
    # Regression: JSON's 1e400 parses to inf, and an arrival of inf held
    # the watermark at inf, so every later bin sealed the moment it
    # opened and each second event of a tick read as late.
    ticks = "".join(
        _lines(_event(float(t), "txn[a0]", arrival=float(t)),
               _event(float(t), "txn[a1]", arrival=t + 0.5))
        for t in range(10)
    )
    poison = '{"timestamp": 0, "source": "txn[a0]", "value": 50, "arrival": 1e400}'
    session, _, _ = _session({"wait": 2.0, "max_buffered": 64})
    try:
        with ServeServer(session) as server:
            status, reply = _post(server, poison + "\n")
            assert status == 400
            assert reply["bad_line"] == 1
            assert "'arrival'" in reply["error"]
            assert _post(server, ticks) == (
                200, {"accepted": 20, "late": 0, "sealed": 8}
            )
    finally:
        session.close()


@pytest.mark.parametrize("line, field", [
    ('{"timestamp": "3", "source": "txn[a0]", "value": 50}', "'timestamp'"),
    ('{"timestamp": true, "source": "txn[a0]", "value": 50}', "'timestamp'"),
    ('{"timestamp": 0, "source": "txn[a0]", "value": 50, "arrival": "5"}',
     "'arrival'"),
    ('{"timestamp": 0, "source": "txn[a0]", "value": 50, "arrival": true}',
     "'arrival'"),
])
def test_a_timestamp_or_arrival_must_be_a_json_number(line, field):
    # Regression: both fields went through float(), which reads "3" and
    # true as numbers, so such a line was accepted (and an arrival of
    # "5" sealed a phase).
    session, admitted, _ = _session({"wait": 0.0, "max_buffered": 64})
    try:
        with ServeServer(session) as server:
            status, reply = _post(server, line + "\n")
    finally:
        session.close()
    assert status == 400, reply
    assert reply["bad_line"] == 1
    assert field in reply["error"] and "not a number" in reply["error"]
    assert admitted == []


def test_corpus_reaches_every_outcome():
    # The corpus must exercise what it claims to: 200s with late
    # events, 400s for each reason, and 429s.
    replies = []
    for config, bodies in CASES.values():
        session, _, _ = _session(config)
        try:
            replies += [reference_post(session, body) for body in bodies]
        finally:
            session.close(drain=False)
    statuses = [status for status, _ in replies]
    errors = " ".join(reply.get("error", "") for _, reply in replies)
    assert {200, 400, 429} <= set(statuses)
    assert any(reply.get("late") for _, reply in replies)
    for reason in ("bad NDJSON event", "must be an object", "needs numeric",
                   "bad 'arrival'", "is not finite", "non-empty string",
                   "not a source vertex"):
        assert reason in errors, reason


# -- the binning rule ---------------------------------------------------------


class PerEventBuffer:
    """The sealing rule one :meth:`ReorderBuffer.offer` at a time used to
    apply: bin, late check, capacity check, then seal on every accepted
    event."""

    def __init__(self, wait, max_buffered):
        self.wait, self.cap = wait, max_buffered
        self.pending, self.watermark, self.sealed_upto = {}, -math.inf, -math.inf
        self.next_phase, self.accepted, self.late, self.high_water = 1, 0, 0, 0

    def offer(self, ts, source, value, arrival):
        ts = bin_timestamp(ts, 1.0)
        if ts <= self.sealed_upto:
            self.late += 1
            return []
        if ts not in self.pending and len(self.pending) >= self.cap:
            raise BackpressureError("full")
        self.pending.setdefault(ts, {})[source] = value
        self.accepted += 1
        self.high_water = max(self.high_water, len(self.pending))
        return self.advance(arrival - self.wait)

    def advance(self, to):
        self.watermark = max(self.watermark, to)
        out = []
        for bin_ts in sorted(t for t in self.pending if t < self.watermark):
            out.append(PhaseInput(self.next_phase, bin_ts, self.pending.pop(bin_ts)))
            self.next_phase += 1
            self.sealed_upto = bin_ts
        return out


@pytest.mark.parametrize("seed", range(30))
def test_offer_rows_equals_the_per_event_rule(seed):
    rng = random.Random(f"offer-rows|{seed}")
    wait, cap = rng.choice([0.0, 0.5, 2.0]), rng.choice([2, 4, 1000])
    ref = PerEventBuffer(wait, cap)
    buf = ReorderBuffer(wait=wait, max_buffered=cap)
    now = 0.0
    for _ in range(20):
        rows = []
        for _ in range(rng.randint(0, 10)):
            now += rng.choice([0.0, 0.2, 1.0])
            ts = round(now + rng.uniform(-3.0, 0.5), 2)
            rows.append((ts, rng.choice("abc"), rng.random(), max(ts, round(now, 2))))
        want, taken = [], 0
        try:
            for row in rows:
                want += ref.offer(*row)
                taken += 1
        except BackpressureError:
            pass
        sealed, got_taken, refusal = buf.offer_rows(rows)
        assert (sealed, got_taken) == (want, taken)
        assert isinstance(refusal, BackpressureError) == (taken < len(rows))
        assert (buf.accepted, buf.late_count, buf.pending_high_water) == (
            ref.accepted, ref.late, ref.high_water
        )
        if rng.random() < 0.2:  # wall-clock sealing between bodies
            assert buf.advance_watermark(now) == ref.advance(now)
