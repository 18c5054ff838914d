"""HTTP surface of the serve layer: ingest, control, SSE egress."""

import http.client
import json
import socket
import struct
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.models.domains.keyed import build_keyed_workload
from repro.serve import (
    MessageAnnouncer,
    ServeConfig,
    ServeServer,
    ServeSession,
    format_sse,
)
from repro.serve import server as server_module
from repro.serve.server import _Handler

from .conftest import serial_oracle


@pytest.fixture
def workload():
    return build_keyed_workload(num_keys=3, ticks=20, seed=29)


@pytest.fixture
def served(workload):
    session = ServeSession(
        workload.program,
        ServeConfig(
            wait=workload.wait, quantum=workload.quantum, check_sample=1
        ),
    )
    session.start()
    with ServeServer(session) as server:
        yield server, session, workload
    session.close(drain=False)


def _request(server, method, path, body=None, timeout=10.0):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _ndjson(arrivals):
    lines = []
    for a in arrivals:
        lines.append(json.dumps({
            "timestamp": a.event.timestamp,
            "source": a.event.source,
            "value": a.event.value,
            "arrival": a.arrival,
        }))
    return ("\n".join(lines) + "\n").encode()


class TestEndpoints:
    def test_healthz(self, served):
        server, _session, _workload = served
        status, _headers, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_post_events_then_stats(self, served):
        server, session, workload = served
        status, _h, body = _request(
            server, "POST", "/events", _ndjson(workload.arrivals)
        )
        assert status == 200
        reply = json.loads(body)
        assert reply["accepted"] == len(workload.arrivals)
        assert reply["late"] == 0

        status, _h, body = _request(server, "GET", "/stats")
        assert status == 200
        serve = json.loads(body)["serve"]
        assert serve["events_accepted"] == len(workload.arrivals)
        assert serve["phases_ingested"] > 0

    def test_advance_watermark(self, served):
        server, _session, workload = served
        a = workload.arrivals[0]
        _request(server, "POST", "/events", _ndjson([a]))
        status, _h, body = _request(
            server, "POST", "/advance",
            json.dumps({"watermark": a.event.timestamp + 10.0}).encode(),
        )
        assert status == 200
        assert json.loads(body)["sealed"] >= 1

    def test_advance_rejects_bad_body(self, served):
        server, session, _w = served
        status, _h, _b = _request(server, "POST", "/advance", b"not json")
        assert status == 400
        status, _h, _b = _request(server, "POST", "/advance", b"{}")
        assert status == 400
        # json.loads accepts NaN; a NaN watermark would compare false
        # against every arrival and seal nothing ever again.
        status, _h, body = _request(
            server, "POST", "/advance", b'{"watermark": NaN}'
        )
        assert status == 400
        assert "NaN" in json.loads(body)["error"]
        # JSON's 1e400 parses to inf, which would seal every later bin
        # the moment it opened: each event after it would read as late.
        for watermark in (b"1e400", b"Infinity", b"-Infinity"):
            status, _h, body = _request(
                server, "POST", "/advance", b'{"watermark": %b}' % watermark
            )
            assert status == 400
            assert "infinite" in json.loads(body)["error"]
        assert session.buffer.watermark == float("-inf")

    @pytest.mark.parametrize("path", ["/events", "/advance"])
    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_bad_content_length_is_400_and_closes(
        self, served, capsys, path, length
    ):
        server, _session, _workload = served
        with socket.create_connection((server.host, server.port)) as raw:
            raw.settimeout(2.0)
            raw.sendall(b"POST %b HTTP/1.1\r\nHost: t\r\nContent-Length: %b"
                        b"\r\n\r\n" % (path.encode(), length))
            reply = b""
            while chunk := raw.recv(4096):  # the server closes: EOF
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]
        assert _handlers_idle()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("path", ["/events", "/advance"])
    def test_oversized_content_length_is_413_and_closes(
        self, served, capsys, path
    ):
        # Regression: the header went to rfile.read unchecked, and the
        # handler died of a MemoryError without a reply.
        server, _session, _workload = served
        with socket.create_connection((server.host, server.port)) as raw:
            raw.settimeout(2.0)
            raw.sendall(b"POST %b HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: 100000000000000\r\n\r\n"
                        % path.encode())
            reply = b""
            while chunk := raw.recv(4096):  # the server closes: EOF
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert _handlers_idle()
        assert capsys.readouterr().err == ""

    def test_bad_event_line_is_400_with_context(self, served):
        server, _s, _w = served
        status, _h, body = _request(server, "POST", "/events", b"not json\n")
        assert status == 400
        assert json.loads(body)["bad_line"] == 1  # 1-based offending line

    def test_unknown_source_is_400_at_its_line(self, served):
        server, session, workload = served
        good = _ndjson(workload.arrivals[:1])
        bad = b'{"timestamp": 0.0, "source": "nosuch", "value": 1}\n'
        status, _h, body = _request(server, "POST", "/events", good + bad)
        assert status == 400
        reply = json.loads(body)
        assert reply["bad_line"] == 2
        assert "not a source vertex" in reply["error"]
        assert session.stats()["serve"]["events_accepted"] == 1

    def test_stopped_session_is_409_not_a_bad_line(self, workload):
        # Regression: a closed session answered 400 {"bad_line": 1},
        # blaming the client's first line for the server's state.
        session = ServeSession(workload.program, ServeConfig(wait=workload.wait))
        session.start()
        with ServeServer(session) as server:
            session.close()
            status, _h, body = _request(
                server, "POST", "/events", _ndjson(workload.arrivals[:2])
            )
        assert status == 409
        assert json.loads(body) == {"error": "session closed"}

    def test_unknown_path_404(self, served):
        server, _s, _w = served
        status, _h, _b = _request(server, "GET", "/nope")
        assert status == 404


class TestBackpressureHttp:
    def test_full_buffer_returns_429_with_retry_after(self, workload):
        session = ServeSession(
            workload.program, ServeConfig(wait=100.0, max_buffered=1)
        )
        session.start()
        try:
            with ServeServer(session) as server:
                src = next(iter(workload.key_of_source))
                lines = "\n".join(
                    json.dumps({"timestamp": float(t), "source": src,
                                "value": {"amount": 1.0}})
                    for t in (0, 5)
                ).encode()
                status, headers, body = _request(
                    server, "POST", "/events", lines
                )
                assert status == 429
                assert headers.get("Retry-After") == "1"
                reply = json.loads(body)
                assert reply["accepted"] == 1  # first line got in
                assert reply["rejected_line"] == 2  # second line bounced
        finally:
            session.close(drain=False)


class TestSseStream:
    def test_stream_delivers_phase_events(self, served):
        server, _session, workload = served
        oracle = build_keyed_workload(num_keys=3, ticks=20, seed=29)
        by_phase, _by_ts, n_phases = serial_oracle(oracle)

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=15.0
        )
        conn.request("GET", "/stream")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type").startswith("text/event-stream")

        _request(server, "POST", "/events", _ndjson(workload.arrivals))
        _request(
            server, "POST", "/advance",
            json.dumps({"watermark": 1e9}).encode(),
        )

        got = {}
        buf = b""
        while len(got) < n_phases:
            chunk = resp.read1(65536)
            if not chunk:
                break
            buf += chunk
            while b"\n\n" in buf:
                raw, buf = buf.split(b"\n\n", 1)
                text = raw.decode()
                if "event: phase" not in text:
                    continue  # keep-alive comments, stats events
                data = json.loads(
                    "\n".join(
                        line[len("data: "):]
                        for line in text.splitlines()
                        if line.startswith("data: ")
                    )
                )
                got[data["phase"]] = sorted(data["records"])
        conn.close()

        assert len(got) == n_phases
        for phase, entries in got.items():
            assert entries == by_phase.get(phase, [])


# -- transport framing -------------------------------------------------------
#
# The handler is driven directly over a loopback TCP connection whose
# server end records every send()/sendall() payload: what matters is not
# only the bytes but how many writes carried them (a reply split over two
# small segments stalls ~40 ms on the client's delayed ACK).


class _RecordingSocket(socket.socket):
    """A connected socket that logs the payload of every write call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = []

    def send(self, data, *flags):
        self.writes.append(bytes(data))
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.writes.append(bytes(data))
        return super().sendall(data, *flags)


@pytest.fixture
def tcp_pair():
    """(client, recording server end) of one loopback TCP connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        accepted, _ = listener.accept()
    server_end = _RecordingSocket(
        accepted.family, accepted.type, accepted.proto,
        fileno=accepted.detach(),
    )
    client.settimeout(10.0)
    yield client, server_end
    client.close()
    server_end.close()


_FROZEN_DATE = "Thu, 01 Jan 2026 00:00:00 GMT"


def _handle(server_end, session, stopping=None):
    """Run one ``_Handler`` to completion on *server_end* (as the
    threading server would, minus the accept loop)."""
    stub = SimpleNamespace(
        session=session, stopping=stopping or threading.Event()
    )
    try:
        _Handler(server_end, ("127.0.0.1", 0), stub)
    finally:
        server_end.shutdown(socket.SHUT_WR)  # the server's shutdown_request


def _recv_all(sock):
    out = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return out
        out += chunk


def _post(client, path, body):
    client.sendall(
        b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
        % (path, len(body), body)
    )
    client.shutdown(socket.SHUT_WR)  # one request, then EOF


def _expected_reply(status_line, body, extra=()):
    """The reply exactly as the two-write handler of PR 13 produced it."""
    python = sys.version.split()[0]
    head = [
        status_line,
        f"Server: repro-serve/1.0 Python/{python}",
        f"Date: {_FROZEN_DATE}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *extra,
    ]
    return "\r\n".join(head).encode() + b"\r\n\r\n" + body


def _dechunk(data):
    """The payload of an HTTP/1.1 chunked body and whether the terminal
    chunk was seen."""
    out = b""
    while data:
        size, data = data.split(b"\r\n", 1)
        n = int(size, 16)
        if n == 0:
            assert data == b"\r\n"
            return out, True
        out, data = out + data[:n], data[n:]
        assert data[:2] == b"\r\n"
        data = data[2:]
    return out, False


class TestOneWriteReplies:
    @pytest.fixture(autouse=True)
    def frozen_date(self, monkeypatch):
        monkeypatch.setattr(
            _Handler, "date_time_string", lambda self, ts=None: _FROZEN_DATE
        )

    def _event(self, workload, ts):
        src = next(iter(workload.key_of_source))
        return json.dumps(
            {"timestamp": float(ts), "source": src, "value": {"amount": 1.0}}
        ).encode()

    def _exchange(self, tcp_pair, session, body):
        client, server_end = tcp_pair
        session.start()
        try:
            _post(client, b"/events", body)
            _handle(server_end, session)
        finally:
            session.close(drain=False)
        assert _recv_all(client) == b"".join(server_end.writes)
        return server_end.writes

    def test_200_is_one_send_with_the_same_bytes(self, workload, tcp_pair):
        session = ServeSession(workload.program, ServeConfig(wait=100.0))
        body = self._event(workload, 0) + b"\n" + self._event(workload, 1)
        writes = self._exchange(tcp_pair, session, body)
        assert b"".join(writes) == _expected_reply(
            "HTTP/1.1 200 OK", b'{"accepted": 2, "late": 0, "sealed": 0}'
        )
        assert len(writes) == 1

    def test_429_is_one_send_with_the_same_bytes(self, workload, tcp_pair):
        session = ServeSession(
            workload.program, ServeConfig(wait=100.0, max_buffered=1)
        )
        body = self._event(workload, 0) + b"\n" + self._event(workload, 5)
        writes = self._exchange(tcp_pair, session, body)
        assert b"".join(writes) == _expected_reply(
            "HTTP/1.1 429 Too Many Requests",
            b'{"accepted": 1, "error": "backpressure: reorder buffer full",'
            b' "late": 0, "rejected_line": 2, "sealed": 0}',
            extra=["Retry-After: 1"],
        )
        assert len(writes) == 1

    def test_400_is_one_send_with_the_same_bytes(self, workload, tcp_pair):
        session = ServeSession(workload.program, ServeConfig(wait=100.0))
        writes = self._exchange(tcp_pair, session, b"not json\n")
        assert b"".join(writes) == _expected_reply(
            "HTTP/1.1 400 Bad Request",
            b'{"bad_line": 1, "error": "bad NDJSON event: Expecting value:'
            b' line 1 column 1 (char 0)"}',
        )
        assert len(writes) == 1

    def test_send_error_reply_is_one_send(self, workload, tcp_pair):
        client, server_end = tcp_pair
        client.sendall(b"BREW /pot HTTP/1.1\r\nHost: t\r\n\r\n")
        _handle(server_end, session=None)
        reply = _recv_all(client)
        assert reply.startswith(b"HTTP/1.1 501 ")
        assert server_end.writes == [reply]


class TestSseFraming:
    def _stream(self, tcp_pair, frames):
        """Serve ``GET /stream`` to a listener that finds *frames* already
        queued at its first wakeup; returns the recorded writes."""
        client, server_end = tcp_pair
        announcer = MessageAnnouncer()
        register = announcer.listen

        def listen_prefilled():
            q = register()
            for frame in frames:
                announcer.announce(frame)
            return q

        announcer.listen = listen_prefilled
        stopping = threading.Event()
        client.sendall(b"GET /stream HTTP/1.1\r\nHost: t\r\n\r\n")
        handler = threading.Thread(
            target=_handle,
            args=(server_end, SimpleNamespace(announcer=announcer), stopping),
        )
        handler.start()
        deadline = time.monotonic() + 10.0
        while len(server_end.writes) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        stopping.set()
        handler.join(10.0)
        assert not handler.is_alive()
        assert announcer.listener_count == 0
        return server_end.writes

    def test_one_frame_is_one_write(self, tcp_pair):
        frame = format_sse({"phase": 1}, event="phase", id="1")
        head, chunk, terminal = self._stream(tcp_pair, [frame])
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Transfer-Encoding: chunked\r\n" in head
        assert _dechunk(chunk) == (frame.encode(), False)
        assert terminal == b"0\r\n\r\n"

    def test_queued_frames_coalesce_into_one_write_in_order(self, tcp_pair):
        frames = [
            format_sse({"phase": p, "text": "é" * p}, event="phase", id=str(p))
            for p in range(1, 8)
        ]
        head, chunk, terminal = self._stream(tcp_pair, frames)
        assert _dechunk(chunk) == ("".join(frames).encode(), False)
        assert _dechunk(chunk + terminal) == ("".join(frames).encode(), True)


class TestTransportEndToEnd:
    def test_back_to_back_keepalive_posts_do_not_stall(self, served):
        # 30 request/reply turns on one connection.  A reply split into
        # two small segments costs ~40 ms per turn (>= 1.2 s in all).
        server, _session, workload = served
        bodies = [_ndjson(workload.arrivals[i:i + 1]) for i in range(30)]
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")  # connect + warm up
            conn.getresponse().read()
            started = time.perf_counter()
            for body in bodies:
                conn.request("POST", "/events", body=body)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.6, f"30 keep-alive POSTs took {elapsed:.3f}s"

    def test_accepted_connections_have_tcp_nodelay(self, served, monkeypatch):
        server, _session, _workload = served
        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        assert _request(server, "GET", "/healthz")[0] == 200
        assert seen and all(seen)


def _handlers_idle(timeout=10.0):
    """Wait until no request-handler thread is left running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(
            "process_request_thread" in t.name for t in threading.enumerate()
        ):
            return True
        time.sleep(0.01)
    return False


def _reset(sock):
    """Close *sock* with an RST instead of a FIN (linger 0)."""
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


class TestClientDepartures:
    def test_probe_and_close_leaves_stderr_empty(self, served, capsys):
        server, _session, _workload = served
        for _ in range(20):
            probe = socket.create_connection((server.host, server.port))
            probe.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.005)  # let the reply land unread, then reset
            _reset(probe)
        assert _handlers_idle()
        assert capsys.readouterr().err == ""
        assert _request(server, "GET", "/healthz")[0] == 200

    def test_sse_reader_going_away_is_quiet(self, served, capsys):
        server, session, _workload = served
        reader = socket.create_connection((server.host, server.port))
        reader.sendall(b"GET /stream HTTP/1.1\r\nHost: t\r\n\r\n")
        deadline = time.monotonic() + 10.0
        while session.announcer.listener_count == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        _reset(reader)
        while session.announcer.listener_count:
            assert time.monotonic() < deadline
            session.announcer.announce(": poke\n\n")
            time.sleep(0.01)
        assert _handlers_idle()
        assert capsys.readouterr().err == ""

    def test_real_handler_errors_stay_loud(self, served, capsys, monkeypatch):
        server, session, _workload = served

        def broken_stats():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(session, "stats", broken_stats)
        with pytest.raises((http.client.HTTPException, OSError)):
            _request(server, "GET", "/stats")
        assert _handlers_idle()
        assert "RuntimeError: stats exploded" in capsys.readouterr().err


class TestSlowSseConsumers:
    def test_stalled_reader_drops_and_never_blocks_announce(self, workload):
        session = ServeSession(
            workload.program, ServeConfig(wait=workload.wait)
        )
        # A shallow listener queue, so the stalled reader starts dropping
        # after a few frames instead of the default few hundred.
        session.announcer.max_queue = 4
        session.start()
        stalled = socket.socket()
        try:
            with ServeServer(session) as server:
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect((server.host, server.port))
                stalled.sendall(b"GET /stream HTTP/1.1\r\nHost: t\r\n\r\n")
                deadline = time.monotonic() + 10.0
                while session.announcer.listener_count == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)

                # Never read: the kernel buffers fill, the handler parks
                # in sendall, its queue fills, and from then on frames
                # are dropped for it — announce itself never waits.
                big = ": " + "x" * (256 * 1024) + "\n\n"
                slowest = 0.0
                for _ in range(400):
                    began = time.perf_counter()
                    session.announcer.announce(big)
                    slowest = max(slowest, time.perf_counter() - began)
                    if session.announcer.dropped:
                        break
                    time.sleep(0.001)
                assert session.announcer.dropped > 0
                assert slowest < 0.5
                status, _h, body = _request(server, "GET", "/stats")
                assert status == 200
                assert json.loads(body)["serve"]["sse_dropped"] > 0

                # A healthy reader next to the stalled one is served,
                # and is told the stream is over on shutdown.
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=10.0
                )
                conn.request("GET", "/stream")
                resp = conn.getresponse()
                session.announcer.announce(format_sse("marker"))
                assert resp.readline() == b"data: marker\n"
            # Leaving the block stopped the server: the terminal chunk
            # ends the chunked body, so read() returns instead of raising
            # IncompleteRead.
            assert resp.read() == b"\n"
            conn.close()
        finally:
            stalled.close()
            session.close(drain=False)

    def test_idle_stream_gets_heartbeat_comments(self, served, monkeypatch):
        monkeypatch.setattr(server_module, "_SSE_POLL_S", 0.01)
        monkeypatch.setattr(server_module, "_SSE_HEARTBEAT_EVERY", 2)
        server, _session, _workload = served
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            conn.request("GET", "/stream")
            resp = conn.getresponse()
            assert resp.readline() == b": keep-alive\n"
            assert resp.readline() == b"\n"
            assert resp.readline() == b": keep-alive\n"
        finally:
            conn.close()
