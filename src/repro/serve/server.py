"""The stdlib HTTP front end for a :class:`~repro.serve.session.ServeSession`.

Endpoints (all JSON unless noted):

* ``POST /events`` — NDJSON event lines
  (``{"timestamp": t, "source": name, "value": v[, "arrival": a]}``,
  one per line), ingested as one admission
  (:meth:`ServeSession.offer_body`).  Replies ``{"accepted", "late",
  "sealed"}`` totals; **429** with ``Retry-After`` and the totals so far
  when the bounded reorder buffer is full (the credit the producer must
  respect; resend from ``rejected_line``), **400** with ``bad_line`` on
  a line that is not an event for a source vertex of the program (the
  lines before it are ingested), **409** once the session has stopped.
* ``POST /advance`` — ``{"watermark": t}``: wall-clock sealing for quiet
  streams (see :meth:`ServeSession.advance_watermark`); **400** when *t*
  is missing, not a JSON number (a string or a bool is not one) or not
  finite.
* ``GET /stream`` — the result stream as ``text/event-stream`` (SSE).
  Each retired phase is one ``phase`` event; periodic ``stats`` events
  when configured.  A stalled consumer gets messages *dropped*, never
  buffered without bound.
* ``GET /stats`` — the session's full stats document.
* ``GET /healthz`` — liveness.

A ``Content-Length`` that is not a non-negative integer is **400** on
either ``POST``, one above :data:`MAX_BODY_BYTES` is **413**, and either
way the connection closes.

Uses only :mod:`http.server` — continuous operation must not grow the
dependency footprint.

Framing guarantees: every accepted socket has ``TCP_NODELAY`` and a
buffered write side flushed once per reply, so a reply (status line,
headers and body) never waits on the peer's delayed ACK between two
small segments; ``/stream`` joins every message its listener queue
holds at a wakeup into one chunk and one ``sendall``.  A client that
hangs up mid-exchange ends its handler quietly.
"""

from __future__ import annotations

import json
import math
import queue
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from ..errors import ServeError
from .session import ServeSession, _number

__all__ = ["ServeServer"]

#: The largest request body read (16 MiB): a producer's POST is a few
#: KiB and a replay reads 64 KiB at a time, so more is a client error,
#: refused before anything is allocated for it.
MAX_BODY_BYTES = 16 * 1024 * 1024

_SSE_POLL_S = 0.25
_SSE_HEARTBEAT_EVERY = 40  # polls between keep-alive comments (~10 s)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave together when the request loop flushes;
    # nothing small ever sits behind Nagle waiting for an ACK.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # Set by ServeServer on the server object.
    @property
    def _session(self) -> ServeSession:
        return self.server.session  # type: ignore[attr-defined]

    @property
    def _stopping(self) -> threading.Event:
        return self.server.stopping  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:  # silence stderr
        pass

    def _reply_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (extra_headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body; ``None`` once a ``Content-Length`` that is
        not a count of bytes has been answered 400, or one above
        :data:`MAX_BODY_BYTES` 413 (the connection closes: the body is
        not read, so where the next request would start is unknown)."""
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            status, error = 400, f"bad Content-Length header: {raw!r}"
        elif length > MAX_BODY_BYTES:
            status, error = 413, (
                f"Content-Length {length} exceeds the body limit of "
                f"{MAX_BODY_BYTES} bytes"
            )
        else:
            return self.rfile.read(length) if length else b""
        self._reply_json(
            status, {"error": error}, extra_headers={"Connection": "close"}
        )
        return None

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/events":
            self._post_events()
        elif self.path == "/advance":
            self._post_advance()
        else:
            self._reply_json(404, {"error": f"no such path {self.path}"})

    def _post_events(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            out = self._session.offer_body(
                body.decode("utf-8", errors="replace")
            )
        except ServeError as exc:
            # The session stopped: no line of the body is at fault.
            self._reply_json(409, {"error": str(exc)})
            return
        totals = {"accepted": out.accepted, "late": out.late, "sealed": out.sealed}
        if out.rejected_line:
            # Partial progress is reported so the producer can resume
            # from the rejected line after backing off.
            self._reply_json(
                429,
                {
                    "error": "backpressure: reorder buffer full",
                    "rejected_line": out.rejected_line,
                    **totals,
                },
                extra_headers={"Retry-After": "1"},
            )
        elif out.bad_line:
            self._reply_json(400, {"error": out.error, "bad_line": out.bad_line})
        else:
            self._reply_json(200, totals)

    def _post_advance(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            to = _number(json.loads(body or b"{}")["watermark"])
            if not math.isfinite(to):
                raise ValueError(f"watermark {to} is NaN or infinite")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            self._reply_json(400, {"error": f"need {{'watermark': t}}: {exc}"})
            return
        try:
            sealed = self._session.advance_watermark(to)
        except ServeError as exc:
            self._reply_json(409, {"error": str(exc)})
            return
        self._reply_json(200, {"sealed": sealed})

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/stream":
            self._get_stream()
        elif self.path == "/stats":
            self._reply_json(200, self._session.stats())
        elif self.path == "/healthz":
            self._reply_json(200, {"ok": True})
        else:
            self._reply_json(404, {"error": f"no such path {self.path}"})

    def _get_stream(self) -> None:
        q = self._session.announcer.listen()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            # SSE is an unbounded response; chunked framing lets the
            # HTTP/1.1 keep-alive connection end cleanly on shutdown.
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            self.wfile.flush()
            idle = 0
            while not self._stopping.is_set():
                try:
                    msgs = [q.get(timeout=_SSE_POLL_S)]
                    idle = 0
                except queue.Empty:
                    idle += 1
                    if idle < _SSE_HEARTBEAT_EVERY:
                        continue
                    idle = 0
                    msgs = [b": keep-alive\n\n"]
                # Whatever else is already queued rides in the same chunk.
                try:
                    while True:
                        msgs.append(q.get_nowait())
                except queue.Empty:
                    pass
                self._write_chunk(b"".join(msgs))
            self._write_chunk(b"")  # terminal chunk
        finally:
            self._session.announcer.unlisten(q)
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.connection.sendall(b"%X\r\n%b\r\n" % (len(data), data))


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A peer that hangs up mid-exchange (a health probe that never
        # reads its reply, an SSE reader going away) is routine; every
        # other handler failure keeps the stdlib's loud traceback.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class ServeServer:
    """Run one :class:`ServeSession` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction).  :meth:`start`/:meth:`stop` manage the accept thread;
    the session's own lifecycle stays with the caller.
    """

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = session
        self._httpd = _Server((host, port), _Handler)
        self._httpd.session = session  # type: ignore[attr-defined]
        self._httpd.stopping = threading.Event()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        if self._thread is not None:
            raise ServeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.stopping.set()  # type: ignore[attr-defined]
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
