"""Continuous-operation service mode (``repro serve``).

Batch mode — every engine through PR 7 — runs to completion over a finite
phase list and keeps everything: executions, records, completion log.
This package turns the same pipeline into a *service* over an unbounded
stream with bounded memory:

* :mod:`repro.serve.session` — :class:`ServeSession` wires a bounded
  :class:`~repro.ingest.ReorderBuffer` (watermark sealing, backpressure)
  through a :class:`~repro.runtime.feed.PhaseFeed` into an engine running
  in feed+retire mode, streams each retired phase's records out, and
  spot-checks sampled windows against the serial oracle.
* :mod:`repro.serve.sse` — Server-Sent Events formatting and fan-out
  (:func:`format_sse`, :class:`MessageAnnouncer`).
* :mod:`repro.serve.server` — a stdlib :class:`ThreadingHTTPServer`
  exposing NDJSON ingest (``POST /events``), the SSE result stream
  (``GET /stream``), stats and health.
"""

from .server import ServeServer
from .session import OracleSpotChecker, ServeConfig, ServeSession
from .sse import MessageAnnouncer, format_sse

__all__ = [
    "MessageAnnouncer",
    "OracleSpotChecker",
    "ServeConfig",
    "ServeServer",
    "ServeSession",
    "format_sse",
]
