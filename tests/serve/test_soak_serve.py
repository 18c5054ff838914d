"""Soak: bounded memory over an unbounded keyed stream (opt-in, `-m soak`).

The acceptance bar for continuous operation: run ~10^5 phases of keyed
laundering traffic through the full serve pipeline on the parallel
engine and show the process RSS high-water stays within 2x of its value
at the 10% mark — i.e. retirement actually releases per-phase state and
the stage capacities bound everything else.  ``REPRO_SOAK_PHASES``
scales the run (CI uses a smaller value; the default is the acceptance
size).
"""

import os

import pytest

from repro.errors import BackpressureError
from repro.models.domains.keyed import build_keyed_program, keyed_arrival_stream
from repro.serve import ServeConfig, ServeSession
from repro.serve.session import current_rss_bytes

pytestmark = pytest.mark.soak

SOAK_PHASES = int(os.environ.get("REPRO_SOAK_PHASES", "100000"))


def test_serve_memory_stays_flat_over_keyed_stream():
    keys = [f"acct{i:02d}" for i in range(3)]
    program, _ = build_keyed_program(keys)
    cfg = ServeConfig(
        engine="parallel",
        threads=2,
        wait=2.0,
        quantum=1.0,
        check_sample=500,  # periodic oracle spot-checks
        max_buffered=64,
    )
    mark = max(1, SOAK_PHASES // 10)
    rss_at_mark = 0

    session = ServeSession(program, cfg)
    with session:
        for arriving in keyed_arrival_stream(keys, SOAK_PHASES, seed=7):
            while True:
                try:
                    session.offer(arriving)
                    break
                except BackpressureError:
                    # Credit-style stall: wall-clock sealing drains us.
                    session.advance_watermark(
                        arriving.arrival - cfg.wait
                    )
            if rss_at_mark == 0 and session.phases_retired >= mark:
                rss_at_mark = current_rss_bytes()
    stats = session.stats()["serve"]

    # The stream ran to completion.  A tick whose every per-key event
    # was dropped (~drop_rate^len(keys) of ticks) opens no bin at all,
    # and the trailing wait can leave a couple of bins unsealed, so
    # allow ~1% slack on the phase count.
    assert stats["phases_retired"] >= int(SOAK_PHASES * 0.99) - 8
    assert stats["results_streamed"] == stats["phases_retired"]

    # Every sampled oracle spot-check agreed with the serial replica.
    assert stats["spot_checks_failed"] == 0
    assert (
        stats["spot_checks_passed"]
        >= stats["phases_retired"] // cfg.check_sample - 2
    )

    # Flat memory: the high-water over the whole run is within 2x of
    # the RSS at the 10% mark.
    assert rss_at_mark > 0
    assert stats["rss_high_water_bytes"] <= 2 * rss_at_mark, (
        f"RSS grew: high-water {stats['rss_high_water_bytes']} vs "
        f"{rss_at_mark} at the 10% mark over {stats['phases_retired']} phases"
    )

    # Bounded stages: nothing exceeded its configured capacity.
    assert stats["buffer_high_water"] <= cfg.max_buffered
    assert stats["feed_high_water"] <= cfg.feed_capacity
