"""Figure 3 — eight steps of a 6-vertex execution with set memberships.

Replays the figure's step sequence deterministically, asserts the
partial / full / ready membership at each step, renders the frames in the
figure's glyph scheme, and times a full 2-phase scheduler replay.
"""

from __future__ import annotations

from repro.analysis.ascii_viz import render_frames, render_graph
from repro.graph.generators import FIG3_EXPECTED, fig3_graph, fig3_replay
from repro.graph.numbering import number_graph

from .conftest import emit


def test_fig3_trace(benchmark):
    snapshots = benchmark.pedantic(fig3_replay, iterations=1, rounds=5)

    nb = number_graph(fig3_graph())
    frames = render_frames(snapshots, n=6, phases=[1, 2])
    emit(
        "Figure 3: execution trace of the 6-vertex graph",
        render_graph(fig3_graph(), nb) + "\n\n" + frames,
    )

    assert len(snapshots) == 8
    for snap, (ready, partial) in zip(snapshots, FIG3_EXPECTED):
        assert snap.ready == ready, snap.label
        assert snap.partial == partial, snap.label

    benchmark.extra_info["steps_verified"] = len(snapshots)
