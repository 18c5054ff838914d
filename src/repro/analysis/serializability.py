"""Serializability checking.

Section 2's correctness requirement: "though modules are executed
concurrently, the logical effect must be the same as executing only one
phase at a time in serial order all the way from the sources to the
sinks."

For deterministic programs (the :class:`~repro.core.vertex.Vertex`
contract), "same logical effect" is decidable by comparing run artefacts
against the serial oracle:

* the **records** (what external I/O units read from the system) must be
  identical — same vertices, same (phase, value) sequences;
* the set of **executed vertex-phase pairs** must be identical — the Δ
  semantics fully determine which pairs must run;
* the **message count** must be identical — message generation is a
  deterministic function of the executed pairs.

:func:`check_serializable` compares two :class:`RunResult` objects and
returns a structured report; :func:`assert_serializable` raises
:class:`~repro.errors.SerializabilityError` with the first difference.

Elision-aware mode
------------------
Change suppression (docs/ARCHITECTURE.md §5.6) deliberately executes *fewer*
pairs and sends *fewer* messages than the unsuppressed oracle while
keeping the records identical — the latch-bisimulation argument.  With
``allow_elision=True`` the check verifies exactly that contract:

* candidate executions must be a **subset** of the oracle's (missing
  pairs are elisions; extra or duplicate pairs are still fatal);
* candidate ``message_count`` must be **at most** the oracle's;
* records and phase counts must still be **identical**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.program import RunResult
from ..errors import SerializabilityError

__all__ = ["SerializabilityReport", "check_serializable", "assert_serializable"]


@dataclass
class SerializabilityReport:
    """The outcome of comparing a run against a reference run."""

    reference_engine: str
    candidate_engine: str
    equivalent: bool
    differences: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        if self.equivalent:
            return (
                f"{self.candidate_engine} is serializable "
                f"(matches {self.reference_engine})"
            )
        return (
            f"{self.candidate_engine} DIVERGES from {self.reference_engine}:\n  "
            + "\n  ".join(self.differences)
        )


def check_serializable(
    reference: RunResult,
    candidate: RunResult,
    max_differences: int = 5,
    allow_elision: bool = False,
) -> SerializabilityReport:
    """Compare *candidate* against *reference* (usually the serial oracle).

    With *allow_elision* the candidate may have executed a subset of the
    oracle's pairs and sent fewer messages (change suppression); records
    must still match exactly.
    """
    diffs: List[str] = []

    if reference.phases_run != candidate.phases_run:
        diffs.append(
            f"phase counts differ: {reference.phases_run} vs {candidate.phases_run}"
        )

    ref_pairs = reference.executions_as_set()
    cand_pairs = candidate.executions_as_set()
    if ref_pairs != cand_pairs:
        missing = sorted(ref_pairs - cand_pairs)[:max_differences]
        extra = sorted(cand_pairs - ref_pairs)[:max_differences]
        if missing and not allow_elision:
            diffs.append(f"pairs not executed by candidate: {missing}")
        if extra:
            diffs.append(f"pairs executed only by candidate: {extra}")
    if len(candidate.executions) != len(cand_pairs):
        from collections import Counter

        dupes = [
            pair
            for pair, count in Counter(candidate.executions).items()
            if count > 1
        ][:max_differences]
        diffs.append(f"candidate executed pairs more than once: {dupes}")

    if allow_elision:
        if candidate.message_count > reference.message_count:
            diffs.append(
                f"candidate sent more messages than the oracle: "
                f"{candidate.message_count} vs {reference.message_count}"
            )
    elif reference.message_count != candidate.message_count:
        diffs.append(
            f"message counts differ: {reference.message_count} vs "
            f"{candidate.message_count}"
        )

    ref_keys = set(reference.records)
    cand_keys = set(candidate.records)
    for vertex in sorted(ref_keys | cand_keys):
        ref_log = reference.records.get(vertex, [])
        cand_log = candidate.records.get(vertex, [])
        if ref_log == cand_log:
            continue
        if len(diffs) >= max_differences:
            diffs.append("... further differences suppressed")
            break
        # Locate the first diverging entry for a useful message.
        for i, (a, b) in enumerate(zip(ref_log, cand_log)):
            if a != b:
                diffs.append(
                    f"records[{vertex!r}][{i}] differ: reference {a!r} vs "
                    f"candidate {b!r}"
                )
                break
        else:
            diffs.append(
                f"records[{vertex!r}] lengths differ: {len(ref_log)} vs "
                f"{len(cand_log)}"
            )

    return SerializabilityReport(
        reference_engine=reference.engine,
        candidate_engine=candidate.engine,
        equivalent=not diffs,
        differences=diffs,
    )


def assert_serializable(
    reference: RunResult, candidate: RunResult, allow_elision: bool = False
) -> None:
    """Raise :class:`SerializabilityError` unless *candidate* matches
    *reference*."""
    report = check_serializable(
        reference, candidate, allow_elision=allow_elision
    )
    if not report.equivalent:
        raise SerializabilityError(str(report))
