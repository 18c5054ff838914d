"""The identity plan, kept for the end-to-end benchmark alone.

The engines schedule the :class:`~repro.core.program.Program` the user
wrote, vertex for vertex (docs/ARCHITECTURE.md §5.2); nothing in the
package, its tests or its examples calls this module.  Its only callers
are ``benchmarks/e2e/rounds.py``, which hands ``compile_plan(program,
fuse=True)`` to an engine, and ``benchmarks/e2e/run.py``, which reads
``.program.n`` off the result.  BENCHMARK.json pins that directory, so
the module goes in the change that next updates it.
"""

from __future__ import annotations

from .program import Program

__all__ = ["compile_plan"]


class _Plan(Program):
    """*program* itself — the same graph, numbering and behaviour
    objects — that also answers ``.program``."""

    def __init__(self, program: Program) -> None:
        self.__dict__.update(vars(program))

    @property
    def program(self) -> Program:
        return self


def compile_plan(program: Program, fuse: bool = True) -> Program:
    """*program*, unchanged, for either engine; *fuse* is ignored."""
    return _Plan(program)
