"""Vertex behaviour API.

A :class:`Vertex` is the computation attached to one graph vertex — the
paper's "computational module" (a statistical model, a simulation, a
detector...).  The engine calls :meth:`Vertex.on_execute` once per executed
vertex-phase pair, passing a :class:`VertexContext` that exposes the
Δ-dataflow input semantics:

* ``ctx.inputs`` — the *latched* value of every input that has ever carried
  a message (absent inputs simply are not in the mapping);
* ``ctx.changed`` — the inputs that received a message for exactly this
  phase (the Δ);
* ``ctx.phase_input`` — for source vertices, the external payload delivered
  with the phase signal (``None`` for a bare signal);
* ``ctx.emit(value)`` / ``ctx.emit_to(successor, value)`` — send messages
  for this phase (emitting nothing is the efficient common case: absence
  of a message tells successors the value did not change);
* ``ctx.record(value)`` — append to the externally visible run record (how
  sink vertices are "read by input/output units outside the data fusion
  system", Section 2).

Returning a value from ``on_execute`` (other than ``None`` /
``EMIT_NOTHING``) is shorthand for broadcasting it to every successor —
or, on a sink vertex, for recording it.

Determinism contract
--------------------
For serializability checking, a vertex must be deterministic given its
state and context, and :meth:`Vertex.reset` must restore the initial state
(sources re-seed their RNGs), so the same program can be run under several
engines and compared.

Suppressibility contract
------------------------
Change suppression (Δ-elision) lets the runtime drop an output message
whose value equals the edge's latched value, so the downstream pair is
never scheduled.  Whether that is safe is a per-behaviour property,
declared with two class attributes:

* ``suppressible`` (default ``True``) — the behaviour's outcomes depend
  on ``ctx.changed`` only through the changed *values* (S1), and an
  execution in which every changed input carries a value equal to its
  latch is a no-op: state is unchanged, nothing is recorded, and any
  emissions are value-equal to the previous emissions (S2).  Behaviours
  whose semantics depend on message *arrival* rather than value —
  counters, timers, debouncers, per-arrival windows, gates mixing data
  and control inputs — must set it ``False``.
* ``silent_on_unchanged`` (default ``False``) — strictly stronger: a
  value-equal execution emits and records *nothing* (the Δ discipline's
  "emit only on genuine change").  Such a vertex terminates the elision
  closure: suppressing its input provably removes no downstream message
  or record.  A merely suppressible vertex that *re-emits* value-equal
  arrivals (e.g. ``Identity``) is elidable only when all its descendants
  are.

Vertices not honouring the flags they declare will diverge from the
unsuppressed serial oracle; the differential fuzz campaign exists to
catch exactly that.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set

from ..errors import VertexExecutionError

__all__ = [
    "EMIT_NOTHING",
    "VertexContext",
    "Vertex",
    "FunctionVertex",
    "StatefulFunctionVertex",
    "SourceVertex",
    "PassthroughSource",
]


class _EmitNothing:
    """Sentinel return value: explicitly emit no message this phase."""

    _instance: "_EmitNothing | None" = None

    def __new__(cls) -> "_EmitNothing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMIT_NOTHING"


EMIT_NOTHING = _EmitNothing()


class VertexContext:
    """Everything a vertex may observe and do while executing one phase."""

    __slots__ = (
        "name",
        "phase",
        "inputs",
        "changed",
        "phase_input",
        "_successors",
        "_outputs",
        "_records",
        "_emitted_explicitly",
    )

    def __init__(
        self,
        name: str,
        phase: int,
        inputs: Mapping[str, Any],
        changed: Set[str],
        successors: Sequence[str],
        phase_input: Any = None,
    ) -> None:
        self.name = name
        self.phase = phase
        self.inputs = dict(inputs)
        self.changed = set(changed)
        self.phase_input = phase_input
        self._successors = list(successors)
        self._outputs: Dict[str, Any] = {}
        self._records: List[Any] = []
        self._emitted_explicitly = False

    @classmethod
    def owning(
        cls,
        name: str,
        phase: int,
        inputs: Dict[str, Any],
        changed: Set[str],
        successors: Sequence[str],
        phase_input: Any = None,
    ) -> "VertexContext":
        """The constructor without its defensive copies (engine use
        only): the context takes ownership of the freshly built *inputs*
        and *changed*, and shares *successors*, which it never mutates."""
        self = cls.__new__(cls)
        self.name = name
        self.phase = phase
        self.inputs = inputs
        self.changed = changed
        self.phase_input = phase_input
        self._successors = successors
        self._outputs = {}
        self._records = []
        self._emitted_explicitly = False
        return self

    # -- observation ---------------------------------------------------

    @property
    def is_sink(self) -> bool:
        """True when this vertex has no successors."""
        return not self._successors

    def input(self, name: str, default: Any = None) -> Any:
        """The latched value of input *name* (or *default* if never set)."""
        return self.inputs.get(name, default)

    def input_changed(self, name: str) -> bool:
        """True iff input *name* carried a message for this phase."""
        return name in self.changed

    def changed_values(self) -> Dict[str, Any]:
        """The Δ: just the inputs that changed this phase."""
        return {k: self.inputs[k] for k in self.changed}

    # -- action ----------------------------------------------------------

    def emit(self, value: Any) -> None:
        """Broadcast *value* to every successor for this phase.

        On a sink vertex (no successors) the value is recorded instead —
        a sink's "output" is the externally read result.
        """
        self._emitted_explicitly = True
        if not self._successors:
            self._records.append(value)
            return
        for succ in self._successors:
            self._outputs[succ] = value

    def emit_to(self, successor: str, value: Any) -> None:
        """Send *value* to one named successor for this phase."""
        if successor not in self._successors:
            raise VertexExecutionError(
                self.name,
                self.phase,
                f"emit_to({successor!r}): not a successor "
                f"(successors: {self._successors!r})",
            )
        self._emitted_explicitly = True
        self._outputs[successor] = value

    def record(self, value: Any) -> None:
        """Append *value* to the externally visible run record."""
        self._records.append(value)

    # -- engine side -------------------------------------------------------

    def finish(self, returned: Any) -> None:
        """Apply the return-value shorthand (engine use only)."""
        if returned is None or returned is EMIT_NOTHING:
            return
        if not self._emitted_explicitly:
            self.emit(returned)

    def adopt_results(
        self, outputs: Mapping[str, Any], records: Sequence[Any]
    ) -> None:
        """Adopt outputs/records computed elsewhere (engine use only).

        The process-parallel engine executes :meth:`Vertex.on_execute` in a
        worker process against a *copy* of this context; the worker ships
        back the resulting outputs and records, and the coordinator adopts
        them into its own context before committing.
        """
        self._outputs.clear()
        self._outputs.update(outputs)
        self._records.clear()
        self._records.extend(records)

    @property
    def outputs(self) -> Dict[str, Any]:
        """Messages produced this phase: successor name -> value."""
        return self._outputs

    @property
    def records(self) -> List[Any]:
        """Values recorded this phase."""
        return self._records


class Vertex:
    """Base class for vertex behaviour.  Subclass and override
    :meth:`on_execute`; override :meth:`reset` if the vertex is stateful.

    See the module docstring's *suppressibility contract* for the meaning
    of the two class-level flags."""

    #: Outcomes depend on ``changed`` only through values, and a
    #: value-equal execution is a no-op (see module docstring).
    suppressible: bool = True
    #: Strictly stronger: a value-equal execution emits/records nothing.
    silent_on_unchanged: bool = False

    def on_execute(self, ctx: VertexContext) -> Any:
        """Execute one phase.  See the module docstring for the contract."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial state (called by engines before each run)."""

    def snapshot_state(self) -> Any:
        """Return a deep, picklable snapshot of this vertex's mutable state.

        The default captures the instance ``__dict__``, which covers every
        vertex whose state lives in instance attributes (all of
        :mod:`repro.models`).  Override alongside :meth:`restore_state`
        when state lives elsewhere or contains unpicklable members.  The
        process-parallel engine uses the pair to bring a promoted vertex's
        state home from its worker at shutdown: the worker sends this
        snapshot, and the coordinator's copy restores it.
        """
        return copy.deepcopy(self.__dict__)

    def restore_state(self, snapshot: Any) -> None:
        """Restore state captured by :meth:`snapshot_state`."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(snapshot))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FunctionVertex(Vertex):
    """A stateless vertex from a plain function ``f(ctx) -> value | None``.

    An arbitrary function may inspect ``ctx.changed`` arbitrarily, so the
    wrapper defaults to *not* suppressible; pass ``suppressible=True``
    (and optionally ``silent_on_unchanged=True``) to opt a function that
    honours the contract back in.
    """

    suppressible = False

    def __init__(
        self,
        fn: Callable[[VertexContext], Any],
        suppressible: bool = False,
        silent_on_unchanged: bool = False,
    ) -> None:
        self._fn = fn
        self.suppressible = suppressible
        self.silent_on_unchanged = silent_on_unchanged

    def on_execute(self, ctx: VertexContext) -> Any:
        return self._fn(ctx)

    def __repr__(self) -> str:
        return f"FunctionVertex({getattr(self._fn, '__name__', self._fn)!r})"


class StatefulFunctionVertex(Vertex):
    """A vertex from ``f(state, ctx) -> value | None`` plus an initial state.

    *state* is a mutable dict the function may update in place; ``reset``
    restores a fresh copy of the initial state.  Like
    :class:`FunctionVertex`, arbitrary functions default to *not*
    suppressible; opt in via the constructor flags.
    """

    suppressible = False

    def __init__(
        self,
        fn: Callable[[Dict[str, Any], VertexContext], Any],
        initial_state: Optional[Mapping[str, Any]] = None,
        suppressible: bool = False,
        silent_on_unchanged: bool = False,
    ) -> None:
        self._fn = fn
        self._initial = dict(initial_state or {})
        self.state: Dict[str, Any] = dict(self._initial)
        self.suppressible = suppressible
        self.silent_on_unchanged = silent_on_unchanged

    def on_execute(self, ctx: VertexContext) -> Any:
        return self._fn(self.state, ctx)

    def reset(self) -> None:
        self.state = dict(self._initial)

    def __repr__(self) -> str:
        return (
            f"StatefulFunctionVertex({getattr(self._fn, '__name__', self._fn)!r})"
        )


class SourceVertex(Vertex):
    """Base class for source vertices (no inputs; fed by phase signals).

    Provides a per-vertex seeded RNG (``self.rng``), re-seeded by
    :meth:`reset` — the paper's XML specs carry "random seeds to use for
    the generation of random values by source vertices" (Section 4).
    """

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def on_execute(self, ctx: VertexContext) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed!r})"


class PassthroughSource(SourceVertex):
    """Emits the external phase payload when one arrives; stays silent on a
    bare phase signal — the canonical Δ-dataflow source."""

    def on_execute(self, ctx: VertexContext) -> Any:
        if ctx.phase_input is None:
            return EMIT_NOTHING
        return ctx.phase_input
