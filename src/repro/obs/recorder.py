"""Span recorder: the substrate of the instrumentation layer.

A :class:`ProfileSession` collects a tree of :class:`Span` records —
kernel launches, compound operations (prepare → dia → scatter), solver
iterations, hybrid halves — each carrying wall time and arbitrary
attributes (trace counters, launch geometry, executor mode).

Observation is **opt-in and zero-cost when off**: the module-level
:data:`ACTIVE` session is ``None`` by default, every instrumentation
site guards on that single attribute read, and no clock is consulted
and no object allocated on the disabled path (asserted by
``tests/obs/test_recorder.py``).  Instrumentation never touches the
computation or the :class:`~repro.ocl.trace.KernelTrace` counters: it
only *reads* finished traces, so ``y`` and every counter are
bit-identical with observation on or off.

Usage::

    from repro import obs

    with obs.observe("my-run") as session:
        runner.run(x)              # kernel spans recorded automatically
    session.spans                  # the recorded tree
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "ProfileSession",
    "observe",
    "current",
    "maybe_span",
]


@dataclass
class Span:
    """One timed region of a profiled run.

    ``start`` is seconds since the session began; ``duration`` is wall
    seconds (``-1.0`` while the span is still open).  ``parent`` is the
    id of the enclosing span, or ``None`` at the root.
    """

    id: int
    name: str
    category: str
    start: float
    duration: float = -1.0
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (attrs copied)."""
        return {
            "id": self.id,
            "name": self.name,
            "category": self.category,
            "start_s": self.start,
            "duration_s": self.duration,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }


class ProfileSession:
    """An ordered collection of spans for one observed run.

    Not thread-safe: one session observes one sequential run, matching
    the simulator's execution model.
    """

    def __init__(self, name: str = "session"):
        self.name = name
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._epoch = perf_counter()

    # ------------------------------------------------------------------
    # low-level span API (used by the executor hot path)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the session epoch."""
        return perf_counter() - self._epoch

    def begin(self, name: str, category: str = "op",
              **attrs: Any) -> Span:
        """Open a span; it becomes the parent of subsequent spans."""
        span = Span(
            id=len(self.spans),
            name=name,
            category=category,
            start=self.now(),
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span opened with :meth:`begin`.

        Robust to leaked children: if an exception (or
        KeyboardInterrupt) escaped a descendant before its own ``end``
        ran, the stale entries above ``span`` are unwound (closing any
        still-open spans at the current clock) so the session stays
        reusable.  Ending a span that is not on the stack at all — its
        parent already unwound it — only stamps the duration.
        """
        span.duration = self.now() - span.start
        if attrs:
            span.attrs.update(attrs)
        if span.id in self._stack:
            while self._stack[-1] != span.id:
                leaked = self.spans[self._stack.pop()]
                if leaked.duration < 0.0:
                    leaked.duration = self.now() - leaked.start
            self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str, category: str = "op",
             **attrs: Any) -> Iterator[Span]:
        """Context manager opening/closing one span."""
        s = self.begin(name, category, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    def record_event(self, name: str, category: str = "event",
                     **attrs: Any) -> Span:
        """A zero-duration marker span."""
        span = Span(
            id=len(self.spans),
            name=name,
            category=category,
            start=self.now(),
            duration=0.0,
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def record_kernel(self, name: str, *, work_groups: int,
                      local_size: int, executor: str, wall_s: float,
                      trace=None, **extra) -> Span:
        """Record one finished kernel launch as a closed span.

        ``trace`` is the launch's :class:`~repro.ocl.trace.KernelTrace`
        (or ``None`` when tracing was off); its counters are *copied*
        into the span attributes — the trace itself is never mutated.
        ``extra`` attributes (e.g. a sharded launch's ``shard``) are
        recorded as given.
        """
        attrs: Dict[str, Any] = {
            "work_groups": int(work_groups),
            "local_size": int(local_size),
            "executor": executor,
            **extra,
        }
        if trace is not None:
            import dataclasses

            attrs["trace"] = dataclasses.asdict(trace)
        span = Span(
            id=len(self.spans),
            name=name,
            category="kernel",
            start=self.now() - wall_s,
            duration=wall_s,
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def children(self, span_id: Optional[int]) -> List[Span]:
        """Spans whose parent is ``span_id`` (``None`` = roots)."""
        return [s for s in self.spans if s.parent == span_id]

    def by_category(self, category: str) -> List[Span]:
        """All spans recorded under ``category``, in creation order."""
        return [s for s in self.spans if s.category == category]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: session name + every span."""
        return {
            "name": self.name,
            "spans": [s.to_dict() for s in self.spans],
        }


#: the currently observing session, or ``None`` (the default: off).
#: Instrumentation sites read this exact attribute; everything else in
#: this module stays untouched on the disabled path.
ACTIVE: Optional[ProfileSession] = None


def current() -> Optional[ProfileSession]:
    """The active session, or ``None`` when observation is off."""
    return ACTIVE


@contextlib.contextmanager
def observe(name: str = "session",
            session: Optional[ProfileSession] = None
            ) -> Iterator[ProfileSession]:
    """Activate a :class:`ProfileSession` for the enclosed code.

    Nestable: the previous session (usually ``None``) is restored on
    exit.  Pass an existing ``session`` to accumulate several observed
    regions into one record.
    """
    global ACTIVE
    prev = ACTIVE
    sess = session if session is not None else ProfileSession(name)
    ACTIVE = sess
    try:
        yield sess
    finally:
        ACTIVE = prev


_NULL = contextlib.nullcontext()


def maybe_span(name: str, category: str = "op", **attrs: Any):
    """A span context manager when observing, else a shared no-op
    context.  The disabled path performs one global read and returns a
    pre-built ``nullcontext`` — no allocation, no clock access."""
    sess = ACTIVE
    if sess is None:
        return _NULL
    return sess.span(name, category, **attrs)
