"""Deterministic, seedable fault injection for the simulated runtime.

The injector wraps the three boundaries where the runtime can fail —
global-memory allocation (:meth:`repro.ocl.executor.Context.alloc`),
kernel launch entry/exit (:func:`repro.ocl.executor.launch` /
:func:`~repro.ocl.executor.launch_batched`) and runner phases
(:meth:`repro.gpu_kernels.base.GPUSpMV.prepare` / ``run``) — and fires
:class:`~repro.ocl.errors.DeviceMemoryError`,
:class:`~repro.ocl.errors.LocalMemoryError`,
:class:`~repro.ocl.errors.LaunchError` or *soft* numerical corruptions
according to declarative :class:`FaultSpec` rules.

Sites are strings the hooks build at each boundary::

    alloc:<buffer-name>      e.g. alloc:crsd_dia_val, alloc:x
    launch:<kernel-name>     e.g. launch:crsd_dia_kernel
    phase:<runner>.<phase>   e.g. phase:crsd.prepare, phase:dia.run

and :class:`FaultSpec.site` is an :mod:`fnmatch` pattern over them.
Firing is deterministic: schedules (``at_calls``) count matching calls
per spec, and probabilistic rules draw from the injector's own seeded
generator, so the same seed over the same call sequence reproduces the
same faults exactly.

Injection is **opt-in and zero-cost when off**: the module-level
:data:`ACTIVE` injector is ``None`` by default and every runtime hook
guards on that single attribute read — no bookkeeping, no allocation,
no rng draw on the disabled path (mirroring :mod:`repro.obs.recorder`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ocl.errors import DeviceMemoryError, LaunchError, LocalMemoryError

__all__ = [
    "FAULT_KINDS",
    "INJECTABLE_FAULT_KINDS",
    "SOFT_PAYLOADS",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "ACTIVE",
    "active",
    "inject",
]

#: recognised fault kinds; structural kinds raise the matching
#: simulated-runtime error, ``soft`` corrupts the launch's result,
#: and the cluster-level kinds (``device_slow`` — a straggler
#: service-time multiplier, ``device_flap`` — a kill followed by a
#: rejoin) describe whole-device chaos actions scheduled through
#: :class:`~repro.resilience.chaos.ChaosSchedule` rather than
#: injected at runtime sites
FAULT_KINDS = ("device_oom", "local_oom", "launch", "soft",
               "device_slow", "device_flap")

#: the subset of :data:`FAULT_KINDS` a :class:`FaultSpec` may inject
#: at alloc/launch/phase sites (cluster-level kinds are not
#: site-injectable)
INJECTABLE_FAULT_KINDS = ("device_oom", "local_oom", "launch", "soft")

#: soft-fault corruptions: poison one element with NaN, negate it, or
#: nudge it by one part in 2^20 (a "silent" bit-level corruption)
SOFT_PAYLOADS = ("nan", "flip", "nudge")

_KIND_ERRORS = {
    "device_oom": DeviceMemoryError,
    "local_oom": LocalMemoryError,
    "launch": LaunchError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault rule.

    Parameters
    ----------
    site:
        :mod:`fnmatch` pattern over fault sites (``"launch:*"``,
        ``"alloc:crsd_*"``, ``"phase:dia.prepare"``).
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance of firing per matching call (drawn from the injector's
        seeded generator).
    at_calls:
        Explicit 0-based indices of matching calls that fire (a
        call-count schedule; combines with ``probability`` by OR).
    max_fires:
        Stop firing after this many fires — a *transient* fault.
        ``None`` keeps firing forever: a *persistent* fault.
    payload:
        Soft-fault corruption, one of :data:`SOFT_PAYLOADS` (ignored
        for structural kinds).
    """

    site: str
    kind: str
    probability: float = 0.0
    at_calls: Tuple[int, ...] = ()
    max_fires: Optional[int] = None
    payload: str = "nan"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.kind not in INJECTABLE_FAULT_KINDS:
            raise ValueError(
                f"fault kind {self.kind!r} is cluster-level; schedule "
                f"it through repro.resilience.ChaosSchedule, not a "
                f"site-injected FaultSpec")
        if self.payload not in SOFT_PAYLOADS:
            raise ValueError(
                f"unknown soft payload {self.payload!r}; expected one of "
                f"{SOFT_PAYLOADS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        object.__setattr__(self, "at_calls",
                           tuple(int(c) for c in self.at_calls))

    @property
    def transient(self) -> bool:
        """Whether the rule stops firing after ``max_fires`` fires."""
        return self.max_fires is not None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation of the rule."""
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "at_calls": list(self.at_calls),
            "max_fires": self.max_fires,
            "payload": self.payload,
        }


@dataclass
class FaultEvent:
    """One fired fault (the injector's incident log entry)."""

    site: str
    kind: str
    spec_index: int
    call_index: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation of the event."""
        return {
            "site": self.site,
            "kind": self.kind,
            "spec_index": self.spec_index,
            "call_index": self.call_index,
            "detail": self.detail,
        }


class FaultInjector:
    """Seeded fault injector over a set of :class:`FaultSpec` rules.

    The runtime hooks call :meth:`on_alloc`, :meth:`on_launch`,
    :meth:`on_launch_exit` and :meth:`on_phase`; everything else is
    bookkeeping.  ``injector.events`` is the ordered log of fired
    faults — the resilient executor reads it to detect soft corruptions
    (see :mod:`repro.resilience.engine`) and tests read it to assert
    determinism.
    """

    def __init__(self, seed: int = 0, specs: Sequence[FaultSpec] = ()):
        self.seed = int(seed)
        self.specs = tuple(specs)
        for s in self.specs:
            if not isinstance(s, FaultSpec):
                raise TypeError(f"specs must be FaultSpec, got {type(s)}")
        self.reset()

    def reset(self) -> None:
        """Restore the pristine seeded state (counts, rng, event log)."""
        self._rng = np.random.default_rng(self.seed)
        self._calls = [0] * len(self.specs)
        self._fires = [0] * len(self.specs)
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # firing machinery
    # ------------------------------------------------------------------
    def _fire(self, site: str, structural: bool) -> Optional[FaultSpec]:
        """Advance every matching spec's call counter; return the first
        spec that fires (all matching counters advance regardless, so
        one spec firing never perturbs another's schedule)."""
        fired: Optional[FaultSpec] = None
        fired_i = -1
        for i, spec in enumerate(self.specs):
            if structural == (spec.kind == "soft"):
                continue
            if not fnmatchcase(site, spec.site):
                continue
            call = self._calls[i]
            self._calls[i] = call + 1
            if spec.max_fires is not None and self._fires[i] >= spec.max_fires:
                continue
            hit = call in spec.at_calls
            if spec.probability > 0.0:
                # always consume the draw so schedules stay aligned
                hit = (self._rng.random() < spec.probability) or hit
            if hit and fired is None:
                fired, fired_i = spec, i
        if fired is not None:
            self._fires[fired_i] += 1
            self._record(site, fired, fired_i)
        return fired

    def _record(self, site: str, spec: FaultSpec, spec_index: int) -> None:
        event = FaultEvent(
            site=site, kind=spec.kind, spec_index=spec_index,
            call_index=self._calls[spec_index] - 1,
            detail=spec.payload if spec.kind == "soft" else spec.kind,
        )
        self.events.append(event)
        # surface the incident as an observation event when a profile
        # session is live (fault spans are how incidents reach reports)
        from repro.obs import recorder as _obs

        if _obs.ACTIVE is not None:
            _obs.ACTIVE.record_event(
                "fault.injected", "fault", site=site, kind=spec.kind,
                detail=event.detail,
            )

    def _raise(self, site: str, spec: FaultSpec) -> None:
        exc = _KIND_ERRORS[spec.kind]
        raise exc(f"[injected fault] {spec.kind} at {site} "
                  f"(seed={self.seed})")

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def on_alloc(self, name: str, nbytes: int) -> None:
        """Allocation boundary; may raise a structural fault."""
        spec = self._fire(f"alloc:{name}", structural=True)
        if spec is not None:
            self._raise(f"alloc:{name}", spec)

    def on_launch(self, kernel: str) -> None:
        """Launch entry; may raise a structural fault."""
        spec = self._fire(f"launch:{kernel}", structural=True)
        if spec is not None:
            self._raise(f"launch:{kernel}", spec)

    def on_launch_exit(self, kernel: str, args: Sequence) -> None:
        """Launch exit; may apply a soft corruption to the launch's
        writable output (any buffer named ``y``/``out``)."""
        spec = self._fire(f"launch:{kernel}", structural=False)
        if spec is None:
            return
        for buf in args:
            data = getattr(buf, "data", None)
            if data is None or getattr(buf, "name", "") not in ("y", "out"):
                continue
            flat = data.reshape(-1)
            if not flat.size:
                continue
            i = int(self._rng.integers(flat.size))
            if spec.payload == "nan":
                flat[i] = np.nan
            elif spec.payload == "flip":
                flat[i] = -flat[i] if flat[i] != 0 else 1.0
            else:  # nudge
                flat[i] = flat[i] * (1.0 + 2.0 ** -20) if flat[i] != 0 \
                    else 2.0 ** -20
            self.events[-1].detail = f"{spec.payload}@{i}"
            return

    def on_phase(self, phase: str) -> None:
        """Runner phase boundary (``<runner>.<prepare|run>``)."""
        spec = self._fire(f"phase:{phase}", structural=True)
        if spec is not None:
            self._raise(f"phase:{phase}", spec)

    # ------------------------------------------------------------------
    def soft_events_since(self, mark: int) -> int:
        """Soft corruptions fired since :pyfunc:`len(events)` was
        ``mark`` — how the resilient executor invalidates an attempt
        whose numbers were touched."""
        return sum(1 for e in self.events[mark:] if e.kind == "soft")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe injector state (config + fired events)."""
        return {
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
            "events": [e.to_dict() for e in self.events],
        }


#: the currently-injecting fault injector, or ``None`` (the default:
#: off).  Runtime hooks read this exact attribute and do nothing else
#: on the disabled path.
ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The active injector, or ``None`` when injection is off."""
    return ACTIVE


@contextlib.contextmanager
def inject(injector: Optional[FaultInjector]) -> Iterator[Optional[FaultInjector]]:
    """Activate ``injector`` for the enclosed code (nestable; pass
    ``None`` to *suspend* injection inside an injecting region — the
    chaos harness uses that for its fault-free reference runs)."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = injector
    try:
        yield injector
    finally:
        ACTIVE = prev
