"""The simulation environment: clock plus event scheduler."""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Generator, Iterable, Optional

from repro.simcore import sanitizer as _sanitizer
from repro.simcore.events import AllOf, AnyOf, Event, NORMAL, PENDING, Timeout
from repro.simcore.process import Process


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to end :meth:`Environment.run` when its ``until`` fires."""


#: Cumulative number of events scheduled across all :meth:`Environment.run`
#: calls in this interpreter.  Read by the repo benchmark (``perfbench/``)
#: to report events per op and per host second; updated once per
#: ``run()`` call, never in the hot loop.
_events_total = 0


def events_total() -> int:
    """Events scheduled during all completed ``Environment.run`` calls."""
    return _events_total


class Environment:
    """Execution environment for a simulation.

    Time starts at ``initial_time`` (default 0.0) and only moves forward
    as events are processed.  The event queue is a binary heap keyed on
    ``(time, priority, sequence)`` which guarantees deterministic FIFO
    ordering among same-time, same-priority events.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, eid, event)
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Free-lists of recycled Timeout/Event objects.  The fast run loop
        # returns an object here only when it can prove (via refcount) that
        # no simulation code still references it, so a pooled object is
        # indistinguishable from a fresh one.
        self._free_timeouts: list = []
        self._free_events: list = []
        # Bound at construction so per-event checks are a single branch.
        self._sanitizer = _sanitizer.current()
        if self._sanitizer is not None:
            self._sanitizer.note_environment(self)

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (microseconds by project convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        free = self._free_events
        if free:
            # Recycled events come back fully reset (pending, empty
            # callback list) — see the fast loop in :meth:`run`.
            return free.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        free = self._free_timeouts
        if free:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            t = free.pop()
            t.delay = delay
            t._ok = True
            t._value = value
            self._eid += 1
            heapq.heappush(self._queue, (self._now + delay, NORMAL, self._eid, t))
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing at ``now + delay``."""
        if self._sanitizer is not None and delay < 0:
            self._sanitizer.past_schedule(self, delay)
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if self._sanitizer is not None:
            if when < self._now:
                self._sanitizer.clock_regression(self, when, self._now)
            self._now = when
            # Happens-before tracking: stamp the accesses made by this
            # event's callbacks with a fresh step id (slow path only —
            # _run_fast never runs with a sanitizer installed).
            self._sanitizer.note_step(self)
        else:
            self._now = when

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event._defused:
            # An unhandled failure: crash the simulation loudly.
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue is empty, a time is reached, or an event fires.

        * ``until=None`` — run to exhaustion, return ``None``.
        * ``until=<float>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until the event is processed and
          return its value (re-raising if it failed).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:  # already processed
                    if stop._ok:
                        return stop._value
                    raise stop._value
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be in the past (now={self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # Priority below URGENT so same-instant urgent events run first.
                self._eid += 1
                heapq.heappush(self._queue, (at, NORMAL, self._eid, stop))
            stop.callbacks.append(_StopHook(stop.callbacks))

        eid_start = self._eid
        try:
            if self._sanitizer is None:
                self._run_fast()
            else:
                while True:
                    self.step()
        except StopSimulation as signal:
            event = signal.args[0]
            if event._ok:
                return event._value
            raise event._value from None
        except EmptySchedule:
            if stop is not None and not stop.triggered:
                raise RuntimeError(
                    f"no scheduled events left but until={stop!r} has not fired"
                ) from None
            return None
        finally:
            global _events_total
            _events_total += self._eid - eid_start

    def _run_fast(self) -> None:
        """Sanitizer-off hot loop: :meth:`step` inlined with all lookups
        bound to locals, plus free-list recycling of dead Timeout/Event
        objects.

        Recycling rule: after an event's callbacks have run, the only
        remaining references are this frame's ``event`` local and
        ``getrefcount``'s argument — a refcount of exactly 2 therefore
        proves no process, condition, or user code can ever observe the
        object again.  Only exact ``Timeout``/``Event`` instances are
        pooled (never subclasses such as Process/Condition).
        """
        queue = self._queue
        pop = heapq.heappop
        free_timeouts = self._free_timeouts
        free_events = self._free_events
        getrc = getrefcount
        pending = PENDING
        timeout_cls = Timeout
        event_cls = Event
        while queue:
            when, _, _, event = pop(queue)
            self._now = when

            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)

            if event._ok is False and not event._defused:
                # An unhandled failure: crash the simulation loudly.
                raise event._value

            cls = event.__class__
            if cls is timeout_cls:
                if getrc(event) == 2:
                    event.callbacks = []
                    event._value = pending
                    event._ok = None
                    event._defused = False
                    free_timeouts.append(event)
            elif cls is event_cls:
                if getrc(event) == 2:
                    event.callbacks = []
                    event._value = pending
                    event._ok = None
                    event._defused = False
                    free_events.append(event)
        raise EmptySchedule()

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"


class _StopHook:
    """Callback that ends :meth:`Environment.run` when ``until`` fires.

    Callbacks registered after the hook (processes that started waiting
    on ``until`` once the run was under way) sit behind it in the
    event's callback list, which the scheduler has already detached
    from the event; the hook runs them before stopping so none is
    stranded.
    """

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: list):
        self.callbacks = callbacks

    def __call__(self, event: Event) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks[callbacks.index(self) + 1 :]:
            callback(event)
        raise StopSimulation(event)
