"""Shared-resource primitives: Resource, Store, FilterStore.

These model the contention points of the simulated systems: RPC handler
pools, NIC transmit engines, disk arms, call queues.  The API follows
SimPy semantics: ``request()``/``put()``/``get()`` return events that a
process yields; ``Request`` doubles as a context manager that releases
on exit (including when the waiting process is interrupted).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simcore.events import Event, NORMAL, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.environment import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__ inlined: one Request per resource claim makes
        # this constructor hot on the RPC path.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered and self._ok:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A pool of ``capacity`` interchangeable slots with a FIFO queue."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a granted slot and wake the next waiter, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError("releasing a request that does not hold a slot")
        self._grant_next()

    # -- internals -------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            # Inlined request.succeed(request): the Request was created
            # this instant, so it is provably still PENDING.
            request._ok = True
            request._value = request
            env = self.env
            env._eid += 1
            heappush(env._queue, (env._now, NORMAL, env._eid, request))
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        queue = self.queue
        while queue and len(self.users) < self.capacity:
            nxt = queue.popleft()
            if nxt.triggered:  # cancelled-but-not-removed safety
                continue
            self.users.append(nxt)
            nxt.succeed(nxt)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.count}/{self.capacity} used,"
            f" {len(self.queue)} queued>"
        )


class StorePut(Event):
    __slots__ = ("item", "_store_queue")

    def __init__(self, store: "Store", item: Any):
        # Event.__init__ inlined: one StorePut per queued message.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item
        self._store_queue: Optional[deque] = None
        store._do_put(self)

    def cancel(self) -> None:
        """Withdraw an ungranted put from the wait queue."""
        if self._store_queue is not None:
            try:
                self._store_queue.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    __slots__ = ("filter", "_store_queue")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None):
        # Event.__init__ inlined: one StoreGet per consumed message.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.filter = filter
        self._store_queue: Optional[deque] = None
        store._do_get(self)

    def cancel(self) -> None:
        """Withdraw an unserved get from the wait queue."""
        if self._store_queue is not None:
            try:
                self._store_queue.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO buffer of Python objects with optional capacity.

    ``put(item)`` blocks when full; ``get()`` blocks when empty.  This
    is the call-queue primitive of the RPC server and the channel
    primitive for inter-daemon messaging.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    # -- internals -------------------------------------------------------
    def _do_put(self, event: StorePut) -> None:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            # Inlined event.succeed(): a StorePut is triggered at most
            # once, in the same instant it is created.
            event._ok = True
            event._value = None
            env = self.env
            env._eid += 1
            heappush(env._queue, (env._now, NORMAL, env._eid, event))
            if self._getters:
                self._serve_getters()
        else:
            event._store_queue = self._putters
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        items = self.items
        if items and event.filter is None:
            # Fast path: plain FIFO get with stock on hand (every RPC
            # queue).  Inlined ``_match`` + ``event.succeed(item)``.
            event._ok = True
            event._value = items.popleft()
            env = self.env
            env._eid += 1
            heappush(env._queue, (env._now, NORMAL, env._eid, event))
            if self._putters:
                self._serve_putters()
            return
        item = self._match(event)
        if item is not _NO_ITEM:
            event.succeed(item)
            if self._putters:
                self._serve_putters()
        else:
            event._store_queue = self._getters
            self._getters.append(event)

    def _match(self, event: StoreGet) -> Any:
        if not self.items:
            return _NO_ITEM
        if event.filter is None:
            return self.items.popleft()
        for i, item in enumerate(self.items):
            if event.filter(item):
                del self.items[i]
                return item
        return _NO_ITEM

    def _serve_getters(self) -> None:
        getters = self._getters
        items = self.items
        # Fast path: FIFO getters with no filter (every RPC queue is
        # one).  Serving the head getter here is exactly what the
        # general scan below would do on its first hit; dropping
        # already-triggered heads instead of skipping them is
        # observationally identical (they can never be served).
        while getters:
            getter = getters[0]
            if getter._value is not PENDING:
                getters.popleft()
                continue
            if getter.filter is None:
                if not items:
                    return
                getters.popleft()
                # Inlined getter.succeed(items.popleft()).
                getter._ok = True
                getter._value = items.popleft()
                env = self.env
                env._eid += 1
                heappush(env._queue, (env._now, NORMAL, env._eid, getter))
                continue
            break
        else:
            return
        # Slow path: a filtered getter heads the queue — full scan with
        # restart after every successful serve, as FilterStore requires.
        served = True
        while served and getters:
            served = False
            for i, getter in enumerate(getters):
                if getter.triggered:
                    continue
                item = self._match(getter)
                if item is not _NO_ITEM:
                    del getters[i]
                    getter.succeed(item)
                    served = True
                    break

    def _serve_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            if putter.triggered:
                continue
            self.items.append(putter.item)
            putter.succeed()
            self._serve_getters()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} level={len(self.items)}/{self.capacity}>"


class FilterStore(Store):
    """Store whose ``get`` can select by predicate."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, filter)


#: Sentinel distinct from None (stores may hold None).
_NO_ITEM = object()
