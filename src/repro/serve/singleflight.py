"""Per-fingerprint singleflight: coalesce identical in-flight compiles.

Every request resolves to a content address (the ArtifactKey digest)
before any work is scheduled, so "identical request" is exact, not
heuristic: same DFG, same architecture, same mapper tuning.  The first
request for a digest becomes the **leader** and schedules the compile;
every concurrent duplicate becomes a **waiter** on the same flight and
receives the identical bytes.  N identical concurrent requests therefore
trigger exactly one mapper invocation — the serving-layer analogue of the
store's content-addressed dedup, extended to work still in flight.

Cancellation is refcounted: detaching a waiter never disturbs the others;
only when the *last* attached request cancels does the flight's token
fire (see :class:`~repro.serve.scheduler.CancelToken`): a queued compile
is dropped, a running one ends unstored.

Single-threaded by construction: every method runs on the event loop, so
the counters need no lock (the compile itself runs on worker threads, but
flight bookkeeping never does).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve.scheduler import CancelToken

__all__ = ["Flight", "Singleflight"]


@dataclass
class Flight:
    """One in-flight compile: the shared future plus waiter accounting."""

    digest: str
    future: asyncio.Future
    token: CancelToken = field(default_factory=CancelToken)
    waiters: int = 0

    def attach(self) -> None:
        self.waiters += 1

    def detach(self) -> bool:
        """Drop one waiter; True when the flight has none left and should
        be cancelled."""
        self.waiters -= 1
        return self.waiters <= 0


class Singleflight:
    """Digest-keyed flight table with coalescing counters."""

    def __init__(self) -> None:
        self._flights: dict[str, Flight] = {}
        self.flights_started = 0
        self.coalesced = 0
        self.cancelled_flights = 0

    def __len__(self) -> int:
        return len(self._flights)

    def join(self, digest: str) -> tuple[Flight, bool]:
        """The flight for *digest*, creating one when none is in flight.

        Returns ``(flight, leader)``; the caller is attached either way
        and must eventually :meth:`leave`.  ``leader`` is True for the
        request that must schedule the actual compile.
        """
        flight = self._flights.get(digest)
        if flight is not None:
            flight.attach()
            self.coalesced += 1
            return flight, False
        loop = asyncio.get_running_loop()
        flight = Flight(digest=digest, future=loop.create_future())
        flight.attach()
        self._flights[digest] = flight
        self.flights_started += 1
        return flight, True

    def leave(self, flight: Flight) -> None:
        """Detach one waiter (request finished or cancelled).  When the
        last waiter leaves an unresolved flight, fire its cancel token: its
        compile is dropped if still queued, and its result unstored if not."""
        if flight.detach() and not flight.future.done():
            flight.token.cancel()
            self.cancelled_flights += 1

    def resolve(self, flight: Flight, result) -> None:
        """Leader-side completion: publish *result* to every waiter and
        retire the flight."""
        if not flight.future.done():
            flight.future.set_result(result)
        self._flights.pop(flight.digest, None)

    def stats(self) -> dict:
        return {
            "flights_started": self.flights_started,
            "coalesced": self.coalesced,
            "cancelled_flights": self.cancelled_flights,
            "in_flight": len(self._flights),
        }
