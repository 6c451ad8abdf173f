"""Fair multi-tenant dispatch: weighted round-robin, priorities, cancel.

The service's cache misses are real mapper work — seconds, not
microseconds — so which miss runs next is a policy decision, exactly like
the PageMaster deciding which thread's pages to grow.  The scheduler
models it the same way the paper models fabric sharing:

* **tenants** are the fairness buckets.  Dispatch cycles tenants in
  weighted round-robin: a tenant with weight *w* gets up to *w* dispatches
  per cycle, so one tenant flooding the queue cannot starve the others —
  it only lengthens its own line.
* **priorities** order requests *within* a tenant (higher first, FIFO
  among equals).  A tenant's priorities never affect its neighbours; the
  cross-tenant knob is the weight.
* **cancellation**: a queued request whose :class:`CancelToken` has fired
  is dropped at pick time (never dispatched); a running one is never
  interrupted — its work reads the token when the compile ends and
  discards the result.

Everything here, the token included, runs on the event loop —
single-threaded bookkeeping, no locks.  Work runs in the context its
submitter had, so its spans land in the submitter's scope, beside the
``serve.queue_wait`` (submit to slot) and ``serve.slot_busy`` (the work)
spans of its request.
"""

from __future__ import annotations

import asyncio
import contextvars
import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.util.spans import span

__all__ = ["CancelToken", "RequestCancelled", "ScheduledRequest", "FairScheduler"]


class RequestCancelled(Exception):
    """The request was cancelled before or during its compile."""


class CancelToken:
    """A cancellation flag, set and read on the event loop only."""

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class ScheduledRequest:
    """One queued unit of work plus its dispatch bookkeeping."""

    seq: int
    tenant: str
    priority: int
    work: object  # async callable: work(token) -> result
    token: CancelToken
    future: asyncio.Future
    context: contextvars.Context = field(default_factory=contextvars.copy_context)
    waiting: span = field(default_factory=lambda: span("serve.queue_wait").start())

    def sort_key(self) -> tuple[int, int]:
        # higher priority first; FIFO (arrival seq) among equals
        return (-self.priority, self.seq)


@dataclass
class _TenantQueue:
    heap: list = field(default_factory=list)

    def push(self, req: ScheduledRequest) -> None:
        heapq.heappush(self.heap, (req.sort_key(), req))

    def pop(self) -> tuple[ScheduledRequest | None, int]:
        """Pop the next live request; cancelled queued requests resolve
        (never dispatch) and are counted in the second slot."""
        dropped = 0
        while self.heap:
            _key, req = heapq.heappop(self.heap)
            if not req.token.cancelled:
                return req, dropped
            # cancelled while queued: resolve without ever dispatching
            dropped += 1
            if not req.future.done():
                req.future.set_exception(RequestCancelled(f"request {req.seq}"))
        return None, dropped

    def __len__(self) -> int:
        return len(self.heap)


class FairScheduler:
    """Weighted round-robin dispatcher over a bounded set of compile slots.

    ``slots`` bounds concurrent work (the service pairs it with a compile
    thread pool of the same size); ``weights`` maps tenant name to its
    per-cycle dispatch share (a tenant not named there has weight 1).
    """

    def __init__(self, slots: int, *, weights: dict[str, int] | None = None) -> None:
        if slots < 1:
            raise ValueError(f"scheduler needs >= 1 slot, got {slots}")
        for tenant, weight in (weights or {}).items():
            if weight < 1:
                raise ValueError(f"tenant {tenant!r} weight must be >= 1, got {weight}")
        self.slots = slots
        self._weights = dict(weights or {})
        self._queues: dict[str, _TenantQueue] = {}
        self._ring: deque[str] = deque()
        self._credits: dict[str, int] = {}
        self._seq = 0
        self._sem: asyncio.Semaphore | None = None
        self._wake = asyncio.Event()
        self._stopped = False
        self._dispatcher: asyncio.Task | None = None
        self._running: dict[int, asyncio.Task] = {}
        self.dispatched = 0
        self.cancelled_queued = 0

    # -- public API -----------------------------------------------------------------

    def weight_of(self, tenant: str) -> int:
        return self._weights.get(tenant, 1)

    def start(self) -> None:
        """Dispatch on the running loop, also after :meth:`stop`: the
        semaphore and the wake event are made anew, since an asyncio
        primitive belongs to the loop that first waits on it."""
        if self._dispatcher is None:
            self._stopped = False
            self._sem = asyncio.Semaphore(self.slots)
            self._wake = asyncio.Event()
            self._wake.set()  # work submitted before the start
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def stop(self) -> None:
        """Stop dispatching: running work finishes, and every request still
        queued is answered :class:`RequestCancelled` without running."""
        self._stopped = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        for task in list(self._running.values()):
            await task
        for queue in self._queues.values():
            for _key, req in queue.heap:
                self.cancelled_queued += 1
                req.future.set_exception(RequestCancelled(f"request {req.seq}"))
        self._queues.clear()
        self._ring.clear()
        self._credits.clear()

    def submit(
        self,
        work,
        *,
        tenant: str = "default",
        priority: int = 0,
        token: CancelToken | None = None,
    ) -> ScheduledRequest:
        """Queue *work* (an async callable taking the cancel token) and
        return its :class:`ScheduledRequest`; await ``.future`` for the
        result."""
        if self._stopped:
            raise RuntimeError("scheduler is stopped")
        self._seq += 1
        req = ScheduledRequest(
            seq=self._seq,
            tenant=tenant,
            priority=priority,
            work=work,
            token=token or CancelToken(),
            future=asyncio.get_running_loop().create_future(),
        )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = _TenantQueue()
        if tenant not in self._credits:
            # tenant becomes active: joins the ring with a full credit line
            self._ring.append(tenant)
            self._credits[tenant] = self.weight_of(tenant)
        queue.push(req)
        self._wake.set()
        return req

    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def stats(self) -> dict:
        return {
            "slots": self.slots,
            "queued": self.queued(),
            "running": len(self._running),
            "dispatched": self.dispatched,
            "cancelled_queued": self.cancelled_queued,
        }

    # -- dispatch -------------------------------------------------------------------

    def _next_request(self) -> ScheduledRequest | None:
        """Weighted round-robin pick: walk the ring, spending one credit
        per dispatch; a tenant leaves the ring when its queue drains and
        rejoins (fresh credits) on its next submit."""
        while self._ring:
            tenant = self._ring[0]
            queue = self._queues.get(tenant)
            req, dropped = queue.pop() if queue is not None else (None, 0)
            self.cancelled_queued += dropped
            if req is None:
                self._ring.popleft()
                self._credits.pop(tenant, None)
                continue
            self._credits[tenant] -= 1
            if self._credits[tenant] <= 0:
                # credit line spent: move to the back of the ring
                self._ring.rotate(-1)
                self._credits[tenant] = self.weight_of(tenant)
            return req
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            if self._stopped:
                break
            await self._sem.acquire()
            if self._stopped:
                self._sem.release()
                break
            req = self._next_request()
            if req is None:
                self._sem.release()
                self._wake.clear()
                continue
            self.dispatched += 1
            loop = asyncio.get_running_loop()
            task = req.context.run(loop.create_task, self._run(req))
            self._running[req.seq] = task

    async def _run(self, req: ScheduledRequest) -> None:
        req.waiting.stop()
        try:
            if req.token.cancelled:
                raise RequestCancelled(f"request {req.seq}")
            with span("serve.slot_busy"):
                result = await req.work(req.token)
            if not req.future.done():
                req.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the waiter
            if not req.future.done():
                req.future.set_exception(exc)
            else:  # pragma: no cover - waiter already gone
                pass
        finally:
            self._running.pop(req.seq, None)
            self._sem.release()
            self._wake.set()
