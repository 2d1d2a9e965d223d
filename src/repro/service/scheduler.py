"""Request scheduler: bounded admission, batching, coalescing, deadlines.

The HTTP layer never computes anything itself — every query goes
through here so one mechanism enforces the service's load shape:

* **admission control** — a bounded queue; :meth:`submit` raises
  :class:`~repro.service.errors.QueueFullError` (HTTP 429) instead of
  blocking when the queue is full, and
  :class:`~repro.service.errors.ServiceClosedError` (503) once draining
  has begun. Accepted work is never dropped: drain runs the queue dry.
* **batching** — a dispatcher thread drains up to ``batch_max`` queued
  requests at a time and maps the batch over a
  :class:`repro.parallel.Executor` worker pool, so distinct queries in
  a burst compute concurrently.
* **coalescing** — identical queries inside a batch (same kind, same
  canonical payload) compute once and fan the result out to every
  waiter; ``repro_service_coalesced_total`` counts the saved runs.
  Tuning traffic is highly repetitive — every rank of a job asks the
  same question — so this is the big lever under burst load.
* **deadlines** — a request carries an optional deadline; if it is
  still queued when the deadline passes, it fails with
  :class:`~repro.service.errors.DeadlineExceeded` (504) instead of
  wasting a worker on an answer nobody is waiting for.

Every executed request runs under a tracer span
(``service.<kind>``) and feeds the service metrics: queue-depth gauge,
per-endpoint latency histogram, request/reject counters.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.metrics import get_registry as get_metrics_registry
from repro.observability.tracer import get_tracer
from repro.parallel import Executor, get_executor
from repro.service.errors import (
    DeadlineExceeded,
    InternalError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)

__all__ = ["Ticket", "Scheduler"]

#: Latency buckets suited to sub-millisecond model lookups through
#: multi-second characterization-sized requests.
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Ticket:
    """A caller's handle on one accepted request."""

    __slots__ = ("kind", "payload", "deadline_at", "enqueued_at", "_done",
                 "_result", "_error")

    def __init__(self, kind: str, payload: Dict[str, Any],
                 deadline_at: Optional[float], enqueued_at: float) -> None:
        self.kind = kind
        self.payload = payload
        self.deadline_at = deadline_at
        self.enqueued_at = enqueued_at
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def settle(self, result: Any, error: Optional[BaseException]) -> None:
        self._result, self._error = result, error
        self._done.set()

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the outcome; raises what the handler raised."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.kind!r} still pending")
        if self._error is not None:
            raise self._error
        return self._result


@dataclass
class _Group:
    """All tickets in a batch sharing one coalesced computation."""

    kind: str
    payload: Dict[str, Any]
    tickets: List[Ticket] = field(default_factory=list)
    cache_key: Optional[str] = None


def _coalesce_key(kind: str, payload: Dict[str, Any]) -> str:
    return kind + "\x00" + json.dumps(payload, sort_keys=True,
                                      separators=(",", ":"), default=str)


class Scheduler:
    """Bounded, batching dispatcher over a worker Executor.

    Parameters
    ----------
    handler:
        ``handler(kind, payload) -> result``; pure with respect to the
        payload (coalescing assumes identical payloads give identical
        answers). :class:`~repro.service.errors.ServiceError` raised
        here reaches the waiter typed; anything else is wrapped in
        :class:`~repro.service.errors.InternalError`.
    queue_size:
        Admission bound. Full queue ⇒ :class:`QueueFullError`.
    workers / executor:
        Worker pool shape; the pool is a
        :class:`repro.parallel.Executor` (``thread`` by default —
        handlers are NumPy/lookup bound and short).
    batch_max:
        Most requests drained into one dispatch cycle.
    default_deadline_s:
        Deadline applied when a request does not carry one (``None``
        disables).
    cache / cache_key_fn:
        An optional :class:`repro.cache.ResultCache` consulted *before*
        dispatch: ``cache_key_fn(kind, payload)`` returns a fingerprint
        (or ``None`` for uncacheable requests). A submit-time hit
        resolves the ticket immediately — no queue, no batch — and a
        computed group stores through :meth:`ResultCache.get_or_compute`
        so identical in-flight groups single-flight across batches.
        Errors are never cached.
    """

    def __init__(
        self,
        handler: Callable[[str, Dict[str, Any]], Any],
        queue_size: int = 64,
        workers: int = 4,
        executor: str = "thread",
        batch_max: int = 16,
        default_deadline_s: Optional[float] = None,
        cache=None,
        cache_key_fn: Optional[Callable[[str, Dict[str, Any]], Optional[str]]] = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if cache is not None and cache_key_fn is None:
            raise ValueError("cache requires a cache_key_fn")
        self._handler = handler
        self._cache = cache
        self._cache_key_fn = cache_key_fn
        self._queue: "queue.Queue[Ticket]" = queue.Queue(maxsize=queue_size)
        self._executor: Executor = get_executor(executor, workers)
        self.batch_max = int(batch_max)
        self.default_deadline_s = default_deadline_s
        self._closing = threading.Event()
        self._drained = threading.Event()

        metrics = get_metrics_registry()
        self._depth = metrics.gauge(
            "repro_service_queue_depth",
            help="Requests currently queued for dispatch",
        )
        self._rejects = metrics.counter(
            "repro_service_rejected_total",
            help="Requests refused by admission control (429)",
        )
        self._coalesced = metrics.counter(
            "repro_service_coalesced_total",
            help="Requests answered by another identical request's run",
        )
        self._batches = metrics.counter(
            "repro_service_batches_total",
            help="Dispatch cycles executed",
        )
        self._metrics = metrics

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- admission -----------------------------------------------------

    def submit(self, kind: str, payload: Dict[str, Any],
               deadline_s: Optional[float] = None) -> Ticket:
        """Admit one request; never blocks on a full queue.

        Raises :class:`ServiceClosedError` while draining and
        :class:`QueueFullError` when the bounded queue is full.
        """
        if self._closing.is_set():
            raise ServiceClosedError("service is draining; not accepting work")
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        now = time.monotonic()
        ticket = Ticket(
            kind=kind,
            payload=payload,
            deadline_at=None if deadline_s is None else now + float(deadline_s),
            enqueued_at=now,
        )
        # A cache hit answers at admission time: no queue slot, no
        # batch, no worker. The probe records hits only — the
        # authoritative miss is counted by the computing group, so
        # hit/miss totals stay exact (one miss per computation).
        if self._cache is not None and self._cache.enabled:
            key = self._cache_key_fn(kind, payload)
            if key is not None:
                hit, value = self._cache.lookup(
                    key, context=f"service.{kind}", record_miss=False
                )
                if hit:
                    self._finish(ticket, result=value)
                    return ticket
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self._rejects.inc()
            raise QueueFullError(
                f"queue full ({self._queue.maxsize} pending); retry later"
            ) from None
        self._depth.set(self._queue.qsize())
        return ticket

    def perform(self, kind: str, payload: Dict[str, Any],
                deadline_s: Optional[float] = None,
                timeout: Optional[float] = None) -> Any:
        """Submit and wait: the synchronous convenience the HTTP layer uses."""
        return self.submit(kind, payload, deadline_s).result(timeout)

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closing.is_set():
                    break
                continue
            batch = [first]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._depth.set(self._queue.qsize())
            self._run_batch(batch)
        self._drained.set()

    def _run_batch(self, batch: List[Ticket]) -> None:
        self._batches.inc()
        now = time.monotonic()
        groups: Dict[str, _Group] = {}
        for ticket in batch:
            if ticket.expired(now):
                self._finish(ticket, error=DeadlineExceeded(
                    f"request {ticket.kind!r} expired after "
                    f"{now - ticket.enqueued_at:.3f}s in queue"
                ))
                continue
            key = _coalesce_key(ticket.kind, ticket.payload)
            group = groups.get(key)
            if group is None:
                cache_key = None
                if self._cache is not None and self._cache.enabled:
                    cache_key = self._cache_key_fn(ticket.kind, ticket.payload)
                groups[key] = group = _Group(
                    ticket.kind, ticket.payload, cache_key=cache_key
                )
            else:
                self._coalesced.inc()
            group.tickets.append(ticket)
        if not groups:
            return
        # One worker-pool map per batch: distinct queries run
        # concurrently; exceptions come back as values so one bad
        # request never cancels its batch-mates.
        outcomes = self._executor.map(self._run_group, list(groups.values()))
        for group, outcome in zip(groups.values(), outcomes):
            result, error = outcome
            for ticket in group.tickets:
                self._finish(ticket, result=result, error=error)

    def _run_group(
        self, group: _Group
    ) -> Tuple[Any, Optional[BaseException]]:
        try:
            with get_tracer().span(f"service.{group.kind}",
                                   waiters=len(group.tickets)):
                if group.cache_key is not None:
                    result = self._cache.get_or_compute(
                        group.cache_key,
                        lambda: self._handler(group.kind, group.payload),
                        context=f"service.{group.kind}",
                    )
                else:
                    result = self._handler(group.kind, group.payload)
                return result, None
        except ServiceError as exc:
            return None, exc
        except Exception as exc:
            return None, InternalError(f"{type(exc).__name__}: {exc}")

    def _finish(self, ticket: Ticket, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        status = "ok" if error is None else getattr(error, "code", "error")
        latency = time.monotonic() - ticket.enqueued_at
        self._metrics.histogram(
            "repro_service_request_seconds",
            buckets=_LATENCY_BUCKETS,
            labels={"endpoint": ticket.kind},
            help="Enqueue-to-completion latency per endpoint",
        ).observe(latency)
        self._metrics.counter(
            "repro_service_requests_total",
            labels={"endpoint": ticket.kind, "status": status},
            help="Requests completed per endpoint and status",
        ).inc()
        ticket.settle(result, error)

    # -- lifecycle -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def draining(self) -> bool:
        return self._closing.is_set()

    def close(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop admitting, run the queue dry, release the pool.

        Every already-accepted ticket completes (graceful drain loses
        no accepted work). Returns ``True`` if the drain finished
        within *timeout*.
        """
        self._closing.set()
        drained = self._drained.wait(timeout)
        if drained:
            self._executor.close()
        return drained

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
