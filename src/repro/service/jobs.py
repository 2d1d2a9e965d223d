"""Asynchronous jobs: the slow path behind ``POST /v1/characterize``.

Characterization sweeps take seconds to hours — far past any HTTP
deadline — so the service runs them as jobs: submission returns an id
immediately (HTTP 202) and ``GET /v1/jobs/<id>`` polls the state
machine ``queued → running → succeeded | failed``.

Jobs are accepted work: graceful drain waits for every queued and
running job before the process exits, so an accepted characterization
is never lost to a SIGTERM. Admission control bounds the backlog the
same way the scheduler bounds queries — beyond ``max_pending``
unfinished jobs, submission raises
:class:`~repro.service.errors.QueueFullError` (429).
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.observability.metrics import get_registry as get_metrics_registry
from repro.observability.tracer import get_tracer
from repro.service.errors import NotFoundError, QueueFullError, ServiceClosedError

__all__ = ["Job", "JobManager"]


@dataclass
class Job:
    """One asynchronous unit of work and its lifecycle record."""

    id: str
    kind: str
    state: str = "queued"  # queued | running | succeeded | failed
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Any = None
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            doc["started_at"] = self.started_at
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.state == "succeeded":
            doc["result"] = self.result
        if self.state == "failed":
            doc["error"] = self.error
        return doc


class JobManager:
    """Tracks and runs background jobs on dedicated threads.

    One thread per job: characterization jobs are few, long and
    NumPy-bound, so a pooled executor would add queueing without
    saving anything.
    """

    def __init__(self, max_pending: int = 4) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._closing = False
        metrics = get_metrics_registry()
        self._counters = {
            state: metrics.counter(
                "repro_service_jobs_total", labels={"state": state},
                help="Background jobs by terminal/entry state",
            )
            for state in ("queued", "succeeded", "failed")
        }
        self._running_gauge = metrics.gauge(
            "repro_service_jobs_unfinished",
            help="Jobs queued or running right now",
        )

    def _unfinished_locked(self) -> int:
        return sum(j.state in ("queued", "running") for j in self._jobs.values())

    def submit(self, kind: str, fn: Callable[[], Any]) -> Job:
        """Accept *fn* as a job; returns the queued :class:`Job`."""
        with self._lock:
            if self._closing:
                raise ServiceClosedError(
                    "service is draining; not accepting jobs"
                )
            if self._unfinished_locked() >= self.max_pending:
                raise QueueFullError(
                    f"{self.max_pending} jobs already pending; retry later"
                )
            job = Job(id=uuid.uuid4().hex, kind=kind)
            self._jobs[job.id] = job
            thread = threading.Thread(
                target=self._run, args=(job, fn),
                name=f"repro-service-job-{job.id[:8]}", daemon=True,
            )
            self._threads[job.id] = thread
            self._counters["queued"].inc()
            self._running_gauge.set(self._unfinished_locked())
        thread.start()
        return job

    def _run(self, job: Job, fn: Callable[[], Any]) -> None:
        with self._lock:
            job.state = "running"
            job.started_at = time.time()
        try:
            with get_tracer().span(f"service.job.{job.kind}", job_id=job.id):
                job.result, state = fn(), "succeeded"
        except Exception as exc:
            job.error, state = f"{type(exc).__name__}: {exc}", "failed"
        with self._lock:
            job.state = state
            job.finished_at = time.time()
            self._counters[state].inc()
            self._running_gauge.set(self._unfinished_locked())

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise NotFoundError(f"unknown job id {job_id!r}")
            return job

    def unfinished(self) -> int:
        with self._lock:
            return self._unfinished_locked()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new jobs, then wait for every accepted one to finish."""
        with self._lock:
            self._closing = True
            threads = list(self._threads.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in threads:
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True
