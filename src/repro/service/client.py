"""Python client for the tuning service.

A thin stdlib (``urllib``) client that speaks the service's JSON
protocol and re-raises its typed errors
(:mod:`repro.service.errors`), so remote callers handle the same
exceptions as in-process embedders.

Transient failures — connection refused/reset, 429 admission rejects,
503 drains — are retried with the resilience layer's
:class:`~repro.resilience.policies.RetryPolicy`: capped exponential
backoff whose jitter is *deterministic* (seeded), so client fleets
don't synchronize their retries yet tests replay exact schedules.
Non-retryable errors (400/404/500/504) surface immediately.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Optional

from repro.core.persistence import ModelBundle
from repro.resilience.policies import RetryPolicy
from repro.service.errors import ServiceError, error_for_status

__all__ = ["ServiceClient", "ConnectionFailed"]


class ConnectionFailed(ServiceError):
    """Could not reach the service at all (after retries)."""

    status = 503
    code = "connection_failed"
    retryable = True


def _without_none(body: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in body.items() if value is not None}


class ServiceClient:
    """Typed access to one tuning-service endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8023"``.
    retry:
        Backoff schedule for retryable failures. ``max_attempts=1``
        disables retries.
    timeout_s:
        Per-HTTP-call socket timeout.
    retry_seed:
        Seed for the policy's deterministic jitter; give each client
        of a fleet its rank so backoffs decorrelate.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        base_url: str,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 10.0,
        retry_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, backoff_base_s=0.05, backoff_cap_s=2.0
        )
        self.timeout_s = float(timeout_s)
        self.retry_seed = int(retry_seed)
        self._sleep = sleep
        self._request_counter = 0

    # -- transport -----------------------------------------------------

    def _once(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None, raw: bool = False) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                payload = resp.read()
            if raw:
                return payload.decode("utf-8")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(detail).get("message", detail)
            except (json.JSONDecodeError, AttributeError):
                message = detail or exc.reason
            raise error_for_status(exc.code, str(message)) from None
        except (urllib.error.URLError, socket.timeout, ConnectionError) as exc:
            raise ConnectionFailed(f"{method} {path}: {exc}") from None
        try:
            return json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConnectionFailed(
                f"{method} {path}: non-JSON response ({exc})"
            ) from None

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        self._request_counter += 1
        request_id = self._request_counter
        last: Optional[ServiceError] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return self._once(method, path, body)
            except ServiceError as exc:
                if not exc.retryable:
                    raise
                last = exc
                if attempt < self.retry.max_attempts:
                    self._sleep(self.retry.backoff_s(
                        attempt, seed=self.retry_seed, snapshot=request_id
                    ))
        assert last is not None
        raise last

    # -- API surface ---------------------------------------------------

    def healthz(self) -> bool:
        return self._request("GET", "/healthz").get("status") == "ok"

    def readyz(self) -> bool:
        """True when the service accepts work (no retries: a drain is
        not an error to wait out)."""
        try:
            return self._once("GET", "/readyz").get("status") == "ready"
        except ServiceError:
            return False

    def metrics_text(self) -> str:
        """The raw Prometheus exposition body."""
        return self._once("GET", "/metrics", raw=True)

    def register_model(self, name: str, bundle: ModelBundle) -> Dict[str, Any]:
        """Idempotently register *bundle* as a version of *name*."""
        doc = json.loads(bundle.to_json())
        return self._request("PUT", f"/v1/models/{name}", doc)

    def models(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/models")

    def model_entry(self, name: str,
                    version: Optional[int] = None) -> Dict[str, Any]:
        suffix = f"?version={version}" if version is not None else ""
        return self._request("GET", f"/v1/models/{name}{suffix}")

    def tune(self, model: str, arch: str, stage: str, *,
             version: Optional[int] = None,
             policy: str = "optimal",
             objective: str = "energy",
             max_slowdown: Optional[float] = None,
             deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Objective-aware frequency recommendation for one stage."""
        body = {
            "model": model, "arch": arch, "stage": stage, "policy": policy,
            "objective": objective, "version": version,
            "max_slowdown": max_slowdown, "deadline_s": deadline_s,
        }
        return self._request("POST", "/v1/tune", _without_none(body))

    def decide(self, arch: str, ratio: float, error_bound: float,
               nbytes: int, *,
               codec: str = "sz",
               clients: int = 1,
               criterion: str = "time",
               deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Compress-vs-raw break-even verdict for one write."""
        body = {
            "arch": arch, "ratio": ratio, "error_bound": error_bound,
            "nbytes": nbytes, "codec": codec, "clients": clients,
            "criterion": criterion, "deadline_s": deadline_s,
        }
        return self._request("POST", "/v1/decide", _without_none(body))

    def characterize(self, model: str, **spec: Any) -> str:
        """Start an async characterization; returns the job id."""
        body = {"model": model, **spec}
        return str(self._request("POST", "/v1/characterize", body)["job_id"])

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: str, timeout_s: float = 300.0,
                 poll_s: float = 0.25) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its doc."""
        deadline = time.monotonic() + timeout_s
        while True:
            doc = self.job(job_id)
            if doc.get("state") in ("succeeded", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc.get('state')!r} "
                    f"after {timeout_s:g}s"
                )
            self._sleep(poll_s)
