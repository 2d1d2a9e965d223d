"""Recovery policies: what the pipeline does when a fault fires.

Four reactions, composable through :class:`RecoveryPolicy`:

``retry``
    Capped exponential backoff with *deterministic* jitter (seeded from
    the plan, never from the wall clock). Every failed attempt's wasted
    bytes/energy and every backoff second are accounted, so retries show
    up in the campaign energy totals instead of vanishing.
``failover``
    After retries exhaust, redirect the snapshot to the burst-buffer
    tier (:class:`repro.iosim.burstbuffer.BurstBufferTarget`) — the
    near-node NVMe absorbs what the NFS cannot.
``degraded_retune``
    When the NFS bandwidth degrades or a throttle caps the clock, the
    Eqn. 3 recommendation no longer holds; re-solve the write frequency
    for the *degraded* path by minimizing modeled energy
    ``P(f) · t(f)`` over the DVFS grid (the same objective the paper's
    model-optimal ablation uses).
``skip_on_exhaustion``
    Last resort: drop the snapshot and report the loss, rather than
    aborting the whole campaign. With it disabled, exhaustion raises
    :class:`~repro.resilience.engine.SnapshotLostError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.objectives import solve
from repro.hardware.workload import Workload
from repro.resilience.faults import FaultPlanError
from repro.utils.validation import check_in_range, check_nonnegative

__all__ = ["RetryPolicy", "RecoveryPolicy", "retune_write_frequency"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, seeded jitter."""

    max_attempts: int = 3
    backoff_base_s: float = 1.0
    backoff_cap_s: float = 30.0
    #: Symmetric jitter fraction: the backoff is scaled by a factor in
    #: ``[1 - jitter, 1 + jitter]`` drawn from the plan seed.
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FaultPlanError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        check_nonnegative(self.backoff_base_s, "backoff_base_s")
        check_nonnegative(self.backoff_cap_s, "backoff_cap_s")
        check_in_range(self.jitter, 0.0, 1.0, "jitter")

    def backoff_s(self, attempt: int, seed: int, snapshot: int) -> float:
        """Seconds to wait after failed *attempt* (1-based).

        Deterministic: the jitter RNG is keyed on ``(seed, snapshot,
        attempt)``, not on wall clock or call order, so campaigns replay
        identically on any executor backend.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.backoff_cap_s, self.backoff_base_s * 2.0 ** (attempt - 1))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = np.random.default_rng((0xB0FF, int(seed), int(snapshot), int(attempt)))
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RetryPolicy":
        unknown = set(doc) - set(cls().as_dict())
        if unknown:
            raise FaultPlanError(
                f"unknown retry fields {sorted(unknown)}; "
                f"known: {sorted(cls().as_dict())}"
            )
        kwargs: Dict[str, Any] = {}
        if "max_attempts" in doc:
            kwargs["max_attempts"] = int(doc["max_attempts"])
        for key in ("backoff_base_s", "backoff_cap_s", "jitter"):
            if key in doc:
                kwargs[key] = float(doc[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class RecoveryPolicy:
    """The full reaction stack applied by the resilience engine."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failover: bool = True
    degraded_retune: bool = True
    skip_on_exhaustion: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "retry": self.retry.as_dict(),
            "failover": self.failover,
            "degraded_retune": self.degraded_retune,
            "skip_on_exhaustion": self.skip_on_exhaustion,
        }

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> "RecoveryPolicy":
        if doc is None:
            return cls()
        if not isinstance(doc, Mapping):
            raise FaultPlanError("policy must be an object")
        unknown = set(doc) - {"retry", "failover", "degraded_retune",
                              "skip_on_exhaustion"}
        if unknown:
            raise FaultPlanError(f"unknown policy fields {sorted(unknown)}")
        retry_doc = doc.get("retry")
        retry = RetryPolicy.from_dict(retry_doc) if retry_doc else RetryPolicy()
        return cls(
            retry=retry,
            failover=bool(doc.get("failover", True)),
            degraded_retune=bool(doc.get("degraded_retune", True)),
            skip_on_exhaustion=bool(doc.get("skip_on_exhaustion", True)),
        )


def retune_write_frequency(
    node,
    workload: Workload,
    cap_ghz: Optional[float] = None,
) -> float:
    """Energy-optimal pinned frequency for a (degraded) write workload.

    Re-solves the paper's tuning objective against the node's noise-free
    ground truth: over the DVFS grid (optionally capped by a throttle
    event), pick the frequency minimizing ``P(f) · t(f)`` for *workload*.
    Deterministic — it never touches the node's measurement RNG.
    """
    grid = node.cpu.available_frequencies()
    index = solve(
        [node.true_power_w(workload, f) for f in grid],
        [node.true_runtime_s(workload, f) for f in grid],
        feasible=None if cap_ghz is None else grid <= cap_ghz + 1e-9,
    )
    return float(grid[0 if index is None else index])
