"""One bounded store for the keyed sessions of ``/v1/govern`` and
``/v1/powercap``: one ``OrderedDict`` keyed ``(kind, key)``. Past
:data:`MAX_SESSIONS` the least recently used entry is evicted (its next
step starts fresh); each session has its own lock, so steps on
different sessions never queue behind one another.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.observability.metrics import get_registry as get_metrics_registry

__all__ = ["MAX_SESSIONS", "KeyedSessions"]

#: Live sessions per store, across all kinds.
MAX_SESSIONS = 1024


class KeyedSessions:
    """LRU-bounded ``(kind, key) -> session`` map with per-session locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def step(self, kind: str, key: str, create: Callable[[], Any],
             apply: Callable[[Any], Any]) -> Any:
        """``apply(session)`` under the session's lock; returns its value.

        A missing session is made by ``create()`` and stored only after
        ``apply`` returns, so a step that raises never creates or evicts
        an entry; if a concurrent first step stored it meanwhile, this
        step is replayed on the stored session.
        """
        metrics = get_metrics_registry()
        while True:
            with self._lock:
                entry = self._entries.get((kind, key))
                if entry is not None:
                    self._entries.move_to_end((kind, key))
            if entry is not None:
                with entry[0]:
                    return apply(entry[1])
            session = create()
            result = apply(session)
            with self._lock:
                if (kind, key) in self._entries:
                    continue
                self._entries[(kind, key)] = (threading.Lock(), session)
                _gauge(metrics, kind).inc()
                while len(self._entries) > MAX_SESSIONS:
                    (old, _), _ = self._entries.popitem(last=False)
                    _gauge(metrics, old).inc(-1)
                    metrics.counter(
                        "repro_service_session_evictions_total", {"kind": old},
                        help="Sessions dropped by the LRU bound",
                    ).inc()
            return result


def _gauge(metrics, kind: str):
    return metrics.gauge("repro_service_sessions", {"kind": kind},
                         help="Live keyed sessions held by tuning services")
