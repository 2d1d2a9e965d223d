"""Model registry: named, versioned, content-addressed bundle store.

The paper's methodology produces one expensive artifact per machine —
the fitted :class:`~repro.core.persistence.ModelBundle` — and every
tuning decision afterwards only reads it. The registry is the service's
source of truth for those artifacts:

* **named + versioned** — ``put("prod", bundle)`` appends a new version
  (1-based, monotonic per name); readers ask for a name and optionally
  a version, defaulting to the latest.
* **content-addressed** — versions are keyed on
  :meth:`ModelBundle.fingerprint`; re-putting a byte-equal bundle under
  the same name is a no-op returning the existing version, so clients
  can idempotently re-register after reconnects.
* **LRU-cached** — the registry stores canonical JSON text (the
  durable, cheap form) and keeps at most ``cache_size`` *parsed*
  bundles hot, with hit/miss counters in the process metrics registry
  (``repro_service_registry_{hits,misses}_total``).
* **warm-startable** — :meth:`load_dir` ingests every ``*.json`` bundle
  in a directory at boot, named by file stem, so a restarted service
  serves traffic without waiting for re-registration.

All public methods are safe under concurrent readers and writers: a
single lock guards the name→versions index and the LRU, and parsed
bundles are only ever inserted whole, so a reader can never observe a
torn bundle.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.persistence import ModelBundle
from repro.observability.metrics import get_registry as get_metrics_registry
from repro.service.errors import BadRequestError, NotFoundError

__all__ = ["ModelEntry", "ModelRegistry"]

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")


def check_name(name, what: str) -> str:
    """*name* if it is a valid model name or session id, else a 400."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise BadRequestError(
            f"invalid {what} {name!r} (want [A-Za-z0-9._-], "
            "starting alphanumeric, at most 128 chars)"
        )
    return name


@dataclass(frozen=True)
class ModelEntry:
    """One immutable registered version of a named bundle."""

    name: str
    version: int
    fingerprint: str
    architectures: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "architectures": list(self.architectures),
        }


class ModelRegistry:
    """Thread-safe store of named, versioned model bundles."""

    def __init__(self, cache_size: int = 8) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = int(cache_size)
        self._lock = threading.RLock()
        #: name -> list of (entry, canonical_json) in version order.
        self._versions: Dict[str, List[Tuple[ModelEntry, str]]] = {}
        #: (name, version) -> parsed bundle, most recently used last.
        self._cache: "OrderedDict[Tuple[str, int], ModelBundle]" = OrderedDict()
        metrics = get_metrics_registry()
        self._hits = metrics.counter(
            "repro_service_registry_hits_total",
            help="Registry reads served from the parsed-bundle LRU",
        )
        self._misses = metrics.counter(
            "repro_service_registry_misses_total",
            help="Registry reads that re-parsed bundle JSON",
        )
        self._size_gauge = metrics.gauge(
            "repro_service_registry_models",
            help="Total registered bundle versions",
        )

    # -- writes --------------------------------------------------------

    def put(self, name: str, bundle: ModelBundle) -> ModelEntry:
        """Register *bundle* under *name*; returns the resulting entry.

        Idempotent on content: if the latest version of *name* already
        has this fingerprint, that entry is returned unchanged.
        """
        check_name(name, "model name")
        text = bundle.to_json()
        fingerprint = bundle.fingerprint()
        with self._lock:
            versions = self._versions.setdefault(name, [])
            for entry, _ in versions:
                if entry.fingerprint == fingerprint:
                    return entry
            entry = ModelEntry(
                name=name,
                version=len(versions) + 1,
                fingerprint=fingerprint,
                architectures=tuple(sorted(bundle.compression_runtime)),
            )
            versions.append((entry, text))
            self._cache_insert((name, entry.version), bundle)
            self._size_gauge.set(sum(len(v) for v in self._versions.values()))
            return entry

    def put_json(self, name: str, text: str) -> ModelEntry:
        """Register a bundle from its JSON document (validates it)."""
        try:
            bundle = ModelBundle.from_json(text)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from exc
        return self.put(name, bundle)

    def load_dir(self, path: str) -> Tuple[ModelEntry, ...]:
        """Warm start: register every ``*.json`` bundle in *path*.

        Files are named by stem (``prod.json`` → model ``prod``) and
        loaded in sorted order so version numbers are reproducible.
        Unparseable files raise — a corrupt warm-start directory should
        stop the boot, not silently serve a partial registry.
        """
        entries = []
        for fname in sorted(os.listdir(path)):
            if not fname.endswith(".json"):
                continue
            full = os.path.join(path, fname)
            with open(full, "r", encoding="utf-8") as fh:
                try:
                    entries.append(self.put_json(fname[: -len(".json")], fh.read()))
                except BadRequestError as exc:
                    raise ValueError(f"{full}: {exc}") from exc
        return tuple(entries)

    # -- reads ---------------------------------------------------------

    def _entry_text(self, name: str, version: Optional[int]) -> Tuple[ModelEntry, str]:
        versions = self._versions.get(name)
        if not versions:
            raise NotFoundError(
                f"unknown model {name!r}; registered: {sorted(self._versions)}"
            )
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise NotFoundError(
                f"model {name!r} has no version {version} "
                f"(latest is {len(versions)})"
            )
        return versions[version - 1]

    def entry(self, name: str, version: Optional[int] = None) -> ModelEntry:
        """Metadata of a registered version (latest when unspecified)."""
        with self._lock:
            return self._entry_text(name, version)[0]

    def get(self, name: str, version: Optional[int] = None) -> ModelBundle:
        """The parsed bundle for ``name[@version]``, via the LRU."""
        return self.get_with_entry(name, version)[0]

    def get_with_entry(
        self, name: str, version: Optional[int] = None
    ) -> Tuple[ModelBundle, ModelEntry]:
        """Parsed bundle plus its registry entry, atomically resolved."""
        with self._lock:
            entry, text = self._entry_text(name, version)
            key = (entry.name, entry.version)
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits.inc()
                return cached, entry
        # Parse outside the lock: deserialization is the slow path and
        # must not serialize readers of other models behind it.
        bundle = ModelBundle.from_json(text)
        self._misses.inc()
        with self._lock:
            self._cache_insert(key, bundle)
        return bundle, entry

    def _cache_insert(self, key: Tuple[str, int], bundle: ModelBundle) -> None:
        self._cache[key] = bundle
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._versions))

    def entries(self) -> Tuple[ModelEntry, ...]:
        """Every registered version, sorted by (name, version)."""
        with self._lock:
            return tuple(
                entry
                for name in sorted(self._versions)
                for entry, _ in self._versions[name]
            )

    def json_text(self, name: str, version: Optional[int] = None) -> str:
        """The stored canonical JSON document (for export/inspection)."""
        with self._lock:
            return self._entry_text(name, version)[1]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._versions.values())
