"""Per-layer spans recorded from outside the program.

The traced run patches the public entry points of each layer (class
methods and module functions) with thin timing wrappers. Nothing in
``src/`` is edited and the program's own ``Tracer`` is never consulted,
so a change that moves or renames the program's spans cannot move these
numbers.

Each wrapper pushes a frame on a per-thread stack. A span's *self* time
is its duration minus the time of the wrapped spans it called on the
same thread; the time of spans with no wrapped parent on their thread
is the *root* time of that thread, which the trace accounting compares
with the end-to-end time.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
import types
from collections import defaultdict

#: Kernel dispatch functions of ``repro.compressors.kernels``.
KERNELS = (
    "huffman_histogram", "canonical_codes", "huffman_lookup_indices",
    "huffman_encode_bits", "huffman_decode_symbols", "pack_bits",
    "unpack_bits", "negabinary_encode", "negabinary_decode",
    "zfp_encode_plane_group", "zfp_decode_plane_group", "sz_quantize",
    "sz_reconstruct",
)

class Stat:
    """Totals of one span name: calls, inclusive and self seconds, bytes."""

    __slots__ = ("calls", "incl_s", "self_s", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.nbytes = 0


def _array_bytes(args) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in args
               if hasattr(a, "dtype"))


class Recorder:
    """Span totals keyed by span name, plus per-thread root time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = defaultdict(Stat)
        self.root_s = defaultdict(float)  # thread name -> root time
        self.counts = defaultdict(int)
        self.ratio_keys = set()
        self.sessions = set()
        self._undo = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self):
        """Name of the innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def _close(self, name, frame, dur, nbytes) -> None:
        stack = self._stack()
        stack.pop()
        with self._lock:
            stat = self.stats[name]
            stat.calls += 1
            stat.incl_s += dur
            stat.self_s += dur - frame[1]
            stat.nbytes += nbytes
            if stack:
                stack[-1][1] += dur
            else:
                self.root_s[threading.current_thread().name] += dur

    def call(self, name, fn, args, kwargs, nbytes=0):
        frame = [name, 0.0]
        self._stack().append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, time.perf_counter() - t0, nbytes)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note(self, keys: set, key) -> None:
        with self._lock:
            keys.add(key)

    def snapshot(self) -> dict:
        """JSON-able totals; :func:`merge` adds snapshots together."""
        with self._lock:
            return {
                "stats": {k: [s.calls, s.incl_s, s.self_s, s.nbytes]
                          for k, s in self.stats.items()},
                "root_s": dict(self.root_s),
                "counts": dict(self.counts),
                "ratio_distinct": len(self.ratio_keys),
                "sessions": len(self.sessions),
            }

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone by
        :meth:`restore`. A method patched on a base class reaches every
        subclass that inherits it (``SZCompressor.compress``)."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        original = getattr(owner, attr)
        new = make(original)
        if isinstance(new, types.FunctionType):
            new = functools.wraps(original)(new)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original if own else None))

    def span(self, owner, attr: str, name, nbytes=None) -> None:
        """Wrap ``owner.attr`` in a span; *name* may be a callable of the
        call's positional arguments (e.g. to read the codec name)."""
        rec = self

        def make(fn):
            def wrapper(*args, **kwargs):
                span_name = name(args) if callable(name) else name
                n = nbytes(args) if nbytes is not None else 0
                return rec.call(span_name, fn, args, kwargs, n)
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# The wrapped entry points, one installer per layer group
# ----------------------------------------------------------------------


def install_codec_layers(rec: Recorder) -> None:
    """compressors, kernels and the codecs' lossless (zlib) stage."""
    import zlib

    from repro.compressors import base, kernels
    from repro.compressors.sz import codec as sz_codec
    from repro.compressors.zfp import codec as zfp_codec

    rec.span(base.Compressor, "compress",
             lambda a: f"compressors.{a[0].name}.compress",
             nbytes=lambda a: _array_bytes(a[1:2]))
    rec.span(base.Compressor, "decompress",
             lambda a: f"compressors.{a[0].name}.decompress")
    for name in KERNELS:
        rec.span(kernels, name, f"kernels.{name}", nbytes=_array_bytes)

    def traced_zlib(op):
        fn = getattr(zlib, op)

        def wrapper(*args, **kwargs):
            return rec.call("compressors.lossless", fn, args, kwargs)
        return wrapper

    proxy = types.SimpleNamespace(
        compress=traced_zlib("compress"),
        decompress=traced_zlib("decompress"),
        error=zlib.error,
    )
    for module in (sz_codec, zfp_codec):
        rec.patch(module, "zlib", lambda _orig: proxy)


def _field_key(arr) -> str:
    return hashlib.sha256(memoryview(arr).cast("B")).hexdigest()


def install_pipeline_layers(rec: Recorder) -> None:
    """workflow, parallel, iosim and hardware; implies the codec layers.

    A ``Compressor.compress`` call made while ``DataDumper.dump`` is the
    innermost open span is a ratio measurement: its (field digest,
    codec, error bound, chunking) key joins ``rec.ratio_keys``.
    """
    import numpy as np

    from repro.compressors import base
    from repro.hardware.node import SimulatedNode
    from repro.iosim.dumper import DataDumper
    from repro.parallel import executor
    from repro.workflow import campaign

    install_codec_layers(rec)
    wrapped_compress = base.Compressor.compress

    dumpers = threading.local()

    def make_dump(fn):
        def wrapper(self, compressor, sample_field, error_bound, *a, **kw):
            dumpers.chunk = self.chunk_bytes
            return rec.call("iosim.dump", fn,
                            (self, compressor, sample_field, error_bound) + a,
                            kw)
        return wrapper

    def make_compress(_fn):
        def wrapper(self, data, *args, **kwargs):
            if rec.parent() != "iosim.dump":
                return wrapped_compress(self, data, *args, **kwargs)
            eb = args[0] if args else kwargs["error_bound"]
            rec.count("iosim.ratio_calls")
            rec.note(rec.ratio_keys, (_field_key(np.ascontiguousarray(data)),
                                      self.name, float(eb), dumpers.chunk))
            return rec.call("iosim.ratio", wrapped_compress,
                            (self, data) + args, kwargs)
        return wrapper

    rec.patch(DataDumper, "dump", make_dump)
    rec.patch(base.Compressor, "compress", make_compress)
    rec.span(SimulatedNode, "run", "hardware.node_run")
    rec.span(campaign, "run_campaign_sweep", "workflow.sweep")
    rec.span(campaign, "run_campaign", "workflow.campaign")
    for cls in (executor.SerialExecutor, executor.ThreadExecutor,
                executor.ProcessExecutor):
        rec.span(cls, "map", "parallel.map",
                 nbytes=lambda a: len(a[2]) if len(a) > 2 else 0)


def install_fleet_layers(rec: Recorder) -> None:
    """distributed: the coordinator's map and its non-heartbeat frames."""
    from repro.distributed import coordinator, wire

    rec.span(coordinator.DistributedExecutor, "map", "distributed.map")

    def make_send(fn):
        def wrapper(sock, doc):
            nbytes = fn(sock, doc)
            if doc.get("type") != "heartbeat":
                rec.count("distributed.frames")
                rec.count("distributed.wire_bytes", nbytes)
            return nbytes
        return wrapper

    def make_recv(fn):
        def wrapper(sock):
            msg = fn(sock)
            if isinstance(msg, dict) and msg.get("type") != "heartbeat":
                rec.count("distributed.frames")
                rec.count("distributed.wire_bytes",
                          len(wire.encode_frame(msg)))
            return msg
        return wrapper

    rec.patch(coordinator, "send_frame", make_send)
    rec.patch(coordinator, "recv_frame", make_recv)


def install_service_layers(rec: Recorder) -> None:
    """service, cache, governor and powercap."""
    from repro.cache import core as cache_core
    from repro.governor import policies
    from repro.powercap import controller
    from repro.service import handlers, http, scheduler

    def make_lookup(fn):
        def wrapper(*args, **kwargs):
            probe = rec.parent() == "service.perform"
            hit, value = rec.call("cache.lookup", fn, args, kwargs)
            if hit:
                rec.count("cache.hits")
                if probe:  # the scheduler's submit-time probe
                    rec.count("service.submit_hits")
            return hit, value
        return wrapper

    def make_session(kind):
        def make(fn):
            def wrapper(self, payload):
                rec.note(rec.sessions, (kind, str(payload.get("session"))))
                return fn(self, payload)
            return wrapper
        return make

    def make_group(fn):
        def wrapper(self, key, compute, context="generic"):
            if context.startswith("service."):
                rec.count("service.groups")
            return fn(self, key, compute, context)
        return wrapper

    rec.patch(cache_core.ResultCache, "lookup", make_lookup)
    rec.patch(cache_core.ResultCache, "get_or_compute", make_group)
    rec.span(http.TuningServer, "route", "service.route")
    rec.patch(http.TuningServer, "govern", make_session("govern"))
    rec.patch(http.TuningServer, "powercap", make_session("powercap"))
    rec.span(scheduler.Scheduler, "perform", "service.perform")
    rec.span(handlers.RequestHandlers, "__call__", "service.handler")
    rec.span(policies.Governor, "decide", "governor.decide")
    for attr in ("join", "leave", "record_demand", "begin_phase",
                 "reallocate", "report"):
        rec.span(controller.ClusterCapController, attr, "powercap.allocate")


# ----------------------------------------------------------------------
# From span totals to the per-layer metrics
# ----------------------------------------------------------------------


def merge(snaps) -> dict:
    """Element-wise sum of :meth:`Recorder.snapshot` results."""
    out = {"stats": {}, "root_s": defaultdict(float),
           "counts": defaultdict(int), "ratio_distinct": 0, "sessions": 0}
    for snap in snaps:
        for name, row in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for key in ("root_s", "counts"):
            for name, v in snap[key].items():
                out[key][name] += v
        out["ratio_distinct"] += snap["ratio_distinct"]
        out["sessions"] += snap["sessions"]
    return out


def per_layer_metrics(snap: dict, n_ops: int, extra: dict) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Counts and times are per operation of the workload (*n_ops* of them
    were traced); ``service.sessions`` is the number of distinct session
    keys stepped. *extra* supplies what the spans cannot: the
    ``-X importtime`` split, fleet spawn time, client-side latency and
    the trace accounting. A layer the workload does not reach reads 0.
    """
    per = 1.0 / max(n_ops, 1)

    def stat(name):
        return snap["stats"].get(name, [0, 0.0, 0.0, 0])

    def incl(name):
        return stat(name)[1] * per

    def self_s(name):
        return stat(name)[2] * per

    def calls(name):
        return stat(name)[0] * per

    count = snap["counts"].get
    m = {}
    m["cli.import_s"] = (extra.get("cli.import_s", 0.0), "s")
    m["cli.import_scipy_s"] = (extra.get("cli.import_scipy_s", 0.0), "s")
    ratio_calls = count("iosim.ratio_calls", 0) * per
    ratio_distinct = snap["ratio_distinct"] * per
    m["iosim.ratio_calls"] = (ratio_calls, "count")
    m["iosim.ratio_distinct"] = (ratio_distinct, "count")
    m["iosim.ratio_useful_frac"] = (
        ratio_distinct / ratio_calls if ratio_calls else 0.0, "frac")
    m["iosim.ratio_s"] = (incl("iosim.ratio"), "s")
    m["iosim.dump_self_s"] = (self_s("iosim.dump"), "s")
    for codec in ("sz", "zfp"):
        for op in ("compress", "decompress"):
            m[f"compressors.{codec}.{op}_s"] = (
                incl(f"compressors.{codec}.{op}"), "s")
    m["compressors.lossless_s"] = (incl("compressors.lossless"), "s")
    for name in KERNELS:
        n, _, busy, nbytes = stat(f"kernels.{name}")
        m[f"kernels.{name}.calls"] = (n * per, "count")
        m[f"kernels.{name}.self_s"] = (busy * per, "s")
        m[f"kernels.{name}.mb_per_s"] = (
            nbytes / busy / 1e6 if busy else 0.0, "MB/s")
    m["hardware.node_runs"] = (calls("hardware.node_run"), "count")
    m["hardware.node_run_s"] = (incl("hardware.node_run"), "s")
    m["workflow.sweep_self_s"] = (
        self_s("workflow.sweep") + self_s("workflow.campaign"), "s")
    m["parallel.map_s"] = (incl("parallel.map"), "s")
    m["parallel.tasks"] = (stat("parallel.map")[3] * per, "count")
    m["distributed.spawn_s"] = (extra.get("distributed.spawn_s", 0.0), "s")
    m["distributed.map_s"] = (incl("distributed.map"), "s")
    m["distributed.frames"] = (count("distributed.frames", 0) * per, "count")
    m["distributed.wire_bytes"] = (
        count("distributed.wire_bytes", 0) * per, "B")
    lookups, hits = calls("cache.lookup"), count("cache.hits", 0) * per
    m["cache.lookups"] = (lookups, "count")
    m["cache.hits"] = (hits, "count")
    m["cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "frac")
    m["cache.lookup_s"] = (incl("cache.lookup"), "s")
    m["service.route_s"] = (incl("service.route"), "s")
    m["service.perform_s"] = (incl("service.perform"), "s")
    m["service.queue_wait_s"] = (
        max(incl("service.perform") - incl("service.handler"), 0.0), "s")
    coalesced = (stat("service.perform")[0] - count("service.submit_hits", 0)
                 - count("service.groups", 0))
    m["service.coalesced"] = (max(coalesced, 0) * per, "count")
    m["service.sessions"] = (snap["sessions"], "count")
    m["service.wire_s"] = (max(
        extra.get("client_latency_s", 0.0) * per - incl("service.route"), 0.0),
        "s")
    m["governor.decide_s"] = (incl("governor.decide"), "s")
    m["powercap.allocate_s"] = (incl("powercap.allocate"), "s")
    for key, unit in (("trace.overhead_frac", "frac"),
                      ("trace.attributed_frac", "frac"),
                      ("trace.unattributed_s", "s")):
        m[key] = (extra[key], unit)
    return m
