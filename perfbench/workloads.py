"""The four workloads.

Each workload is a class with ``setup(seed, smoke)`` returning the
set-up seconds, ``measure(seconds, trace, corrupt)`` returning an
:class:`Outcome`, and ``close()``. ``smoke`` shrinks the work for the
smoke check; ``corrupt`` alters the first checked output so the smoke
check can prove that the checks count it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import layers
from common import (
    HERE,
    check_backend,
    child_env,
    load_references,
    percentile,
    quiet_rate,
    quiet_time,
    run_for,
)

PY = sys.executable
CHILD_TIMEOUT_S = 150


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.e2e = {}      # generic end-to-end metric -> value
        self.info = {}     # workload-specific metric -> (value, unit)
        self.layers = {}   # per-layer metric -> (value, unit)
        self.env = {}
        self.deferred = []  # checks to run after peak memory is read

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _accounting(traced_s, untraced_s, attributed_s, e2e_s, n_ops):
    """The ``trace.*`` metrics: overhead against the untraced median and
    the share of the traced end-to-end time the root spans cover."""
    overhead = (statistics.median(traced_s) / statistics.median(untraced_s)
                - 1.0) if traced_s and untraced_s else 0.0
    return {
        "trace.overhead_frac": overhead,
        "trace.attributed_frac": attributed_s / e2e_s if e2e_s else 0.0,
        "trace.unattributed_s": max(e2e_s - attributed_s, 0.0) / max(n_ops, 1),
    }


# ----------------------------------------------------------------------
# campaign_cli
# ----------------------------------------------------------------------

#: The default campaign: SZ, nyx velocity_x at scale 16, 12 snapshots, a
#: base and an Eqn. 3 point. The seed is recorded but changes no input.
CAMPAIGN_ARGV = ("campaign", "--executor", "serial")

CLI_PROBE = (
    "import json, numpy, scipy, repro.cli\n"
    "from repro.compressors import kernels\n"
    "print(json.dumps({'backend': kernels.active_backend(),"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


def import_times(env) -> dict:
    """``cli.import_s`` and ``cli.import_scipy_s`` from ``-X importtime``:
    the cumulative time of ``import repro.cli`` and the summed self time
    of every ``scipy`` module it loads."""
    proc = subprocess.run(
        [PY, "-X", "importtime", "-c", "import repro.cli"], env=env,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        module = name.strip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        if depth == 0 and (module == "repro" or module.startswith("repro.")):
            total_us += int(cumulative_us)
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(self_us)
    return {"cli.import_s": total_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}


class CampaignCli:
    """``repro-tool campaign --executor serial``, one fresh process each."""

    in_process_setup = False

    def setup(self, seed: int, smoke: bool) -> float:
        self.env = child_env()
        t0 = time.perf_counter()
        proc = subprocess.run([PY, "-c", CLI_PROBE], env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        setup_s = time.perf_counter() - t0
        self.versions = json.loads(proc.stdout.strip().splitlines()[-1])
        check_backend(self.versions["backend"])
        return setup_s

    def measure(self, seconds: float, trace: bool, corrupt: bool) -> Outcome:
        out = Outcome()
        argv = list(CAMPAIGN_ARGV)
        expected = load_references()["campaign_cli"]
        times = {False: [], True: []}
        snaps = []

        def sample(i: int) -> None:
            traced = trace and i % 2 == 1
            cmd = ([PY, str(HERE / "traced_cli.py")] if traced
                   else [PY, "-m", "repro.cli"]) + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            times[traced].append(time.perf_counter() - t0)
            stdout = proc.stdout
            if corrupt and out.attempted == 0:
                stdout = stdout.replace("kJ", "KJ", 1)
            out.check(proc.returncode == 0 and stdout == expected)
            if traced and proc.returncode == 0:
                last = proc.stderr.strip().splitlines()[-1]
                snaps.append(json.loads(last.split(" ", 1)[1]))

        run_for(seconds, sample, min_units=2 if trace else 1)
        untraced = times[False]
        out.env = {**self.versions, "argv": argv, "campaign_times_s": untraced}
        campaign_s = quiet_time(untraced)
        out.info["campaign_s"] = (campaign_s, "s")
        out.e2e["latency_ms"] = campaign_s * 1e3
        out.e2e["ops_per_s"] = 1.0 / campaign_s
        if trace:
            snap = layers.merge(snaps)
            extra = import_times(self.env)
            extra.update(_accounting(
                times[True], untraced, snap["root_s"].get("MainThread", 0.0),
                sum(times[True]), len(snaps)))
            out.layers = layers.per_layer_metrics(snap, len(snaps), extra)
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fleet_sweep
# ----------------------------------------------------------------------

SWEEP_BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4)


class FleetSweep:
    """One campaign sweep on a fresh 2-worker fleet, then serially."""

    in_process_setup = True

    def setup(self, seed: int, smoke: bool) -> float:
        t0 = time.perf_counter()
        from repro.compressors import get_compressor, kernels
        from repro.data import load_field
        from repro.distributed import DistributedExecutor
        from repro.hardware.cpu import get_cpu
        from repro.workflow import campaign

        check_backend(kernels.active_backend())
        self.executor_cls = DistributedExecutor
        self.campaign = campaign
        self.field = load_field("nyx", "velocity_x", scale=32 if smoke else 8,
                                seed=seed)
        self.cpu = cpu = get_cpu("skylake")
        eqn3 = dict(compress_freq_ghz=cpu.snap_frequency(0.875 * cpu.fmax_ghz),
                    write_freq_ghz=cpu.snap_frequency(0.85 * cpu.fmax_ghz))
        bounds = SWEEP_BOUNDS[:2] if smoke else SWEEP_BOUNDS
        self.points = tuple(
            campaign.CampaignPoint(error_bound=eb, **clocks)
            for eb in bounds for clocks in ({}, eqn3))
        self.plan = campaign.CheckpointCampaign(
            snapshot_bytes=int(128e9), n_snapshots=1 if smoke else 2,
            compute_interval_s=3600.0)
        # First calls into the codec's NumPy paths, paid once per process.
        get_compressor("sz").compress(self.field[:2], 1e-2)
        return time.perf_counter() - t0

    def _sweep(self, executor):
        from repro.cache import ResultCache, set_cache

        set_cache(ResultCache(enabled=False))
        return self.campaign.run_campaign_sweep(
            self.cpu, "sz", self.field, self.points, self.plan,
            executor=executor)

    def _fleet_leg(self, watch_spawn: bool):
        """Construction to merged result; the fleet closes untimed. With
        *watch_spawn*, a thread polls ``worker_pids()`` for the time from
        construction until both workers have joined."""
        t0 = time.perf_counter()
        ex = self.executor_cls(2, cache_dir=None)
        joined, stop = {}, threading.Event()

        def watch():
            while not stop.is_set():
                if len(ex.worker_pids()) >= 2:
                    joined["s"] = time.perf_counter() - t0
                    return
                stop.wait(0.002)

        watcher = threading.Thread(target=watch, daemon=True)
        if watch_spawn:
            watcher.start()
        try:
            reports = self._sweep(ex)
            dt = time.perf_counter() - t0
        finally:
            stop.set()
            if watch_spawn:
                watcher.join(5.0)
            ex.close()
        return reports, dt, joined.get("s", 0.0)

    def _serial_leg(self):
        t0 = time.perf_counter()
        reports = self._sweep("serial")
        return reports, time.perf_counter() - t0

    def measure(self, seconds: float, trace: bool, corrupt: bool) -> Outcome:
        from repro.cache import encode_value

        out = Outcome()
        fleet_s = {False: [], True: []}
        serial_s = {False: [], True: []}
        snaps, spawn_s = [], []

        def pair(i: int) -> None:
            traced = trace and i % 2 == 1
            legs, snaps_i = {}, []
            for leg in ("fleet", "serial") if i % 2 == 0 else ("serial", "fleet"):
                rec = layers.Recorder() if traced else None
                if traced:
                    layers.install_pipeline_layers(rec)
                    if leg == "fleet":
                        layers.install_fleet_layers(rec)
                try:
                    if leg == "fleet":
                        legs[leg], dt, joined = self._fleet_leg(traced)
                        fleet_s[traced].append(dt)
                    else:
                        legs[leg], dt = self._serial_leg()
                        serial_s[traced].append(dt)
                finally:
                    if traced:
                        rec.restore()
                if traced:
                    snaps_i.append(rec.snapshot())
                    if leg == "fleet":
                        spawn_s.append(joined)
            fleet, serial = legs["fleet"], legs["serial"]
            for a, b in zip(fleet, serial):
                got = encode_value(a)
                if corrupt and out.attempted == 0:
                    got = got[:-1] + ("x" if got[-1:] != "x" else "y")
                out.check(got == encode_value(b))
            out.check(len(fleet) == len(serial) == len(self.points))
            if traced:
                snaps.append(layers.merge(snaps_i))

        run_for(seconds, pair, min_units=2 if trace else 1)
        out.env = {"field_shape": list(self.field.shape),
                   "field_bytes": int(self.field.nbytes),
                   "points": len(self.points),
                   "snapshots": self.plan.n_snapshots, "workers": 2,
                   "sweep_times_s": fleet_s[False],
                   "sweep_serial_times_s": serial_s[False]}
        sweep_s, serial = quiet_time(fleet_s[False]), quiet_time(serial_s[False])
        out.info["sweep_s"] = (sweep_s, "s")
        out.info["sweep_serial_s"] = (serial, "s")
        out.e2e["latency_ms"] = sweep_s * 1e3
        out.e2e["ops_per_s"] = 2.0 / (sweep_s + serial)
        if trace:
            snap = layers.merge(snaps)
            both = [f + s for f, s in zip(fleet_s[True], serial_s[True])]
            base = [f + s for f, s in zip(fleet_s[False], serial_s[False])]
            extra = import_times(child_env())
            extra["distributed.spawn_s"] = statistics.median(spawn_s)
            extra.update(_accounting(both, base,
                                     snap["root_s"].get("MainThread", 0.0),
                                     sum(both), len(snaps)))
            out.layers = layers.per_layer_metrics(snap, len(snaps), extra)
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# codec_roundtrip
# ----------------------------------------------------------------------

#: (dataset, field, scale, level): ``level`` takes one 2-D level of a
#: 3-D field. nyx is 3-D (1 MiB), cesm-atm 2-D (1.6 MB), hacc 1-D (2.2 MB).
CODEC_FIELDS = (
    ("nyx", "velocity_x", 8, None),
    ("cesm-atm", "CLDHGH", 4, 0),
    ("hacc", "x", 8, None),
)
CODECS = ("sz", "zfp")
CODEC_BOUNDS = (1e-2, 1e-4)
#: Field seeds with recorded container digests; the run uses seed % this.
CODEC_SEEDS = 16


def codec_fields(seed: int, smoke: bool) -> dict:
    import numpy as np
    from repro.data import load_field

    fields = {}
    for dataset, name, scale, level in CODEC_FIELDS[:1] if smoke else CODEC_FIELDS:
        arr = load_field(dataset, name, scale=scale, seed=seed % CODEC_SEEDS)
        if level is not None:
            arr = np.ascontiguousarray(arr[level])
        fields[f"{dataset}/{name}"] = arr
    return fields


def container_key(field: str, codec: str, eb: float) -> str:
    return f"{field}/{codec}/{eb:g}"


class CodecRoundtrip:
    """In-process compress then decompress, one thread."""

    in_process_setup = True

    def setup(self, seed: int, smoke: bool) -> float:
        t0 = time.perf_counter()
        from repro.compressors import get_compressor, kernels

        check_backend(kernels.active_backend())
        self.seed = seed
        self.fields = codec_fields(seed, smoke)
        self.codecs = {name: get_compressor(name) for name in CODECS}
        return time.perf_counter() - t0

    def measure(self, seconds: float, trace: bool, corrupt: bool) -> Outcome:
        import numpy as np

        out = Outcome()
        digests = load_references()["codec_roundtrip"][
            str(self.seed % CODEC_SEEDS)]
        pass_s = {False: [], True: []}
        snaps = []
        totals = defaultdict(float)

        def one_pass(i: int) -> None:
            traced = trace and i % 2 == 1
            rec = layers.Recorder() if traced else None
            if traced:
                layers.install_codec_layers(rec)
            codec_s = 0.0
            try:
                for field, arr in self.fields.items():
                    for name, codec in self.codecs.items():
                        for eb in CODEC_BOUNDS:
                            t0 = time.perf_counter()
                            buf = codec.compress(arr, eb)
                            t1 = time.perf_counter()
                            rebuilt = codec.decompress(buf)
                            t2 = time.perf_counter()
                            codec_s += t2 - t0
                            if not traced:
                                totals["compress_s"] += t1 - t0
                                totals["decompress_s"] += t2 - t1
                                totals["bytes"] += arr.nbytes
                            blob = buf.to_bytes()
                            if corrupt and out.attempted == 0:
                                blob = bytes([blob[0] ^ 1]) + blob[1:]
                            err = float(np.max(np.abs(
                                rebuilt.astype(np.float64)
                                - arr.astype(np.float64))))
                            out.check(
                                err <= eb and hashlib.sha256(blob).hexdigest()
                                == digests[container_key(field, name, eb)])
            finally:
                if traced:
                    rec.restore()
            pass_s[traced].append(codec_s)
            if traced:
                snaps.append(rec.snapshot())

        run_for(seconds, one_pass, min_units=2 if trace else 1)
        out.env = {"fields": {k: {"shape": list(v.shape), "bytes": int(v.nbytes)}
                              for k, v in self.fields.items()},
                   "field_seed": self.seed % CODEC_SEEDS}
        mb = totals["bytes"] / 1e6
        out.info["compress_mb_per_s"] = (mb / totals["compress_s"], "MB/s")
        out.info["decompress_mb_per_s"] = (mb / totals["decompress_s"], "MB/s")
        pass_time = quiet_time(pass_s[False])
        out.e2e["latency_ms"] = pass_time * 1e3
        out.e2e["ops_per_s"] = len(self.fields) * len(CODECS) * len(
            CODEC_BOUNDS) / pass_time
        if trace:
            snap = layers.merge(snaps)
            roots = sum(snap["root_s"].values())
            extra = _accounting(pass_s[True], pass_s[False], roots,
                                sum(pass_s[True]), len(snaps))
            out.layers = layers.per_layer_metrics(snap, len(snaps), extra)
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

ARCHS = ("broadwell", "skylake")
#: The repeated payloads: the request cycle of benchmarks/service_load.py,
#: whose 2-thread, 2-worker run is the 720-780 req/s baseline.
REPEAT_TUNE = tuple(
    {"model": "demo", "arch": a, "stage": s, "objective": o}
    for a in ARCHS for s in ("compress", "write")
    for o in ("power", "energy", "edp"))
REPEAT_DECIDE = tuple(
    {"arch": a, "ratio": r, "error_bound": 1e-3, "nbytes": 10**9,
     "clients": c}
    for a in ARCHS for r in (1.2, 4.0, 16.0) for c in (1, 64))
#: Every SESSION_EVERY-th request of a client is a session step,
#: alternately /v1/govern and /v1/powercap; the rest cycle through
#: tune-repeat, decide-repeat, tune-fresh, decide-fresh.
SESSION_EVERY = 20
#: Session keys per client and endpoint; each key belongs to one client.
SESSION_KEYS = 2
#: Length of the slices whose quiet rate and p50 latency are reported.
SLICE_S = 2.0
#: Steps each session takes during set-up, before the timed window.
WARM_SESSION_STEPS = 16
POWERCAP_NODES = ({"id": "n0"}, {"id": "n1", "work": 2.0},
                  {"id": "n2", "work": 1.5}, {"id": "n3"})


def demo_bundle_json() -> str:
    """A fixed two-architecture model bundle (the paper's Table III shape)."""
    from repro.core.persistence import ModelBundle
    from repro.core.power_model import PowerModel
    from repro.core.runtime_model import RuntimeModel
    from repro.utils.stats import GoodnessOfFit

    gof = GoodnessOfFit(0.1, 0.02, 0.9)
    return ModelBundle(
        compression_power={
            "Broadwell": PowerModel("Broadwell", 0.0064, 5.315, 0.7429,
                                    0.8, 2.0, gof),
            "Skylake": PowerModel("Skylake", 0.0074, 5.124, 1.1624,
                                  0.8, 2.2, gof),
        },
        transit_power={
            "Broadwell": PowerModel("Broadwell", 0.0261, 3.395, 0.7097,
                                    0.8, 2.0, gof),
            "Skylake": PowerModel("Skylake", 0.0313, 3.283, 1.0786,
                                  0.8, 2.2, gof),
        },
        compression_runtime={
            "broadwell": RuntimeModel("compress-broadwell", 0.55, 2.0, gof),
            "skylake": RuntimeModel("compress-skylake", 0.52, 2.2, gof),
        },
        transit_runtime={
            "broadwell": RuntimeModel("write-broadwell", 0.75, 2.0, gof),
            "skylake": RuntimeModel("write-skylake", 0.71, 2.2, gof),
        },
        metadata={"source": "perfbench"},
    ).to_json()


class RequestStream:
    """One client's seeded request sequence. Two streams made from the
    same (seed, index) yield the same requests, so the responses can be
    checked by replaying the stream instead of logging every request."""

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.rng = random.Random(f"service_mix-{seed}-{index}")
        # Clients start half a session period apart, so their session
        # steps do not line up.
        self.sent = index * SESSION_EVERY // 2
        self.plain = self.sent
        self.steps = defaultdict(int)

    def warm_up(self):
        """Steps every session of this client past its start-up phase
        (an adaptive governor explores cheaply for its first ~10 steps),
        so the timed window sees steady-state sessions."""
        for key in range(SESSION_KEYS):
            for _ in range(WARM_SESSION_STEPS):
                yield self._govern(key)
                yield self._powercap(key)

    def next_request(self):
        rng = self.rng
        i = self.sent
        self.sent += 1
        if i % SESSION_EVERY == SESSION_EVERY - 1:
            step = i // SESSION_EVERY
            key = step // 2 % SESSION_KEYS
            return self._govern(key) if step % 2 == 0 else self._powercap(key)
        slot = self.plain % 4
        self.plain += 1
        kind = "tune" if slot % 2 == 0 else "decide"
        if slot < 2:
            pool = REPEAT_TUNE if kind == "tune" else REPEAT_DECIDE
            return f"/v1/{kind}", dict(rng.choice(pool))
        if kind == "tune":
            return "/v1/tune", {
                "model": "demo", "arch": rng.choice(ARCHS),
                "stage": rng.choice(("compress", "write")),
                "objective": "energy",
                "max_slowdown": round(rng.uniform(1.01, 1.5), 6)}
        return "/v1/decide", {
            "arch": rng.choice(ARCHS),
            "ratio": round(rng.uniform(1.1, 50.0), 6),
            "error_bound": 1e-3,
            "nbytes": rng.randrange(10**6, 10**12),
            "clients": rng.choice((1, 64))}

    def _govern(self, key: int):
        rng = self.rng
        samples = []
        for phase in ("compress", "write"):
            f = rng.choice((1.2, 1.4, 1.6, 1.8, 2.0))
            samples.append({
                "phase": phase, "freq_ghz": f,
                "power_w": round((10 + 6 * f * f) * rng.uniform(0.95, 1.05), 4),
                "runtime_s": round(rng.uniform(0.95, 1.05) / f, 6),
                "bytes_processed": 10**8})
        return "/v1/govern", {
            "session": f"c{self.index}-g{key}", "arch": "broadwell",
            "policy": "adaptive", "seed": 0, "samples": samples}

    def _powercap(self, key: int):
        session = f"c{self.index}-p{key}"
        step = self.steps[session]
        self.steps[session] += 1
        payload = {"session": session, "budget_w": 240.0, "policy": "waterfill"}
        if step == 0:
            payload["nodes"] = [dict(n) for n in POWERCAP_NODES]
        else:
            payload["demands"] = {
                n["id"]: round(self.rng.uniform(20.0, 55.0), 3)
                for n in POWERCAP_NODES}
            payload["phase"] = ("compress", "write")[step % 2]
        return "/v1/powercap", payload


def body_digest(body: bytes) -> bytes:
    """SHA-256 of a response's JSON content, independent of its layout."""
    try:
        doc = json.loads(body)
    except ValueError:
        return hashlib.sha256(b"not json: " + body).digest()
    return doc_digest(doc)


def doc_digest(doc) -> bytes:
    """The digest of *doc* as it reads back from the wire (keys as strings)."""
    wire = json.loads(json.dumps(doc))
    return hashlib.sha256(json.dumps(wire, sort_keys=True).encode()).digest()


def send(address, method: str, path: str, payload):
    """One request on its own connection, as ``ServiceClient`` does (a
    kept-alive connection would measure Nagle/delayed-ACK stalls instead
    of the service)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, str(exc).encode()
    finally:
        conn.close()


class MixClient:
    """One closed-loop client: its request stream and a log of
    (status, body digest, latency_s, window, start) per request; window
    -1 marks the set-up session steps, checked but never timed."""

    def __init__(self, index: int, seed: int, address) -> None:
        self.index = index
        self.stream = RequestStream(index, seed)
        self.address = address
        self.log = []

    def warm_up(self) -> None:
        for path, payload in self.stream.warm_up():
            status, body = send(self.address, "POST", path, payload)
            self.log.append((status, body_digest(body), 0.0, -1, 0.0))

    def run(self, seconds: float, window: int, barrier) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            path, payload = self.stream.next_request()
            t0 = time.perf_counter()
            status, body = send(self.address, "POST", path, payload)
            latency = time.perf_counter() - t0
            self.log.append((status, body_digest(body), latency, window, t0))


class ServiceMix:
    """An in-process TuningServer(workers=2) and 2 closed-loop clients."""

    in_process_setup = True

    def setup(self, seed: int, smoke: bool) -> float:
        t0 = time.perf_counter()
        import repro.governor  # noqa: F401  (imported lazily by the server)
        import repro.hardware.powercurves  # noqa: F401
        import repro.powercap  # noqa: F401
        from repro.cache import ResultCache, set_cache
        from repro.compressors import kernels
        from repro.service import ServiceConfig, TuningServer

        check_backend(kernels.active_backend())
        self.seed = seed
        self.bundle = demo_bundle_json()
        set_cache(ResultCache())
        self.server = TuningServer(ServiceConfig(workers=2)).start()
        requests = [
            ("PUT", "/v1/models/demo", json.loads(self.bundle)),
            ("POST", "/v1/tune", {"model": "demo", "arch": "broadwell",
                                  "stage": "write", "max_slowdown": 1.999}),
            ("POST", "/v1/decide", {"arch": "skylake", "ratio": 99.0,
                                    "error_bound": 1e-3, "nbytes": 10**9}),
            ("POST", "/v1/govern", {"session": "warmup", "samples": []}),
            ("POST", "/v1/powercap", {"session": "warmup", "budget_w": 240.0,
                                      "nodes": [{"id": "w"}]}),
        ]
        for method, path, payload in requests:
            status, body = send(self.server.address, method, path, payload)
            if status != 200:
                raise RuntimeError(f"set-up {path} answered {status}: "
                                   f"{body[:200]!r}")
        self.clients = [MixClient(i, seed, self.server.address)
                        for i in range(2)]
        for client in self.clients:
            client.warm_up()
        return time.perf_counter() - t0

    @staticmethod
    def _window(clients, seconds: float, window: int) -> float:
        """Run every client closed-loop for *seconds*; returns the start."""
        barrier = threading.Barrier(len(clients) + 1)
        threads = [threading.Thread(target=c.run,
                                    args=(seconds, window, barrier))
                   for c in clients]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join(seconds + CHILD_TIMEOUT_S)
        return t0

    @staticmethod
    def _slices(entries, start: float, seconds: float):
        """Requests per second and p50 latency of each SLICE_S slice of a
        window, by request start time; their quiet quartiles resist
        bursts of load from outside the benchmark."""
        n = max(1, int(seconds / SLICE_S))
        width = seconds / n
        buckets = [[] for _ in range(n)]
        for t0, latency in entries:
            buckets[min(n - 1, int((t0 - start) / width))].append(latency)
        rps = [len(b) / width for b in buckets if b]
        p50 = [percentile(b, 0.5) for b in buckets if b]
        return rps, p50

    def measure(self, seconds: float, trace: bool, corrupt: bool) -> Outcome:
        out = Outcome()
        clients = self.clients
        rec = layers.Recorder() if trace else None
        span = seconds / 2 if trace else seconds
        try:
            starts = {0: self._window(clients, span, 0)}
            if trace:
                layers.install_service_layers(rec)
                starts[1] = self._window(clients, span, 1)
        finally:
            if rec is not None:
                rec.restore()
        out.deferred.append(lambda: self._replay_check(clients, out, corrupt))
        ok = defaultdict(list)
        for c in clients:
            for status, _digest, latency, window, t0 in c.log:
                if status == 200:
                    ok[window].append((t0, latency))
        rps, p50s = self._slices(ok[0], starts[0], span)
        lat = [latency for _t0, latency in ok[0]]
        p99 = percentile(lat, 0.99)
        out.env = {"clients": len(clients), "server_workers": 2,
                   "requests": sum(len(c.log) for c in clients),
                   "completed_untraced": len(lat),
                   "samples_beyond_p99": sum(1 for x in lat if x > p99),
                   "slice_rps": [round(x, 1) for x in rps]}
        p50, rate = quiet_time(p50s), quiet_rate(rps)
        out.info["service_rps"] = (rate, "1/s")
        out.info["service_p50_ms"] = (p50 * 1e3, "ms")
        out.info["service_p99_ms"] = (p99 * 1e3, "ms")
        out.e2e["latency_ms"] = p50 * 1e3
        out.e2e["ops_per_s"] = rate
        if trace:
            snap = rec.snapshot()
            traced = [latency for _t0, latency in ok[1]]
            route_s = snap["stats"].get("service.route", [0, 0.0])[1]
            extra = {"client_latency_s": sum(traced)}
            extra.update(_accounting([percentile(traced, 0.5)],
                                     [percentile(lat, 0.5)],
                                     route_s, sum(traced), len(traced)))
            out.layers = layers.per_layer_metrics(snap, len(traced), extra)
        return out

    def _replay_check(self, clients, out: Outcome, corrupt: bool) -> None:
        """Every response must equal an in-process replay of its client's
        request sequence (sessions replay in client order, and each
        session key belongs to one client). Runs after the peak memory
        has been read, so its own server and memo do not count."""
        from repro.service import ServiceConfig, TuningServer

        replay = TuningServer(ServiceConfig(workers=1)).start()
        memo = {}
        try:
            replay.registry.put_json("demo", self.bundle)
            for c in clients:
                stream = RequestStream(c.index, self.seed)
                warm = stream.warm_up()
                for status, digest, _latency, window, _t0 in c.log:
                    path, payload = (next(warm) if window < 0
                                     else stream.next_request())
                    kind = path.rsplit("/", 1)[1]
                    if kind in ("tune", "decide"):
                        key = kind + json.dumps(payload, sort_keys=True)
                        if key not in memo:
                            memo[key] = doc_digest(
                                replay.handlers(kind, dict(payload)))
                        expect = memo[key]
                    elif kind == "govern":
                        expect = doc_digest(replay.govern(dict(payload)))
                    else:
                        expect = doc_digest(replay.powercap(dict(payload)))
                    if corrupt and out.attempted == 0:
                        digest = bytes([digest[0] ^ 1]) + digest[1:]
                    out.check(status == 200 and digest == expect)
        finally:
            replay.drain(timeout=10)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.drain(timeout=10)


WORKLOADS = {
    "campaign_cli": CampaignCli,
    "fleet_sweep": FleetSweep,
    "codec_roundtrip": CodecRoundtrip,
    "service_mix": ServiceMix,
}
