"""Telemetry bus invariants: order, bounds, capture, concurrency.

The governor's whole epistemology is the telemetry stream; these tests
pin the properties the controller leans on — bus-wide seq order (never
reordered within a phase), bounded memory with an honest ``dropped``
counter, and the process-global capture hooks the distributed workers
use to ship samples fleet-ward.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.governor.phases import Phase
from repro.governor.telemetry import (
    TelemetryBus,
    TelemetrySample,
    capture_active,
    drain_capture,
    start_capture,
)


def pub(bus, phase="compress", **kw):
    kw.setdefault("freq_ghz", 2.0)
    kw.setdefault("power_w", 20.0)
    kw.setdefault("runtime_s", 1.0)
    kw.setdefault("bytes_processed", 1000)
    return bus.publish(phase, **kw)


@pytest.fixture(autouse=True)
def _no_leaked_capture():
    # Capture is process-global state; a test that leaks an active
    # capture would silently tax every later publish in the suite.
    drain_capture()
    yield
    drain_capture()


class TestSample:
    def test_energy_is_power_times_runtime(self):
        s = TelemetrySample(0, "compress", 2.0, 20.0, 3.0, 10)
        assert s.energy_j == pytest.approx(60.0)

    def test_as_dict_round_trips_through_json(self):
        s = TelemetrySample(7, "write", 1.7, 18.5, 0.25, 4096, "distributed")
        doc = json.loads(json.dumps(s.as_dict()))
        assert doc["seq"] == 7
        assert doc["phase"] == "write"
        assert doc["source"] == "distributed"
        assert doc["energy_j"] == pytest.approx(18.5 * 0.25)


class TestPublishValidation:
    @pytest.mark.parametrize("field,value", [
        ("freq_ghz", 0.0), ("freq_ghz", -1.0),
        ("power_w", 0.0), ("runtime_s", -0.1),
    ])
    def test_nonpositive_measurements_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be positive"):
            pub(TelemetryBus(), **{field: value})

    @pytest.mark.parametrize("field", ["freq_ghz", "power_w", "runtime_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_measurements_rejected(self, field, value):
        # NaN slips past a plain "<= 0" check; one NaN runtime would
        # poison every adaptive fit for as long as it sits in the window.
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="finite"):
            pub(bus, **{field: value})
        assert bus.published == 0

    def test_negative_bytes_rejected_but_zero_ok(self):
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="bytes_processed"):
            pub(bus, bytes_processed=-1)
        assert pub(bus, bytes_processed=0).bytes_processed == 0

    def test_unknown_phase_tag_rejected(self):
        with pytest.raises(ValueError):
            pub(TelemetryBus(), phase="defrag")

    def test_phase_enum_normalizes_to_wire_string(self):
        assert pub(TelemetryBus(), phase=Phase.WRITE).phase == "write"


class TestRingSemantics:
    def test_seq_is_dense_and_increasing(self):
        bus = TelemetryBus()
        seqs = [pub(bus).seq for _ in range(10)]
        assert seqs == list(range(10))

    def test_capacity_bounds_buffer_and_counts_drops(self):
        bus = TelemetryBus(capacity=4)
        for _ in range(10):
            pub(bus)
        assert len(bus) == 4
        assert bus.dropped == 6
        assert bus.published == 10
        # Survivors are exactly the newest four, still in order.
        assert [s.seq for s in bus.samples()] == [6, 7, 8, 9]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TelemetryBus(capacity=0)

    def test_phase_filter_and_window(self):
        bus = TelemetryBus()
        for i in range(6):
            pub(bus, phase="compress" if i % 2 == 0 else "write",
                freq_ghz=1.0 + i * 0.1)
        compress = bus.samples("compress")
        assert [s.seq for s in compress] == [0, 2, 4]
        assert [s.seq for s in bus.window("compress", 2)] == [2, 4]
        with pytest.raises(ValueError, match="window"):
            bus.window("compress", 0)


class TestSubscribers:
    def test_subscriber_sees_every_sample_until_unsubscribed(self):
        bus = TelemetryBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        pub(bus)
        pub(bus)
        unsubscribe()
        pub(bus)
        assert [s.seq for s in seen] == [0, 1]
        unsubscribe()  # idempotent

    def test_export_jsonl_is_one_record_per_sample(self, tmp_path):
        bus = TelemetryBus()
        for _ in range(3):
            pub(bus)
        path = tmp_path / "telemetry.jsonl"
        bus.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(ln)["seq"] for ln in lines] == [0, 1, 2]


class TestCapture:
    def test_capture_mirrors_only_while_active(self):
        bus = TelemetryBus()
        pub(bus)  # before: not captured
        assert not capture_active()
        start_capture()
        assert capture_active()
        pub(bus)
        pub(bus)
        drained = drain_capture()
        assert not capture_active()
        pub(bus)  # after: not captured
        assert [d["seq"] for d in drained] == [1, 2]
        assert drain_capture() == []

    def test_restart_clears_half_drained_capture(self):
        bus = TelemetryBus()
        start_capture()
        pub(bus)
        start_capture()  # a new task must ship only its own samples
        pub(bus)
        assert [d["seq"] for d in drain_capture()] == [1]

    def test_capture_spans_every_bus_in_the_process(self):
        a, b = TelemetryBus(), TelemetryBus()
        start_capture()
        pub(a)
        pub(b, phase="write")
        phases = [d["phase"] for d in drain_capture()]
        assert phases == ["compress", "write"]


class TestConcurrency:
    N_THREADS = 4

    def _hammer(self, bus, per_thread):
        barrier = threading.Barrier(self.N_THREADS)
        phases = ["compress", "write", "idle", "compress"]
        mine = [[] for _ in range(self.N_THREADS)]

        def run(t):
            barrier.wait()
            for _ in range(per_thread):
                mine[t].append(pub(bus, phase=phases[t]).seq)

        threads = [threading.Thread(target=run, args=(t,))
                   for t in range(self.N_THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return mine

    @given(per_thread=st.integers(min_value=1, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_no_drop_no_reorder_under_racing_publishers(self, per_thread):
        bus = TelemetryBus(capacity=self.N_THREADS * 50 + 1)
        mine = self._hammer(bus, per_thread)
        # No drops: every publish is in the buffer.
        assert bus.dropped == 0
        assert len(bus) == self.N_THREADS * per_thread
        all_seqs = [s.seq for s in bus.samples()]
        assert all_seqs == sorted(all_seqs)
        assert len(set(all_seqs)) == len(all_seqs)
        # No reorder: each publisher's (= each phase's) samples appear
        # in its own publish order.
        for t, seqs in enumerate(mine):
            assert seqs == sorted(seqs)
        for phase in ("compress", "write", "idle"):
            tagged = [s.seq for s in bus.samples(phase)]
            assert tagged == sorted(tagged)

    def test_capture_keeps_publish_order_across_threads(self):
        bus = TelemetryBus()
        start_capture()
        self._hammer(bus, 25)
        drained = drain_capture()
        assert len(drained) == self.N_THREADS * 25
        seqs = [d["seq"] for d in drained]
        assert seqs == sorted(seqs)
