"""Deterministic fault injection: FaultPlan schedules, FaultyDevice
middleware behaviour, and the CRC block codec.

The load-bearing property is *replayability*: a seeded plan driving the
same operation sequence must inject the identical fault schedule, or no
failure found under chaos testing could ever be reproduced.
"""

import numpy as np
import pytest

from repro.core.errors import CorruptedBlockError, StorageError
from repro.faults import (
    FaultPlan,
    FaultyDevice,
    InjectedFault,
    InjectedReadError,
    InjectedWriteError,
)
from repro.storage.codec import (
    BLOCK_MAGIC,
    block_crc,
    decode_block,
    encode_block,
)
from repro.storage.device import DeviceStack
from repro.storage.disk import SimulatedDisk


class TestBlockCodec:
    def test_roundtrip_preserves_payload_exactly(self):
        items = {0: 1.5, (1, 2): -3.25, 7: 0.0}
        assert decode_block(encode_block(items)) == items

    def test_frame_starts_with_magic_and_crc(self):
        frame = encode_block({0: 1.0})
        assert frame[:4] == BLOCK_MAGIC
        assert int.from_bytes(frame[4:8], "little") == block_crc({0: 1.0})

    @pytest.mark.parametrize("position", [4, 8, 12, -1])
    def test_any_flipped_byte_is_detected(self, position):
        frame = bytearray(encode_block({i: float(i) for i in range(5)}))
        frame[position] ^= 0xFF
        with pytest.raises(CorruptedBlockError):
            decode_block(bytes(frame))

    def test_truncated_or_foreign_frames_are_rejected(self):
        with pytest.raises(CorruptedBlockError):
            decode_block(b"AI")  # shorter than the header
        with pytest.raises(CorruptedBlockError):
            decode_block(b"XXXX" + encode_block({0: 1.0})[4:])

    def test_corruption_never_reaches_unpickling(self):
        # A frame whose body is not even a pickle must fail at the CRC,
        # proving the checksum gate runs before deserialization.
        bad_body = b"\x00not a pickle"
        frame = encode_block({0: 1.0})[:8] + bad_body
        with pytest.raises(CorruptedBlockError):
            decode_block(frame)


class TestFaultPlan:
    def test_rates_validate(self):
        with pytest.raises(StorageError):
            FaultPlan(read_error_rate=-0.1)
        with pytest.raises(StorageError):
            FaultPlan(read_error_rate=0.7, torn_rate=0.4)
        with pytest.raises(StorageError):
            FaultPlan(latency_spike_s=-1.0)

    def test_zero_rates_never_inject(self):
        plan = FaultPlan(seed=3)
        assert all(plan.read_fault() is None for _ in range(200))
        assert not any(plan.write_fault() for _ in range(200))

    def test_same_seed_replays_identical_schedule(self):
        kwargs = dict(read_error_rate=0.2, torn_rate=0.1,
                      latency_spike_rate=0.1, latency_spike_s=0.0)
        a = FaultPlan(seed=42, **kwargs)
        b = FaultPlan(seed=42, **kwargs)
        for _ in range(500):
            a.read_fault()
            b.read_fault()
        assert list(a.history) == list(b.history)
        assert any(kind for _, kind in a.history)  # schedule is non-trivial

    def test_reset_rewinds_the_schedule(self):
        plan = FaultPlan(seed=9, read_error_rate=0.3, latency_spike_s=0.0)
        first = [plan.read_fault() for _ in range(100)]
        plan.reset()
        assert [plan.read_fault() for _ in range(100)] == first

    def test_history_records_operation_order(self):
        plan = FaultPlan(seed=1, read_error_rate=0.5)
        for _ in range(10):
            plan.read_fault()
        assert [op for op, _ in plan.history] == list(range(10))


def faulty_device(plan=None, block_size=8) -> FaultyDevice:
    """A fault-injecting layer directly over a bare simulated disk."""
    return DeviceStack([
        ("faulty", {"plan": plan}),
        ("disk", {"block_size": block_size, "metered": False}),
    ]).build()


def make_disk(plan=None) -> FaultyDevice:
    disk = faulty_device(plan)
    for b in range(4):
        disk.write_block(b, {b: float(b)})
    return disk


class TestFaultyDevice:
    def test_no_plan_behaves_like_base_disk(self):
        plain = SimulatedDisk(block_size=8)
        plain.write_block(0, {0: 0.0})
        faulty = make_disk(plan=None)
        assert faulty.read_block(0) == plain.read_block(0)

    def test_injected_read_error_raises_and_counts(self):
        disk = make_disk(FaultPlan(seed=0, read_error_rate=1.0))
        with pytest.raises(InjectedReadError):
            disk.read_block(0)
        # The read never reached the directory, so no I/O was charged.
        assert disk.io_totals().reads == 0

    def test_torn_read_surfaces_as_crc_failure(self):
        disk = make_disk(FaultPlan(seed=0, torn_rate=1.0))
        with pytest.raises(CorruptedBlockError):
            disk.read_block(0)

    def test_latency_spike_returns_correct_data(self):
        disk = make_disk(
            FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_s=0.0)
        )
        assert disk.read_block(2) == {2: 2.0}

    def test_injected_write_error(self):
        disk = make_disk(None)
        disk.plan = FaultPlan(seed=0, write_error_rate=1.0)
        with pytest.raises(InjectedWriteError):
            disk.write_block(9, {9: 9.0})
        assert not disk.has_block(9)

    def test_injecting_flag_disables_the_plan(self):
        disk = make_disk(FaultPlan(seed=0, read_error_rate=1.0))
        disk.injecting = False
        assert disk.read_block(1) == {1: 1.0}
        disk.injecting = True
        with pytest.raises(InjectedReadError):
            disk.read_block(1)

    def test_injected_faults_are_oserrors(self):
        # Retry machinery and production-style handlers both catch
        # OSError; the library hierarchy catches StorageError.
        assert issubclass(InjectedFault, OSError)
        assert issubclass(InjectedFault, StorageError)

    def test_latency_spikes_overlap_across_threads(self):
        # Regression: fault decisions and spike sleeps must happen
        # outside the device lock, or concurrent reads serialize.
        import threading
        import time

        spike = 0.02
        disk = make_disk(
            FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_s=spike)
        )
        n = 4
        threads = [
            threading.Thread(target=lambda: disk.read_block(0))
            for _ in range(n)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        # Serial spikes would cost n * spike; overlap must beat that by a
        # wide margin (generous bound for slow CI).
        assert elapsed < n * spike * 0.8

    def test_faulty_store_values_match_clean_store(self):
        # End-to-end determinism guard: with injection producing only
        # latency, the data read back is untouched.
        rng = np.random.default_rng(5)
        values = rng.normal(size=16)
        plan = FaultPlan(seed=1, latency_spike_rate=0.5, latency_spike_s=0.0)
        disk = faulty_device(plan, block_size=4)
        for b in range(4):
            disk.write_block(
                b, {4 * b + i: float(values[4 * b + i]) for i in range(4)}
            )
        for b in range(4):
            assert disk.read_block(b) == {
                4 * b + i: float(values[4 * b + i]) for i in range(4)
            }

class TestDeprecationShimAndLatency:
    def test_plan_spikes_live_in_one_latency_model(self):
        # Consolidation guard: spike rate/duration are owned by the
        # plan's LatencyModel, the same mechanism as the leaf seek time,
        # so delay budgets cannot be configured twice in contradiction.
        plan = FaultPlan(seed=4, latency_spike_rate=0.25,
                         latency_spike_s=0.001)
        assert plan.latency.spike_rate == 0.25
        assert plan.latency.spike_s == 0.001
        assert plan.latency.seed == plan.seed
