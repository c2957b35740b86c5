"""Thread-safety of the storage layer: concurrent readers and writers
through ``SimulatedDisk`` and the ``CachingDevice`` middleware.

Three invariants under concurrency:

* **no lost stats updates** — every read/write/hit/miss is counted
  exactly once, so the counters are conserved across any interleaving;
* **no stale reads** — after a write completes, no subsequent read (from
  the cache or the device) may return the pre-write payload, even when a
  concurrent miss was in flight during the write;
* **no torn payloads** — readers always see some complete payload a
  writer stored, never a mixture of two writes.
"""

import threading

from repro.storage.device import CachingDevice
from repro.storage.disk import SimulatedDisk
from repro.storage.latency import LatencyModel


def run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestStatsConservation:
    def test_concurrent_reads_lose_no_device_counts(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(8):
            disk.write_block(b, {b: float(b)})
        per_thread, n_threads = 300, 8
        base = disk.io.snapshot()

        def reader():
            for i in range(per_thread):
                disk.read_block(i % 8)

        run_threads([reader] * n_threads)
        assert disk.io.delta(base).reads == per_thread * n_threads

    def test_concurrent_cache_traffic_conserves_hit_miss_counts(self):
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=4)  # small: constant evictions
        for b in range(16):
            cache.write_block(b, {b: float(b)})
        base_reads = disk.io.reads
        per_thread, n_threads = 300, 8

        def reader(seed):
            def run():
                for i in range(per_thread):
                    cache.read_block((i * (seed + 1) + seed) % 16)
            return run

        run_threads([reader(s) for s in range(n_threads)])
        stats = cache.pool_stats
        assert stats.hits + stats.misses == per_thread * n_threads
        # Every miss is a device read, and nothing else reads the device.
        assert disk.io.reads - base_reads == stats.misses

    def test_concurrent_writers_lose_no_write_counts(self):
        disk = SimulatedDisk(block_size=4)
        per_thread, n_threads = 200, 6

        def writer(seed):
            def run():
                for i in range(per_thread):
                    disk.write_block(
                        (seed, i % 10), {0: float(i), 1: float(seed)}
                    )
            return run

        run_threads([writer(s) for s in range(n_threads)])
        assert disk.io.writes == per_thread * n_threads
        assert len(disk) == n_threads * 10


class TestCoherenceUnderConcurrency:
    def test_no_stale_reads_with_concurrent_writes(self):
        # A writer bumps a monotonically increasing version through the
        # stack; readers go through the cache.  A read that returns
        # version v after a write of version w > v completed *before the
        # read started* would be a stale read.  Monotonicity per reader
        # is the checkable proxy: cached payloads may lag the in-flight
        # write, but they may never roll back past a version the same
        # reader already observed.
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        cache.write_block("hot", {0: 0.0})
        stop = threading.Event()
        errors = []

        def writer():
            for version in range(1, 400):
                cache.write_block("hot", {0: float(version)})
            stop.set()

        def reader():
            last = -1.0
            while not stop.is_set():
                seen = cache.read_block("hot")[0]
                if seen < last:
                    errors.append((last, seen))
                    return
                last = seen

        run_threads([writer] + [reader] * 4)
        assert errors == []
        # After the dust settles the cache must serve the final payload —
        # the in-flight-miss window may not have cached a stale one.
        assert cache.read_block("hot") == {0: 399.0}
        assert cache.read_block("hot") == {0: 399.0}  # now from cache

    def test_no_torn_payloads(self):
        # Writers store internally consistent payloads {0: v, 1: v};
        # readers must never observe {0: a, 1: b} with a != b.
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        cache.write_block("b", {0: 0.0, 1: 0.0})
        stop = threading.Event()
        torn = []

        def writer(offset):
            def run():
                for i in range(300):
                    v = float(i * 10 + offset)
                    cache.write_block("b", {0: v, 1: v})
            return run

        def reader():
            while not stop.is_set():
                payload = cache.read_block("b")
                if payload[0] != payload[1]:
                    torn.append(payload)
                    return

        writers = [writer(1), writer(2)]

        def all_writers():
            run_threads(writers)
            stop.set()

        run_threads([all_writers] + [reader] * 3)
        assert torn == []

    def test_mutating_a_concurrent_copy_never_leaks_into_cache(self):
        disk = SimulatedDisk(block_size=4)
        cache = CachingDevice(disk, capacity=2)
        cache.write_block(0, {0: 1.0})

        def clobber():
            for _ in range(200):
                copy = cache.read_block(0)
                copy[0] = -99.0  # caller-owned copy; must not leak

        run_threads([clobber] * 4)
        assert cache.read_block(0) == {0: 1.0}
        assert disk.read_block(0) == {0: 1.0}


class TestLockOrderUnderStress:
    def test_full_stack_hammering_creates_no_lock_order_cycles(self):
        # The watcher decides at lock-creation time, so it must be
        # enabled before the stack under test is built.
        from repro.faults.plan import FaultPlan
        from repro.lint import lockwatch
        from repro.storage.device import StorageSpec

        lockwatch.enable()
        lockwatch.reset()
        try:
            spec = StorageSpec(
                shards=2,
                cache_blocks=4,
                fault_plan=FaultPlan(seed=7, torn_rate=0.0),
            )
            device = spec.build(block_size=4).device
            for b in range(16):
                device.write_block(b, {b: float(b)})

            def worker(seed):
                def run():
                    for i in range(150):
                        key = (i * (seed + 1) + seed) % 16
                        if i % 5 == 0:
                            device.write_block(key, {key: float(i)})
                        else:
                            device.read_block(key)
                return run

            run_threads([worker(s) for s in range(6)])
            lockwatch.assert_clean()
        finally:
            lockwatch.disable()
            lockwatch.reset()


class TestSimulatedLatency:
    def test_latency_defaults_off_and_validates(self):
        import pytest

        from repro.core.errors import StorageError

        assert SimulatedDisk(block_size=2).latency is None
        with pytest.raises(TypeError):
            SimulatedDisk(block_size=2, latency_s=0.01)
        with pytest.raises(StorageError):
            LatencyModel(base_s=-0.1)

    def test_concurrent_reads_overlap_their_latency(self):
        import time

        disk = SimulatedDisk(block_size=2,
                             latency=LatencyModel(base_s=0.01))
        disk.write_block(0, {0: 1.0})
        n = 8
        start = time.perf_counter()
        run_threads([lambda: disk.read_block(0)] * n)
        elapsed = time.perf_counter() - start
        # Serial reads would cost n * 10 ms; overlapping reads must land
        # well under that (generous bound to stay robust on slow CI).
        assert elapsed < n * 0.01 * 0.8
