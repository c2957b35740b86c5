"""Regression tests: storage-cache coherence and copy semantics.

Two bugs fixed in the observability PR live here so they cannot return,
re-expressed against the layered device stack:

* stale reads — a write used to be able to bypass the cache and leave
  it serving the old payload; now every write enters through
  :class:`~repro.storage.device.CachingDevice`, whose write-through
  invalidation is an internal invariant (the weak-ref side channel on
  the disk is gone);
* cache-state leaks — the cache must hand out copies, so mutating a
  returned block can never corrupt the cached (or on-device) payload,
  while a cached read costs exactly one copy.
"""

import numpy as np

from repro.storage.allocation import subtree_tiling_allocation
from repro.storage.blockstore import WaveletBlockStore
from repro.storage.device import CachingDevice, StorageSpec
from repro.storage.disk import SimulatedDisk


def build_cached(block_size=4, capacity=2):
    """One cache over one disk — the minimal coherent stack."""
    disk = SimulatedDisk(block_size=block_size)
    return disk, CachingDevice(disk, capacity=capacity)


class TestWriteThroughInvalidation:
    def test_write_through_stack_invalidates_cached_block(self):
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0, 1: 2.0})
        assert cache.read_block(0) == {0: 1.0, 1: 2.0}
        # The write enters through the stack, so the cache invalidates
        # its own copy — no side channel, no opt-in hook.
        cache.write_block(0, {0: 9.0, 1: 2.0})
        assert cache.read_block(0) == {0: 9.0, 1: 2.0}
        assert disk.read_block(0) == {0: 9.0, 1: 2.0}
        assert cache.pool_stats.invalidations == 1

    def test_untouched_blocks_stay_cached(self):
        disk, cache = build_cached(block_size=2, capacity=4)
        cache.write_block(0, {0: 1.0})
        cache.write_block(1, {1: 5.0})
        cache.read_block(0)
        cache.read_block(1)
        cache.write_block(0, {0: 2.0})
        before = cache.pool_stats.snapshot()
        assert cache.read_block(1) == {1: 5.0}
        assert cache.pool_stats.delta(before).hits == 1  # still served hot

    def test_store_update_through_cache_is_coherent(self):
        flat = np.arange(16, dtype=float)
        store = WaveletBlockStore(
            flat, subtree_tiling_allocation(16, 3),
            storage=StorageSpec(cache_blocks=8),
        )
        # Warm the cache over every block, then update one coefficient.
        store.fetch(list(range(16)))
        store.update(5, 123.0)
        assert store.fetch([5])[5] == 123.0

    def test_manual_invalidate_still_available(self):
        disk, cache = build_cached(block_size=2)
        cache.write_block(0, {0: 1.0})
        cache.read_block(0)
        cache.invalidate(0)
        before = cache.pool_stats.snapshot()
        cache.read_block(0)
        assert cache.pool_stats.delta(before).misses == 1

    def test_disk_has_no_invalidation_side_channel(self):
        # The old design registered caches on the disk through a weak-ref
        # set; the leaf device must know nothing about caches now.
        disk = SimulatedDisk(block_size=2)
        assert not hasattr(disk, "attach_cache")
        assert not hasattr(disk, "_caches")


class TestReturnedBlockOwnership:
    def test_mutating_miss_result_does_not_corrupt_cache(self):
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0, 1: 2.0})
        returned = cache.read_block(0)  # miss
        returned[0] = 666.0
        returned[7] = -1.0
        assert cache.read_block(0) == {0: 1.0, 1: 2.0}

    def test_mutating_hit_result_does_not_corrupt_cache(self):
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0})
        cache.read_block(0)
        hit = cache.read_block(0)
        hit[0] = 666.0
        assert cache.read_block(0) == {0: 1.0}

    def test_mutating_cache_result_does_not_corrupt_device(self):
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0})
        cache.read_block(0)[0] = 666.0
        cache.clear()
        assert disk.read_block(0) == {0: 1.0}

    def test_miss_serves_device_payload_without_extra_copy(self):
        # Single-copy reads: the cache entry is the device payload itself
        # (one shared, never-mutated instance); only the caller's copy is
        # fresh.
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0})
        returned = cache.read_block(0)
        assert returned == {0: 1.0}
        assert cache._cache[0] is disk._blocks[0]
        assert returned is not cache._cache[0]

    def test_hit_serves_the_same_shared_instance(self):
        # Single-copy reads on the hit path too: a shared read returns
        # the cached instance itself, with no per-hit copying.
        disk, cache = build_cached()
        cache.write_block(0, {0: 1.0})
        first = cache.read_block_shared(0)
        second = cache.read_block_shared(0)
        assert first is second
        assert cache.pool_stats.hits == 1

    def test_shared_read_counts_io(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        before = disk.io.snapshot()
        shared = disk.read_block_shared(0)
        assert shared == {0: 1.0}
        assert disk.io.delta(before).reads == 1
