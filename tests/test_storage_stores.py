"""Tests for disk, caching device, block stores, BLOB store and scheduler."""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.storage.allocation import (
    TensorAllocation,
    sequential_allocation,
    subtree_tiling_allocation,
)
from repro.storage.blobstore import BlobStore
from repro.storage.blockstore import TensorBlockStore, WaveletBlockStore
from repro.storage.device import CachingDevice, StorageSpec
from repro.storage.disk import SimulatedDisk
from repro.storage.scheduler import plan_blocks
from repro.wavelets.errortree import leaf_path


RNG = np.random.default_rng(41)


class TestSimulatedDisk:
    def test_write_read_roundtrip(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {1: 1.5, 2: -0.5})
        assert disk.read_block(0) == {1: 1.5, 2: -0.5}
        assert disk.io.reads == 1
        assert disk.io.writes == 1

    def test_reads_counted(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block("a", {0: 0.0})
        for _ in range(5):
            disk.read_block("a")
        assert disk.io.reads == 5

    def test_overfull_block_rejected(self):
        disk = SimulatedDisk(block_size=2)
        with pytest.raises(StorageError):
            disk.write_block(0, {i: 0.0 for i in range(3)})

    def test_missing_block(self):
        with pytest.raises(StorageError):
            SimulatedDisk(block_size=2).read_block(9)

    def test_stats_delta(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        before = disk.io.snapshot()
        disk.read_block(0)
        disk.read_block(0)
        delta = disk.io.delta(before)
        assert delta.reads == 2 and delta.writes == 0

    def test_occupancy(self):
        disk = SimulatedDisk(block_size=4)
        assert disk.occupancy() == 0.0
        disk.write_block(0, {0: 1.0, 1: 2.0})
        assert disk.occupancy() == pytest.approx(0.5)

    def test_returns_copies(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        block = disk.read_block(0)
        block[0] = 99.0
        assert disk.read_block(0)[0] == 1.0


class TestCachingDevice:
    def test_hits_avoid_device_reads(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        pool = CachingDevice(disk, capacity=2)
        pool.read_block(0)
        pool.read_block(0)
        assert disk.io.reads == 1
        assert pool.pool_stats.hits == 1
        assert pool.pool_stats.misses == 1

    def test_lru_eviction(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(3):
            disk.write_block(b, {b: float(b)})
        pool = CachingDevice(disk, capacity=2)
        pool.read_block(0)
        pool.read_block(1)
        pool.read_block(2)  # evicts 0
        pool.read_block(0)  # miss again
        assert pool.pool_stats.misses == 4

    def test_lru_recency_updates(self):
        disk = SimulatedDisk(block_size=4)
        for b in range(3):
            disk.write_block(b, {b: float(b)})
        pool = CachingDevice(disk, capacity=2)
        pool.read_block(0)
        pool.read_block(1)
        pool.read_block(0)  # 0 now most recent
        pool.read_block(2)  # evicts 1
        pool.read_block(0)  # hit
        assert pool.pool_stats.hits == 2

    def test_invalidate(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        pool = CachingDevice(disk, capacity=2)
        pool.read_block(0)
        disk.write_block(0, {0: 2.0})
        pool.invalidate(0)
        assert pool.read_block(0)[0] == 2.0

    def test_hit_rate(self):
        disk = SimulatedDisk(block_size=4)
        disk.write_block(0, {0: 1.0})
        pool = CachingDevice(disk, capacity=1)
        assert pool.pool_stats.hit_rate == 0.0
        pool.read_block(0)
        pool.read_block(0)
        assert pool.pool_stats.hit_rate == 0.5

    def test_capacity_validated(self):
        with pytest.raises(StorageError):
            CachingDevice(SimulatedDisk(block_size=2), capacity=0)


class TestWaveletBlockStore:
    def _store(self, n=64, block=7, pool=None):
        flat = RNG.normal(size=n)
        alloc = subtree_tiling_allocation(n, block)
        return flat, WaveletBlockStore(
            flat, alloc, storage=StorageSpec(cache_blocks=pool)
        )

    def test_fetch_returns_exact_values(self):
        flat, store = self._store()
        indices = [0, 5, 17, 63]
        got = store.fetch(indices)
        for i in indices:
            assert got[i] == pytest.approx(flat[i])

    def test_fetch_counts_block_reads(self):
        flat, store = self._store(n=2**10, block=7)
        before = store.io_snapshot()
        path = leaf_path(123, 2**10)
        store.fetch(path)
        reads = store.io_since(before).reads
        assert reads == len(store.allocation.blocks_for(path))
        assert reads <= 5  # the tiling bound for J=10, h=3

    def test_pool_amortizes_repeated_queries(self):
        flat, store = self._store(n=256, block=7, pool=64)
        path = leaf_path(9, 256)
        store.fetch(path)
        before = store.io_snapshot()
        store.fetch(path)
        assert store.io_since(before).reads == 0

    def test_update_changes_value_and_norm(self):
        flat, store = self._store()
        old_norm = store.data_norm
        store.update(10, flat[10] + 5.0)
        got = store.fetch([10])
        assert got[10] == pytest.approx(flat[10] + 5.0)
        expected = np.linalg.norm(
            np.concatenate([flat[:10], [flat[10] + 5.0], flat[11:]])
        )
        assert store.data_norm == pytest.approx(float(expected))
        assert store.data_norm != pytest.approx(old_norm)

    def test_update_bounds_checked(self):
        __, store = self._store()
        with pytest.raises(StorageError):
            store.update(64, 0.0)

    def test_length_mismatch_rejected(self):
        alloc = sequential_allocation(16, 4)
        with pytest.raises(StorageError):
            WaveletBlockStore(np.zeros(8), alloc)

    def test_data_norm(self):
        flat, store = self._store()
        assert store.data_norm == pytest.approx(float(np.linalg.norm(flat)))


class TestTensorBlockStore:
    def _store(self):
        cube = RNG.normal(size=(16, 16))
        alloc = TensorAllocation(
            axes=(
                subtree_tiling_allocation(16, 3),
                subtree_tiling_allocation(16, 3),
            )
        )
        return cube, TensorBlockStore(cube, alloc)

    def test_fetch_values(self):
        cube, store = self._store()
        got = store.fetch([(0, 0), (3, 7), (15, 15)])
        assert got[(3, 7)] == pytest.approx(cube[3, 7])

    def test_io_counting(self):
        cube, store = self._store()
        before = store.io_snapshot()
        indices = [(0, 0), (0, 1), (15, 15)]
        store.fetch(indices)
        assert store.io_since(before).reads == len(store.blocks_for(indices))

    def test_shape_mismatch_rejected(self):
        alloc = TensorAllocation(axes=(subtree_tiling_allocation(16, 3),))
        with pytest.raises(StorageError):
            TensorBlockStore(np.zeros((8,)), alloc)

    def test_norm(self):
        cube, store = self._store()
        assert store.data_norm == pytest.approx(float(np.linalg.norm(cube)))


class TestBlobStore:
    def test_put_get_roundtrip(self):
        store = BlobStore()
        ref = store.put("band0", b"\x01\x02\x03")
        assert store.get(ref) == b"\x01\x02\x03"
        assert ref.n_bytes == 3

    def test_array_roundtrip(self):
        store = BlobStore()
        arr = RNG.normal(size=32)
        ref = store.put_array("coeffs", arr)
        np.testing.assert_allclose(store.get_array(ref), arr)

    def test_location_ids_unique(self):
        store = BlobStore()
        refs = [store.put(f"b{i}", b"x") for i in range(5)]
        assert len({r.location_id for r in refs}) == 5

    def test_delete(self):
        store = BlobStore()
        ref = store.put("gone", b"data")
        store.delete(ref)
        with pytest.raises(StorageError):
            store.get(ref)
        with pytest.raises(StorageError):
            store.delete(ref)

    def test_catalog_and_totals(self):
        store = BlobStore()
        store.put("a", b"12")
        store.put("b", b"3456")
        assert len(store) == 2
        assert store.total_bytes == 6
        names = [r.name for r in store.catalog()]
        assert names == ["a", "b"]

    def test_non_bytes_rejected(self):
        with pytest.raises(StorageError):
            BlobStore().put("bad", [1, 2, 3])


class TestScheduler:
    def test_blocks_ordered_by_importance(self):
        alloc = sequential_allocation(16, 4)
        entries = {0: 10.0, 1: 0.1, 8: 3.0, 15: -20.0}
        plans = plan_blocks(entries, lambda i: int(alloc.block_of[i]))
        scores = [p.importance for p in plans]
        assert scores == sorted(scores, reverse=True)
        # Block of coefficient 15 carries the biggest energy.
        assert plans[0].block_id == int(alloc.block_of[15])

    def test_entries_grouped_per_block(self):
        alloc = sequential_allocation(16, 4)
        entries = {0: 1.0, 1: 2.0, 2: 3.0}
        plans = plan_blocks(entries, lambda i: int(alloc.block_of[i]))
        assert len(plans) == 1
        assert plans[0].entries == entries

    def test_linf_importance(self):
        entries = {0: 3.0, 1: 3.0, 8: 4.0}  # block0 l2=18 > block2 l2=16
        plans_l2 = plan_blocks(entries, lambda i: i // 4, importance="l2")
        plans_linf = plan_blocks(entries, lambda i: i // 4, importance="linf")
        assert plans_l2[0].block_id == 0
        assert plans_linf[0].block_id == 2

    def test_unknown_importance(self):
        with pytest.raises(StorageError):
            plan_blocks({0: 1.0}, lambda i: 0, importance="psychic")

    def test_tuple_keys_supported(self):
        entries = {(0, 1): 2.0, (5, 5): -1.0}
        plans = plan_blocks(entries, lambda key: (key[0] // 4, key[1] // 4))
        assert len(plans) == 2
