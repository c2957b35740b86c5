"""Sharded block device: the first scale-out axis of the storage engine.

:class:`ShardedDevice` stripes blocks across N inner
:class:`~repro.storage.device.BlockDevice` stacks by a deterministic
placement function — ``crc32(repr(block_id)) mod N`` — so the same
block id lands on the same shard in every process and every run, with
no placement table to persist (the rebalance-free determinism the
placement tests pin down).

Multi-block reads fan out across the shards touched via a small
transient worker pool, so with per-device latency the wall-clock cost
of a scan approaches ``blocks / shards`` device waits instead of
``blocks`` (the effect ``benchmarks/bench_p3_sharding.py`` measures).
Writes and single reads route directly to the owning shard.

Degradation is per-shard by construction: each shard's sub-stack
carries its own fault plan and circuit breaker
(:class:`~repro.storage.device.StorageSpec` clones the templates), so
one failed shard trips only its own breaker and queries over surviving
shards still answer — surfaced through the query layer's
``QueryOutcome`` degradation path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Hashable, Iterable

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.storage.disk import IOStats
from repro.storage.placement import place
from repro.storage.scheduler import coalesce_by_shard

__all__ = ["ShardedDevice"]


class ShardedDevice:  # lint: ignore[obs-coverage] — pure fan-out; StorageSpec wraps it in a storage.device MeteredDevice
    """N inner block devices behind one :class:`BlockDevice` surface.

    Args:
        devices: The inner devices (typically per-shard middleware
            stacks built by :class:`~repro.storage.device.StorageSpec`),
            in shard order.
        fanout_workers: Worker-pool width for multi-block reads
            (default ``min(n_shards, 8)``); ``1`` forces sequential
            fan-out.
    """

    def __init__(self, devices, fanout_workers: int | None = None) -> None:
        self.devices = list(devices)
        if not self.devices:
            raise StorageError("a sharded device needs at least one shard")
        sizes = {d.block_size for d in self.devices}
        if len(sizes) != 1:
            raise StorageError(
                f"shards disagree on block size: {sorted(sizes)}"
            )
        self.n_shards = len(self.devices)
        if fanout_workers is not None and fanout_workers < 1:
            raise StorageError(
                f"fanout_workers must be >= 1, got {fanout_workers}"
            )
        self.fanout_workers = (
            fanout_workers
            if fanout_workers is not None
            else min(self.n_shards, 8)
        )
        # Persistent fan-out pool, created on the first concurrent
        # read_many and reused for the device's lifetime — the previous
        # per-call transient pool paid thread startup/teardown on the
        # hottest I/O path.
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = watched_lock("storage.shard_fanout")

    @property
    def block_size(self) -> int:
        """Item capacity of one block (uniform across shards)."""
        return self.devices[0].block_size

    def shard_of(self, block_id: Hashable) -> int:
        """Shard index owning a block id (deterministic across runs)."""
        return place(block_id, self.n_shards)

    def _device_for(self, block_id: Hashable):
        return self.devices[self.shard_of(block_id)]

    def read_block(self, block_id: Hashable):
        """Fetch one block from its owning shard."""
        return self._device_for(block_id).read_block(block_id)

    def read_block_shared(self, block_id: Hashable):
        """Shared (no-copy) fetch from the owning shard."""
        return self._device_for(block_id).read_block_shared(block_id)

    def _fanout_pool(self) -> ThreadPoolExecutor:
        """The persistent fan-out pool (created on first concurrent use)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.fanout_workers,
                    thread_name_prefix="shard-read",
                )
            return self._pool

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Fetch several blocks, fanning out across the shards touched.

        Blocks are coalesced into one ``read_many`` per owning shard
        (:func:`~repro.storage.scheduler.coalesce_by_shard`); when more
        than one shard (and more than one worker) is involved, each
        shard group runs on the device's persistent worker pool so
        per-device latency overlaps.  Failures propagate only after
        every group has settled — surviving shards' work is never
        discarded mid-flight — and when several shard groups fail, the
        first exception is raised with every further failure attached
        as a ``__notes__`` entry, so a multi-shard outage is never
        silently reported as a single-shard one.
        """
        groups = coalesce_by_shard(block_ids, self.shard_of)
        if not groups:
            return {}
        out: dict = {}
        if len(groups) == 1 or self.fanout_workers == 1:
            for shard, ids in groups:
                out.update(self.devices[shard].read_many(ids))
            return out
        pool = self._fanout_pool()
        futures = [
            (shard, pool.submit(self.devices[shard].read_many, ids))
            for shard, ids in groups
        ]
        errors: list[tuple[int, Exception]] = []
        for shard, future in futures:
            try:
                out.update(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append((shard, exc))
        if errors:
            _, first = errors[0]
            for shard, exc in errors[1:]:
                first.add_note(
                    f"shard {shard} also failed: {type(exc).__name__}: {exc}"
                )
            raise first
        return out

    def close(self) -> None:
        """Shut down the persistent fan-out pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:
        # Best-effort: __init__ may have raised before the pool existed.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            # __del__ only runs once the object is unreachable, so no
            # concurrent writer exists; taking _pool_lock here could
            # deadlock a GC pass firing while the lock is held.
            self._pool = None  # lint: ignore[deep-lockset-race] -- unreachable in __del__
            pool.shutdown(wait=False)

    def write_block(self, block_id: Hashable, items) -> None:
        """Store one block on its owning shard."""
        self._device_for(block_id).write_block(block_id, items)

    def write_many(self, blocks: dict) -> None:
        """Store several blocks, fanning out across the shards touched.

        The write-side twin of :meth:`read_many`: the group is coalesced
        into one ``write_many`` per owning shard
        (:func:`~repro.storage.scheduler.coalesce_by_shard`), and when
        more than one shard (and more than one worker) is involved the
        shard groups run on the same persistent fan-out pool reads use,
        so per-device write latency overlaps.  Failures propagate only
        after every group has settled — surviving shards' commits are
        never abandoned mid-flight — and multiple shard failures are
        reported as the first exception with the rest attached as
        ``__notes__`` entries, exactly like the read path.
        """
        groups = coalesce_by_shard(blocks, self.shard_of)
        if not groups:
            return
        if len(groups) == 1 or self.fanout_workers == 1:
            for shard, ids in groups:
                self.devices[shard].write_many(
                    {b: blocks[b] for b in ids}
                )
            return
        pool = self._fanout_pool()
        futures = [
            (shard, pool.submit(
                self.devices[shard].write_many, {b: blocks[b] for b in ids}
            ))
            for shard, ids in groups
        ]
        errors: list[tuple[int, Exception]] = []
        for shard, future in futures:
            try:
                future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append((shard, exc))
        if errors:
            _, first = errors[0]
            for shard, exc in errors[1:]:
                first.add_note(
                    f"shard {shard} also failed: {type(exc).__name__}: {exc}"
                )
            raise first

    def has_block(self, block_id: Hashable) -> bool:
        """Existence check on the owning shard."""
        return self._device_for(block_id).has_block(block_id)

    def block_ids(self) -> list:
        """All allocated block ids, shard by shard."""
        out: list = []
        for device in self.devices:
            out.extend(device.block_ids())
        return out

    def n_blocks(self) -> int:
        """Total allocated blocks across all shards."""
        return sum(device.n_blocks() for device in self.devices)

    def occupancy(self) -> float:
        """Block-count-weighted mean occupancy across shards."""
        weighted = 0.0
        total = 0
        for device in self.devices:
            n = device.n_blocks()
            weighted += device.occupancy() * n
            total += n
        return weighted / total if total else 0.0

    def io_totals(self) -> IOStats:
        """Summed leaf I/O counters across all shards (copy)."""
        totals = IOStats()
        for device in self.devices:
            shard_io = device.io_totals()
            totals.reads += shard_io.reads
            totals.writes += shard_io.writes
        return totals

    def stats(self) -> dict:
        """Aggregate view plus every shard's nested layer statistics."""
        return {
            "layer": "sharded",
            "shards": self.n_shards,
            "placement": "crc32(repr(id)) % shards",
            "fanout_workers": self.fanout_workers,
            "blocks": self.n_blocks(),
            "io": {
                "reads": self.io_totals().reads,
                "writes": self.io_totals().writes,
            },
            "per_shard": [device.stats() for device in self.devices],
        }

    def __len__(self) -> int:
        return self.n_blocks()
