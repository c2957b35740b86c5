"""A simulated block device: the leaf layer of every device stack.

The storage claims of §3.2 are all statements about *which coefficients
share a disk block* and *how many blocks a query touches* — never about
a specific device.  This simulator therefore models exactly that:
fixed-size blocks addressed by id, with :class:`IOStats` counters every
experiment reads its I/O costs from.

Since the device-stack refactor this class is deliberately dumb: no
cache hooks (coherence lives in
:class:`~repro.storage.device.CachingDevice`), no metrics registry calls
(a :class:`~repro.storage.device.MeteredDevice` directly above the leaf
emits ``storage.disk.*``), no fault logic (middleware), and payloads are
opaque — dictionaries are capacity-checked and defensively copied, while
byte frames (from a CRC layer above) are stored as-is.

Thread safety: the block directory and :class:`IOStats` counters are
guarded by one device lock; the simulated latency sleep happens after
the lock is released, so concurrent reads overlap their seek time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs.stats import StatsBase
from repro.storage.latency import LatencyModel

__all__ = ["IOStats", "SimulatedDisk"]


@dataclass
class IOStats(StatsBase):
    """Counters for one device (or one measurement interval).

    ``reset``/``snapshot``/``delta`` come from the shared
    :class:`repro.obs.stats.StatsBase` protocol, so device I/O differs
    the same way every other stats bundle does.
    """

    reads: int = 0
    writes: int = 0


@dataclass
class SimulatedDisk:  # lint: ignore[obs-coverage] — deliberately dumb leaf; storage.disk.* metering is the MeteredDevice directly above
    """Leaf block device: block id -> payload.

    Payloads are either dictionaries from item key (e.g. flat
    coefficient index) to value — ``block_size`` bounds how many items
    one block may carry, mirroring a real device's fixed block capacity
    — or opaque byte frames written by a CRC layer above (stored
    untouched; capacity is then that layer's business).  ``latency``
    is an optional :class:`~repro.storage.latency.LatencyModel` whose
    per-read delay (base seek time plus seeded spikes) is slept outside
    the device lock.
    """

    block_size: int
    latency: LatencyModel | None = None
    _blocks: dict[Hashable, object] = field(default_factory=dict)
    io: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise StorageError(
                f"block size must be positive, got {self.block_size}"
            )
        # Guards the block directory and the IOStats counters; never
        # held while sleeping simulated latency.
        self._lock = watched_lock("storage.disk")

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def write_block(self, block_id: Hashable, items) -> None:
        """Store (or overwrite) one block.

        A dictionary payload is capacity-checked and stored as a fresh
        copy that is never mutated in place afterwards (subsequent
        writes replace it), so readers that already hold the previous
        payload keep a consistent pre-write snapshot.  Non-dict payloads
        (encoded byte frames) are stored as-is — bytes are immutable.
        """
        if isinstance(items, dict):
            if len(items) > self.block_size:
                raise StorageError(
                    f"block {block_id!r}: {len(items)} items exceed "
                    f"block size {self.block_size}"
                )
            payload: object = dict(items)
        else:
            payload = items
        with self._lock:
            self._blocks[block_id] = payload
            self.io.writes += 1

    def _fetch(self, block_id: Hashable):
        with self._lock:
            try:
                block = self._blocks[block_id]
            except KeyError:
                raise StorageError(f"no such block {block_id!r}") from None
            self.io.reads += 1
        if self.latency is not None:
            self.latency.sleep()
        return block

    def read_block(self, block_id: Hashable):
        """Fetch one block, counting the I/O.  The caller owns the
        returned payload (dictionaries are copied; bytes are immutable)."""
        block = self._fetch(block_id)
        return dict(block) if isinstance(block, dict) else block

    def read_block_shared(self, block_id: Hashable):
        """Fetch one block without copying, counting the I/O.

        Returns the device's internal payload, which MUST be treated as
        immutable: the device never mutates stored payloads in place
        (:meth:`write_block` replaces them), so sharing is safe for
        readers that also never mutate — the caching layer uses this to
        avoid one copy per miss.
        """
        return self._fetch(block_id)

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Fetch several blocks; returns ``{block_id: payload}``."""
        return {b: self.read_block(b) for b in block_ids}

    def write_many(self, blocks: dict) -> None:
        """Store several blocks; ``blocks`` maps block id to payload.

        Each member is written (and counted in :class:`IOStats`) exactly
        like a :meth:`write_block` call, in group order.
        """
        for block_id, items in blocks.items():
            self.write_block(block_id, items)

    def has_block(self, block_id: Hashable) -> bool:
        """Existence check (no I/O charged — directory metadata)."""
        with self._lock:
            return block_id in self._blocks

    def block_ids(self) -> list[Hashable]:
        """All allocated block ids (no I/O charged)."""
        with self._lock:
            return list(self._blocks)

    def n_blocks(self) -> int:
        """Number of allocated blocks."""
        return len(self)

    def occupancy(self) -> float:
        """Mean fraction of block item-capacity in use.

        Counts dictionary payloads only; opaque byte frames are scored
        by the CRC layer that knows their item counts.
        """
        with self._lock:
            counted = [
                len(b) for b in self._blocks.values() if isinstance(b, dict)
            ]
            if not counted:
                return 0.0
            return sum(counted) / (len(counted) * self.block_size)

    def io_totals(self) -> IOStats:
        """Cumulative I/O counters (copy) for before/after differencing."""
        with self._lock:
            return self.io.snapshot()

    def stats(self) -> dict:
        """Leaf-device statistics (innermost entry of a stack report)."""
        with self._lock:
            return {
                "layer": "disk",
                "block_size": self.block_size,
                "blocks": len(self._blocks),
                "reads": self.io.reads,
                "writes": self.io.writes,
            }
