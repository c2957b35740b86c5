"""Wavelet block stores: the bridge between allocation and queries.

A block store owns a block *device stack*, an allocation, and serves
the one request the query engine makes: "give me these coefficients,
and tell me what it cost".  Two variants:

* :class:`WaveletBlockStore` — 1-D flat-layout coefficient vectors;
* :class:`TensorBlockStore` — multivariate coefficient cubes on
  Cartesian-product blocks.

Storage configuration is declarative: both stores take a
:class:`~repro.storage.device.StorageSpec` (shards, cache, CRC
framing, fault injection, retry/breaker resilience, simulated latency)
and build the canonical validated middleware stack from it — caching,
corruption detection, retries and fault injection are all the *device's*
layers, not special cases inside the store.  The spec is the only way
to configure a store's storage; omitting it builds a plain uncached
device.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import StorageError
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.storage.allocation import Allocation, TensorAllocation
from repro.storage.device import StorageSpec
from repro.storage.disk import IOStats

__all__ = ["WaveletBlockStore", "TensorBlockStore"]


class _StoreBase:
    """Device-stack plumbing shared by both block stores."""

    def _init_storage(
        self, spec: StorageSpec | None, block_size: int
    ) -> None:
        spec = StorageSpec() if spec is None else spec
        self.spec = spec
        self._built = spec.build(block_size)
        self.device = self._built.device
        #: The breaker template from the spec (unsharded stacks use it
        #: directly); per-shard breakers live in :attr:`breakers`.
        self.breaker = spec.breaker
        self.breakers = self._built.breakers

    def _populate(self, blocks: dict) -> None:
        # Initial population models in-memory construction, not live
        # traffic: injection starts only once the store is serving.
        self._built.set_injecting(False)
        try:
            for block_id, items in blocks.items():
                self.device.write_block(block_id, items)
        finally:
            self._built.set_injecting(True)

    @property
    def caches(self) -> list:
        """Caching layers across all shards, in shard order (empty when
        the spec disables caching) — benchmarks clear these between runs
        and difference their :class:`~repro.storage.device.PoolStats`."""
        layers = (stack.layer("caching") for stack in self._built.stacks)
        return [layer for layer in layers if layer is not None]

    def shard_of(self, block_id) -> int:
        """Shard index a block id is placed on (0 when unsharded) —
        the key the scan coordinator's single-flight map uses."""
        return self._built.shard_of(block_id)

    def set_injecting(self, flag: bool) -> None:
        """Toggle fault injection on every shard's faulty layer (chaos
        drills heal storage this way; no-op without a fault plan)."""
        self._built.set_injecting(flag)

    def storage_stats(self) -> dict:
        """Nested per-layer statistics of the whole device stack."""
        return self.device.stats()

    def io_snapshot(self) -> IOStats:
        """Current leaf I/O counters (copy, summed across shards) for
        before/after differencing."""
        return self.device.io_totals()

    def io_since(self, before: IOStats) -> IOStats:
        """Leaf I/O performed since ``before`` was snapshotted."""
        return self.device.io_totals().delta(before)

    def fetch_blocks(self, block_ids: list) -> dict:
        """Bulk block fetch: one coalesced device read for many blocks.

        The batch evaluator's I/O entry point — the whole batch's block
        set goes down as a single ``read_many``, which the sharded
        device splits into one read per shard group
        (:func:`~repro.storage.scheduler.coalesce_by_shard`) on its
        persistent fan-out pool.

        Args:
            block_ids: Blocks to read (deduplicated by the caller).

        Returns:
            Mapping from block id to block payload.
        """
        with span("storage.fetch_blocks"):
            ids = list(block_ids)
            obs_histogram(
                "storage.blocks_per_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(ids))
            if not ids:
                return {}
            return self.device.read_many(ids)

    def store_blocks(self, payloads: dict) -> None:
        """Group-commit block write: one coalesced device write for many
        blocks.

        The batch inserter's I/O exit point and the write-side twin of
        :meth:`fetch_blocks` — a whole batch's dirty blocks go down as a
        single ``write_many``, which the sharded device splits into one
        write per shard group on its persistent fan-out pool, with cache
        invalidation and CRC framing applied per member by the
        middleware stack.

        Args:
            payloads: Mapping from block id to the full replacement
                payload dictionary for that block.
        """
        with span("storage.store_blocks"):
            obs_histogram(
                "storage.blocks_per_write_batch", DEFAULT_COUNT_BUCKETS
            ).observe(len(payloads))
            if not payloads:
                return
            self.device.write_many(payloads)

    def close(self) -> None:
        """Release storage resources (fan-out pools); idempotent."""
        self._built.close()


class WaveletBlockStore(_StoreBase):
    """1-D wavelet coefficients on a device stack, under an allocation."""

    def __init__(
        self,
        flat: np.ndarray,
        allocation: Allocation,
        *,
        storage: StorageSpec | None = None,
    ) -> None:
        values = np.asarray(flat, dtype=float)
        if values.size != allocation.n:
            raise StorageError(
                f"coefficient count {values.size} != allocation size "
                f"{allocation.n}"
            )
        self.allocation = allocation
        self._init_storage(storage, allocation.block_size)
        self._populate(allocation.build_blocks(values))
        self._norm = float(np.linalg.norm(values))

    @property
    def n(self) -> int:
        """Number of stored coefficients."""
        return self.allocation.n

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored vector — recorded at population time and
        used by the progressive evaluator's Cauchy–Schwarz error bound."""
        return self._norm

    def fetch(self, indices: list[int] | set[int]) -> dict[int, float]:
        """Fetch the requested coefficients, reading whole blocks.

        Multi-block reads go through the device's bulk path, so a
        sharded stack fans them out across shards concurrently.
        """
        with span("storage.fetch"):
            needed = sorted(self.allocation.blocks_for(indices))
            obs_histogram(
                "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
            ).observe(len(needed))
            blocks = self.device.read_many(needed)
            out: dict[int, float] = {}
            for block_id in needed:
                out.update(blocks[block_id])
            missing = [i for i in indices if i not in out]
            if missing:
                raise StorageError(
                    f"coefficients missing from blocks: {missing[:5]}"
                )
            return {int(i): out[int(i)] for i in indices}

    def fetch_block(self, block_id: int) -> dict[int, float]:
        """Fetch one whole block (progressive evaluation reads block-wise)."""
        return self.device.read_block(block_id)

    def update(self, index: int, value: float) -> None:
        """Overwrite one coefficient (read-modify-write of its block).

        Cache coherence is automatic: the write enters through the
        stack, so the caching layer invalidates its copy itself.
        """
        if not 0 <= index < self.n:
            raise StorageError(f"coefficient index {index} out of range")
        block_id = int(self.allocation.block_of[index])
        block = self.device.read_block(block_id)
        old = block[index]
        block[index] = float(value)
        self.device.write_block(block_id, block)
        self._norm = float(
            np.sqrt(max(0.0, self._norm**2 - old**2 + float(value) ** 2))
        )


class TensorBlockStore(_StoreBase):
    """Multivariate coefficient cube on Cartesian-product blocks."""

    def __init__(
        self,
        coeffs: np.ndarray,
        allocation: TensorAllocation,
        *,
        storage: StorageSpec | None = None,
    ) -> None:
        cube = np.asarray(coeffs, dtype=float)
        if cube.shape != allocation.shape:
            raise StorageError(
                f"cube shape {cube.shape} != allocation shape "
                f"{allocation.shape}"
            )
        self.allocation = allocation
        self._init_storage(storage, allocation.block_capacity)
        self._populate(allocation.build_blocks(cube))
        self._norm = float(np.linalg.norm(cube.ravel()))

    @property
    def shape(self) -> tuple[int, ...]:
        """Stored coefficient cube shape."""
        return self.allocation.shape

    @property
    def data_norm(self) -> float:
        """L2 norm of the stored cube (for progressive error bounds)."""
        return self._norm

    def fetch(
        self, indices: list[tuple[int, ...]]
    ) -> dict[tuple[int, ...], float]:
        """Fetch the requested multivariate coefficients block-wise,
        fanning out across shards through the device's bulk path."""
        with span("storage.fetch"):
            needed = sorted({self.allocation.block_of(i) for i in indices})
            obs_histogram(
                "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
            ).observe(len(needed))
            blocks = self.device.read_many(needed)
            cache: dict[tuple[int, ...], float] = {}
            for block_id in needed:
                cache.update(blocks[block_id])
            try:
                return {tuple(i): cache[tuple(i)] for i in indices}
            except KeyError as exc:
                raise StorageError(
                    f"coefficient {exc} missing from blocks"
                ) from exc

    def blocks_for(
        self, indices: list[tuple[int, ...]]
    ) -> set[tuple[int, ...]]:
        """Blocks a set of coefficients lives on (planning, no I/O)."""
        return {self.allocation.block_of(i) for i in indices}

    def fetch_block(
        self, block_id: tuple[int, ...]
    ) -> dict[tuple[int, ...], float]:
        """Fetch one whole product block."""
        return self.device.read_block(block_id)

    def update_block(
        self, block_id: tuple[int, ...], items: dict[tuple[int, ...], float]
    ) -> None:
        """Overwrite one block (append path).

        Cache coherence is automatic: the write enters through the
        stack, so the caching layer invalidates its copy itself.
        """
        self.device.write_block(block_id, items)
