"""Ablation A4 — block caching and locality of reference.

§3.2.1's argument for packing dependent coefficients together is that
repeated query workloads re-touch the same blocks.  This ablation runs a
drill-down-style workload (overlapping ranges around a hot region) against
the same cube with and without a caching device layer, under both the
tiling and
random allocation — locality only pays when the allocation creates it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.rangesum import RangeSumQuery
from repro.sensors.atmosphere import atmospheric_cube
from repro.storage.allocation import (
    TensorAllocation,
    random_allocation,
    subtree_tiling_allocation,
)
from repro.storage.blockstore import TensorBlockStore
from repro.storage.device import StorageSpec
from repro.query.propolyne import translate_query
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.tensor import tensor_wavedec

from conftest import format_table


def build_store(coeffs, allocation_factory, pool):
    n1, n2 = coeffs.shape
    alloc = TensorAllocation(
        axes=(allocation_factory(n1, 7), allocation_factory(n2, 7))
    )
    return TensorBlockStore(
        coeffs, alloc, storage=StorageSpec(cache_blocks=pool)
    )


def run_workload(store, queries, shape, levels, filt):
    before = store.io_snapshot()
    for query in queries:
        entries = translate_query(query, shape, shape, levels, filt)
        store.fetch(list(entries))
    return store.io_since(before).reads


def run_ablation():
    cube = atmospheric_cube((64, 64), np.random.default_rng(41))
    filt = get_filter("db2")
    levels = (max_levels(64, filt), max_levels(64, filt))
    coeffs = tensor_wavedec(cube, filt, levels=levels)

    rng = np.random.default_rng(42)
    queries = []
    for _ in range(30):  # drill-downs clustered on one hot region
        lo1 = int(rng.integers(8, 16))
        lo2 = int(rng.integers(24, 32))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(8, 24))),
                 (lo2, lo2 + int(rng.integers(8, 24)))]
            )
        )

    rows = []
    reads = {}
    for alloc_name, factory in (
        ("tiling", subtree_tiling_allocation),
        ("random", lambda n, b: random_allocation(n, b, np.random.default_rng(7))),
    ):
        for pool in (None, 64):
            store = build_store(coeffs, factory, pool)
            count = run_workload(store, queries, (64, 64), levels, filt)
            reads[(alloc_name, pool is not None)] = count
            rows.append(
                [alloc_name, "yes" if pool else "no", count]
            )
    return reads, rows


def test_a4_pool_and_locality(emit, benchmark):
    reads, rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(
        "A4_bufferpool_locality",
        format_table(
            ["allocation", "buffer pool", "device reads (30 queries)"], rows
        ),
    )
    # Under the tiling allocation, the pool turns the repeated workload
    # into a working set that fits: device reads collapse.
    assert reads[("tiling", True)] < reads[("tiling", False)] / 5
    # Under random placement the same pool gains little or nothing — the
    # workload touches more distinct blocks than the pool holds, so it
    # thrashes.  Locality must be *created* by the allocation (§3.2.1).
    assert reads[("random", True)] <= reads[("random", False)]
    assert reads[("tiling", True)] < reads[("random", True)] / 5
