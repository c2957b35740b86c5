"""A tour of the storage subsystem (§3.2): tiling, locality, progressive
retrieval.

Walks through the paper's storage story on a real signal: archive a glove
sensor stream as tiled wavelet blocks, measure the items-per-block
utilization of tiling against the 1+lg B ceiling and the naive
allocations, show the caching device layer exploiting the locality
tiling creates, and stream the signal back progressively with exact
residual-energy bars.

Run:
    python examples/storage_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel
from repro.storage.allocation import (
    measure_utilization,
    point_query_workload,
    random_allocation,
    sequential_allocation,
    subtree_tiling_allocation,
    utilization_bound,
)
from repro.storage.retrieval import SignalArchive


def main() -> None:
    rng = np.random.default_rng(32)  # §3.2
    glove = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.2))
    session = glove.capture(40.96, rng)  # 4096 frames at 100 Hz
    signal = session[:4096, 20]  # the wrist-flexion channel

    # ---- 1. allocation utilization -----------------------------------------
    print("== needed items per retrieved block (point queries, n=4096) ==")
    n, block = 4096, 7
    workload = point_query_workload(n, rng, count=200)
    for name, alloc in (
        ("sequential", sequential_allocation(n, block)),
        ("random", random_allocation(n, block, rng)),
        ("subtree tiling", subtree_tiling_allocation(n, block)),
    ):
        print(f"  {name:15s}: {measure_utilization(alloc, workload):.2f}")
    print(f"  {'1 + lg B bound':15s}: {utilization_bound(block):.2f}")

    # ---- 2. archive + locality ----------------------------------------------
    print("\n== archive with a caching device layer ==")
    archive = SignalArchive(signal, wavelet="db2", block_size=7,
                            cache_blocks=1024)
    print(f"signal: {signal.size} samples -> {archive.n_blocks} blocks")
    archive.retrieve_exact()
    before = archive.store.io_snapshot()
    archive.retrieve_exact()  # second pass: served from the cache
    print(f"device reads on a repeated full retrieval: "
          f"{archive.store.io_since(before).reads} "
          f"(working set fits the cache, so the second pass is free)")

    # ---- 3. progressive retrieval --------------------------------------------
    print("\n== progressive signal retrieval ==")
    total_energy = float(np.sum(signal**2))
    for step in archive.retrieve_progressive():
        frac = step.blocks_read / archive.n_blocks
        if step.blocks_read in (1, 2, 4, 8, 16, 32, 64) or \
                step.residual_energy == 0.0:
            print(f"  {step.blocks_read:4d} blocks ({frac:5.1%} of I/O): "
                  f"NRMSE {step.nrmse(signal):.4f}, residual energy "
                  f"{step.residual_energy / total_energy:.2%}")
        if step.nrmse(signal) < 0.01:
            print(f"  1% NRMSE reached after {step.blocks_read} of "
                  f"{archive.n_blocks} blocks")
            break


if __name__ == "__main__":
    main()
