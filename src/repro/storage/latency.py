"""One latency model for every simulated delay in the storage stack.

A simulated delay has two parts: the leaf device's fixed per-read seek
time and the fault plan's seeded *latency spikes*.  :class:`LatencyModel`
is the one type that describes both: one object owns the base per-read
delay *and* the seeded spike distribution, every device sleeps through
the same code path, so a configuration cannot carry two contradictory
delay budgets, and the ``faults.injected.latency_spikes`` counter ticks
from the one place spikes are decided.

Thread safety: draws come from one seeded RNG under a lock (so
concurrent readers replay a deterministic spike schedule), while the
sleep itself happens outside any lock — callers must likewise never
hold a device lock across :meth:`LatencyModel.sleep`.
"""

from __future__ import annotations

import random
import time

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter

__all__ = ["LatencyModel"]


class LatencyModel:
    """Seeded per-read delay: a fixed base plus probabilistic spikes.

    Args:
        base_s: Seek/transfer time added to every read (seconds).
        spike_rate: Probability in ``[0, 1]`` that a read additionally
            pays ``spike_s`` (a congested-device tail event).
        spike_s: Spike duration (seconds).
        seed: RNG seed; equal seeds replay the identical spike schedule
            over the same draw sequence.
    """

    def __init__(
        self,
        base_s: float = 0.0,
        spike_rate: float = 0.0,
        spike_s: float = 0.005,
        seed: int = 0,
    ) -> None:
        if base_s < 0:
            raise StorageError(f"base latency must be >= 0, got {base_s}")
        if not 0.0 <= spike_rate <= 1.0:
            raise StorageError(
                f"spike_rate must be in [0, 1], got {spike_rate}"
            )
        if spike_s < 0:
            raise StorageError(f"spike_s must be >= 0, got {spike_s}")
        self.base_s = base_s
        self.spike_rate = spike_rate
        self.spike_s = spike_s
        self.seed = seed
        self.spikes = 0
        self._rng = random.Random(seed)
        self._lock = watched_lock("storage.latency")

    def delay(self) -> float:
        """Draw the next read's delay in seconds (base plus maybe a spike).

        Advances the spike schedule (one draw per call when
        ``spike_rate`` is positive) and ticks
        ``faults.injected.latency_spikes`` when a spike fires.
        """
        spiked = False
        if self.spike_rate > 0.0:
            with self._lock:
                spiked = self._rng.random() < self.spike_rate
                if spiked:
                    self.spikes += 1
        if spiked:
            obs_counter("faults.injected.latency_spikes").inc()
            return self.base_s + self.spike_s
        return self.base_s

    def sleep(self) -> None:
        """Sleep the next drawn delay (no-op when it is zero).

        Call without holding any device lock, so concurrent reads
        overlap their simulated seek time.
        """
        d = self.delay()
        if d > 0.0:
            time.sleep(d)

    def reset(self) -> None:
        """Rewind the spike schedule to draw zero (seeded replay)."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self.spikes = 0

    def derive(self, offset: int) -> "LatencyModel":
        """An independent model with the same shape and a shifted seed.

        Sharded stacks give each shard its own derived model so shards
        draw independent (but still deterministic) spike schedules.
        """
        return LatencyModel(
            base_s=self.base_s,
            spike_rate=self.spike_rate,
            spike_s=self.spike_s,
            seed=self.seed + offset,
        )

    def __repr__(self) -> str:
        return (
            f"LatencyModel(base_s={self.base_s}, "
            f"spike_rate={self.spike_rate}, spike_s={self.spike_s}, "
            f"seed={self.seed})"
        )
