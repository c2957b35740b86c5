"""The three closed-loop workloads: inputs, deployment, ops and oracle.

Each workload is driven by one client thread that waits for every reply
before it sends the next request.  Inputs come only from the seed; the
program under test receives the generated cubes, queries and points.
Every answer is checked against a dense reference (``evaluate_on_cube``)
after its timer has stopped.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.cluster import BackendNode, ClusterFrontend
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube
from repro.sensors.atmosphere import atmospheric_cube
from repro.sensors.glove import CyberGloveSimulator
from repro.storage.device import StorageSpec
from repro.wavelets.lazy import translation_cache

MAX_DEGREE = 1
#: Answers must match the dense reference to this tolerance; wavelet-domain
#: round-off is many orders of magnitude smaller.
REL_TOL = 1e-9
ABS_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Input and deployment sizes (``FULL`` is the benchmark; ``TINY``
    keeps the benchmark's own tests fast)."""

    interactive_shape: tuple = (64, 64, 32)
    interactive_datasets: int = 4
    interactive_cache_blocks: int = 256
    dashboard_shape: tuple = (64, 64, 32)
    dashboard_cache_blocks: int = 1024
    ingest_value_bins: int = 64
    ingest_time_bins: int = 64
    ingest_cache_blocks: int = 512
    commit_points: int = 256
    session_s: float = 10.0
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    interactive_shape=(16, 16, 8),
    interactive_datasets=2,
    interactive_cache_blocks=16,
    dashboard_shape=(16, 16, 8),
    dashboard_cache_blocks=64,
    ingest_value_bins=16,
    ingest_time_bins=16,
    ingest_cache_blocks=64,
    commit_points=32,
    session_s=1.0,
    setup_repeats=2,
)


def matches(value: float, reference: float) -> bool:
    """Whether an answer agrees with its dense reference."""
    return math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def random_range(rng: np.random.Generator, n: int) -> tuple[int, int]:
    lo, hi = sorted(int(v) for v in rng.integers(0, n, 2))
    return lo, hi


def random_query(rng: np.random.Generator, shape) -> RangeSumQuery:
    """A COUNT or a degree-1 SUM (on a random axis), half each, over
    random ranges on every axis."""
    ranges = [random_range(rng, n) for n in shape]
    if rng.random() < 0.5:
        return RangeSumQuery.count(ranges)
    return RangeSumQuery.weighted(ranges, {int(rng.integers(len(shape))): 1})


def _timed(fn, *args):
    started = perf_counter()
    value = fn(*args)
    return value, perf_counter() - started


class Workload:
    """Base: the driver calls ``setup``, then ``next_op`` / ``run_op`` /
    ``check`` in a loop, then ``counters`` and ``close``.

    ``run_op`` returns ``(result, samples, work)``: the op's answers, its
    latency samples as ``kind -> [seconds]`` and its units of work.
    """

    name = ""
    #: Latency kinds whose samples are the workload's answer latency.
    answer_kinds: tuple = ()
    #: Latency kinds whose time the ``work_per_s`` rate divides by.
    work_kinds: tuple = ()
    #: Ops after which the memory figure is taken (``None``: at the end).
    rss_ops: int | None = None

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        self.sizes = sizes
        self.data_rng = np.random.default_rng([seed, 0])
        self.op_rng = np.random.default_rng([seed, 1])

    @staticmethod
    def queries_of(op) -> int:
        """Range-sum queries answered by one op."""
        return 1

    def setup(self) -> list[float]:
        """Build the deployment; returns the set-up time samples."""
        raise NotImplementedError

    def next_op(self):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, op, result) -> int:
        """Number of wrong answers in one op's result."""
        raise NotImplementedError

    def engines(self) -> list:
        raise NotImplementedError

    def scan_stats(self) -> list[dict]:
        """Shared-scan counters of every query service in the deployment."""
        return []

    def query_block_reads(self) -> int:
        """Logical block reads the queries made so far (outer meters)."""
        return sum(_outer_reads(engine) for engine in self.engines())

    def close(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict:
        """Layer counters, for differencing around the measured loop."""
        caching = {"hits": 0, "misses": 0, "evictions": 0,
                   "invalidations": 0}
        disk = {"reads": 0, "writes": 0}
        for engine in self.engines():
            for cache in engine.store.caches:
                for key in caching:
                    caching[key] += getattr(cache.pool_stats, key)
            io = engine.store.io_snapshot()
            disk["reads"] += io.reads
            disk["writes"] += io.writes
        scan = {"fetches": 0, "shared": 0}
        for stats in self.scan_stats():
            scan["fetches"] += stats["fetches"]
            scan["shared"] += stats["shared"]
        cache = translation_cache()
        return {
            "caching": caching,
            "disk": disk,
            "scan": scan,
            "transcache": {"hits": cache.hits, "misses": cache.misses},
            "query_blocks": self.query_block_reads(),
        }


def _outer_reads(engine) -> int:
    return engine.store.device.reads


class _ClusterWorkload(Workload):
    """Shared set-up of the two cluster-tier workloads."""

    def _deploy(self, n_backends, cache_blocks) -> None:
        backends = [
            BackendNode(
                f"backend-{i}", workers=1, max_degree=MAX_DEGREE,
                storage_factory=lambda: StorageSpec(
                    shards=2, cache_blocks=cache_blocks
                ),
            )
            for i in range(n_backends)
        ]
        self.frontend = ClusterFrontend(backends)

    def _populate(self, tenant, dataset, cube) -> float:
        started = perf_counter()
        self.frontend.populate(tenant, dataset, cube)
        return perf_counter() - started

    def engines(self) -> list:
        return [self.frontend.engine(t, d) for t, d in self.namespaces]

    def scan_stats(self) -> list[dict]:
        return [
            space["scan"]
            for backend in self.frontend.stats()["per_backend"].values()
            for space in backend["namespaces"].values()
        ]

    def close(self) -> None:
        self.frontend.close()


class Interactive(_ClusterWorkload):
    """Analysts exploring tenant data one query at a time through the
    cluster tier: exact or degradable, COUNT or degree-1 SUM."""

    name = "interactive"
    answer_kinds = ("exact", "degradable")
    work_kinds = ("exact", "degradable")

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        super().__init__(seed, sizes)
        self.namespaces = [
            (f"tenant-{i}", "counts") for i in range(sizes.interactive_datasets)
        ]
        self.cubes = [
            self.data_rng.poisson(3.0, sizes.interactive_shape).astype(float)
            for _ in self.namespaces
        ]
        self.ops = 0

    def setup(self) -> list[float]:
        # One sample per dataset: each populate builds an engine, its
        # sharded cached store and its query service.
        translation_cache().clear()
        self._deploy(2, self.sizes.interactive_cache_blocks)
        return [
            self._populate(tenant, dataset, cube)
            for (tenant, dataset), cube in zip(self.namespaces, self.cubes)
        ]

    def next_op(self):
        rng = self.op_rng
        k = int(rng.integers(len(self.namespaces)))
        query = random_query(rng, self.sizes.interactive_shape)
        self.ops += 1
        kind = ("exact", "degradable")[self.ops % 2]
        return k, query, kind

    def run_op(self, op):
        k, query, kind = op
        tenant, dataset = self.namespaces[k]
        started = perf_counter()
        if kind == "exact":
            value = self.frontend.submit_exact(tenant, dataset, query).result()
        else:
            value = self.frontend.submit_degradable(
                tenant, dataset, query
            ).result().value
        return value, {kind: [perf_counter() - started]}, 1

    def check(self, op, result) -> int:
        k, query, _ = op
        return int(not matches(result, evaluate_on_cube(self.cubes[k], query)))


class Dashboard(_ClusterWorkload):
    """Drill-down panels over the atmospheric OLAP cube: one batch of 32
    COUNTs (8 adjacent longitude bins x 4 time bands) over a random
    latitude band."""

    name = "dashboard"
    answer_kinds = ("batch",)
    work_kinds = ("batch",)

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        super().__init__(seed, sizes)
        self.namespaces = [("climate", "atmosphere")]
        self.cube = atmospheric_cube(sizes.dashboard_shape, rng=self.data_rng)
        n_lat, n_lon, n_time = sizes.dashboard_shape
        self.lat_band = n_lat // 2
        self.lon_bin = n_lon // 16
        self.time_band = n_time // 4

    def setup(self) -> list[float]:
        samples = []
        for repeat in range(self.sizes.setup_repeats):
            if repeat:
                self.close()
                gc.collect()
            translation_cache().clear()
            self._deploy(1, self.sizes.dashboard_cache_blocks)
            samples.append(self._populate(*self.namespaces[0], self.cube))
        return samples

    def next_op(self):
        rng = self.op_rng
        n_lat, n_lon, _ = self.sizes.dashboard_shape
        lat = int(rng.integers(0, n_lat - self.lat_band + 1))
        lon = int(rng.integers(0, n_lon - 8 * self.lon_bin + 1))
        return [
            RangeSumQuery.count([
                (lat, lat + self.lat_band - 1),
                (lon + i * self.lon_bin, lon + (i + 1) * self.lon_bin - 1),
                (j * self.time_band, (j + 1) * self.time_band - 1),
            ])
            for i in range(8)
            for j in range(4)
        ]

    @staticmethod
    def queries_of(op) -> int:
        return len(op)

    def run_op(self, op):
        answers, seconds = _timed(
            lambda: self.frontend.submit_batch(*self.namespaces[0], op).result()
        )
        return answers, {"batch": [seconds]}, len(op)

    def check(self, op, result) -> int:
        return sum(
            not matches(value, evaluate_on_cube(self.cube, query))
            for query, value in zip(op, result)
        )


class Ingest(Workload):
    """Acquisition beside analysis: 256-point CyberGlove commits into one
    versioned engine, each followed by two live reads and one read as of
    four epochs back."""

    name = "ingest"
    answer_kinds = ("fresh",)
    work_kinds = ("commit",)
    # The delta memo grows with every distinct point appended, so memory
    # is read after a fixed amount of input, not after a fixed time.
    rss_ops = 32
    AS_OF_LAG = 4

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        super().__init__(seed, sizes)
        self.glove = CyberGloveSimulator()
        self.lo = np.array([s.lo for s in self.glove.sensors])
        self.span = np.array([s.hi - s.lo for s in self.glove.sensors])
        self.shape = (
            sizes.ingest_value_bins, sizes.ingest_time_bins, self.glove.width
        )
        self._pending = np.empty((0, 3), dtype=np.intp)
        self._frames = 0

    def setup(self) -> list[float]:
        samples = []
        for repeat in range(self.sizes.setup_repeats):
            if repeat:
                self.close()
                gc.collect()
            translation_cache().clear()
            started = perf_counter()
            self.engine = ProPolyneEngine(
                np.zeros(self.shape), max_degree=MAX_DEGREE,
                storage=StorageSpec(
                    shards=2, cache_blocks=self.sizes.ingest_cache_blocks
                ),
            )
            self.engine.enable_versioning(retain=8)
            self.inserter = BatchInserter(self.engine)
            samples.append(perf_counter() - started)
        # Dense mirror of the engine's cube, and its state per epoch.
        self.mirror = np.zeros(self.shape)
        self.history = {0: self.mirror.copy()}
        self.query_blocks = 0
        return samples

    def _session_points(self) -> np.ndarray:
        """One seeded glove session, quantized to (value bin, time bin of
        10 frames wrapping, sensor id) points in frame order."""
        session = self.glove.capture(self.sizes.session_s, self.data_rng)
        bins = self.sizes.ingest_value_bins
        values = np.clip(
            ((session - self.lo) / self.span * bins).astype(np.intp),
            0, bins - 1,
        )
        frames = self._frames + np.arange(len(session))
        self._frames += len(session)
        times = (frames // 10) % self.sizes.ingest_time_bins
        width = self.glove.width
        return np.stack([
            values.ravel(),
            np.repeat(times, width),
            np.tile(np.arange(width), len(session)),
        ], axis=1)

    def next_op(self):
        n = self.sizes.commit_points
        while len(self._pending) < n:
            self._pending = np.concatenate(
                [self._pending, self._session_points()]
            )
        points, self._pending = self._pending[:n], self._pending[n:]
        queries = [random_query(self.op_rng, self.shape) for _ in range(3)]
        return points, queries

    @staticmethod
    def queries_of(op) -> int:
        return len(op[1])

    def run_op(self, op):
        points, (live_a, live_b, past) = op
        engine = self.engine
        _, commit_s = _timed(self.inserter.insert_batch, points)
        epoch = engine.epoch
        as_of = max(0, epoch - self.AS_OF_LAG)
        blocks_before = _outer_reads(engine)
        a, a_s = _timed(engine.evaluate_exact, live_a)
        b, b_s = _timed(engine.evaluate_exact, live_b)
        started = perf_counter()
        c = engine.evaluate_exact(past, as_of=as_of)
        c_s = perf_counter() - started
        self.query_blocks += _outer_reads(engine) - blocks_before
        samples = {"commit": [commit_s], "fresh": [a_s, b_s, c_s]}
        return (epoch, as_of, (a, b, c)), samples, len(points)

    def check(self, op, result) -> int:
        points, queries = op
        epoch, as_of, answers = result
        np.add.at(self.mirror, tuple(points.T), 1.0)
        self.history[epoch] = self.mirror.copy()
        self.history.pop(epoch - self.AS_OF_LAG - 1, None)
        cubes = (self.mirror, self.mirror, self.history[as_of])
        return sum(
            not matches(value, evaluate_on_cube(cube, query))
            for cube, query, value in zip(cubes, queries, answers)
        )

    def engines(self) -> list:
        return [self.engine]

    def query_block_reads(self) -> int:
        return self.query_blocks

    def close(self) -> None:
        self.engine.store.close()
        self.engine = self.inserter = None


WORKLOADS = {w.name: w for w in (Interactive, Dashboard, Ingest)}
