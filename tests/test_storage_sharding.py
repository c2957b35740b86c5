"""The sharded block store: placement, fan-out, equivalence, degradation.

The acceptance bar for sharding is *transparency*: a sharded stack must
be indistinguishable from an unsharded one at the query interface —
``evaluate_exact`` bitwise-identical for any shard count — while one
failed shard degrades only itself.
"""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.storage.disk import SimulatedDisk
from repro.storage.placement import place
from repro.storage.sharding import ShardedDevice


def build_sharded(n_shards, block_size=8, **kwargs):
    return ShardedDevice(
        [SimulatedDisk(block_size=block_size) for _ in range(n_shards)],
        **kwargs,
    )


class TestPlacement:
    def test_every_block_lands_on_exactly_one_shard(self):
        ids = list(range(200)) + [(i, j) for i in range(10)
                                  for j in range(10)]
        for n in (1, 2, 3, 4, 7):
            for block_id in ids:
                assert 0 <= place(block_id, n) < n

    def test_placement_is_deterministic_across_runs(self):
        # Hard-coded expectations: the CRC32-of-repr placement must be
        # stable across processes, machines and Python versions — a
        # placement change would orphan every block already stored.
        assert {b: place(b, 2) for b in (0, 1, 2, 3, 42)} == \
            {0: 1, 1: 1, 2: 1, 3: 1, 42: 0}
        assert {b: place(b, 4) for b in (0, 1, 2, 3, 42)} == \
            {0: 1, 1: 3, 2: 1, 3: 3, 42: 0}
        assert place((0, 0), 4) == 3
        assert place((1, 2), 4) == 1
        assert place((3, 1), 4) == 2
        assert place("blob", 4) == 0

    def test_placement_spreads_blocks(self):
        counts = [0, 0, 0, 0]
        for b in range(400):
            counts[place(b, 4)] += 1
        assert min(counts) > 0  # no empty shard over a real id range

    def test_sharded_device_routes_by_placement(self):
        dev = build_sharded(4)
        for b in range(32):
            dev.write_block(b, {b: float(b)})
        for b in range(32):
            shard = dev.shard_of(b)
            assert shard == place(b, 4)
            for i, inner in enumerate(dev.devices):
                assert inner.has_block(b) == (i == shard)


class TestShardedDevice:
    def test_reads_and_bulk_reads_round_trip(self):
        dev = build_sharded(3)
        blocks = {b: {b: float(b) * 1.5} for b in range(24)}
        for b, items in blocks.items():
            dev.write_block(b, items)
        for b, items in blocks.items():
            assert dev.read_block(b) == items
        assert dev.read_many(list(blocks)) == blocks
        assert dev.n_blocks() == 24
        assert len(dev) == 24

    def test_sequential_fanout_matches_concurrent(self):
        ids = list(range(24))
        blocks = {b: {b: float(b)} for b in ids}
        wide, narrow = build_sharded(4), build_sharded(4, fanout_workers=1)
        for b, items in blocks.items():
            wide.write_block(b, items)
            narrow.write_block(b, items)
        assert wide.read_many(ids) == narrow.read_many(ids) == blocks

    def test_io_totals_sum_across_shards(self):
        dev = build_sharded(4)
        for b in range(16):
            dev.write_block(b, {b: 0.0})
        dev.read_many(list(range(16)))
        totals = dev.io_totals()
        assert totals.reads == 16
        assert totals.writes == 16
        per_shard = [d.io.reads for d in dev.devices]
        assert sum(per_shard) == 16

    def test_stats_aggregate_per_shard(self):
        dev = build_sharded(2)
        dev.write_block(0, {0: 1.0})
        stats = dev.stats()
        assert stats["layer"] == "sharded"
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2

    def test_validation(self):
        with pytest.raises(StorageError):
            ShardedDevice([])
        with pytest.raises(StorageError):
            ShardedDevice([SimulatedDisk(block_size=4),
                           SimulatedDisk(block_size=8)])
        with pytest.raises(StorageError):
            build_sharded(2, fanout_workers=0)


class _OkShard:
    """Minimal read-only shard double."""

    block_size = 8

    def read_many(self, ids):
        return {b: {b: 1.0} for b in ids}


class _FailingShard:
    block_size = 8

    def __init__(self, label):
        self.label = label

    def read_many(self, ids):
        raise StorageError(f"{self.label} is down")


class TestFanoutPoolLifecycle:
    def test_pool_persists_across_read_many_calls(self):
        # Regression: read_many used to build (and tear down) a fresh
        # ThreadPoolExecutor on every call — the hottest I/O path paid
        # thread startup each time.  The pool must now be created once
        # and reused.
        dev = build_sharded(4)
        for b in range(16):
            dev.write_block(b, {b: 0.0})
        dev.read_many(list(range(16)))
        pool = dev._pool
        assert pool is not None
        dev.read_many(list(range(16)))
        assert dev._pool is pool

    def test_close_shuts_the_pool_down_idempotently(self):
        dev = build_sharded(4)
        for b in range(8):
            dev.write_block(b, {b: 0.0})
        dev.read_many(list(range(8)))
        dev.close()
        assert dev._pool is None
        dev.close()  # second close is a no-op
        # The device still works afterwards; the pool is rebuilt lazily.
        assert dev.read_many(list(range(8))) == {
            b: {b: 0.0} for b in range(8)
        }


class TestMultiShardFailureAggregation:
    def test_second_failed_shard_lands_in_notes(self):
        # Regression: read_many used to surface only the first failed
        # shard group, silently reporting a multi-shard outage as a
        # single-shard one.  Placement (pinned above): block 0 -> shard
        # 1, block 1 -> shard 3, block 42 -> shard 0.
        dev = ShardedDevice(
            [_OkShard(), _FailingShard("shard-one"),
             _OkShard(), _FailingShard("shard-three")]
        )
        with pytest.raises(StorageError) as excinfo:
            dev.read_many([0, 1, 42])
        assert "shard-one is down" in str(excinfo.value)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(
            "shard 3" in note and "shard-three is down" in note
            for note in notes
        )

    def test_single_failed_shard_has_no_notes(self):
        dev = ShardedDevice(
            [_OkShard(), _FailingShard("shard-one"), _OkShard(), _OkShard()]
        )
        with pytest.raises(StorageError) as excinfo:
            dev.read_many([0, 1, 42])
        assert getattr(excinfo.value, "__notes__", []) == []

    def test_surviving_shards_are_not_interrupted(self):
        # The failure is raised only after every group settles: the OK
        # shards' reads complete (observable via a recording double).
        calls = []

        class _Recording(_OkShard):
            def read_many(self, ids):
                calls.append(list(ids))
                return super().read_many(ids)

        dev = ShardedDevice(
            [_Recording(), _FailingShard("shard-one"),
             _Recording(), _Recording()]
        )
        with pytest.raises(StorageError):
            dev.read_many([0, 1, 42])
        assert [42] in calls  # shard 0's group ran to completion


class TestShardedQueriesAreBitwiseEqual:
    def make_engine(self, shards):
        rng = np.random.default_rng(2003)
        cube = rng.poisson(3.0, (32, 32)).astype(float)
        return ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=shards, cache_blocks=8),
        )

    def test_exact_answers_identical_for_1_2_4_shards(self):
        queries = [
            RangeSumQuery.count([(3, 29), (4, 30)]),
            RangeSumQuery.weighted([(0, 31), (8, 23)], {0: 1}),
            RangeSumQuery.weighted([(5, 20), (5, 20)], {0: 1, 1: 1}),
        ]
        engines = {n: self.make_engine(n) for n in (1, 2, 4)}
        for query in queries:
            answers = {n: e.evaluate_exact(query)
                       for n, e in engines.items()}
            # Bitwise equality, not approx: sharding must not change
            # the arithmetic, only where the blocks live.
            assert answers[1] == answers[2] == answers[4]

    def test_progressive_converges_identically(self):
        query = RangeSumQuery.count([(3, 29), (4, 30)])
        finals = {}
        for n in (1, 2, 4):
            steps = list(self.make_engine(n).evaluate_progressive(query))
            finals[n] = steps[-1].estimate
        assert finals[1] == finals[2] == finals[4]


class TestPerShardDegradation:
    def make_stormy(self, fault_shards=(1,), recovery_timeout_s=60.0):
        rng = np.random.default_rng(7)
        cube = rng.poisson(3.0, (32, 32)).astype(float)
        return ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(
                shards=4,
                fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
                fault_shards=fault_shards,
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                         budget_s=0.0),
                breaker=CircuitBreaker(failure_threshold=1,
                                       recovery_timeout_s=recovery_timeout_s),
            ),
        )

    def test_one_dead_shard_trips_only_its_breaker(self):
        engine = self.make_stormy()
        query = RangeSumQuery.count([(2, 28), (3, 29)])
        truth = None
        outcome = engine.evaluate_degradable(query)
        assert outcome.degraded is True
        assert outcome.reason == "storage_unavailable"
        assert outcome.blocks_skipped > 0
        assert outcome.blocks_read > 0  # survivors answered
        states = [b.state for b in engine.store.breakers]
        assert states[1] == "open"
        assert all(s == "closed" for i, s in enumerate(states) if i != 1)
        # The survivors' answer stays inside the guaranteed bound.
        clean = ProPolyneEngine(
            np.random.default_rng(7).poisson(3.0, (32, 32)).astype(float),
            max_degree=1, block_size=7,
        )
        truth = clean.evaluate_exact(query)
        assert abs(outcome.value - truth) <= outcome.error_bound + 1e-9

    def test_no_unhandled_exceptions_across_repeated_queries(self):
        engine = self.make_stormy()
        query = RangeSumQuery.count([(2, 28), (3, 29)])
        for _ in range(5):
            outcome = engine.evaluate_degradable(query)
            assert outcome.degraded is True

    def test_healing_restores_exact_answers(self):
        import time

        engine = self.make_stormy(recovery_timeout_s=0.01)
        query = RangeSumQuery.count([(2, 28), (3, 29)])
        assert engine.evaluate_degradable(query).degraded is True
        engine.store.set_injecting(False)
        time.sleep(0.02)  # past the recovery timeout: probes allowed
        healed = engine.evaluate_degradable(query)
        assert healed.degraded is False
        assert healed.blocks_skipped == 0


class TestShardAwareScanStats:
    def test_coordinator_counts_fetches_per_shard(self):
        from repro.query.service import QueryService

        rng = np.random.default_rng(11)
        cube = rng.poisson(3.0, (32, 32)).astype(float)
        engine = ProPolyneEngine(
            cube, max_degree=1, block_size=7,
            storage=StorageSpec(shards=4, cache_blocks=8),
        )
        queries = [RangeSumQuery.count([(2, 28), (3, 29)]),
                   RangeSumQuery.count([(0, 15), (0, 15)])]
        with QueryService(engine, workers=2) as service:
            service.run_exact(queries)
            stats = service.scan_stats()
        by_shard = stats["fetches_by_shard"]
        assert sum(by_shard.values()) == stats["fetches"]
        assert all(shard in range(4) for shard in by_shard)
