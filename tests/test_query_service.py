"""The concurrent query service: correctness under concurrency,
shared-scan deduplication, and admission control.

The load-bearing property: results produced by ``QueryService`` with any
worker count are *bitwise-equal* to single-threaded evaluation on the
same engine — translation, planning and summation are deterministic, and
the service only reads through the storage layer.
"""

import threading

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import (
    QueryRejected,
    QueryService,
    ScanCoordinator,
    shared_scan_view,
)
from repro.storage.device import StorageSpec
from repro.storage.latency import LatencyModel


def build_engine(shape=(32, 32), cache_blocks=16, seed=7, latency_s=0.0):
    rng = np.random.default_rng(seed)
    cube = rng.poisson(3.0, shape).astype(float)
    storage = StorageSpec(
        cache_blocks=cache_blocks,
        latency=LatencyModel(base_s=latency_s) if latency_s else None,
    )
    return ProPolyneEngine(cube, max_degree=1, storage=storage)


def mixed_workload(engine, count=24, seed=11):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        lo1 = int(rng.integers(0, 20))
        lo2 = int(rng.integers(0, 20))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(2, 12))),
                 (lo2, lo2 + int(rng.integers(2, 12)))]
            )
        )
    return queries


class TestConcurrentCorrectness:
    def test_exact_results_bitwise_equal_to_single_threaded(self):
        engine = build_engine()
        queries = mixed_workload(engine)
        expected = [engine.evaluate_exact(q) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            got = service.run_exact(queries)
        assert got == expected  # float equality, not approx

    def test_progressive_streams_bitwise_equal_to_single_threaded(self):
        engine = build_engine()
        queries = mixed_workload(engine, count=8)
        expected = [list(engine.evaluate_progressive(q)) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            streams = [
                service.submit_progressive(q, block=True) for q in queries
            ]
            got = [list(s) for s in streams]
        assert got == expected
        for stream, estimates in zip(streams, got):
            assert stream.result() == estimates[-1]

    def test_stress_many_threads_submitting_concurrently(self):
        # >= 4 workers, plus several *submitting* threads, all racing on
        # one engine: every answer must match the serial reference.
        engine = build_engine(shape=(64, 32), cache_blocks=8)
        queries = mixed_workload(engine, count=40, seed=3)
        expected = {q: engine.evaluate_exact(q) for q in queries}
        failures = []
        with QueryService(engine, workers=6, queue_depth=128) as service:
            def hammer(chunk):
                try:
                    futures = [
                        service.submit_exact(q, block=True) for q in chunk
                    ]
                    for q, f in zip(chunk, futures):
                        if f.result(timeout=60) != expected[q]:
                            failures.append(q)
                except Exception as exc:  # surface in the main thread
                    failures.append(exc)

            submitters = [
                threading.Thread(target=hammer, args=(queries[i::4],))
                for i in range(4)
            ]
            for t in submitters:
                t.start()
            for t in submitters:
                t.join()
        assert failures == []

    def test_mixed_exact_and_progressive_traffic(self):
        engine = build_engine()
        queries = mixed_workload(engine, count=12, seed=5)
        exact_expected = [engine.evaluate_exact(q) for q in queries]
        with QueryService(engine, workers=4, queue_depth=64) as service:
            futures = [service.submit_exact(q, block=True) for q in queries]
            streams = [
                service.submit_progressive(q, block=True)
                for q in queries[:4]
            ]
            finals = [s.result(timeout=60) for s in streams]
            got = [f.result(timeout=60) for f in futures]
        assert got == exact_expected
        for final, q in zip(finals, queries[:4]):
            assert final.error_bound == pytest.approx(0.0, abs=1e-6)
            assert final.estimate == pytest.approx(engine.evaluate_exact(q))


class TestSharedScans:
    def test_single_flight_deduplicates_concurrent_reads(self):
        # Slow the device down so readers genuinely overlap.
        engine = build_engine(cache_blocks=None, latency_s=0.005)
        coordinator = ScanCoordinator(engine.store)
        block_id = engine.store.device.block_ids()[0]
        before = engine.store.io_snapshot()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    coordinator.fetch_block(block_id)
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reads = engine.store.io_since(before).reads
        stats = coordinator.stats()
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert stats["fetches"] + stats["shared"] == 8
        assert stats["shared"] >= 1  # at least one piggy-backed read
        assert reads == stats["fetches"]  # only leaders touch the device

    def test_follower_copies_are_independent(self):
        engine = build_engine(cache_blocks=None, latency_s=0.005)
        coordinator = ScanCoordinator(engine.store)
        block_id = engine.store.device.block_ids()[0]
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    coordinator.fetch_block(block_id)
                )
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Followers share values but never the same mutable dictionary.
        assert len({id(r) for r in results}) == len(results)

    def test_shared_scan_view_matches_plain_store(self):
        engine = build_engine()
        view = shared_scan_view(engine)
        for query in mixed_workload(engine, count=6, seed=13):
            assert view.evaluate_exact(query) == engine.evaluate_exact(query)
            assert list(view.evaluate_progressive(query)) == list(
                engine.evaluate_progressive(query)
            )

    def test_scan_error_propagates_to_all_waiters(self):
        engine = build_engine(cache_blocks=None)
        coordinator = ScanCoordinator(engine.store)
        with pytest.raises(Exception):
            coordinator.fetch_block(("no", "such", "block"))
        assert coordinator._inflight == {}  # flight always cleaned up


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing_unboundedly(self):
        engine = build_engine(latency_s=0.02)  # keep workers busy
        queries = mixed_workload(engine, count=50, seed=17)
        service = QueryService(engine, workers=1, queue_depth=2)
        try:
            rejected = 0
            futures = []
            for q in queries:
                try:
                    futures.append(service.submit_exact(q))
                except QueryRejected:
                    rejected += 1
            assert rejected > 0
            assert service.rejected == rejected
            # Admitted queries still finish correctly.
            for f in futures:
                assert isinstance(f.result(timeout=120), float)
        finally:
            service.close()

    def test_closed_service_refuses_new_work(self):
        engine = build_engine()
        service = QueryService(engine, workers=1)
        service.close()
        with pytest.raises(QueryError):
            service.submit_exact(RangeSumQuery.count([(0, 3), (0, 3)]))

    def test_invalid_configuration_rejected(self):
        engine = build_engine()
        with pytest.raises(QueryError):
            QueryService(engine, workers=0)
        with pytest.raises(QueryError):
            QueryService(engine, queue_depth=0)

    def test_query_error_delivered_through_future(self):
        engine = build_engine()
        bad = RangeSumQuery.count([(0, 500), (0, 3)])  # out of domain
        with QueryService(engine, workers=2) as service:
            future = service.submit_exact(bad, block=True)
            with pytest.raises(QueryError):
                future.result(timeout=60)
            stream = service.submit_progressive(bad, block=True)
            with pytest.raises(QueryError):
                list(stream)
