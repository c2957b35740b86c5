"""Facade coverage: every sampler through AIMS.acquire, config plumbing,
and the EXPLAIN surface through a populated facade cube."""

import numpy as np
import pytest

from repro.core.aims import AIMS, AIMSConfig
from repro.query.explain import explain, format_plan
from repro.query.rangesum import RangeSumQuery
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel


@pytest.fixture(scope="module")
def session():
    sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
    return sim.capture(6.0, np.random.default_rng(0)), sim.rate_hz


class TestAcquireAllSamplers:
    @pytest.mark.parametrize(
        "sampler", ["fixed", "modified_fixed", "grouped", "adaptive"]
    )
    def test_every_strategy_through_facade(self, session, sampler):
        matrix, rate = session
        system = AIMS(AIMSConfig(sampler=sampler))
        report = system.acquire(matrix, rate)
        assert report.sampling.strategy == sampler
        assert report.nrmse < 0.05
        assert report.bytes_recorded < matrix.size * 4
        assert report.reconstructed.shape == matrix.shape

    def test_adaptive_wins_on_bursty_session(self):
        """Adaptive's edge needs activity variation (a uniformly busy
        session gives it nothing to exploit — see E1 for the full
        comparison)."""
        sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
        rng = np.random.default_rng(9)
        n = int(10.0 * sim.rate_hz)
        activity = np.ones(n)
        activity[n // 2 :] = 0.05
        matrix = sim.capture(10.0, rng, activity=activity)
        fixed = AIMS(AIMSConfig(sampler="fixed")).acquire(matrix, sim.rate_hz)
        adaptive = AIMS(AIMSConfig(sampler="adaptive")).acquire(
            matrix, sim.rate_hz
        )
        assert adaptive.bytes_recorded < fixed.bytes_recorded


class TestConfigPlumbing:
    def test_block_size_reaches_engine(self):
        system = AIMS(AIMSConfig(block_size=3))
        engine = system.populate("c", np.ones((16, 16)))
        assert engine.store.allocation.axes[0].block_size == 3

    def test_max_degree_reaches_engine(self):
        system = AIMS(AIMSConfig(max_degree=0))
        engine = system.populate("c", np.ones((16, 16)))
        assert engine.filter.name == "haar"

    def test_pool_capacity_enables_caching(self):
        system = AIMS(AIMSConfig(cache_blocks=512))
        engine = system.populate("c", np.abs(
            np.random.default_rng(0).normal(size=(32, 32))
        ))
        q = RangeSumQuery.count([(2, 29), (3, 28)])
        engine.evaluate_exact(q)
        before = engine.store.io_snapshot()
        engine.evaluate_exact(q)
        assert engine.store.io_since(before).reads == 0


class TestExplainThroughFacade:
    def test_explain_a_populated_cube(self):
        system = AIMS(AIMSConfig(max_degree=1))
        engine = system.populate(
            "c", np.abs(np.random.default_rng(1).normal(size=(32, 32)))
        )
        plan = explain(engine, RangeSumQuery.count([(4, 27), (2, 29)]))
        assert plan.blocks_to_read > 0
        text = format_plan(plan)
        assert "db2" in text
