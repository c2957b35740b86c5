"""RetryPolicy backoff properties and CircuitBreaker state machine.

The retry schedule is the pipeline's worst-case latency contract, so
its properties are asserted exhaustively over a grid of policies:
monotone growth, per-sleep ceiling, bounded jitter, and the hard total
budget.  The breaker tests drive the closed / open / half-open machine
with a fake clock — no real sleeping.
"""

import itertools
import random

import pytest

from repro.core.errors import StorageError, StorageUnavailable
from repro.faults import CircuitBreaker, RetryPolicy
from repro.faults.plan import InjectedReadError
from repro.storage.device import ResilientDevice


def policy_grid():
    """A small property-test grid over the policy parameter space."""
    attempts = (1, 2, 4, 7)
    bases = (0.0, 0.001, 0.02)
    multipliers = (1.0, 1.5, 3.0)
    jitters = (0.0, 0.1, 0.5)
    for a, b, m, j in itertools.product(attempts, bases, multipliers, jitters):
        yield RetryPolicy(
            max_attempts=a, base_delay_s=b, multiplier=m,
            max_delay_s=0.05, jitter=j, budget_s=0.1,
        )


class TestRetryPolicyProperties:
    def test_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(StorageError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(StorageError):
            RetryPolicy(base_delay_s=-1.0)

    def test_base_delays_monotone_capped_and_budgeted(self):
        for policy in policy_grid():
            delays = policy.base_delays()
            assert len(delays) <= policy.max_attempts - 1
            assert all(d <= policy.max_delay_s + 1e-12 for d in delays)
            assert sum(delays) <= policy.budget_s + 1e-9
            # Monotone non-decreasing except possibly the final
            # budget-clipped entry.
            body = delays[:-1]
            assert all(x <= y + 1e-12 for x, y in zip(body, body[1:]))

    def test_jittered_delays_bounded_by_jitter_fraction(self):
        for policy in policy_grid():
            base = [
                min(policy.base_delay_s * policy.multiplier**k,
                    policy.max_delay_s)
                for k in range(policy.max_attempts - 1)
            ]
            jittered = policy.delays(random.Random(99))
            assert len(jittered) <= len(base)
            spent = 0.0
            for raw, actual in zip(base, jittered):
                # Below the budget cut, each sleep lies in
                # [base, base * (1 + jitter)].
                upper = raw * (1.0 + policy.jitter)
                assert actual <= min(upper, policy.budget_s - spent) + 1e-12
                assert actual >= min(raw, policy.budget_s - spent) - 1e-12
                spent += actual
            assert spent <= policy.budget_s + 1e-9

    def test_delays_replay_for_equal_policies(self):
        a = RetryPolicy(seed=5)
        b = RetryPolicy(seed=5)
        assert a.delays() == b.delays()
        assert a.delays() == a.delays()  # fresh RNG per call

    def test_budget_clips_long_schedules(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay_s=0.01, multiplier=1.0,
            max_delay_s=0.01, jitter=0.0, budget_s=0.035,
        )
        delays = policy.base_delays()
        assert sum(delays) == pytest.approx(0.035)
        assert len(delays) == 4  # 3 full sleeps + one clipped remainder


class TestRetryExecute:
    def test_recovers_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise InjectedReadError("transient")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, jitter=0.0)
        assert policy.execute(flaky, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert slept == policy.base_delays()[:2]

    def test_gives_up_after_schedule_and_reraises(self):
        def always_fails():
            raise InjectedReadError("still down")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(InjectedReadError):
            policy.execute(always_fails, sleep=lambda _d: None)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("caller bug")

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(ValueError):
            policy.execute(broken, sleep=lambda _d: None)
        assert len(calls) == 1

    def test_on_retry_hook_sees_attempts_and_errors(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise InjectedReadError("x")
            return 1

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        policy.execute(
            flaky, sleep=lambda _d: None,
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc))),
        )
        assert seen == [(1, InjectedReadError), (2, InjectedReadError)]


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_timeout_s=kwargs.pop("recovery_timeout_s", 1.0),
            clock=clock,
            **kwargs,
        )
        return breaker, clock

    def test_validation(self):
        with pytest.raises(StorageError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(StorageError):
            CircuitBreaker(recovery_timeout_s=-1.0)
        with pytest.raises(StorageError):
            CircuitBreaker(half_open_probes=0)

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _clock = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_timeout_then_closes_on_probe_success(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == "half-open"
        assert breaker.allow()        # the probe slot
        assert not breaker.allow()    # no second probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        # The dwell restarts from the failed probe.
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.5)
        assert breaker.allow()

    def test_snapshot_reports_operator_view(self):
        breaker, _clock = self.make(name="teststore")
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "name": "teststore",
            "state": "closed",
            "consecutive_failures": 1,
            "trips": 0,
            "rejections": 0,
        }


class ScriptedDevice:
    """Inner device whose every read runs one scripted callable."""

    def __init__(self, read) -> None:
        self.read = read

    def read_block(self, block_id):
        return self.read()


class TestResilientDevice:
    def test_wraps_exhausted_retries_as_storage_unavailable(self):
        def always_fails():
            raise InjectedReadError("down")

        device = ResilientDevice(
            ScriptedDevice(always_fails),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        with pytest.raises(StorageUnavailable):
            device.read_block(0)

    def test_breaker_opens_then_fails_fast_without_calling(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, recovery_timeout_s=1.0, clock=clock
        )
        calls = []

        def always_fails():
            calls.append(1)
            raise InjectedReadError("down")

        device = ResilientDevice(ScriptedDevice(always_fails), breaker=breaker)
        for _ in range(2):
            with pytest.raises(StorageUnavailable):
                device.read_block(0)
        assert len(calls) == 2
        with pytest.raises(StorageUnavailable):
            device.read_block(0)
        assert len(calls) == 2  # rejected before the inner read ran

    def test_success_path_passes_result_through(self):
        device = ResilientDevice(
            ScriptedDevice(lambda: {"a": 1.0}),
            retry_policy=RetryPolicy(max_attempts=3),
            breaker=CircuitBreaker(),
        )
        assert device.read_block(0) == {"a": 1.0}

    def test_non_transient_errors_do_not_count_against_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1)

        def broken():
            raise KeyError("missing")

        device = ResilientDevice(ScriptedDevice(broken), breaker=breaker)
        with pytest.raises(KeyError):
            device.read_block(0)
        assert breaker.state == "closed"
