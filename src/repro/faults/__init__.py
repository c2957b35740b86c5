"""repro.faults — fault injection and graceful degradation.

The third leg of the "heavy traffic" north star, next to observability
(:mod:`repro.obs`) and concurrency (:mod:`repro.query.service`):
controlled failure and bounded recovery.

* :mod:`repro.faults.plan` — :class:`FaultPlan` (seeded deterministic
  fault schedules) and :class:`FaultyDevice` (device-stack middleware
  injecting read/write errors, CRC-detected torn blocks, and latency
  spikes via the shared :class:`~repro.storage.latency.LatencyModel`);
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, exponential backoff
  with jitter under a hard total-sleep budget;
* :mod:`repro.faults.breaker` — :class:`CircuitBreaker`, fast failure
  for persistent outages with half-open recovery probes.

The :class:`~repro.storage.device.ResilientDevice` layer composes the
retry policy and the breaker at the device seam.

Degradation semantics, tuning knobs and the ``faults.*`` / ``retry.*``
/ ``breaker.*`` metric catalogue are documented in
``docs/OPERATIONS.md``.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import (
    FaultPlan,
    FaultyDevice,
    InjectedFault,
    InjectedReadError,
    InjectedWriteError,
)
from repro.faults.retry import TRANSIENT_ERRORS, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultyDevice",
    "InjectedFault",
    "InjectedReadError",
    "InjectedWriteError",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
]

