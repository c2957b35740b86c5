"""P8 — the cluster tier: multi-tenant isolation and replica failover.

Three claims the Murder-style frontend/backend tier must earn
quantitatively:

* **routing is transparent** — a many-tenant mixed workload routed
  through the consistent-hash ring answers every exact query
  bitwise-identically to a standalone engine on the same cube;
* **a hot tenant is isolated** — with one tenant flooding batches, its
  excess is rejected at the frontend quota while the well-behaved
  tenants' p95 latency stays within a bounded factor of their quiet
  baseline (each namespace has its own bounded-queue service, so the
  flood burns only its own queue);
* **killing every primary heals to exact answers** — with replicas=1
  and every shard primary failing 100% of reads, the replication layer
  promotes replicas and the tier keeps answering *bitwise-exactly*
  (zero unhandled errors, zero degraded answers) — failover, not
  degradation.

Results land in ``benchmarks/results/P8_cluster.txt`` (table) and in
``BENCH_p8.json`` at the repo root — CI uploads the JSON artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import AIMS, AIMSConfig
from repro.cluster import QuotaExceeded, TenantQuota
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.obs import counter as obs_counter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec

from _util import fmt_ms, format_table, safe_percentile

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_p8.json"

N_BACKENDS = 3
TENANTS = [f"tenant-{i}" for i in range(6)]
DATASETS = ("alpha", "beta")
N_QUERIES = 12
FLOOD_QUOTA = 4
FLOOD_SUBMITS = 48
#: Isolation gate: well-behaved p95 under flood stays within this
#: factor of the quiet p95 (with an absolute floor against timer noise
#: on sub-millisecond baselines).
ISOLATION_FACTOR = 8.0
ISOLATION_FLOOR_S = 0.25


def make_cube() -> np.ndarray:
    rng = np.random.default_rng(2003)
    return rng.poisson(3.0, (32, 32)).astype(float)


def workload(seed: int = 17) -> list[RangeSumQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(N_QUERIES):
        lo1 = int(rng.integers(0, 20))
        lo2 = int(rng.integers(0, 20))
        queries.append(
            RangeSumQuery.count(
                [(lo1, lo1 + int(rng.integers(4, 11))),
                 (lo2, lo2 + int(rng.integers(4, 11)))]
            )
        )
    return queries


def timed_exact(frontend, tenant, dataset, queries):
    """Submit-and-wait each query; returns (values, latencies)."""
    values, latencies = [], []
    for query in queries:
        started = time.perf_counter()
        value = frontend.submit_exact(tenant, dataset, query).result()
        latencies.append(time.perf_counter() - started)
        values.append(value)
    return values, latencies


def run_mixed_workload(frontend, config, queries, cube) -> dict:
    """Every tenant's exact answers vs a standalone reference engine."""
    reference = ProPolyneEngine(
        cube, max_degree=config.max_degree, block_size=config.block_size
    )
    truth = [reference.evaluate_exact(q) for q in queries]
    identical = total = 0
    latencies: list[float] = []
    for tenant in TENANTS:
        for dataset in DATASETS:
            values, lats = timed_exact(frontend, tenant, dataset, queries)
            identical += sum(int(v == t) for v, t in zip(values, truth))
            total += len(values)
            latencies.extend(lats)
    spread = frontend.ring.spread(
        f"{t}/{d}" for t in TENANTS for d in DATASETS
    )
    return {
        "tenants": len(TENANTS),
        "namespaces": len(TENANTS) * len(DATASETS),
        "queries": total,
        "identical_answers": identical,
        "latency_p50_s": safe_percentile(latencies, 50),
        "latency_p95_s": safe_percentile(latencies, 95),
        "ring_spread": {str(k): int(v) for k, v in sorted(spread.items())},
    }


def run_hot_tenant(frontend, queries) -> dict:
    """One tenant floods; the bystanders' p95 stays bounded."""
    flood_tenant = TENANTS[0]
    bystanders = TENANTS[1:]
    # Quiet baseline: bystander latencies with nobody flooding.
    quiet: list[float] = []
    for tenant in bystanders:
        _, lats = timed_exact(frontend, tenant, "alpha", queries)
        quiet.extend(lats)
    # Flood: saturate the hot tenant's quota with whole-workload
    # batches, then measure the bystanders while the flood drains.
    frontend.set_quota(flood_tenant, TenantQuota(max_inflight=FLOOD_QUOTA))
    rejected = 0
    flood_futures = []
    for _ in range(FLOOD_SUBMITS):
        try:
            flood_futures.append(
                frontend.submit_batch(flood_tenant, "alpha", queries * 4)
            )
        except QuotaExceeded:
            rejected += 1
    flooded: list[float] = []
    for tenant in bystanders:
        _, lats = timed_exact(frontend, tenant, "alpha", queries)
        flooded.extend(lats)
    for future in flood_futures:
        future.result()  # drain; the flood itself must not error
    frontend.set_quota(flood_tenant, None)
    return {
        "flood_tenant": flood_tenant,
        "flood_quota": FLOOD_QUOTA,
        "flood_submits": FLOOD_SUBMITS,
        "flood_rejected": rejected,
        "bystander_queries": len(flooded),
        "quiet_p50_s": safe_percentile(quiet, 50),
        "quiet_p95_s": safe_percentile(quiet, 95),
        "flooded_p50_s": safe_percentile(flooded, 50),
        "flooded_p95_s": safe_percentile(flooded, 95),
        "isolation_factor_gate": ISOLATION_FACTOR,
        "isolation_floor_s": ISOLATION_FLOOR_S,
    }


def run_kill_primary(frontend, config, queries, cube) -> dict:
    """Every shard primary dead: promotion restores exact answers."""
    reference = ProPolyneEngine(
        cube, max_degree=config.max_degree, block_size=config.block_size
    )
    truth = [reference.evaluate_exact(q) for q in queries]
    drill_spec = StorageSpec(
        shards=config.shards,
        replicas=1,
        cache_blocks=4,  # small cache: reads must reach the dead disks
        fault_plan=FaultPlan(seed=9, read_error_rate=1.0),
        fault_replicas=(0,),  # kill only the primaries
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                 budget_s=0.0),
        breaker=CircuitBreaker(failure_threshold=3,
                               recovery_timeout_s=60.0),
    )
    frontend.populate("ops", "drill", cube, storage=drill_spec)
    promotions_before = obs_counter("replica.promotions").value
    identical = unhandled = degraded = 0
    for query, expected in zip(queries, truth):
        try:
            outcome = frontend.submit_degradable(
                "ops", "drill", query
            ).result()
        except Exception:  # the contract: this must never happen
            unhandled += 1
            continue
        degraded += int(outcome.degraded)
        identical += int(outcome.value == expected)  # bitwise, not approx
    engine = frontend.engine("ops", "drill")
    groups = engine.store._built.replica_groups
    return {
        "shards": config.shards,
        "queries": len(queries),
        "identical_answers": identical,
        "unhandled": unhandled,
        "degraded": degraded,
        "promotions": int(
            obs_counter("replica.promotions").value - promotions_before
        ),
        "failovers": int(obs_counter("replica.failovers").value),
        "primaries_after": [g.primary for g in groups],
        "stale_members": [g.stale_members() for g in groups],
    }


def run_benchmark() -> dict:
    cube = make_cube()
    queries = workload()
    config = AIMSConfig(shards=2, cache_blocks=32)
    system = AIMS(config)
    with system.cluster(backends=N_BACKENDS, workers=2) as frontend:
        for tenant in TENANTS:
            for dataset in DATASETS:
                frontend.populate(tenant, dataset, cube)
        mixed = run_mixed_workload(frontend, config, queries, cube)
        hot = run_hot_tenant(frontend, queries)
        drill = run_kill_primary(frontend, config, queries, cube)
    payload = {
        "schema": "repro.bench/cluster-v1",
        "backends": N_BACKENDS,
        "mixed_workload": mixed,
        "hot_tenant": hot,
        "kill_primary": drill,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_p8_cluster(emit, benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    mixed = payload["mixed_workload"]
    hot = payload["hot_tenant"]
    drill = payload["kill_primary"]
    rows = [
        ["mixed workload", fmt_ms(mixed["latency_p50_s"]),
         fmt_ms(mixed["latency_p95_s"]),
         f"{mixed['identical_answers']}/{mixed['queries']}"],
        ["bystanders (quiet)", fmt_ms(hot["quiet_p50_s"]),
         fmt_ms(hot["quiet_p95_s"]), "-"],
        ["bystanders (flood)", fmt_ms(hot["flooded_p50_s"]),
         fmt_ms(hot["flooded_p95_s"]), "-"],
        ["kill-primary drill", "-", "-",
         f"{drill['identical_answers']}/{drill['queries']}"],
    ]
    emit(
        "P8_cluster",
        format_table(["phase", "p50 ms", "p95 ms", "identical"], rows)
        + f"\nring spread over {payload['backends']} backends: "
        f"{mixed['ring_spread']}"
        + f"\nhot tenant: {hot['flood_rejected']}/{hot['flood_submits']} "
        f"flood batches rejected at quota {hot['flood_quota']}"
        + f"\nkill-primary: {drill['promotions']} promotions, "
        f"{drill['unhandled']} unhandled, {drill['degraded']} degraded"
        + f"\nJSON baseline written to {JSON_PATH.name}",
    )
    # Routing transparency: every tenant's every answer is bitwise-exact.
    assert mixed["identical_answers"] == mixed["queries"]
    # Every backend owns some namespaces (vnode balance sanity).
    assert all(v > 0 for v in mixed["ring_spread"].values())
    # Hot-tenant isolation: the flood is quota-limited and the
    # bystanders' p95 stays within the gate.
    assert hot["flood_rejected"] > 0
    assert hot["flooded_p95_s"] <= max(
        ISOLATION_FACTOR * hot["quiet_p95_s"], ISOLATION_FLOOR_S
    )
    # Kill-primary: promotion restores bitwise-exact answers with zero
    # unhandled errors and zero degraded answers — failover beats
    # degradation on the healing ladder.
    assert drill["unhandled"] == 0
    assert drill["degraded"] == 0
    assert drill["identical_answers"] == drill["queries"]
    assert drill["promotions"] >= 1
    assert all(p == 1 for p in drill["primaries_after"])
    assert drill["stale_members"] == [[] for _ in drill["primaries_after"]]
    assert JSON_PATH.exists()
