"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest aimsbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, seed=3, trace=0, seconds=0.5):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        sizes=workloads.TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    code, env, result = _run(capsys, workload)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    # Timings are the raw ones at the reference machine speed.
    slowdown = env["slowdown"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["answer_p50_ms"] == pytest.approx(
        env["raw"]["answer_p50_ms"] / slowdown
    )
    assert values["work_per_s"] == pytest.approx(
        env["raw"]["work_per_s"] * slowdown
    )
    assert env["figures"]["error_rate"] == 0.0
    assert env["envelope"]["seed"] == 3
    assert all(n >= 1 for n in env["samples"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    code, _, result = _run(capsys, workload, trace=1)
    assert code == 0
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["bench.unattributed_pct"] <= run.MAX_UNATTRIBUTED_PCT
    # The layer split the workloads were chosen for.
    assert (metrics["query.batch.self_ms"] > 0) == (workload == "dashboard")
    assert (metrics["query.ingest.self_ms"] > 0) == (workload == "ingest")
    assert (metrics["cluster.frontend.self_ms"] > 0) == (workload != "ingest")
    assert (metrics["storage.epochs.self_ms"] > 0) == (workload == "ingest")


def test_wrong_answer_raises_error_rate_and_fails(capsys, monkeypatch):
    from repro.query.propolyne import ProPolyneEngine

    real = ProPolyneEngine.evaluate_exact
    calls = []

    def one_wrong(self, query, as_of=None):
        calls.append(query)
        value = real(self, query, as_of=as_of)
        return value + 1.0 if len(calls) == 2 else value

    monkeypatch.setattr(ProPolyneEngine, "evaluate_exact", one_wrong)
    code, env, result = _run(capsys, "ingest")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert env["figures"]["error_rate"] == pytest.approx(
        1 / result["attempted"]
    )


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_seeds_change_inputs_deterministically(cls):
    def first_inputs(seed):
        workload = cls(seed, workloads.TINY)
        return repr(workload.next_op())

    assert first_inputs(1) == first_inputs(1)
    assert first_inputs(1) != first_inputs(2)


def test_seeds_give_the_same_metric_set(capsys):
    _, _, first = _run(capsys, "dashboard", seed=1)
    _, _, second = _run(capsys, "dashboard", seed=2)
    assert first["metrics"].keys() == second["metrics"].keys()
    assert first["metrics"] != second["metrics"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    root = tracer._index(tracer.layers, tracing.ROOT_LAYER)
    layer = tracer._index(tracer.layers, "storage.sharding")
    leaf = tracer._index(tracer.layers, "storage.disk")
    name = tracer._index(tracer.names, "x")
    spans = [
        # sid, parent, rid, layer, name, start, end, n
        (1, 0, 1, root, name, 0.0, 10.0, -1),
        (2, 1, 1, layer, name, 1.0, 9.0, -1),
        # Two overlapping children (a parallel fan-out) and one that
        # outlives its parent (a cross-thread hop).
        (3, 2, 1, leaf, name, 2.0, 5.0, -1),
        (4, 2, 1, leaf, name, 3.0, 6.0, -1),
        (5, 2, 1, leaf, name, 8.0, 9.5, -1),
        # A hop that starts only after its parent has ended.
        (6, 2, 1, leaf, name, 9.6, 9.8, -1),
    ]
    for span in spans:
        tracer.buffer.extend(span)
    analysis = tracing.analyze(tracer)
    # Layer span: 8 s minus the union [2, 6] and [8, 9] of its children.
    assert analysis["self_s"]["storage.sharding"] == pytest.approx(3.0)
    assert analysis["self_s"]["storage.disk"] == pytest.approx(7.7)
    # Op: 10 s minus the union [1, 9.5] + [9.6, 9.8] of the request's
    # spans.
    assert analysis["ops"] == 1
    assert analysis["uncovered_s"] == pytest.approx(1.3)


def test_tracer_uninstall_restores_the_program():
    from repro.query.propolyne import ProPolyneEngine, translate_query
    from repro.query import ingest, service

    before = (ProPolyneEngine.evaluate_exact, ingest.translate_query,
              service.queue)
    tracer = tracing.Tracer()
    tracer.install()
    assert ingest.translate_query is not translate_query
    tracer.uninstall()
    after = (ProPolyneEngine.evaluate_exact, ingest.translate_query,
             service.queue)
    assert before == after
    assert np.frombuffer(tracer.buffer).size == 0
