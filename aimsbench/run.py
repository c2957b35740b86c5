"""AIMS benchmark: three closed-loop workloads over the repo's own code.

Usage (from the repository root)::

    python3 aimsbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; their timings are scaled
to a reference machine speed by a CPU kernel timed before every op (see
``speed_kernel``).  ``--trace 1`` runs the workload twice in one process
with the same seed and length, untraced and then traced, and reports the
per-layer metrics, the share of op time that no layer span covers, and
the traced run's slow-down.  The last line of standard output is the
result object; the line before it is the run envelope (versions, seed,
sample counts, raw timings and the per-kind figures).  The command exits
non-zero when an answer is wrong or, in a traced run, when more than 10%
of op time is unattributed.  See ``aimsbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Every tail percentile needs at least this many samples in a run.
MIN_TAIL_SAMPLES = 100
#: A run that has not reached MIN_TAIL_SAMPLES (or its workload's
#: ``rss_ops``) stops at this multiple of its length anyway.
MAX_STRETCH = 3
#: The traced run fails above this share of unattributed op time.
MAX_UNATTRIBUTED_PCT = 10.0
#: Seconds the speed kernel takes on the reference machine (a 2-vCPU
#: sandbox); gated timings are reported at that speed.
KERNEL_REF_S = 1.45e-3
#: Kernel runs just before and just after set-up, which scale ``setup_s``.
KERNELS_AROUND_SETUP = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
}

#: Layers reported as ``<layer>.self_ms``.
SELF_LAYERS = (
    "cluster.frontend",
    "cluster.backend",
    "query.service",
    "query.service.scan",
    "query.propolyne",
    "query.batch",
    "query.ingest",
    "storage.blockstore",
    "storage.sharding",
    "storage.device.metered",
    "storage.device.caching",
    "storage.disk",
    "storage.epochs",
)
#: Layers whose self time is reported under another name.
RENAMED_LAYERS = {
    "query.service.wait": "query.service.wait_ms",
    "query.propolyne.translate": "query.propolyne.translate_ms",
    "wavelets.lazy": "wavelets.lazy.transform_ms",
}

PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in SELF_LAYERS},
    **{name: "ms" for name in RENAMED_LAYERS.values()},
    "query.ingest.delta_ms": "ms",
    "query.service.scan.shared_ratio": "ratio",
    "query.propolyne.coefficients_per_query": "count",
    "query.ingest.coefficients_per_point": "count",
    "wavelets.lazy.transcache_hit_rate": "ratio",
    "storage.device.cache_hit_rate": "ratio",
    "storage.device.evictions_per_op": "count",
    "storage.device.invalidations_per_commit": "count",
    "storage.disk.reads_per_op": "count",
    "storage.disk.writes_per_op": "count",
    "storage.blocks_per_query": "count",
    "bench.unattributed_pct": "pct",
    "bench.trace_overhead_pct": "pct",
}


@dataclass
class Phase:
    """What one measured loop produced."""

    setup_s: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    op_s: list = field(default_factory=list)
    work: int = 0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    elapsed_s: float = 0.0
    rss_mib: float | None = None
    kernel_s: list = field(default_factory=list)
    setup_slowdown: float = 1.0
    counters: dict = field(default_factory=dict)

    def slowdown(self) -> float:
        """How much slower the machine ran than the reference machine,
        from the speed kernel timed before every op."""
        return statistics.median(self.kernel_s) / KERNEL_REF_S


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def speed_kernel() -> float:
    """Seconds one run of a fixed CPU kernel takes now.

    The sandbox's CPU speed drifts by tens of percent over minutes, and
    the same code slows down with it.  The kernel does the kind of work
    the program does (a dict with tuple keys built and walked, float
    arithmetic, a small numpy dot) but calls no repository code.
    Garbage collection is paused inside it, so it never runs a
    collection that the program's own allocations are due.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i + 1, i + 2)] = i * 0.5
        total = 0.0
        for key, value in table.items():
            total += value * key[0]
        values = np.arange(3000.0)
        total += float(np.dot(values, values))
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def run_phase(workload_cls, seed, seconds, sizes, tracer=None) -> Phase:
    """Set up one deployment and drive it for ``seconds`` (closed loop)."""
    from repro.core.errors import AIMSError

    workload = workload_cls(seed, sizes)
    around_setup = [speed_kernel() for _ in range(KERNELS_AROUND_SETUP)]
    phase = Phase(setup_s=workload.setup())
    around_setup += [speed_kernel() for _ in range(KERNELS_AROUND_SETUP)]
    phase.setup_slowdown = statistics.median(around_setup) / KERNEL_REF_S
    before = workload.counters()
    started = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - started
            if elapsed >= seconds and (
                _enough(workload_cls, phase) or elapsed >= MAX_STRETCH * seconds
            ):
                break
            op = workload.next_op()
            phase.kernel_s.append(speed_kernel())
            phase.attempted += 1
            op_started = perf_counter()
            try:
                if tracer is None:
                    result, samples, work = workload.run_op(op)
                else:
                    with tracer.op():
                        result, samples, work = workload.run_op(op)
            except AIMSError as exc:  # failed or rejected op
                phase.failed += 1
                print(f"op {phase.attempted} failed: {exc!r}", file=sys.stderr)
                continue
            phase.op_s.append(perf_counter() - op_started)
            for kind, values in samples.items():
                phase.samples[kind].extend(values)
            if len(phase.op_s) == workload_cls.rss_ops:
                phase.rss_mib = peak_rss_mib()
            phase.work += work
            phase.queries += workload_cls.queries_of(op)
            wrong = workload.check(op, result)
            if wrong:
                phase.wrong += wrong
                phase.failed += 1
        phase.elapsed_s = perf_counter() - started
        if phase.rss_mib is None:
            phase.rss_mib = peak_rss_mib()
        after = workload.counters()
    finally:
        workload.close()
    phase.counters = _difference(after, before)
    return phase


def _enough(workload_cls, phase: Phase) -> bool:
    """Whether every answer kind has its tail samples and the run has
    done the ops its memory figure is taken after."""
    return all(
        len(phase.samples[kind]) >= MIN_TAIL_SAMPLES
        for kind in workload_cls.answer_kinds
    ) and len(phase.op_s) >= (workload_cls.rss_ops or 0)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _difference(after: dict, before: dict) -> dict:
    if isinstance(after, dict):
        return {k: _difference(v, before[k]) for k, v in after.items()}
    return after - before


def answer_ms(workload_cls, phase: Phase, q: float) -> float:
    """An answer-latency percentile: the mean over the workload's answer
    kinds of each kind's own percentile, so that the mix of kinds in a
    run does not move it."""
    return 1000.0 * statistics.fmean(
        percentile(phase.samples[kind], q)
        for kind in workload_cls.answer_kinds
    )


def raw_timings(workload_cls, phase: Phase) -> dict:
    """The end-to-end timings as measured on this machine."""
    busy = sum(s for k in workload_cls.work_kinds for s in phase.samples[k])
    return {
        "setup_s": statistics.median(phase.setup_s),
        "work_per_s": phase.work / busy,
        "answer_p50_ms": answer_ms(workload_cls, phase, 50),
        "answer_p90_ms": answer_ms(workload_cls, phase, 90),
    }


def end_to_end_metrics(workload_cls, phase: Phase) -> dict:
    """The gated metrics: timings scaled to the reference machine's
    speed (a rate multiplied, a time divided, by the run's slowdown)."""
    raw = raw_timings(workload_cls, phase)
    slowdown = phase.slowdown()
    return {
        "setup_s": raw["setup_s"] / phase.setup_slowdown,
        "peak_rss_mib": phase.rss_mib,
        "work_per_s": raw["work_per_s"] * slowdown,
        "answer_p50_ms": raw["answer_p50_ms"] / slowdown,
        "answer_p90_ms": raw["answer_p90_ms"] / slowdown,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(analysis: dict, phase: Phase, overhead_pct: float) -> dict:
    from tracing import DELTA_SPAN, TRANSLATE_SPAN

    ops = analysis["ops"]
    self_s = analysis["self_s"]
    counts = analysis["counts"]
    c = phase.counters

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    metrics = {
        f"{layer}.self_ms": per_op_ms(self_s.get(layer, 0.0))
        for layer in SELF_LAYERS
    }
    for layer, name in RENAMED_LAYERS.items():
        metrics[name] = per_op_ms(self_s.get(layer, 0.0))
    translate = counts.get(TRANSLATE_SPAN, [0, 0])
    delta = counts.get(DELTA_SPAN, [0, 0])
    caching = c["caching"]
    commits = len(phase.samples.get("commit", ()))
    metrics.update({
        "query.ingest.delta_ms": per_op_ms(
            analysis["inclusive_s"].get(DELTA_SPAN, 0.0)
        ),
        "query.service.scan.shared_ratio": _ratio(
            c["scan"]["shared"], c["scan"]["shared"] + c["scan"]["fetches"]
        ),
        "query.propolyne.coefficients_per_query": _ratio(
            translate[1], translate[0]
        ),
        "query.ingest.coefficients_per_point": _ratio(delta[1], delta[0]),
        "wavelets.lazy.transcache_hit_rate": _ratio(
            c["transcache"]["hits"],
            c["transcache"]["hits"] + c["transcache"]["misses"],
        ),
        "storage.device.cache_hit_rate": _ratio(
            caching["hits"], caching["hits"] + caching["misses"]
        ),
        "storage.device.evictions_per_op": _ratio(caching["evictions"], ops),
        "storage.device.invalidations_per_commit": _ratio(
            caching["invalidations"], commits
        ),
        "storage.disk.reads_per_op": _ratio(c["disk"]["reads"], ops),
        "storage.disk.writes_per_op": _ratio(c["disk"]["writes"], ops),
        "storage.blocks_per_query": _ratio(c["query_blocks"], phase.queries),
        "bench.unattributed_pct": 100.0
        * _ratio(analysis["uncovered_s"], analysis["op_s"]),
        "bench.trace_overhead_pct": overhead_pct,
    })
    return metrics


def trace_overhead_pct(untraced: Phase, traced: Phase) -> float:
    """Slow-down of the traced run over the ops both runs completed (the
    same seed gives both the same op sequence)."""
    n = min(len(untraced.op_s), len(traced.op_s))
    base = sum(untraced.op_s[:n])
    return 100.0 * (sum(traced.op_s[:n]) / base - 1.0)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(args, workload_cls, phase: Phase) -> dict:
    figures = {}
    for kind, values in sorted(phase.samples.items()):
        figures[f"{kind}_p50_ms"] = 1000.0 * percentile(values, 50)
        if len(values) >= MIN_TAIL_SAMPLES:
            figures[f"{kind}_p90_ms"] = 1000.0 * percentile(values, 90)
    answering = sum(sum(phase.samples[k]) for k in workload_cls.answer_kinds)
    figures["queries_per_s"] = phase.queries / answering
    figures["error_rate"] = phase.failed / phase.attempted
    return {
        "envelope": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "measured_s": phase.elapsed_s,
            "trace": args.trace,
            "REPRO_OBS": os.environ.get("REPRO_OBS", ""),
        },
        "samples": {k: len(v) for k, v in sorted(phase.samples.items())},
        "setup_samples": len(phase.setup_s),
        "kernel_ms": 1000.0 * statistics.median(phase.kernel_s),
        "slowdown": phase.slowdown(),
        "setup_slowdown": phase.setup_slowdown,
        "raw": raw_timings(workload_cls, phase),
        "figures": figures,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"aimsbench: no AIMS sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, analyze

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"aimsbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = sizes or workloads.FULL

    phase = run_phase(workload_cls, args.seed, args.seconds, sizes)
    attempted, failed = phase.attempted, phase.failed
    correct = phase.wrong == 0
    unattributed_ok = True
    if args.trace:
        untraced = phase
        del phase
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_phase(
                workload_cls, args.seed, args.seconds, sizes, tracer
            )
        finally:
            tracer.uninstall()
        analysis = analyze(tracer)
        metrics = per_layer_metrics(
            analysis, phase, trace_overhead_pct(untraced, phase)
        )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}")
        attempted += phase.attempted
        failed += phase.failed
        correct = correct and phase.wrong == 0
        unattributed_ok = (
            metrics["bench.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT
        )
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(workload_cls, phase)
        units = END_TO_END
    print(json.dumps(envelope(args, workload_cls, phase)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    if not correct:
        print("aimsbench: wrong answers (see error_rate)", file=sys.stderr)
        return 1
    if not unattributed_ok:
        print(f"aimsbench: more than {MAX_UNATTRIBUTED_PCT}% of op time is "
              f"unattributed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
