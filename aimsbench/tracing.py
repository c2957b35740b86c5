"""Run-time span tracing of the AIMS layers, from outside the program.

The traced run wraps the public functions and methods of each layer's
module while the benchmark runs; no ``src/`` file changes.  Every wrapped
call made on behalf of an op records one span ``[sid, parent, rid, layer,
name, start, end, n]`` (``n`` is a work count for the few spans that carry
one).  Spans live in memory and are written out when the run ends.

Two thread hops are linked so that a request's spans share its request id:

* the query service's admission queue: the task is stamped when the
  client thread enqueues it; when a worker dequeues it, the tracer
  records a ``query.service.wait`` span (enqueue to dequeue) and opens a
  worker span that lasts until the worker asks for its next task;
* the sharded device's fan-out pool: work submitted to the pool runs
  under the submitting span.

A layer's self time is its spans' durations minus the part of each span
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import queue
import sys
import threading
import types
from array import array
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Module -> layer of its public functions and classes.
MODULE_LAYERS = {
    "repro.cluster.frontend": "cluster.frontend",
    "repro.cluster.backend": "cluster.backend",
    "repro.query.service": "query.service",
    "repro.query.propolyne": "query.propolyne",
    "repro.query.batch": "query.batch",
    "repro.query.ingest": "query.ingest",
    "repro.wavelets.lazy": "wavelets.lazy",
    "repro.storage.blockstore": "storage.blockstore",
    "repro.storage.sharding": "storage.sharding",
    "repro.storage.device": "storage.device",
    "repro.storage.disk": "storage.disk",
    "repro.storage.epochs": "storage.epochs",
}

#: Finer layers inside one module: (module, attribute) -> layer.
LAYER_OVERRIDES = {
    ("repro.query.service", "ScanCoordinator"): "query.service.scan",
    ("repro.query.service", "SharedScanStore"): "query.service.scan",
    ("repro.query.propolyne", "translate_query"): "query.propolyne.translate",
}

#: Device-stack classes named by the middleware kind they implement.
DEVICE_KINDS = {"MeteredDevice": "metered", "CachingDevice": "caching"}

WAIT_LAYER = "query.service.wait"
ROOT_LAYER = "bench"
DELTA_SPAN = "query.ingest.delta"
TRANSLATE_SPAN = "query.propolyne.translate_query"

# Span record fields (each span is eight doubles in ``Tracer.buffer``).
SID, PARENT, RID, LAYER, NAME, START, END, COUNT = range(8)
FIELDS = ("sid", "parent", "rid", "layer", "name", "start", "end", "n")


def _count_len(result) -> int:
    return len(result)


class Tracer:
    """Collects spans for the ops of one traced run.

    Spans are appended as flat doubles to one ``array`` (a C call, so
    appends from several threads never interleave); layer and span names
    are indices into :attr:`layers` and :attr:`names`.  Parent 0 marks a
    root.
    """

    def __init__(self) -> None:
        self.buffer = array("d")
        self.layers: list[str] = []
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_ctx: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    def _index(self, table: list, value: str) -> int:
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def op(self):
        """Context manager for one closed-loop op: the request's root."""
        return _RootSpan(self)

    def _wrap(self, fn, layer, name, count=None):
        local = self._local
        ids = self._ids
        record = self.buffer.extend
        clock = perf_counter
        name_id = self._index(self.names, name)
        if callable(layer):
            by_type: dict = {}

            def layer_of(obj) -> int:
                lid = by_type.get(type(obj))
                if lid is None:
                    lid = by_type[type(obj)] = self._index(
                        self.layers, layer(obj)
                    )
                return lid
        else:
            fixed = self._index(self.layers, layer)

            def layer_of(obj) -> int:
                return fixed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:  # not on behalf of an op: set-up, teardown, stats
                return fn(*args, **kwargs)
            lid = layer_of(args[0] if args else None)
            parent, rid = stack[-1]
            sid = next(ids)
            stack.append((sid, rid))
            n = -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, rid, lid, name_id, start, end, n))

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer module's public functions and methods, and
        the two thread hops.  Call before the deployment is built."""
        import importlib

        for module_name, layer in MODULE_LAYERS.items():
            module = importlib.import_module(module_name)
            classes: dict = {}
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(
                    obj, "__module__", None
                ) != module_name:
                    continue
                own_layer = LAYER_OVERRIDES.get((module_name, attr), layer)
                if inspect.isclass(obj):
                    # Private bases (e.g. the block stores' shared base)
                    # carry public methods of the public classes.
                    for base in obj.__mro__:
                        if base.__module__ == module_name:
                            classes.setdefault(base, own_layer)
                elif inspect.isfunction(obj):
                    count = _count_len if attr == "translate_query" else None
                    self._rebind(
                        obj, self._wrap(obj, own_layer, f"{layer}.{attr}", count)
                    )
            for cls, own_layer in classes.items():
                self._wrap_class(cls, own_layer)
        from repro.query.ingest import BatchInserter

        self._patch(
            BatchInserter, "_delta_of",
            self._wrap(BatchInserter.__dict__["_delta_of"], "query.ingest",
                       DELTA_SPAN, _count_len),
        )
        self._install_queue_hop()
        self._install_fanout_hop()

    def _wrap_class(self, cls, layer) -> None:
        if cls.__module__ == "repro.storage.device":
            # Only the middleware layers do I/O work; the spec and stack
            # builders run at set-up.
            from repro.storage.device import DeviceLayer

            if not issubclass(cls, DeviceLayer):
                return
            layer = _device_layer
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(member):
                continue
            if inspect.isgeneratorfunction(member):
                # A generator's body runs in its consumer's frame; its
                # work is attributed to the consumer's span.
                continue
            self._patch(
                cls, attr,
                self._wrap(member, layer, f"{cls.__name__}.{attr}"),
            )

    def _rebind(self, original, traced) -> None:
        # Rebind the function wherever ``from module import name`` copied
        # it, so callers in other modules reach the traced version too.
        for name, other in list(sys.modules.items()):
            if not name.startswith("repro") or other is None:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, traced)

    def _install_queue_hop(self) -> None:
        import repro.query.service as service

        tracer = self

        class TracedQueue(queue.Queue):
            def put(self, item, block=True, timeout=None):
                tracer._note_enqueue(item)
                try:
                    super().put(item, block, timeout)
                except queue.Full:
                    tracer._task_ctx.pop(id(item), None)
                    raise

            def get(self, block=True, timeout=None):
                tracer._close_worker_span()
                item = super().get(block, timeout)
                tracer._open_worker_span(item)
                return item

        shim = types.SimpleNamespace(
            Queue=TracedQueue, SimpleQueue=queue.SimpleQueue,
            Full=queue.Full, Empty=queue.Empty,
        )
        self._patches.append((service, "queue", service.queue))
        service.queue = shim

    def _install_fanout_hop(self) -> None:
        import repro.storage.sharding as sharding

        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = getattr(tracer._local, "stack", None)
                if not stack:
                    return super().submit(fn, *args, **kwargs)
                context = stack[-1]

                def adopted():
                    inner = tracer._stack()
                    inner.append(context)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        inner.pop()

                return super().submit(adopted)

        self._patches.append(
            (sharding, "ThreadPoolExecutor", sharding.ThreadPoolExecutor)
        )
        sharding.ThreadPoolExecutor = TracedExecutor

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- service queue hop -------------------------------------------------

    def _note_enqueue(self, item) -> None:
        stack = getattr(self._local, "stack", None)
        if stack:
            self._task_ctx[id(item)] = (stack[-1], perf_counter())

    def _open_worker_span(self, item) -> None:
        ctx = self._task_ctx.pop(id(item), None)
        if ctx is None:
            return
        (parent, rid), enqueued = ctx
        now = perf_counter()
        wait = self._index(self.layers, WAIT_LAYER)
        self.buffer.extend((next(self._ids), parent, rid, wait,
                            self._index(self.names, WAIT_LAYER), enqueued,
                            now, -1))
        sid = next(self._ids)
        self._stack().append((sid, rid))
        self._local.worker = (sid, parent, rid, now)

    def _close_worker_span(self) -> None:
        open_span = getattr(self._local, "worker", None)
        if open_span is None:
            return
        sid, parent, rid, started = open_span
        self.buffer.extend((
            sid, parent, rid, self._index(self.layers, "query.service"),
            self._index(self.names, "QueryService.worker"), started,
            perf_counter(), -1,
        ))
        self._stack().pop()
        self._local.worker = None

    # -- output --------------------------------------------------------------

    def write(self, stem) -> None:
        """Write the spans: ``<stem>.bin`` holds the raw little-endian
        doubles, eight per span, and ``<stem>.json`` the field, layer and
        name tables that decode them."""
        import json
        from pathlib import Path

        stem = Path(stem)
        stem.with_suffix(".bin").write_bytes(self.buffer.tobytes())
        stem.with_suffix(".json").write_text(json.dumps({
            "fields": FIELDS, "layers": self.layers, "names": self.names,
            "spans": len(self.buffer) // len(FIELDS),
        }))


def _device_layer(device) -> str:
    kind = DEVICE_KINDS.get(type(device).__name__, type(device).__name__)
    return f"storage.device.{kind}"


class _RootSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self):
        self.sid = next(self.tracer._ids)
        self.tracer._stack().append((self.sid, self.sid))
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.buffer.extend((
            self.sid, 0, self.sid, tracer._index(tracer.layers, ROOT_LAYER),
            tracer._index(tracer.names, "bench.op"), self.start, end, -1,
        ))


def _union(starts, ends) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(zip(starts, ends)):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyze(tracer: Tracer) -> dict:
    """Per-layer self time and the op-level coverage of a traced run.

    Returns:
        ``self_s`` (layer -> seconds of self time), ``inclusive_s`` (span
        name -> seconds), ``counts`` (span name -> [spans, summed n]),
        ``ops``, ``op_s`` (summed root duration) and ``uncovered_s``
        (root time that no layer span of the same request covers).
    """
    import numpy as np

    spans = np.frombuffer(tracer.buffer, dtype=float).reshape(-1, len(FIELDS))
    sid = spans[:, SID].astype(np.int64)
    row_of = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(len(sid))
    layer = spans[:, LAYER].astype(np.int64)
    name = spans[:, NAME].astype(np.int64)
    start, end = spans[:, START], spans[:, END]
    duration = end - start
    is_root = spans[:, PARENT] == 0
    prow = np.where(is_root, -1, row_of[spans[:, PARENT].astype(np.int64)])
    child = np.nonzero(prow >= 0)[0]
    parent = prow[child]
    # Each child's interval, clipped to its parent's.
    c_start = np.maximum(start[child], start[parent])
    c_end = np.maximum(np.minimum(end[child], end[parent]), c_start)
    covered = np.bincount(
        parent, weights=c_end - c_start, minlength=len(spans)
    )
    # Siblings overlap only across threads (shard fan-out, the service
    # hop); those parents get the exact union instead of the sum.
    order = np.lexsort((c_start, parent))
    p_sorted, s_sorted = parent[order], c_start[order]
    e_sorted = c_end[order]
    overlap = (p_sorted[1:] == p_sorted[:-1]) & (s_sorted[1:] < e_sorted[:-1])
    for row in np.unique(p_sorted[1:][overlap]):
        members = order[p_sorted == row]
        covered[row] = _union(c_start[members], c_end[members])
    self_time = duration - covered

    n_layers, n_names = len(tracer.layers), len(tracer.names)
    layer_self = np.bincount(
        layer[~is_root], weights=self_time[~is_root], minlength=n_layers
    )
    name_total = np.bincount(name, weights=duration, minlength=n_names)
    counted = spans[:, COUNT] >= 0
    # Impulse translations made by the ingest kernel are not queries.
    if DELTA_SPAN in tracer.names:
        delta_id = tracer.names.index(DELTA_SPAN)
        impulse = counted & (prow >= 0) & (name[np.maximum(prow, 0)] == delta_id)
    else:
        impulse = np.zeros(len(spans), dtype=bool)
    query_counted = counted & ~impulse
    calls = np.bincount(name[query_counted], minlength=n_names)
    summed = np.bincount(
        name[query_counted], weights=spans[query_counted, COUNT],
        minlength=n_names,
    )

    # Op coverage: a span inside its parent's interval adds nothing to the
    # union of its request's spans, so only the root's children and spans
    # that stick out of their parent (cross-thread hops) are unioned.
    roots = np.nonzero(is_root)[0]
    root_of_rid = {int(sid[r]): r for r in roots}
    sticks_out = np.zeros(len(spans), dtype=bool)
    sticks_out[child] = (start[child] < start[parent]) | (
        end[child] > end[parent]
    )
    candidate = (~is_root) & (sticks_out | np.isin(prow, roots))
    per_root: dict = {}
    rid = spans[:, RID].astype(np.int64)
    for row in np.nonzero(candidate)[0]:
        per_root.setdefault(root_of_rid.get(int(rid[row])), []).append(row)
    uncovered = 0.0
    for r in roots:
        rows = per_root.get(r, [])
        uncovered += duration[r] - _union(
            np.clip(start[rows], start[r], end[r]),
            np.clip(end[rows], start[r], end[r]),
        )
    return {
        "self_s": {
            tracer.layers[i]: float(v) for i, v in enumerate(layer_self)
            if tracer.layers[i] != ROOT_LAYER
        },
        "inclusive_s": {
            tracer.names[i]: float(v) for i, v in enumerate(name_total)
        },
        "counts": {
            tracer.names[i]: [int(calls[i]), float(summed[i])]
            for i in range(n_names) if calls[i]
        },
        "ops": len(roots),
        "op_s": float(duration[roots].sum()),
        "uncovered_s": uncovered,
    }
