"""The block-device protocol and its composable middleware stack.

Before this layer existed, the storage data path was an accretion of
special cases: the simulated disk carried a weak-ref set of caches to
invalidate, fault injection was a disk subclass, CRC framing was bolted
onto ``BlockStore._read``, and retry/breaker resilience was wrapped
around the store rather than the device.  This module re-expresses all
of it as one small interface — :class:`BlockDevice` — plus stackable
middleware implementing it:

* :class:`CachingDevice` — LRU block cache; write-through invalidation
  is an *internal* invariant (writes enter through the cache), so the
  old weak-ref side channel on the disk is gone;
* :class:`CrcFramedDevice` — frames payloads through the CRC block
  codec (``MAGIC | CRC32 | body``) so at-rest corruption surfaces as a
  typed :class:`~repro.core.errors.CorruptedBlockError`;
* :class:`MeteredDevice` — observability counters at a chosen seam
  (``storage.disk.*`` directly above the leaf, ``storage.device.*``
  for the whole stack);
* :class:`ResilientDevice` — retry + circuit breaker composed at the
  device seam (:mod:`repro.faults`);
* ``FaultyDevice`` (:mod:`repro.faults.plan`) — seeded fault injection
  as middleware instead of a disk subclass.

:class:`DeviceStack` builds a stack from a declarative layer list and
validates layer order; :class:`StorageSpec` is the one-object storage
configuration (shards / cache / faults / resilience / latency) that
block stores, the AIMS facade and the CLI all build from.  Layer-order
rule: every stack must be a subsequence of::

    metered > resilient > caching > crc > faulty > disk

(metering outermost so it sees every logical read; retries outside the
cache so a failed miss is re-driven through it; CRC inside the cache so
hits are not re-verified; faults below CRC so torn frames are *caught*
by the checksum, not simulated around it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Protocol, runtime_checkable

from repro.core.errors import StorageError, StorageUnavailable
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs.stats import StatsBase
from repro.storage.codec import decode_block, encode_block
from repro.storage.disk import IOStats, SimulatedDisk
from repro.storage.latency import LatencyModel

__all__ = [
    "BlockDevice",
    "BuiltStorage",
    "CachingDevice",
    "CrcFramedDevice",
    "DeviceLayer",
    "DeviceStack",
    "MeteredDevice",
    "PoolStats",
    "ResilientDevice",
    "StorageSpec",
]


@runtime_checkable
class BlockDevice(Protocol):
    """What every storage layer speaks: blocks addressed by id.

    The four required members; concrete devices and middleware also
    provide the wider conventional surface (``read_block_shared``,
    ``read_many``, ``has_block``, ``block_ids``, ``occupancy``,
    ``io_totals``, ``block_size``) which :class:`DeviceLayer` delegates
    by default.
    """

    def read_block(self, block_id: Hashable):
        """Fetch one block payload; the caller owns the returned value."""

    def write_block(self, block_id: Hashable, items) -> None:
        """Store (or overwrite) one block payload."""

    def n_blocks(self) -> int:
        """Number of allocated blocks."""

    def stats(self) -> dict:
        """Nested per-layer statistics, outermost layer first."""


@dataclass
class PoolStats(StatsBase):
    """Hit/miss/eviction/invalidation counters of a caching layer.

    Shares the ``reset``/``snapshot``/``delta`` protocol of
    :class:`repro.obs.stats.StatsBase`, so cache activity can be
    differenced before/after a workload exactly like device I/O.
    Updates happen under the owning cache's lock, so concurrent traffic
    never loses increments.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DeviceLayer:  # lint: ignore[obs-coverage] — pure delegation base; metering layers own the registry series
    """Base class for stackable middleware over an inner block device.

    Delegates the whole :class:`BlockDevice` surface to ``inner``;
    subclasses override exactly the operations they mediate.  Layers
    must never hold a lock across a call into ``inner`` (the storage
    locking rule from ``docs/ARCHITECTURE.md``).
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def block_size(self) -> int:
        """Item capacity of one block (delegated to the leaf device)."""
        return self.inner.block_size

    def read_block(self, block_id: Hashable):
        """Fetch one block; the caller owns the returned payload."""
        return self.inner.read_block(block_id)

    def read_block_shared(self, block_id: Hashable):
        """Fetch one block without a defensive copy (immutable by
        contract)."""
        return self.inner.read_block_shared(block_id)

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Fetch several blocks; returns ``{block_id: payload}``.

        The default loops :meth:`read_block` so every layer's per-block
        semantics (cache hits, fault draws, retries) apply unchanged; a
        sharded device overrides this with a fan-out.
        """
        return {b: self.read_block(b) for b in block_ids}

    def write_block(self, block_id: Hashable, items) -> None:
        """Store one block through the stack."""
        self.inner.write_block(block_id, items)

    def write_many(self, blocks: dict) -> None:
        """Store several blocks; ``blocks`` maps block id to payload.

        The write-side twin of :meth:`read_many`: the default loops
        :meth:`write_block` so every layer's per-block semantics (cache
        invalidation, CRC framing, fault draws) apply unchanged; a
        sharded device overrides this with a coalesced per-shard
        fan-out, and framing/caching layers override it to push the
        whole group down in one inner call.
        """
        for block_id, items in blocks.items():
            self.write_block(block_id, items)

    def has_block(self, block_id: Hashable) -> bool:
        """Existence check (directory metadata, no I/O charged)."""
        return self.inner.has_block(block_id)

    def block_ids(self) -> list:
        """All allocated block ids (no I/O charged)."""
        return self.inner.block_ids()

    def n_blocks(self) -> int:
        """Number of allocated blocks."""
        return self.inner.n_blocks()

    def occupancy(self) -> float:
        """Mean fraction of block capacity in use."""
        return self.inner.occupancy()

    def io_totals(self) -> IOStats:
        """Cumulative leaf-device I/O below this layer (copy)."""
        return self.inner.io_totals()

    def stats(self) -> dict:
        """Nested per-layer statistics (default: pass through)."""
        return self.inner.stats()

    def __len__(self) -> int:
        return self.n_blocks()


class MeteredDevice(DeviceLayer):
    """Observability middleware: counts reads/writes at its seam.

    Placed directly above the leaf with ``prefix="storage.disk"`` it
    reproduces the classic device counters; placed outermost with
    ``prefix="storage.device"`` it counts every logical read the stack
    serves (cache hits included).  Counters go both to local fields and
    to the process-wide metrics registry.
    """

    def __init__(self, inner, prefix: str = "storage.device") -> None:
        super().__init__(inner)
        self.prefix = prefix
        self.reads = 0
        self.writes = 0
        self._lock = watched_lock("storage.metered")

    def _count_reads(self, n: int = 1) -> None:
        with self._lock:
            self.reads += n
        obs_counter(f"{self.prefix}.reads").inc(n)

    def read_block(self, block_id: Hashable):
        """Fetch one block, counting ``<prefix>.reads``."""
        payload = self.inner.read_block(block_id)
        self._count_reads()
        return payload

    def read_block_shared(self, block_id: Hashable):
        """Shared (no-copy) fetch, counting ``<prefix>.reads``."""
        payload = self.inner.read_block_shared(block_id)
        self._count_reads()
        return payload

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Bulk fetch, counting one read per block and preserving the
        inner device's fan-out."""
        ids = list(block_ids)
        out = self.inner.read_many(ids)
        self._count_reads(len(ids))
        return out

    def write_block(self, block_id: Hashable, items) -> None:
        """Store one block, counting ``<prefix>.writes``."""
        self.inner.write_block(block_id, items)
        with self._lock:
            self.writes += 1
        obs_counter(f"{self.prefix}.writes").inc()

    def write_many(self, blocks: dict) -> None:
        """Bulk store, counting one write per block and preserving the
        inner device's coalesced fan-out."""
        self.inner.write_many(blocks)
        n = len(blocks)
        with self._lock:
            self.writes += n
        obs_counter(f"{self.prefix}.writes").inc(n)

    def stats(self) -> dict:
        """This meter's totals plus the inner layers' statistics."""
        with self._lock:
            reads, writes = self.reads, self.writes
        return {
            "layer": "metered",
            "prefix": self.prefix,
            "reads": reads,
            "writes": writes,
            "inner": self.inner.stats(),
        }


class CachingDevice(DeviceLayer):
    """Fixed-capacity LRU cache middleware: hits are free, misses cost
    one inner read.

    Coherence is an internal invariant now: every write enters through
    :meth:`write_block`, which writes through to the inner device and
    then invalidates the cached copy — no weak-ref side channel on the
    leaf.  Cached entries are the inner device's immutable payloads
    (one shared instance, never mutated in place) and dict callers
    always receive a fresh copy, so a cached read costs exactly one
    copy whether it hits or misses.

    Thread safety: one lock guards the LRU map, :class:`PoolStats` and
    the invalidation generation; the lock is *not* held across the
    inner read a miss performs.  That opens a window — a payload read
    before a concurrent write could be inserted after that write's
    invalidation ran — closed by the generation gate: every
    ``invalidate``/``clear`` bumps ``_gen`` and a miss only publishes
    its payload if no invalidation happened since the miss began.
    """

    def __init__(self, inner, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError(
                f"cache capacity must be positive, got {capacity}"
            )
        super().__init__(inner)
        self.capacity = capacity
        self.pool_stats = PoolStats()
        self._cache: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = watched_lock("storage.caching")
        # Bumped by every invalidate()/clear(); see the class docstring.
        self._gen = 0

    @staticmethod
    def _copy(payload):
        return dict(payload) if isinstance(payload, dict) else payload

    def _occupancy(self) -> float:
        return len(self._cache) / self.capacity

    def read_block_shared(self, block_id: Hashable):
        """Cached fetch returning the shared (immutable) payload."""
        with self._lock:
            cached = self._cache.get(block_id)
            if cached is not None:
                self._cache.move_to_end(block_id)
                self.pool_stats.hits += 1
            else:
                gen = self._gen
        if cached is not None:
            obs_counter("storage.pool.hits").inc()
            return cached
        # Inner payloads are immutable-by-contract, so the shared
        # instance can be the cache entry itself: one copy per cached
        # read (for dict callers), not two.
        payload = self.inner.read_block_shared(block_id)
        evicted = 0
        with self._lock:
            self.pool_stats.misses += 1
            if self._gen == gen and block_id not in self._cache:
                self._cache[block_id] = payload
                while len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
                    self.pool_stats.evictions += 1
                    evicted += 1
            occupancy = self._occupancy()
        obs_counter("storage.pool.misses").inc()
        if evicted:
            obs_counter("storage.pool.evictions").inc(evicted)
        obs_gauge("storage.pool.occupancy").set(occupancy)
        return payload

    def read_block(self, block_id: Hashable):
        """Cached fetch; dict callers receive a fresh copy they own."""
        return self._copy(self.read_block_shared(block_id))

    def write_block(self, block_id: Hashable, items) -> None:
        """Write through to the inner device, then invalidate the cached
        copy — the write-through coherence invariant, owned here."""
        self.inner.write_block(block_id, items)
        self.invalidate(block_id)

    def write_many(self, blocks: dict) -> None:
        """Group write-through: one coalesced inner write, then every
        touched id invalidated.

        Invalidation happens *after* the inner write settles, with one
        generation bump per block — exactly the coherence the per-block
        path provides, because an in-flight miss racing any of these
        writes sees a generation newer than the one it captured and
        declines to publish its stale payload.  When the inner write
        fails partway (an injected write fault below), every member is
        invalidated anyway: blocks that did reach the device must not
        be shadowed by stale cache entries, and dropping a still-valid
        entry merely costs one re-read.
        """
        try:
            self.inner.write_many(blocks)
        finally:
            for block_id in blocks:
                self.invalidate(block_id)

    def invalidate(self, block_id: Hashable) -> None:
        """Drop a cached block.

        Always bumps the invalidation generation — even when the block
        is not currently cached — because an in-flight miss may be
        about to publish a pre-write payload.
        """
        with self._lock:
            self._gen += 1
            dropped = self._cache.pop(block_id, None) is not None
            if dropped:
                self.pool_stats.invalidations += 1
            occupancy = self._occupancy()
        if dropped:
            obs_counter("storage.pool.invalidations").inc()
            obs_gauge("storage.pool.occupancy").set(occupancy)

    def clear(self) -> None:
        """Empty the cache (statistics are kept)."""
        with self._lock:
            self._gen += 1
            self._cache.clear()
        obs_gauge("storage.pool.occupancy").set(0.0)

    def cached_blocks(self) -> int:
        """Blocks currently held in memory."""
        with self._lock:
            return len(self._cache)

    @property
    def generation(self) -> int:
        """Current invalidation generation (monotonic).

        Every invalidation or clear bumps it, so two equal readings
        bracket a window with no cache invalidation in between — the
        provenance surface records it per answer
        (:class:`~repro.query.explain.QueryProvenance`).
        """
        with self._lock:
            return self._gen

    def stats(self) -> dict:
        """Cache counters plus the inner layers' statistics."""
        with self._lock:
            snap = self.pool_stats.snapshot()
            cached = len(self._cache)
        return {
            "layer": "caching",
            "capacity": self.capacity,
            "cached": cached,
            "hits": snap.hits,
            "misses": snap.misses,
            "evictions": snap.evictions,
            "invalidations": snap.invalidations,
            "inner": self.inner.stats(),
        }


class CrcFramedDevice(DeviceLayer):  # lint: ignore[obs-coverage] — transparent framing; corruption surfaces as faults.* series from the faulty layer
    """CRC-framing middleware: payload dictionaries above, self-verifying
    byte frames (``MAGIC | CRC32 | body``) below.

    Every write is encoded through the block codec before it reaches
    the inner device, and every read is CRC-verified before the body is
    decoded — at-rest corruption (including torn frames injected by a
    ``FaultyDevice`` stacked *below* this layer) surfaces as a typed
    :class:`~repro.core.errors.CorruptedBlockError`, never as silently
    wrong coefficients.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        # Item counts per block: the leaf stores opaque frames, so the
        # item-capacity bookkeeping (occupancy, overfull rejection)
        # moves up here.
        self._counts: dict[Hashable, int] = {}
        self._lock = watched_lock("storage.crc")

    def write_block(self, block_id: Hashable, items) -> None:
        """Frame one payload dictionary and store the encoded bytes."""
        if not isinstance(items, dict):
            raise StorageError(
                f"block {block_id!r}: CRC framing stores payload "
                f"dictionaries, got {type(items).__name__}"
            )
        if len(items) > self.block_size:
            raise StorageError(
                f"block {block_id!r}: {len(items)} items exceed "
                f"block size {self.block_size}"
            )
        self.inner.write_block(block_id, encode_block(items))
        with self._lock:
            self._counts[block_id] = len(items)

    def write_many(self, blocks: dict) -> None:
        """Frame every payload in the group and store the encoded frames
        as one coalesced inner write.

        Validation (dict payloads only, capacity bound) runs for the
        *whole* group before any frame reaches the inner device, so a
        malformed member rejects the batch instead of leaving a torn
        group half-written.
        """
        for block_id, items in blocks.items():
            if not isinstance(items, dict):
                raise StorageError(
                    f"block {block_id!r}: CRC framing stores payload "
                    f"dictionaries, got {type(items).__name__}"
                )
            if len(items) > self.block_size:
                raise StorageError(
                    f"block {block_id!r}: {len(items)} items exceed "
                    f"block size {self.block_size}"
                )
        self.inner.write_many(
            {block_id: encode_block(items)
             for block_id, items in blocks.items()}
        )
        with self._lock:
            for block_id, items in blocks.items():
                self._counts[block_id] = len(items)

    def read_block(self, block_id: Hashable):
        """Fetch one frame, verify its CRC, and decode the payload.

        Only this layer writes the disk below it, so anything that is
        not an intact frame — including an unframed dictionary — fails
        as :class:`~repro.core.errors.CorruptedBlockError`.
        """
        return decode_block(self.inner.read_block(block_id))

    def read_block_shared(self, block_id: Hashable):
        """Shared fetch: decoding already produces a fresh dictionary."""
        return decode_block(self.inner.read_block_shared(block_id))

    def occupancy(self) -> float:
        """Mean fraction of block item-capacity in use (tracked here —
        the leaf only sees opaque frames)."""
        with self._lock:
            if not self._counts:
                return 0.0
            used = sum(self._counts.values())
            return used / (len(self._counts) * self.block_size)

    def stats(self) -> dict:
        """Framing layer marker plus the inner layers' statistics."""
        return {"layer": "crc", "inner": self.inner.stats()}


class ResilientDevice(DeviceLayer):
    """Retry + circuit-breaker middleware at the device seam.

    Every guarded operation runs under the breaker + retry discipline:
    an open breaker fails fast, transient faults (``OSError``, CRC
    failures) are retried per the policy, and exhaustion surfaces as
    one typed :class:`~repro.core.errors.StorageUnavailable` — the
    signal the query layer degrades on.  Fault flow::

        FaultyDevice ──(transient error)──► RetryPolicy ──(budget spent)──┐
                                                                        ▼
        caller ◄──(StorageUnavailable)── CircuitBreaker ◄── record_failure

    The breaker counts whole *operations* (a read plus all its
    retries), not individual attempts: a read that recovers on retry is
    a success.  Non-transient errors propagate unchanged and do not
    touch the breaker (a missing block is a caller bug, not an
    availability event).  Stacked *outside* the cache, so a retried
    read is re-driven through the (uncached on failure) miss path.
    With neither a policy nor a breaker the layer is an exact
    pass-through.
    """

    def __init__(self, inner, retry_policy=None, breaker=None) -> None:
        super().__init__(inner)
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._guarded = retry_policy is not None or breaker is not None
        if self._guarded:
            # Lazy: repro.faults imports this module for DeviceLayer.
            from repro.faults.retry import TRANSIENT_ERRORS

            self._transient = TRANSIENT_ERRORS

    def _call(self, fn, *args):
        """Run ``fn(*args)`` under the breaker + retry discipline."""
        if not self._guarded:
            return fn(*args)
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise StorageUnavailable(
                f"circuit breaker {breaker.name!r} is {breaker.state}; "
                f"failing fast"
            )
        try:
            if self.retry_policy is None:
                result = fn(*args)
            else:
                result = self.retry_policy.execute(fn, *args)
        except self._transient as exc:
            if breaker is not None:
                breaker.record_failure()
            raise StorageUnavailable(
                f"storage read kept failing past the retry budget: {exc}"
            ) from exc
        if breaker is not None:
            breaker.record_success()
        return result

    def read_block(self, block_id: Hashable):
        """Fetch one block under the retry/breaker stack."""
        return self._call(self.inner.read_block, block_id)

    def read_block_shared(self, block_id: Hashable):
        """Shared fetch under the retry/breaker stack."""
        return self._call(self.inner.read_block_shared, block_id)

    def read_many(self, block_ids: Iterable[Hashable]) -> dict:
        """Bulk fetch, each block independently guarded (one block's
        exhaustion does not waste the others' completed reads)."""
        return {b: self.read_block(b) for b in block_ids}

    def write_many(self, blocks: dict) -> None:
        """Group commit under the retry/breaker stack.

        The whole group is guarded as *one* operation — block overwrites
        are idempotent, so when an injected write fault fails the group
        partway through, the retry simply re-drives every member and the
        final state is the intended one.  Guarding the group (instead of
        per block, as :meth:`read_many` does) keeps the inner layers'
        coalesced fan-out intact on the retried attempt.
        """
        self._call(self.inner.write_many, blocks)

    def stats(self) -> dict:
        """Resilience configuration plus the inner layers' statistics."""
        return {
            "layer": "resilient",
            "breaker": (
                self.breaker.snapshot() if self.breaker is not None else None
            ),
            "inner": self.inner.stats(),
        }


#: Canonical outermost-to-innermost layer order; every valid stack is a
#: subsequence ending in ``disk``.  ``replicated`` sits *outside*
#: ``resilient``: each member carries its own retry/breaker sub-stack,
#: so the replication layer sees a member's exhaustion as one typed
#: ``StorageUnavailable`` and fails over instead of retrying blindly.
CANONICAL_ORDER = (
    "metered", "replicated", "resilient", "caching", "crc", "faulty", "disk"
)


def _build_faulty(inner, options: dict):
    # Lazy: repro.faults imports this module for DeviceLayer.
    from repro.faults.plan import FaultyDevice

    return FaultyDevice(inner, plan=options.get("plan"))


class DeviceStack:
    """Declarative builder for a validated device middleware stack.

    ``layers`` is an outermost-to-innermost sequence of layer kinds —
    plain strings or ``(kind, options)`` pairs — ending in ``"disk"``.
    Construction validates the order against :data:`CANONICAL_ORDER`
    (metering outermost, retries outside the cache, CRC inside the
    cache, faults below CRC), so every storage configuration in the
    system is reproducible from one spec and no consumer hand-wires
    middleware.

    Layer options:

    * ``metered`` — ``prefix`` (default ``"storage.device"``);
    * ``replicated`` — ``replicas`` (required, >= 1: replica count on
      top of the primary) and optional ``member_overrides`` (one dict
      per member mapping layer kind to option overrides for that
      member's sub-stack).  Every layer *below* ``replicated`` is built
      once per member; without explicit overrides, members past the
      primary get derived breakers / fault plans / latency models so
      they never share stateful middleware;
    * ``resilient`` — ``retry_policy``, ``breaker``;
    * ``caching`` — ``capacity`` (required);
    * ``crc`` — none;
    * ``faulty`` — ``plan`` (a :class:`~repro.faults.plan.FaultPlan`);
    * ``disk`` — ``block_size`` (required), ``latency`` (a
      :class:`~repro.storage.latency.LatencyModel`), and ``metered``
      (default True: a ``storage.disk.*`` meter sits directly above
      the leaf).
    """

    def __init__(self, layers) -> None:
        normalized: list[tuple[str, dict]] = []
        for layer in layers:
            if isinstance(layer, str):
                kind, options = layer, {}
            else:
                kind, options = layer
                options = dict(options)
            if kind not in CANONICAL_ORDER:
                raise StorageError(
                    f"unknown device layer {kind!r}; valid layers: "
                    f"{', '.join(CANONICAL_ORDER)}"
                )
            normalized.append((kind, options))
        self.layers = normalized
        self._validate()
        self._built: dict[str, object] = {}
        #: Per-member ``_built`` maps when a ``replicated`` layer is
        #: present (member 0 first); empty otherwise.
        self._member_built: list[dict] = []
        self.device = None

    def _validate(self) -> None:
        kinds = [kind for kind, _ in self.layers]
        if not kinds or kinds[-1] != "disk":
            raise StorageError(
                "a device stack must end in its 'disk' leaf layer"
            )
        if len(set(kinds)) != len(kinds):
            dupes = sorted({k for k in kinds if kinds.count(k) > 1})
            raise StorageError(f"duplicate device layers: {dupes}")
        ranks = [CANONICAL_ORDER.index(k) for k in kinds]
        if ranks != sorted(ranks):
            raise StorageError(
                f"invalid layer order {kinds}; layers must follow "
                f"{' > '.join(CANONICAL_ORDER)} (metering outermost, "
                f"retries outside the cache, CRC inside the cache, "
                f"faults below CRC)"
            )

    def kinds(self) -> list[str]:
        """Outermost-to-innermost layer kinds of this stack."""
        return [kind for kind, _ in self.layers]

    def _build_chain(self, layers, built: dict, base=None):
        """Build an outermost-to-innermost layer list on top of ``base``
        (or down to a fresh disk leaf), recording instances in ``built``."""
        device = base
        for kind, options in reversed(layers):
            if kind == "disk":
                if "block_size" not in options:
                    raise StorageError("disk layer needs a block_size")
                device = SimulatedDisk(
                    block_size=options["block_size"],
                    latency=options.get("latency"),
                )
                built["disk"] = device
                if options.get("metered", True):
                    device = MeteredDevice(device, prefix="storage.disk")
                    built["disk_meter"] = device
            elif kind == "faulty":
                device = _build_faulty(device, options)
                built["faulty"] = device
            elif kind == "crc":
                device = CrcFramedDevice(device)
                built["crc"] = device
            elif kind == "caching":
                if "capacity" not in options:
                    raise StorageError("caching layer needs a capacity")
                device = CachingDevice(device, capacity=options["capacity"])
                built["caching"] = device
            elif kind == "resilient":
                device = ResilientDevice(
                    device,
                    retry_policy=options.get("retry_policy"),
                    breaker=options.get("breaker"),
                )
                built["resilient"] = device
            elif kind == "metered":
                device = MeteredDevice(
                    device, prefix=options.get("prefix", "storage.device")
                )
                built["metered"] = device
        return device

    @staticmethod
    def _member_layers(tail, member: int, overrides) -> list:
        """One member's sub-stack layers: the shared tail with this
        member's option overrides applied.

        Without explicit overrides, members past the primary derive
        fresh stateful middleware (breaker clone, shifted fault plan,
        shifted latency seed) — replica members must fail independently,
        so they never share failure streaks, RNG draws or spike
        schedules with the primary.
        """
        out = []
        for kind, options in tail:
            opts = dict(options)
            if overrides is not None:
                opts.update(overrides[member].get(kind, {}))
            elif member > 0:
                if kind == "resilient" and opts.get("breaker") is not None:
                    opts["breaker"] = _clone_breaker(opts["breaker"], member)
                if kind == "faulty" and opts.get("plan") is not None:
                    opts["plan"] = _derive_plan(opts["plan"], member)
                if kind == "disk" and opts.get("latency") is not None:
                    opts["latency"] = opts["latency"].derive(member)
            out.append((kind, opts))
        return out

    def build(self):
        """Construct the stack and return its outermost device.

        Idempotent: a second call returns the same instances.  Layer
        handles stay available through :meth:`layer`.  With a
        ``replicated`` layer, every layer below it is built once per
        member (``replicas + 1`` independent sub-stacks) and wrapped in
        a :class:`~repro.storage.replication.ReplicatedDevice`.
        """
        if self.device is not None:
            return self.device
        kinds = self.kinds()
        if "replicated" not in kinds:
            self.device = self._build_chain(self.layers, self._built)
            return self.device
        split = kinds.index("replicated")
        head = self.layers[:split]
        _, ropts = self.layers[split]
        tail = self.layers[split + 1:]
        replicas = ropts.get("replicas")
        if not isinstance(replicas, int) or replicas < 1:
            raise StorageError(
                f"replicated layer needs replicas >= 1, got {replicas!r}"
            )
        overrides = ropts.get("member_overrides")
        n_members = replicas + 1
        if overrides is not None and len(overrides) != n_members:
            raise StorageError(
                f"{len(overrides)} member_overrides for "
                f"{n_members} members"
            )
        from repro.storage.replication import ReplicatedDevice

        members, breakers = [], []
        for member in range(n_members):
            built: dict = {}
            members.append(self._build_chain(
                self._member_layers(tail, member, overrides), built
            ))
            resilient = built.get("resilient")
            breakers.append(
                resilient.breaker if resilient is not None else None
            )
            self._member_built.append(built)
            if member == 0:
                # layer() answers with the primary member's instances.
                self._built.update(built)
        device = ReplicatedDevice(members, breakers=breakers)
        self._built["replicated"] = device
        self.device = self._build_chain(head, self._built, base=device)
        return self.device

    def layer(self, kind: str):
        """The built layer instance of a kind (None when absent; for a
        replicated stack, tail kinds answer with member 0's instance)."""
        if self.device is None:
            self.build()
        return self._built.get(kind)

    def resilient_breakers(self) -> list:
        """Every breaker this stack carries, member order (member 0
        first); a single-element list for non-replicated stacks and
        empty when no resilient layer/breaker is configured."""
        if self.device is None:
            self.build()
        if self._member_built:
            return [
                built["resilient"].breaker
                for built in self._member_built
                if built.get("resilient") is not None
                and built["resilient"].breaker is not None
            ]
        resilient = self._built.get("resilient")
        if resilient is not None and resilient.breaker is not None:
            return [resilient.breaker]
        return []

    def set_injecting(self, flag: bool) -> None:
        """Toggle fault injection on this stack's faulty layer(s) —
        every replica member's, when replicated (no-op without one)."""
        if self.device is None:
            self.build()
        for built in (self._member_built or [self._built]):
            faulty = built.get("faulty")
            if faulty is not None:
                faulty.injecting = bool(flag)


def _clone_breaker(breaker, shard: int):
    """A fresh breaker with the template's parameters, one per shard —
    shards degrade independently, so they must not share failure
    streaks."""
    from repro.faults.breaker import CircuitBreaker

    return CircuitBreaker(
        failure_threshold=breaker.failure_threshold,
        recovery_timeout_s=breaker.recovery_timeout_s,
        half_open_probes=breaker.half_open_probes,
        clock=breaker._clock,
        name=breaker.name,
    )


def _derive_plan(plan, shard: int):
    """A per-shard fault plan with the same rates and a shifted seed."""
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        seed=plan.seed + 1 + 7919 * shard,
        read_error_rate=plan.read_error_rate,
        torn_rate=plan.torn_rate,
        latency_spike_rate=plan.latency_spike_rate,
        latency_spike_s=plan.latency_spike_s,
        write_error_rate=plan.write_error_rate,
    )


class BuiltStorage:
    """Handles into a built storage stack (possibly sharded).

    ``device`` is the outermost :class:`BlockDevice` consumers talk to;
    ``stacks`` are the per-shard :class:`DeviceStack`\\ s (one entry
    when unsharded); ``sharded`` is the
    :class:`~repro.storage.sharding.ShardedDevice` fan-out layer, or
    ``None``.
    """

    def __init__(self, spec, device, stacks, sharded=None) -> None:
        self.spec = spec
        self.device = device
        self.stacks = list(stacks)
        self.sharded = sharded

    @property
    def breakers(self) -> list:
        """Circuit breakers in shard-major, member-minor order (empty
        when no resilient layer is configured).  Without replication
        this is exactly one breaker per shard, in shard order."""
        out = []
        for stack in self.stacks:
            out.extend(stack.resilient_breakers())
        return out

    @property
    def replica_groups(self) -> list:
        """Per-shard :class:`~repro.storage.replication.ReplicatedDevice`
        handles, in shard order (empty when the spec has no replicas)."""
        out = []
        for stack in self.stacks:
            group = stack.layer("replicated")
            if group is not None:
                out.append(group)
        return out

    def resync_replicas(self) -> int:
        """Resync every shard's stale replica members from its primary;
        returns the total number of members restored."""
        return sum(group.resync() for group in self.replica_groups)

    def shard_of(self, block_id: Hashable) -> int:
        """Shard index a block id is placed on (0 when unsharded)."""
        if self.sharded is None:
            return 0
        return self.sharded.shard_of(block_id)

    def set_injecting(self, flag: bool) -> None:
        """Toggle fault injection on every shard's faulty layer."""
        for stack in self.stacks:
            stack.set_injecting(flag)

    def close(self) -> None:
        """Release held resources (the sharded fan-out pool); idempotent."""
        if self.sharded is not None:
            self.sharded.close()


@dataclass(frozen=True)
class StorageSpec:
    """Declarative storage configuration: one object, one stack shape.

    The single source of truth the block stores, the
    :class:`~repro.core.aims.AIMS` facade and the ``aims`` CLI
    (``--shards N --cache-blocks K --fault-rate p``) build storage
    from.  ``build`` produces the canonical validated stack::

        metered > resilient > caching > crc > faulty > disk   (x shards)

    with absent features simply dropped from the chain.

    Attributes:
        shards: Number of striped leaf devices (1 = unsharded).
        cache_blocks: Total cached blocks across the stack (split
            evenly over shards); ``None`` disables caching.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`
            template.  With multiple fault targets each gets an
            independently-seeded derived plan.
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            (stateless — shared across shards).
        breaker: Optional :class:`~repro.faults.breaker.CircuitBreaker`
            template; sharded/replicated stacks clone it per shard and
            per replica member so one failed device trips only its own
            breaker.
        latency: Optional :class:`~repro.storage.latency.LatencyModel`
            template for the leaf devices (derived per shard/member).
        crc: Force CRC framing on/off; ``None`` enables it exactly when
            a fault plan is present.
        metered: Emit ``storage.disk.*`` / ``storage.device.*`` metrics.
        fanout_workers: Worker-pool width for sharded multi-block
            reads (default ``min(shards, 8)``).
        fault_shards: Restrict fault injection to these shard indices
            (``None`` = all shards).
        replicas: Replica members per shard on top of the primary
            (0 = unreplicated).  Each member is a full independent
            sub-stack kept in sync by a
            :class:`~repro.storage.replication.ReplicatedDevice`.
        fault_replicas: Restrict fault injection to these member
            indices within each faulted shard (``None`` = all members;
            ``(0,)`` kills only primaries — the failover drill).
    """

    shards: int = 1
    cache_blocks: int | None = None
    fault_plan: object = None
    retry_policy: object = None
    breaker: object = None
    latency: LatencyModel | None = None
    crc: bool | None = None
    metered: bool = True
    fanout_workers: int | None = None
    fault_shards: tuple[int, ...] | None = None
    replicas: int = 0
    fault_replicas: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise StorageError(f"shards must be >= 1, got {self.shards}")
        if self.cache_blocks is not None and self.cache_blocks <= 0:
            raise StorageError(
                f"cache_blocks must be positive, got {self.cache_blocks}"
            )
        if self.fault_shards is not None:
            bad = [s for s in self.fault_shards
                   if not 0 <= s < self.shards]
            if bad:
                raise StorageError(
                    f"fault_shards {bad} outside [0, {self.shards})"
                )
        if self.replicas < 0:
            raise StorageError(
                f"replicas must be >= 0, got {self.replicas}"
            )
        if self.fault_replicas is not None:
            bad = [m for m in self.fault_replicas
                   if not 0 <= m < self.replicas + 1]
            if bad:
                raise StorageError(
                    f"fault_replicas {bad} outside "
                    f"[0, {self.replicas + 1})"
                )

    def crc_enabled(self) -> bool:
        """Whether the stack frames payloads through the CRC codec."""
        if self.crc is not None:
            return bool(self.crc)
        return self.fault_plan is not None

    def _shard_layers(self, block_size: int, shard: int) -> list:
        """Canonical layer list for one shard's sub-stack (no outer
        meter — that wraps the fan-out layer, when sharded).  With
        replicas, a ``replicated`` layer heads the sub-stack and every
        layer below it is instantiated per member with the overrides
        :meth:`_member_overrides` derives."""
        layers: list = []
        if self.shards == 1 and self.metered:
            layers.append(("metered", {"prefix": "storage.device"}))
        if self.replicas:
            layers.append(
                ("replicated",
                 {"replicas": self.replicas,
                  "member_overrides": self._member_overrides(shard)})
            )
        if self.retry_policy is not None or self.breaker is not None:
            breaker = self.breaker
            if breaker is not None and self.shards > 1:
                breaker = _clone_breaker(breaker, shard)
            layers.append(
                ("resilient",
                 {"retry_policy": self.retry_policy, "breaker": breaker})
            )
        if self.cache_blocks:
            per_shard = -(-self.cache_blocks // self.shards)  # ceil
            layers.append(("caching", {"capacity": max(1, per_shard)}))
        if self.crc_enabled():
            layers.append(("crc", {}))
        plan = self._member_plan(shard, 0)
        if plan is not None or self._shard_faulted(shard):
            layers.append(("faulty", {"plan": plan}))
        latency = self.latency
        if latency is not None and self.shards > 1:
            latency = latency.derive(shard)
        layers.append(
            ("disk", {"block_size": block_size, "latency": latency,
                      "metered": self.metered})
        )
        return layers

    def _shard_faulted(self, shard: int) -> bool:
        """Whether any member of this shard carries a fault plan (the
        faulty layer is kept in the shared sub-stack shape so member
        overrides can target individual members)."""
        if self.fault_plan is None:
            return False
        targets = (
            set(self.fault_shards)
            if self.fault_shards is not None
            else set(range(self.shards))
        )
        return shard in targets

    def _member_plan(self, shard: int, member: int):
        """The fault plan for one (shard, member) sub-stack, or None.

        A single targeted device keeps the caller's plan instance, so
        its seeded history replays exactly; multiple targets get
        independently-seeded derived plans (collision-free across the
        shard × member grid).  With ``replicas=0`` this reduces
        byte-for-byte to the per-shard rule the sharded stack has used
        since PR 4.
        """
        if not self._shard_faulted(shard):
            return None
        n_members = self.replicas + 1
        members = (
            set(self.fault_replicas)
            if self.fault_replicas is not None
            else set(range(n_members))
        )
        if member not in members:
            return None
        target_shards = (
            set(self.fault_shards)
            if self.fault_shards is not None
            else set(range(self.shards))
        )
        if len(target_shards) * len(members) == 1:
            return self.fault_plan
        return _derive_plan(self.fault_plan, shard + self.shards * member)

    def _member_overrides(self, shard: int) -> list[dict]:
        """Per-member option overrides for one shard's replicated
        sub-stack: member 0 keeps the shared tail's instances, members
        past it get cloned breakers, per-member fault plans and shifted
        latency seeds — stateful middleware is never shared between
        members."""
        n_members = self.replicas + 1
        overrides: list[dict] = []
        for member in range(n_members):
            entry: dict = {}
            if member > 0:
                if self.breaker is not None:
                    entry["resilient"] = {
                        "breaker": _clone_breaker(
                            self.breaker, shard + self.shards * member
                        )
                    }
                if self.latency is not None:
                    entry["disk"] = {
                        "latency": self.latency.derive(
                            shard + self.shards * member
                        )
                    }
            if self._shard_faulted(shard):
                entry["faulty"] = {"plan": self._member_plan(shard, member)}
            overrides.append(entry)
        return overrides

    def build(self, block_size: int) -> BuiltStorage:
        """Build the device stack(s) for a given leaf block size."""
        stacks = [
            DeviceStack(self._shard_layers(block_size, shard))
            for shard in range(self.shards)
        ]
        if self.shards == 1:
            device = stacks[0].build()
            return BuiltStorage(self, device, stacks)
        from repro.storage.sharding import ShardedDevice

        sharded = ShardedDevice(
            [stack.build() for stack in stacks],
            fanout_workers=self.fanout_workers,
        )
        device: object = sharded
        if self.metered:
            device = MeteredDevice(device, prefix="storage.device")
        return BuiltStorage(self, device, stacks, sharded=sharded)
