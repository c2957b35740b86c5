"""Property-style tests for the device middleware stack.

Two exhaustive sweeps anchor the layering contract:

* **every** ordering of every subset of middleware layers is offered to
  :class:`~repro.storage.device.DeviceStack`; it must accept exactly
  the subsequences of the canonical order — and every accepted stack
  must preserve write→read identity end to end;
* **every** single-bit corruption of a CRC frame must be detected by
  the codec — no bit position may slip through the checksum.
"""

import itertools

import pytest

from repro.core.errors import CorruptedBlockError, StorageError
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.storage.codec import decode_block, encode_block
from repro.storage.device import (
    CANONICAL_ORDER,
    CachingDevice,
    DeviceStack,
    StorageSpec,
)
from repro.storage.disk import SimulatedDisk

MIDDLEWARE = [k for k in CANONICAL_ORDER if k != "disk"]

#: Options every layer kind needs to build (fault plan with zero rates:
#: the stack must be exercisable without injecting anything).
OPTIONS = {
    "metered": {},
    "replicated": {"replicas": 1},
    "resilient": {},
    "caching": {"capacity": 4},
    "crc": {},
    "faulty": {"plan": None},
    "disk": {"block_size": 8, "metered": False},
}


def layer_list(kinds):
    return [(k, OPTIONS[k]) for k in kinds]


def is_canonical_subsequence(kinds):
    ranks = [CANONICAL_ORDER.index(k) for k in kinds]
    return ranks == sorted(ranks)


def all_middleware_orderings():
    """Every ordering of every subset of the middleware layers."""
    for r in range(len(MIDDLEWARE) + 1):
        for subset in itertools.combinations(MIDDLEWARE, r):
            yield from itertools.permutations(subset)


class TestLayerOrderProperty:
    def test_every_ordering_is_accepted_iff_canonically_ordered(self):
        accepted = rejected = 0
        for ordering in all_middleware_orderings():
            kinds = list(ordering) + ["disk"]
            if is_canonical_subsequence(kinds):
                stack = DeviceStack(layer_list(kinds))
                assert stack.kinds() == kinds
                accepted += 1
            else:
                with pytest.raises(StorageError):
                    DeviceStack(layer_list(kinds))
                rejected += 1
        # 2^5 subsets in exactly one canonical order each; everything
        # else (the non-sorted permutations) must have been rejected.
        assert accepted == 2 ** len(MIDDLEWARE)
        assert rejected > accepted

    def test_every_accepted_stack_preserves_write_read_identity(self):
        payloads = {
            0: {0: 1.5, 1: -2.25},
            1: {8: 0.0},
            (2, 3): {(2, 3): 7.125},
        }
        for ordering in all_middleware_orderings():
            kinds = list(ordering) + ["disk"]
            if not is_canonical_subsequence(kinds):
                continue
            device = DeviceStack(layer_list(kinds)).build()
            for block_id, items in payloads.items():
                device.write_block(block_id, items)
            for block_id, items in payloads.items():
                assert device.read_block(block_id) == items, kinds
            assert device.n_blocks() == len(payloads)

    def test_stack_must_end_in_disk(self):
        with pytest.raises(StorageError):
            DeviceStack([("caching", {"capacity": 2})])
        with pytest.raises(StorageError):
            DeviceStack([])

    def test_duplicate_layers_rejected(self):
        with pytest.raises(StorageError):
            DeviceStack(["metered", "metered",
                         ("disk", {"block_size": 4})])

    def test_unknown_layer_rejected(self):
        with pytest.raises(StorageError):
            DeviceStack(["turbo", ("disk", {"block_size": 4})])

    def test_layer_handles_are_reachable_after_build(self):
        stack = DeviceStack([
            "metered", ("caching", {"capacity": 2}), "crc",
            ("disk", {"block_size": 8}),
        ])
        stack.build()
        assert isinstance(stack.layer("caching"), CachingDevice)
        assert isinstance(stack.layer("disk"), SimulatedDisk)
        assert stack.layer("resilient") is None
        # The default leaf meter sits directly above the disk.
        assert stack.layer("disk_meter").prefix == "storage.disk"


class TestCrcDetectsEverySingleBitCorruption:
    def test_every_flipped_bit_is_detected(self):
        frame = encode_block({i: float(i) * 1.75 for i in range(6)})
        assert decode_block(frame) is not None  # sanity: intact decodes
        for byte_pos in range(len(frame)):
            for bit in range(8):
                torn = bytearray(frame)
                torn[byte_pos] ^= 1 << bit
                with pytest.raises(CorruptedBlockError):
                    decode_block(bytes(torn))

    @pytest.mark.parametrize("shared", [False, True])
    def test_unframed_payload_beneath_the_crc_layer_is_corrupt(self, shared):
        stack = DeviceStack(["crc", ("disk", {"block_size": 8})])
        crc = stack.build()
        # A raw dict written straight to the leaf never passed through
        # the framing layer, so it carries no checksum to verify.
        stack.layer("disk").write_block(0, {0: 1.0})
        read = crc.read_block_shared if shared else crc.read_block
        with pytest.raises(CorruptedBlockError):
            read(0)


class TestStorageSpec:
    def test_full_spec_builds_the_canonical_stack(self):
        spec = StorageSpec(
            cache_blocks=8,
            fault_plan=FaultPlan(seed=1),
            retry_policy=RetryPolicy(max_attempts=2),
            breaker=CircuitBreaker(),
        )
        built = spec.build(block_size=8)
        assert built.stacks[0].kinds() == [
            "metered", "resilient", "caching", "crc", "faulty", "disk"
        ]

    def test_minimal_spec_is_a_bare_disk(self):
        built = StorageSpec(metered=False).build(block_size=4)
        assert built.stacks[0].kinds() == ["disk"]
        assert isinstance(built.device, SimulatedDisk)

    def test_crc_follows_the_fault_plan_unless_forced(self):
        assert not StorageSpec().crc_enabled()
        assert StorageSpec(fault_plan=FaultPlan()).crc_enabled()
        assert StorageSpec(crc=True).crc_enabled()
        assert not StorageSpec(fault_plan=FaultPlan(),
                               crc=False).crc_enabled()

    def test_spec_validates_its_fields(self):
        with pytest.raises(StorageError):
            StorageSpec(shards=0)
        with pytest.raises(StorageError):
            StorageSpec(cache_blocks=0)
        with pytest.raises(StorageError):
            StorageSpec(shards=2, fault_shards=(2,))

    @pytest.mark.parametrize(
        "kwarg", ["pool_capacity", "fault_plan", "retry_policy", "breaker"]
    )
    def test_storage_is_configured_only_through_the_spec(self, kwarg):
        import numpy as np

        from repro.core.aims import AIMS
        from repro.query.propolyne import ProPolyneEngine
        from repro.storage.allocation import (
            TensorAllocation,
            subtree_tiling_allocation,
        )
        from repro.storage.blockstore import TensorBlockStore, WaveletBlockStore

        extra = {kwarg: None}
        with pytest.raises(TypeError):
            WaveletBlockStore(
                np.zeros(8), subtree_tiling_allocation(8, 3), **extra
            )
        with pytest.raises(TypeError):
            TensorBlockStore(
                np.zeros((8, 8)),
                TensorAllocation(
                    axes=(subtree_tiling_allocation(8, 3),) * 2
                ),
                **extra,
            )
        with pytest.raises(TypeError):
            ProPolyneEngine(np.zeros((8, 8)), max_degree=0, **extra)
        with pytest.raises(TypeError):
            AIMS().populate("c", np.zeros((8, 8)), **extra)
