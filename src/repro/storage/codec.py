"""Block codec: a self-verifying wire/disk format for block payloads.

§4 of the paper plans to move packed coefficient blocks from Teradata
BLOBs to "disk blocks on raw disk".  Raw blocks have no database
underneath to notice bit rot or torn writes, so the codec frames every
payload with a CRC32 and refuses to decode anything that fails the
check — a corrupted block surfaces as a typed
:class:`~repro.core.errors.CorruptedBlockError` instead of silently
wrong coefficients.  The fault-injection layer (:mod:`repro.faults`)
routes "torn block" reads through this codec, which is how the retry
machinery distinguishes a damaged payload (retryable: re-read the
block) from a missing one (not retryable).

Format: ``MAGIC (4 bytes) | CRC32 of body (4 bytes, little-endian) |
body (pickled payload dictionary)``.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Hashable

from repro.core.errors import CorruptedBlockError
from repro.obs import counter as obs_counter

__all__ = ["BLOCK_MAGIC", "block_crc", "decode_block", "encode_block"]

#: Leading frame marker; a payload that does not start with it was
#: overwritten or truncated at rest.
BLOCK_MAGIC = b"AIMS"

_HEADER = struct.Struct("<4sI")


def block_crc(items: dict[Hashable, float]) -> int:
    """CRC32 of a block payload's encoded body (the stored checksum)."""
    return zlib.crc32(_body(items)) & 0xFFFFFFFF


def _body(items: dict[Hashable, float]) -> bytes:
    return pickle.dumps(items, protocol=4)


def encode_block(items: dict[Hashable, float]) -> bytes:
    """Frame one block payload as ``MAGIC | CRC32(body) | body`` bytes."""
    body = _body(items)
    return _HEADER.pack(BLOCK_MAGIC, zlib.crc32(body) & 0xFFFFFFFF) + body


def decode_block(data: bytes) -> dict[Hashable, float]:
    """Decode an :func:`encode_block` frame, verifying its CRC first.

    Raises :class:`~repro.core.errors.CorruptedBlockError` (and ticks the
    ``faults.crc_failures`` counter) on a payload that is not a byte
    frame, a bad magic, short frame, or CRC mismatch — the body is never
    unpickled unless the checksum holds.
    """
    if not isinstance(data, (bytes, bytearray)):
        obs_counter("faults.crc_failures").inc()
        raise CorruptedBlockError(
            f"block holds an unframed {type(data).__name__} payload"
        )
    if len(data) < _HEADER.size or data[:4] != BLOCK_MAGIC:
        obs_counter("faults.crc_failures").inc()
        raise CorruptedBlockError(
            "block frame is truncated or its magic marker is gone"
        )
    _magic, stored = _HEADER.unpack_from(data)
    body = data[_HEADER.size:]
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        obs_counter("faults.crc_failures").inc()
        raise CorruptedBlockError(
            f"block payload failed its CRC check "
            f"(stored {stored:#010x}, computed "
            f"{zlib.crc32(body) & 0xFFFFFFFF:#010x})"
        )
    return pickle.loads(body)
