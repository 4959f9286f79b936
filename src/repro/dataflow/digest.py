"""Stable output digests for cross-engine equivalence checks.

The benchmark and equivalence tooling used to summarize a run's outputs
as ``float(outputs.sum())`` — a digest that collides trivially (any
permutation of the outputs sums identically) and whose printed decimal
form depends on formatting. :func:`stable_digest` replaces it: a CRC-32
over the array's shape and its exact float32 bit pattern, with every NaN
hashed as ``np.nan`` (``0x7fc00000``). Two digests are equal iff the
shapes agree and every output bit agrees, all NaNs counting as one
pattern — the bit-exactness contract the three engines are held to.

NaN is one value because its payload is not a computed result: where two
NaNs meet in an add, IEEE 754 leaves open which payload survives, and
numpy's choice depends on where an element sits in its array, so the
interpreted cores themselves do not pin it. Signed zeros, subnormals and
infinities stay distinct bit patterns.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.config import DTYPE


def stable_digest(values) -> str:
    """CRC-32 digest of an array's shape + float32 bit pattern, every NaN
    as ``np.nan``.

    ``values`` is anything ``np.asarray`` accepts (the sink's received
    list, a reshaped output tensor, ...). The array is cast to the
    project dtype (float32) first — a bit-preserving no-op for data that
    is already float32 — and hashed in C order, so logically identical
    outputs digest identically regardless of memory layout. An array
    holding a NaN is copied before its NaNs are replaced; the caller's
    array is never modified.

    Returns ``"crc32:xxxxxxxx"`` (8 lowercase hex digits).
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype=DTYPE))
    nan = np.isnan(arr)
    if nan.any():
        arr = np.where(nan, DTYPE(np.nan), arr)
    crc = zlib.crc32(repr(arr.shape).encode())
    crc = zlib.crc32(arr.tobytes(), crc)
    return f"crc32:{crc & 0xFFFFFFFF:08x}"
