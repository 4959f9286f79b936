"""Stable output digests: quantized CRC32 over the float32 payload.

`stable_digest` is the cross-engine identity used by the equivalence
harness and the benchmark baselines. It must be deterministic across
runs and processes (unlike `hash()`), sensitive to any value or shape
change, and canonical over input container types. Every NaN digests as
``np.nan``: a NaN's payload is not part of the equivalence contract.
"""

import numpy as np
import pytest

from repro.dataflow import stable_digest


class TestStableDigest:
    def test_deterministic_and_prefixed(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        d = stable_digest(arr)
        assert d == stable_digest(arr.copy())
        assert d.startswith("crc32:") and len(d) == len("crc32:") + 8

    def test_container_canonicalization(self):
        # Lists, float64 arrays and non-contiguous views of the same
        # float32 values all digest identically.
        vals = [1.0, -2.5, 3.25]
        arr32 = np.array(vals, dtype=np.float32)
        arr64 = np.array(vals, dtype=np.float64)
        strided = np.stack([arr32, arr32])[:, ::1][0]
        assert stable_digest(vals) == stable_digest(arr32)
        assert stable_digest(arr64) == stable_digest(arr32)
        assert stable_digest(strided) == stable_digest(arr32)

    def test_value_sensitivity(self):
        a = np.zeros(8, dtype=np.float32)
        b = a.copy()
        b[3] = np.float32(1e-7)
        assert stable_digest(a) != stable_digest(b)

    def test_shape_sensitivity(self):
        flat = np.arange(6, dtype=np.float32)
        assert stable_digest(flat) != stable_digest(flat.reshape(2, 3))

    def test_empty_ok(self):
        assert stable_digest([]) == stable_digest(np.empty(0, np.float32))

    def test_digests_do_not_move(self):
        # Literals of the digest before NaNs were canonicalized: NaN-free
        # arrays, and np.nan itself, digest as they always did.
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert stable_digest(arr) == "crc32:2855c8cb"
        assert stable_digest([np.nan]) == "crc32:f65a3bb7"

    @pytest.mark.parametrize(
        "pattern", [0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFFFFFFF],
        ids=["nan", "default-nan", "signalling", "all-ones"],
    )
    def test_every_nan_digests_as_np_nan(self, pattern):
        arr = np.array([1.0, 0.0, 2.0], dtype=np.float32)
        arr.view(np.uint32)[1] = pattern
        assert np.isnan(arr[1])
        want = stable_digest(np.array([1.0, np.nan, 2.0], dtype=np.float32))
        assert stable_digest(arr) == want

    def test_nan_and_signed_zero_stay_distinct(self):
        digest = {
            v: stable_digest(np.array([v], dtype=np.float32))
            for v in (np.nan, np.inf, -np.inf, 0.0)
        }
        assert len(set(digest.values())) == 4
        assert stable_digest(np.array([-0.0], np.float32)) != digest[0.0]

    def test_caller_array_is_not_modified(self):
        arr = np.zeros(4, dtype=np.float32)
        arr.view(np.uint32)[:2] = [0xFFC00000, 0x7F800001]
        before = arr.view(np.uint32).copy()
        stable_digest(arr)
        assert np.array_equal(arr.view(np.uint32), before)
