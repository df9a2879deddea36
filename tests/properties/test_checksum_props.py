"""Property suite: ``crc32_array`` is ``zlib.crc32`` of the C-order bytes.

Every CRC the program stores or compares goes through
:func:`repro.faults.checksum.crc32_array`, which hands large arrays to a
native folded CRC32 and small ones to zlib.  Whatever path a call takes,
the value must be the one ``zlib.crc32`` gives for the same bytes.  The
cases straddle the native size threshold, every residue of the 64-byte
fold and the 16-byte tail, byte-misaligned starts and non-contiguous
views, and each property also runs with ``REPRO_NO_NATIVE`` set.
"""

from __future__ import annotations

import os
import platform
import zlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import native_available
from repro.faults import checksum
from repro.faults.checksum import crc32_array

THRESHOLD = checksum._NATIVE_MIN_BYTES
DTYPES = (np.float32, np.float64, np.uint8)
MODES = ("default", "no-native")


def zlib_crc(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


@contextmanager
def crc_mode(mode: str):
    """``no-native`` sets the kill-switch for the block's duration;
    ``default`` leaves the environment as the run found it."""
    env = {"REPRO_NO_NATIVE": "1"} if mode == "no-native" else {}
    with mock.patch.dict(os.environ, env):
        yield


def random_array(shape, dtype, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, int(np.prod(shape)) * np.dtype(dtype).itemsize,
                       dtype=np.uint8)
    return raw.view(dtype).reshape(shape)


@st.composite
def array_views(draw):
    """An array of 1-3 dims whose size lands on either side of the
    threshold, seen as-is, strided, transposed or from a shifted start."""
    dtype = draw(st.sampled_from(DTYPES))
    itemsize = np.dtype(dtype).itemsize
    ndim = draw(st.integers(1, 3))
    lead = [draw(st.integers(1, 12)) for _ in range(ndim - 1)]
    target = draw(st.integers(0, 3 * THRESHOLD)) // itemsize
    last = -(-target // max(1, int(np.prod(lead))))
    shape = (*lead, last)
    base = random_array(shape, dtype, draw(st.integers(0, 2**16)))
    view = draw(st.sampled_from(["as-is", "strided", "transposed", "shifted"]))
    if view == "strided":
        step = draw(st.integers(2, 4))
        return base[..., ::step]
    if view == "transposed":
        return base.T
    if view == "shifted":
        return base.reshape(-1)[draw(st.integers(0, 15)):]
    return base


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(a=array_views())
def test_crc_matches_zlib(mode: str, a: np.ndarray) -> None:
    with crc_mode(mode):
        assert crc32_array(a) == zlib_crc(a)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_every_fold_and_tail_boundary(mode: str, dtype) -> None:
    """Lengths from just under the threshold through every residue of
    the 64-byte fold (and so of the 16-byte tail) above it."""
    itemsize = np.dtype(dtype).itemsize
    buf = random_array((THRESHOLD + 256,), np.uint8, 3)
    with crc_mode(mode):
        for nbytes in range(THRESHOLD - 64, THRESHOLD + 129, itemsize):
            a = buf[:nbytes].view(dtype)
            assert crc32_array(a) == zlib_crc(a), nbytes


@pytest.mark.parametrize("mode", MODES)
def test_small_lengths_and_misaligned_starts(mode: str) -> None:
    buf = random_array((2 * THRESHOLD + 512,), np.uint8, 4)
    with crc_mode(mode):
        for n in range(300):
            assert crc32_array(buf[:n]) == zlib_crc(buf[:n]), n
        for off in range(1, 16):
            for n in (THRESHOLD, THRESHOLD + 7, 2 * THRESHOLD + 100):
                a = buf[off:off + n]
                assert crc32_array(a) == zlib_crc(a), (off, n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_multidim_and_non_contiguous(mode: str, dtype) -> None:
    a = random_array((6, 40, 300), dtype, 5)
    views = [a, a[:, ::2], a[::2, :, 1::3], a.T, a.transpose(1, 0, 2),
             a.reshape(-1)[1:], np.asfortranarray(a)]
    with crc_mode(mode):
        for v in views:
            assert crc32_array(v) == zlib_crc(v)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_arrays(mode: str, dtype) -> None:
    with crc_mode(mode):
        for shape in ((0,), (0, 5), (3, 0, 2)):
            a = np.zeros(shape, dtype=dtype)
            assert crc32_array(a) == zlib_crc(a) == 0


def _has_pclmul() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64", "i386", "i686"):
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return "pclmulqdq" in fh.read().split()
    except OSError:
        return False


@pytest.mark.skipif(
    not (native_available() and _has_pclmul()),
    reason="needs a C compiler, an x86 CPU with PCLMUL and native code enabled",
)
def test_native_path_is_taken_when_available() -> None:
    """With a compiler and PCLMUL present, a large CRC must not reach
    zlib: a silent fallback would pass every value check above."""
    a = random_array((THRESHOLD * 2 + 3,), np.uint8, 6)
    expected = zlib_crc(a)
    assert checksum._native_fold() is not None
    with mock.patch.object(checksum.zlib, "crc32", side_effect=AssertionError):
        assert crc32_array(a) == expected


def test_kill_switch_selects_zlib() -> None:
    a = random_array((THRESHOLD * 2,), np.uint8, 7)
    expected = zlib_crc(a)
    with crc_mode("no-native"):
        assert checksum._native_fold() is None
        with mock.patch.object(checksum.zlib, "crc32", wraps=zlib.crc32) as spy:
            assert crc32_array(a) == expected
        assert spy.call_count == 1
