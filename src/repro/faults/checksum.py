"""Checksum primitives for the detection machinery.

CRC32 stands in for the per-block checksums a hardened design would
compute in the read/write kernels and for the ECC bits BRAM and DRAM
controllers maintain.  Every value is the ``zlib.crc32`` of the array's
C-order bytes, however it is computed:

* arrays under :data:`_NATIVE_MIN_BYTES` go straight to ``zlib.crc32``
  (the contiguous array is passed as a buffer, never copied to bytes);
* larger arrays take a folded CRC32 in C — PCLMULQDQ carry-less
  multiplies over four 16-byte lanes, reduced with the reflected
  polynomial ``0xEDB88320``, the same polynomial zlib uses, so the
  value is bit-identical.  It runs at memory speed: 0.6 ms against
  4.6 ms for zlib on an 8 MiB array, on a 2-vCPU x86 host.

The native routine is one fixed C source, compiled through the
content-addressed library cache of :mod:`repro.core.native` on the
first large CRC and only then: importing this module compiles nothing
and imports nothing from :mod:`repro.core`.  ``REPRO_NO_NATIVE`` set,
no C compiler, a non-x86 host or a CPU without PCLMUL all select the
zlib path, with the same values.
"""

from __future__ import annotations

import ctypes
import os
import threading
import zlib

import numpy as np

#: Arrays this large or larger take the native folded CRC; below it the
#: ctypes call costs more than zlib's own work.
_NATIVE_MIN_BYTES = 64 * 1024

#: The kill-switch :mod:`repro.core.native` honours (its ``DISABLE_ENV``),
#: read on every large CRC so setting it takes effect immediately.
_NO_NATIVE_ENV = "REPRO_NO_NATIVE"

#: The folded CRC32 (Gopal et al., "Fast CRC Computation for Generic
#: Polynomials Using PCLMULQDQ", Intel 2009) with the bit-reflected
#: constants for zlib's polynomial.  ``crc32_fold`` takes and returns a
#: zlib-style running CRC; bytes past the last 16-byte block (and whole
#: inputs under 64 bytes) go through the bitwise loop.
_FOLD_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

/* len >= 64 and a multiple of 16; c is the un-inverted CRC register */
__attribute__((target("pclmul,sse4.1")))
static uint32_t fold_body(const unsigned char *buf, size_t len, uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596LL, 0x0154442bd4LL);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009eLL, 0x01751997d0LL);
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124LL);
    const __m128i poly = _mm_set_epi64x(0x01f7011641LL, 0x01db710641LL);
    const __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x1, x2, x3, x4, x5, x6, x7, x8;

    x1 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)(buf + 0x00)),
                       _mm_cvtsi32_si128((int)c));
    x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
    x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
    x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
    buf += 64;
    len -= 64;
    /* four independent lanes, 64 bytes per step */
    while (len >= 64) {
        x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
        x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
        x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
        x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
        x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
        x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
        x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                           _mm_loadu_si128((const __m128i *)(buf + 0x00)));
        x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                           _mm_loadu_si128((const __m128i *)(buf + 0x10)));
        x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                           _mm_loadu_si128((const __m128i *)(buf + 0x20)));
        x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                           _mm_loadu_si128((const __m128i *)(buf + 0x30)));
        buf += 64;
        len -= 64;
    }
    /* fold the four lanes into one */
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);
    /* the remaining 16-byte blocks */
    while (len >= 16) {
        x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                           _mm_loadu_si128((const __m128i *)buf));
        buf += 16;
        len -= 16;
    }
    /* 128 -> 64 bits */
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2);
    /* Barrett reduction to 32 bits */
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}

int crc32_fold_supported(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#else
int crc32_fold_supported(void) { return 0; }
#endif

uint32_t crc32_fold(const unsigned char *buf, size_t len, uint32_t crc)
{
    uint32_t c = ~crc;
#if defined(__x86_64__) || defined(__i386__)
    if (len >= 64) {
        size_t body = len & ~(size_t)15;
        c = fold_body(buf, body, c);
        buf += body;
        len -= body;
    }
#endif
    while (len--) {
        c ^= *buf++;
        for (int k = 0; k < 8; k++)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return ~c;
}
"""

_UNLOADED = object()

#: The loaded ``crc32_fold`` (a ctypes function), ``None`` once loading
#: failed, or ``_UNLOADED`` before the first large CRC.
_fold = _UNLOADED
_FOLD_LOCK = threading.Lock()


def _load_fold():
    """Compile (or find cached) and load the folded CRC, else ``None``."""
    # Imported here: repro.core imports this module, and importing
    # repro.faults must neither pull in repro.core nor compile.
    from repro.core.native import _compile

    lib_path = _compile(_FOLD_SOURCE)
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError:
        return None
    if not lib.crc32_fold_supported():
        return None
    fn = lib.crc32_fold
    fn.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint32]
    fn.restype = ctypes.c_uint32
    return fn


def _native_fold():
    """The native folded CRC, loaded once on first use; ``None`` = zlib."""
    global _fold
    if os.environ.get(_NO_NATIVE_ENV):
        return None
    fold = _fold
    if fold is _UNLOADED:
        with _FOLD_LOCK:
            if _fold is _UNLOADED:
                _fold = _load_fold()
            fold = _fold
    return fold


def crc32_array(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes in C order (``zlib.crc32`` value)."""
    data = np.ascontiguousarray(array)
    if data.nbytes >= _NATIVE_MIN_BYTES:
        fold = _native_fold()
        if fold is not None:
            return fold(data.ctypes.data, data.nbytes, 0)
    return zlib.crc32(data)


def crc32_bytes(data: bytes) -> int:
    """CRC32 of raw bytes."""
    return zlib.crc32(data)
