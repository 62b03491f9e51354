"""AES-GCM authenticated encryption (NIST SP 800-38D): pure-Python
reference; libcrypto when present.

This is the AEAD used everywhere the paper uses ``sgx_seal_data`` or an
attested secure channel.  Calls with a 96-bit IV (every production call
site) run through :mod:`repro.crypto.libcrypto` when it is available; other
IV lengths, and every call when it is not, take the pure-Python path below.
That path implements GHASH over GF(2^128) with Shoup-style 8-bit tables so
that bulk payloads (the paper's 100 kB sealing benchmark) stay tolerable;
the tables are built per key only when the pure path runs, and cached.

Known-answer tests against the NIST GCM vectors live in
``tests/unit/test_gcm.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

from repro.crypto import libcrypto
from repro.crypto.aes import AES, checked_key
from repro.crypto.bytesutil import block_to_int, constant_time_equal, int_to_block, xor_bytes
from repro.crypto.ctr import ctr_transform
from repro.errors import CryptoError

_R = 0xE1000000000000000000000000000000  # GCM reduction polynomial (bit-reflected)
_X8 = 1 << 119  # the field element x^8 in GCM bit order


def gf_mult(x: int, y: int) -> int:
    """Bitwise multiplication in GF(2^128) with GCM bit ordering.

    Reference implementation (Algorithm 1 of SP 800-38D); used to build the
    fast tables and directly in tests.
    """
    z = 0
    v = y
    for i in range(128):
        if (x >> (127 - i)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _mult_by_x(v: int) -> int:
    """Multiply a field element by x (one shift + conditional reduction)."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def _expand_byte_table(basis: list[int]) -> list[int]:
    """Table over all byte values from the 8 per-bit basis elements.

    ``basis[k]`` is the element contributed by bit ``7 - k`` of the byte
    (i.e. the byte's MSB maps to ``basis[0]``).
    """
    table = [0] * 256
    for b in range(256):
        acc = 0
        for k in range(8):
            if (b >> (7 - k)) & 1:
                acc ^= basis[k]
        table[b] = acc
    return table


# RED[b] = (b placed at coefficients x^120..x^127) * x^8 — key-independent.
_RED_BASIS = [gf_mult(1 << j, _X8) for j in range(7, -1, -1)]
_REDUCTION_TABLE = _expand_byte_table(_RED_BASIS)


class _GhashKey:
    """Precomputed Shoup tables for multiplication by a fixed H.

    Built from 8 doublings + byte expansion rather than 256 full bitwise
    multiplications, so constructing an AEAD (every seal derives a fresh
    key) stays cheap.
    """

    def __init__(self, h: int):
        self.h = h
        # basis[k] = x^k * H; byte b at the top maps its MSB to x^0.
        basis = [h]
        for _ in range(7):
            basis.append(_mult_by_x(basis[-1]))
        # T[b] = (b placed at coefficients x^0..x^7) * H
        self.table = _expand_byte_table(basis)
        self.reduction = _REDUCTION_TABLE

    def mult(self, y: int) -> int:
        """Compute ``y * H`` using the 8-bit tables."""
        z = 0
        table = self.table
        reduction = self.reduction
        # Process bytes LSB-first: each step multiplies the accumulator by
        # x^8 (shift + reduction of the dropped byte) and folds in the next
        # byte's table entry, so byte j ends up weighted by x^(8j).
        for byte in reversed(y.to_bytes(16, "big")):
            z = (z >> 8) ^ reduction[z & 0xFF] ^ table[byte]
        return z


# H -> _GhashKey, most-recently-used last.  Recurring keys (the sealing root
# keys, long-lived channel keys) recur with the same H, so the 256-entry
# Shoup table can be shared across AEAD instances; _GhashKey is never mutated
# after construction, which makes sharing safe.  Mirrors the AES key-schedule
# cache in :mod:`repro.crypto.aes`.
_GHASH_TABLE_CACHE: OrderedDict[int, _GhashKey] = OrderedDict()
_GHASH_TABLE_CACHE_MAX = 512
_ghash_hits = 0
_ghash_misses = 0


def ghash_table_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the GHASH table cache (tests, tuning)."""
    return {
        "hits": _ghash_hits,
        "misses": _ghash_misses,
        "size": len(_GHASH_TABLE_CACHE),
        "capacity": _GHASH_TABLE_CACHE_MAX,
    }


def clear_ghash_table_cache() -> None:
    global _ghash_hits, _ghash_misses
    _GHASH_TABLE_CACHE.clear()
    _ghash_hits = 0
    _ghash_misses = 0


def _ghash_key_for(h: int) -> _GhashKey:
    global _ghash_hits, _ghash_misses
    cached = _GHASH_TABLE_CACHE.get(h)
    if cached is not None:
        _ghash_hits += 1
        _GHASH_TABLE_CACHE.move_to_end(h)
        return cached
    _ghash_misses += 1
    cached = _GhashKey(h)
    _GHASH_TABLE_CACHE[h] = cached
    while len(_GHASH_TABLE_CACHE) > _GHASH_TABLE_CACHE_MAX:
        _GHASH_TABLE_CACHE.popitem(last=False)
    return cached


def _ghash(key: _GhashKey, aad: bytes, ciphertext: bytes) -> bytes:
    y = 0
    for data in (aad, ciphertext):
        for i in range(0, len(data), 16):
            block = data[i : i + 16]
            if len(block) < 16:
                block = block + b"\x00" * (16 - len(block))
            y = key.mult(y ^ block_to_int(block))
    lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
    y = key.mult(y ^ lengths)
    return int_to_block(y)


class AesGcm:
    """AES-GCM with 128-bit tags; 96-bit IVs are the fast path."""

    TAG_SIZE = 16
    IV_SIZE = 12

    def __init__(self, key: bytes):
        self._key = checked_key(key)
        if not libcrypto.available:
            # Without libcrypto every call is pure, so build its state up
            # front as the reference always has (the table caches count it).
            _ = self._ghash_key

    @cached_property
    def _cipher(self) -> AES:
        return AES(self._key)

    @cached_property
    def _ghash_key(self) -> _GhashKey:
        return _ghash_key_for(block_to_int(self._cipher.encrypt_block(b"\x00" * 16)))

    def _native(self, iv: bytes) -> bool:
        return libcrypto.available and len(iv) == self.IV_SIZE

    def _j0(self, iv: bytes) -> int:
        if len(iv) == self.IV_SIZE:
            return (int.from_bytes(iv, "big") << 32) | 1
        # Arbitrary-length IVs are GHASHed (SP 800-38D section 7.1).
        return block_to_int(_ghash(self._ghash_key, b"", iv))

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        if self._native(iv):
            return libcrypto.gcm_encrypt(self._key, iv, plaintext, aad)
        j0 = self._j0(iv)
        ciphertext = ctr_transform(self._cipher, j0 + 1, plaintext)
        s = _ghash(self._ghash_key, aad, ciphertext)
        tag = xor_bytes(self._cipher.encrypt_block(int_to_block(j0)), s)
        return ciphertext, tag

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raises on any mismatch."""
        if len(tag) != self.TAG_SIZE:
            raise CryptoError(f"GCM tag must be {self.TAG_SIZE} bytes")
        if self._native(iv):
            return libcrypto.gcm_decrypt(self._key, iv, ciphertext, tag, aad)
        j0 = self._j0(iv)
        s = _ghash(self._ghash_key, aad, ciphertext)
        expected = xor_bytes(self._cipher.encrypt_block(int_to_block(j0)), s)
        if not constant_time_equal(expected, tag):
            raise CryptoError("GCM tag mismatch")
        return ctr_transform(self._cipher, j0 + 1, ciphertext)

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Convenience: return ``ciphertext || tag`` as one buffer."""
        ciphertext, tag = self.encrypt(iv, plaintext, aad)
        return ciphertext + tag

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`."""
        if len(sealed) < self.TAG_SIZE:
            raise CryptoError("sealed buffer shorter than a GCM tag")
        return self.decrypt(iv, sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :], aad)
