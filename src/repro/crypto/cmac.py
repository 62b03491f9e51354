"""AES-CMAC (NIST SP 800-38B / RFC 4493): pure-Python reference;
libcrypto when present.

SGX derives all its keys (sealing keys, report keys, provisioning keys) with
AES-128 in a CMAC-based KDF, and local-attestation REPORTs are MACed with
CMAC.  The subkey doubling, padding and K1/K2 masking stay here; the block
chaining is a CBC-MAC, run by :mod:`repro.crypto.libcrypto` when available
and by the scalar :class:`~repro.crypto.aes.AES` otherwise.  Known-answer
tests against the RFC 4493 vectors live in ``tests/unit/test_cmac_kdf.py``.
"""

from __future__ import annotations

from functools import cached_property

from repro.crypto import libcrypto
from repro.crypto.aes import AES, checked_key
from repro.crypto.bytesutil import constant_time_equal, xor_bytes
from repro.errors import CryptoError

_BLOCK = 16
_RB = 0x87  # the constant R_128 from SP 800-38B


def _double(block: bytes) -> bytes:
    """Multiply a 128-bit value by x in GF(2^128) (the 'dbl' operation)."""
    value = int.from_bytes(block, "big")
    carry = value >> 127
    value = (value << 1) & ((1 << 128) - 1)
    if carry:
        value ^= _RB
    return value.to_bytes(_BLOCK, "big")


class AesCmac:
    """AES-CMAC producing 16-byte tags."""

    def __init__(self, key: bytes):
        self._key = checked_key(key)

    @cached_property
    def _cipher(self) -> AES:
        return AES(self._key)

    @cached_property
    def _subkeys(self) -> tuple[bytes, bytes]:
        k1 = _double(self._cbc_mac(b"\x00" * _BLOCK))
        return k1, _double(k1)

    def _cbc_mac(self, blocks: bytes) -> bytes:
        """Last block of AES-CBC(key, IV = 0) over whole ``blocks``."""
        if libcrypto.available:
            return libcrypto.cbc_mac(self._key, blocks)
        x = b"\x00" * _BLOCK
        for i in range(0, len(blocks), _BLOCK):
            x = self._cipher.encrypt_block(xor_bytes(x, blocks[i : i + _BLOCK]))
        return x

    def mac(self, message: bytes) -> bytes:
        """Compute the CMAC tag of ``message``."""
        k1, k2 = self._subkeys
        n = (len(message) + _BLOCK - 1) // _BLOCK
        if n == 0:
            n = 1
            complete = False
        else:
            complete = len(message) % _BLOCK == 0
        if complete:
            last = xor_bytes(message[(n - 1) * _BLOCK :], k1)
        else:
            tail = message[(n - 1) * _BLOCK :]
            padded = tail + b"\x80" + b"\x00" * (_BLOCK - len(tail) - 1)
            last = xor_bytes(padded, k2)
        return self._cbc_mac(message[: (n - 1) * _BLOCK] + last)

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Timing-safe verification of a CMAC tag."""
        if len(tag) != _BLOCK:
            raise CryptoError(f"CMAC tag must be {_BLOCK} bytes")
        return constant_time_equal(self.mac(message), tag)


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """One-shot convenience wrapper."""
    return AesCmac(key).mac(message)
