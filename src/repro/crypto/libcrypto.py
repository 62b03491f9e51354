"""AES-GCM and AES-CBC through the platform's OpenSSL ``libcrypto``.

CPython's ``_hashlib`` already maps ``libcrypto`` into the process, so
binding its EVP cipher interface with :mod:`ctypes` costs no new code in
memory.  Only two modes are bound: AES-{128,192,256}-GCM (for
:class:`~repro.crypto.gcm.AesGcm` with 96-bit IVs) and unpadded AES-CBC
(whose last block is the CBC-MAC behind
:class:`~repro.crypto.cmac.AesCmac`).

The library is resolved once, at import.  When it or any symbol is missing,
:data:`available` is ``False`` and every caller runs the pure-Python
reference in :mod:`repro.crypto.aes` / :mod:`repro.crypto.gcm`, which also
serves as the test oracle for this module.  Every EVP return code is
checked; failures surface as :class:`~repro.errors.CryptoError`, and no
message carries key bytes.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from contextlib import contextmanager

from repro.errors import CryptoError

_TAG_SIZE = 16
_GCM_IV_SIZE = 12
_ZERO_IV = bytes(16)
_INT_MAX = 2**31 - 1
# EVP_CTRL_AEAD_GET_TAG / EVP_CTRL_AEAD_SET_TAG from <openssl/evp.h>.
_CTRL_GET_TAG = 0x10
_CTRL_SET_TAG = 0x11

_ctx = ctypes.c_void_p
_buf = ctypes.c_char_p
_int = ctypes.c_int
_SIGNATURES = {
    "EVP_CIPHER_CTX_new": (_ctx, []),
    "EVP_CIPHER_CTX_free": (None, [_ctx]),
    "EVP_CIPHER_CTX_ctrl": (_int, [_ctx, _int, _int, _buf]),
    "EVP_CIPHER_CTX_set_padding": (_int, [_ctx, _int]),
    "EVP_CipherInit_ex": (_int, [_ctx, ctypes.c_void_p, ctypes.c_void_p, _buf, _buf, _int]),
    "EVP_CipherUpdate": (_int, [_ctx, _buf, ctypes.POINTER(_int), _buf, _int]),
    "EVP_CipherFinal_ex": (_int, [_ctx, _buf, ctypes.POINTER(_int)]),
}
_GCM_NAMES = {16: "EVP_aes_128_gcm", 24: "EVP_aes_192_gcm", 32: "EVP_aes_256_gcm"}
_CBC_NAMES = {16: "EVP_aes_128_cbc", 24: "EVP_aes_192_cbc", 32: "EVP_aes_256_cbc"}


def _load():
    """``(lib, gcm ciphers, cbc ciphers)``, or ``None`` when unusable."""
    name = ctypes.util.find_library("crypto")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
        for symbol, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, symbol)
            fn.restype, fn.argtypes = restype, argtypes
        ciphers = []
        for names in (_GCM_NAMES, _CBC_NAMES):
            table = {}
            for key_len, symbol in names.items():
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_void_p, []
                table[key_len] = fn()
            ciphers.append(table)
    except (OSError, AttributeError):
        return None
    if not all(all(table.values()) for table in ciphers):
        return None
    return lib, ciphers[0], ciphers[1]


_lib, _GCM, _CBC = _load() or (None, {}, {})
#: Whether :class:`AesGcm` / :class:`AesCmac` run through libcrypto.  Read
#: at every call, so a test can force the pure-Python path by patching it.
available = _lib is not None


def backend() -> str:
    """``"libcrypto"`` or ``"pure"``: the path symmetric crypto takes now."""
    return "libcrypto" if available else "pure"


def _check(ok: int, call: str) -> None:
    if ok != 1:
        raise CryptoError(f"libcrypto {call} failed")


def _as_bytes(data) -> bytes:
    data = data if isinstance(data, bytes) else memoryview(data).tobytes()
    if len(data) > _INT_MAX:
        raise CryptoError(f"libcrypto input of {len(data)} bytes exceeds INT_MAX")
    return data


def _cipher_for(table: dict[int, int], key: bytes) -> int:
    if _lib is None:
        raise CryptoError("libcrypto is not available")
    try:
        return table[len(key)]
    except KeyError:
        raise CryptoError(f"invalid AES key length: {len(key)}") from None


@contextmanager
def _context(cipher: int, key: bytes, iv: bytes, *, encrypt: bool):
    """A fresh ``EVP_CIPHER_CTX`` keyed for one pass, freed on exit."""
    ctx = _lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise CryptoError("libcrypto EVP_CIPHER_CTX_new failed")
    try:
        _check(_lib.EVP_CipherInit_ex(ctx, cipher, None, key, iv, int(encrypt)),
               "EVP_CipherInit_ex")
        yield ctx
    finally:
        _lib.EVP_CIPHER_CTX_free(ctx)


def _update(ctx, data, *, aad: bool = False) -> bytes:
    """Feed ``data`` (as AAD when ``aad``); returns the output produced."""
    data = _as_bytes(data)
    if not data:
        return b""
    out = None if aad else ctypes.create_string_buffer(len(data) + 16)
    written = _int()
    _check(_lib.EVP_CipherUpdate(ctx, out, written, data, len(data)), "EVP_CipherUpdate")
    return b"" if aad else ctypes.string_at(out, written.value)


def _final(ctx) -> bool:
    # GCM and unpadded CBC emit no bytes here; the call completes the pass
    # and, when decrypting GCM, checks the tag.
    written = _int()
    return _lib.EVP_CipherFinal_ex(ctx, ctypes.create_string_buffer(16), written) == 1


def gcm_encrypt(key: bytes, iv: bytes, plaintext, aad=b"") -> tuple[bytes, bytes]:
    """AES-GCM with a 12-byte ``iv``: ``(ciphertext, 16-byte tag)``."""
    key, iv = _as_bytes(key), _as_bytes(iv)
    if len(iv) != _GCM_IV_SIZE:
        raise CryptoError(f"libcrypto GCM needs a {_GCM_IV_SIZE}-byte IV")
    with _context(_cipher_for(_GCM, key), key, iv, encrypt=True) as ctx:
        _update(ctx, aad, aad=True)
        ciphertext = _update(ctx, plaintext)
        if not _final(ctx):
            raise CryptoError("libcrypto EVP_CipherFinal_ex failed")
        tag = ctypes.create_string_buffer(_TAG_SIZE)
        _check(_lib.EVP_CIPHER_CTX_ctrl(ctx, _CTRL_GET_TAG, _TAG_SIZE, tag),
               "EVP_CIPHER_CTX_ctrl")
        return ciphertext, tag.raw


def gcm_decrypt(key: bytes, iv: bytes, ciphertext, tag, aad=b"") -> bytes:
    """Inverse of :func:`gcm_encrypt`; raises on any tag mismatch."""
    key, iv, tag = _as_bytes(key), _as_bytes(iv), _as_bytes(tag)
    if len(iv) != _GCM_IV_SIZE:
        raise CryptoError(f"libcrypto GCM needs a {_GCM_IV_SIZE}-byte IV")
    if len(tag) != _TAG_SIZE:
        raise CryptoError(f"GCM tag must be {_TAG_SIZE} bytes")
    with _context(_cipher_for(_GCM, key), key, iv, encrypt=False) as ctx:
        _update(ctx, aad, aad=True)
        plaintext = _update(ctx, ciphertext)
        _check(_lib.EVP_CIPHER_CTX_ctrl(ctx, _CTRL_SET_TAG, _TAG_SIZE, tag),
               "EVP_CIPHER_CTX_ctrl")
        if not _final(ctx):
            raise CryptoError("GCM tag mismatch")
        return plaintext


def cbc_mac(key: bytes, data) -> bytes:
    """Last block of AES-CBC(``key``, IV = 0) over block-aligned ``data``."""
    key = _as_bytes(key)
    if not data or len(data) % 16:
        raise CryptoError(f"CBC-MAC input must be whole blocks, got {len(data)} bytes")
    with _context(_cipher_for(_CBC, key), key, _ZERO_IV, encrypt=True) as ctx:
        _check(_lib.EVP_CIPHER_CTX_set_padding(ctx, 0), "EVP_CIPHER_CTX_set_padding")
        out = _update(ctx, data)
        if not _final(ctx):
            raise CryptoError("libcrypto EVP_CipherFinal_ex failed")
        return out[-16:]
