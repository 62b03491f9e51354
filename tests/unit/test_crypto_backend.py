"""Differential tests: libcrypto against the pure-Python reference.

Every case computes on the platform's libcrypto first, then switches to the
pure path through the ``pure_crypto`` fixture and requires byte-identical
output; the error cases must raise :class:`CryptoError` on either path.
"""

import ctypes
import ctypes.util
import importlib

import pytest

from repro.crypto import libcrypto
from repro.crypto.cmac import AesCmac
from repro.crypto.gcm import AesGcm
from repro.errors import CryptoError

pytestmark = pytest.mark.skipif(not libcrypto.available, reason="no usable libcrypto")

KEY_SIZES = (16, 24, 32)
IV = bytes.fromhex("cafebabefacedbaddecaf888")
RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
)
RFC4493_TAGS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


def _data(size: int, salt: int = 0) -> bytes:
    return bytes((7 * i + salt) & 0xFF for i in range(size))


def _on_both_paths(request, compute):
    """``(libcrypto result, pure result)`` of ``compute()``."""
    assert libcrypto.available
    native = compute()
    request.getfixturevalue("pure_crypto")
    assert not libcrypto.available
    return native, compute()


@pytest.fixture(params=["libcrypto", "pure"])
def path(request):
    if request.param == "pure":
        request.getfixturevalue("pure_crypto")
    return request.param


class TestGcmDifferential:
    @pytest.mark.parametrize("aad_len", [0, 5, 16, 33])
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100, 4096, 100_000])
    @pytest.mark.parametrize("key_len", KEY_SIZES)
    def test_ciphertext_and_tag_identical(self, request, key_len, size, aad_len):
        key, plaintext, aad = _data(key_len, 1), _data(size, 2), _data(aad_len, 3)
        native, pure = _on_both_paths(request, lambda: AesGcm(key).encrypt(IV, plaintext, aad))
        assert native == pure
        # The pure path opens what libcrypto sealed.
        assert AesGcm(key).decrypt(IV, *native, aad) == plaintext

    @pytest.mark.parametrize("key_len", KEY_SIZES)
    def test_long_iv_takes_the_pure_path_on_both(self, request, key_len):
        key, iv = _data(key_len, 4), _data(60, 5)
        native, pure = _on_both_paths(request, lambda: AesGcm(key).encrypt(iv, b"payload", b"aad"))
        assert native == pure


class TestCmacDifferential:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 64, 384])
    @pytest.mark.parametrize("key_len", KEY_SIZES)
    def test_tags_identical(self, request, key_len, size):
        key, message = _data(key_len, 6), _data(size, 7)
        native, pure = _on_both_paths(request, lambda: AesCmac(key).mac(message))
        assert native == pure

    @pytest.mark.parametrize("length", sorted(RFC4493_TAGS))
    def test_rfc4493_vectors(self, request, length):
        message = RFC4493_MSG[:length]
        native, pure = _on_both_paths(request, lambda: AesCmac(RFC4493_KEY).mac(message))
        assert native.hex() == pure.hex() == RFC4493_TAGS[length]


class TestErrorsOnBothPaths:
    KEY = _data(16, 8)
    AAD = b"header"

    def _sealed(self):
        ciphertext, tag = AesGcm(self.KEY).encrypt(IV, b"attack at dawn!!", self.AAD)
        return bytearray(ciphertext), bytearray(tag), bytearray(self.AAD), bytearray(IV)

    @pytest.mark.parametrize("field", ["ciphertext", "tag", "aad", "iv"])
    @pytest.mark.parametrize("index", [0, -1])
    def test_flipped_byte_is_a_tag_mismatch(self, path, field, index):
        parts = dict(zip(("ciphertext", "tag", "aad", "iv"), self._sealed()))
        parts[field][index] ^= 0x01
        with pytest.raises(CryptoError, match="GCM tag mismatch"):
            AesGcm(self.KEY).decrypt(
                bytes(parts["iv"]), bytes(parts["ciphertext"]), bytes(parts["tag"]),
                bytes(parts["aad"]),
            )

    @pytest.mark.parametrize("tag_len", [0, 12, 15, 17])
    def test_bad_tag_length(self, path, tag_len):
        ciphertext, _, _, _ = self._sealed()
        with pytest.raises(CryptoError, match="GCM tag must be 16 bytes"):
            AesGcm(self.KEY).decrypt(IV, bytes(ciphertext), bytes(tag_len), self.AAD)

    @pytest.mark.parametrize("key_len", [1, 15, 17, 31, 33])
    @pytest.mark.parametrize("primitive", [AesGcm, AesCmac])
    def test_invalid_key_length(self, path, primitive, key_len):
        key = bytes([0xA5]) * key_len
        with pytest.raises(CryptoError, match=f"invalid AES key length: {key_len}$") as caught:
            primitive(key)
        # Key bytes never reach an exception message.
        assert key.hex() not in str(caught.value) and str(key) not in str(caught.value)


class TestNativeGuards:
    """libcrypto's own entry points validate before passing a pointer."""

    def test_short_iv_rejected(self):
        with pytest.raises(CryptoError):
            libcrypto.gcm_encrypt(bytes(16), bytes(8), b"data")

    def test_short_tag_rejected(self):
        with pytest.raises(CryptoError):
            libcrypto.gcm_decrypt(bytes(16), bytes(12), b"data", bytes(8))

    def test_invalid_key_rejected(self):
        with pytest.raises(CryptoError, match="invalid AES key length: 20"):
            libcrypto.gcm_encrypt(bytes(20), bytes(12), b"data")

    @pytest.mark.parametrize("size", [0, 15, 17])
    def test_cbc_mac_needs_whole_blocks(self, size):
        with pytest.raises(CryptoError):
            libcrypto.cbc_mac(bytes(16), bytes(size))

    def test_backend_name_follows_the_seam(self, request):
        assert libcrypto.backend() == "libcrypto"
        request.getfixturevalue("pure_crypto")
        assert libcrypto.backend() == "pure"


class _WithoutSymbol:
    """A ``ctypes.CDLL`` stand-in missing one EVP symbol."""

    real_cdll = ctypes.CDLL

    def __init__(self, name):
        self._lib = self.real_cdll(name)

    def __getattr__(self, symbol):
        if symbol == "EVP_aes_192_gcm":
            raise AttributeError(symbol)
        return getattr(self._lib, symbol)


class TestMissingLibcrypto:
    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_everything_falls_back_to_the_pure_path(self, monkeypatch, missing):
        if missing == "library":
            monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        else:
            monkeypatch.setattr(ctypes, "CDLL", _WithoutSymbol)
        try:
            importlib.reload(libcrypto)
            assert not libcrypto.available and libcrypto.backend() == "pure"
            ciphertext, tag = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
            assert ciphertext.hex() == "0388dace60b6a392f328c2b971b2fe78"
            assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"
            assert AesCmac(RFC4493_KEY).mac(b"").hex() == RFC4493_TAGS[0]
            with pytest.raises(CryptoError, match="not available"):
                libcrypto.gcm_encrypt(bytes(16), bytes(12), b"data")
        finally:
            monkeypatch.undo()
            importlib.reload(libcrypto)
        assert libcrypto.available
