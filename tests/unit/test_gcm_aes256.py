"""AES-256-GCM known-answer tests (GCM spec test cases 13-16)."""

import pytest

from repro.crypto.gcm import AesGcm
from tests.crypto_paths import pure_variants

KEY256 = bytes.fromhex(
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
)
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestAes256GcmVectors:
    def test_case13_empty(self):
        ciphertext, tag = AesGcm(bytes(32)).encrypt(bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "530f8afbc74536b9a963b4f1c4cb738b"

    def test_case14_zero_block(self):
        ciphertext, tag = AesGcm(bytes(32)).encrypt(bytes(12), bytes(16))
        assert ciphertext.hex() == "cea7403d4d606b6e074ec5d3baf39d18"
        assert tag.hex() == "d0d1c8a799996bf0265b98b5d48ab919"

    def test_case15_full_plaintext(self):
        ciphertext, tag = AesGcm(KEY256).encrypt(IV, PT)
        assert ciphertext.hex() == (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
        )
        assert tag.hex() == "b094dac5d93471bdec1a502270e3cc6c"

    def test_case16_with_aad(self):
        ciphertext, tag = AesGcm(KEY256).encrypt(IV, PT[:60], AAD)
        assert ciphertext.hex() == (
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        )
        assert tag.hex() == "76fc6ece0f4e1768cddf8853bb2d551b"

    def test_roundtrip_aes256(self):
        gcm = AesGcm(KEY256)
        ciphertext, tag = gcm.encrypt(IV, PT, AAD)
        assert gcm.decrypt(IV, ciphertext, tag, AAD) == PT

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_all_key_sizes_roundtrip(self, key_size):
        gcm = AesGcm(bytes(range(key_size)))
        ciphertext, tag = gcm.encrypt(IV, b"payload", b"aad")
        assert gcm.decrypt(IV, ciphertext, tag, b"aad") == b"payload"


# Every class above again, on the pure-Python reference path.
globals().update(pure_variants(globals()))
