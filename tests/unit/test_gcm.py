"""AES-GCM known-answer tests (NIST / GCM spec test cases) + behaviour."""

import pytest

from repro.crypto.gcm import AesGcm, _GhashKey, gf_mult
from repro.errors import CryptoError
from tests.crypto_paths import pure_variants

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
CT = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


class TestKnownAnswers:
    def test_case1_empty_everything(self):
        ciphertext, tag = AesGcm(bytes(16)).encrypt(bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_single_zero_block(self):
        ciphertext, tag = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
        assert ciphertext.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case3_full_blocks(self):
        ciphertext, tag = AesGcm(KEY).encrypt(IV, PT)
        assert ciphertext == CT
        assert tag.hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case4_with_aad_and_partial_block(self):
        ciphertext, tag = AesGcm(KEY).encrypt(IV, PT[:60], AAD)
        assert ciphertext == CT[:60]
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_case6_long_iv(self):
        long_iv = bytes.fromhex(
            "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b"
        )
        _, tag = AesGcm(KEY).encrypt(long_iv, PT[:60], AAD)
        assert tag.hex() == "619cc5aefffe0bfa462af43c1699d050"


class TestRoundTrips:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 100, 4096])
    def test_roundtrip_sizes(self, size):
        gcm = AesGcm(KEY)
        plaintext = bytes(range(256)) * (size // 256 + 1)
        plaintext = plaintext[:size]
        ciphertext, tag = gcm.encrypt(IV, plaintext, b"hdr")
        assert gcm.decrypt(IV, ciphertext, tag, b"hdr") == plaintext

    def test_seal_open(self):
        gcm = AesGcm(KEY)
        sealed = gcm.seal(IV, b"secret", b"aad")
        assert gcm.open(IV, sealed, b"aad") == b"secret"

    def test_open_too_short(self):
        with pytest.raises(CryptoError):
            AesGcm(KEY).open(IV, b"short")


class TestTamperDetection:
    def _encrypt(self):
        gcm = AesGcm(KEY)
        ciphertext, tag = gcm.encrypt(IV, b"attack at dawn!!", b"header")
        return gcm, ciphertext, tag

    def test_ciphertext_tamper(self):
        gcm, ciphertext, tag = self._encrypt()
        bad = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        with pytest.raises(CryptoError):
            gcm.decrypt(IV, bad, tag, b"header")

    def test_tag_tamper(self):
        gcm, ciphertext, tag = self._encrypt()
        bad = bytes([tag[0] ^ 1]) + tag[1:]
        with pytest.raises(CryptoError):
            gcm.decrypt(IV, ciphertext, bad, b"header")

    def test_aad_tamper(self):
        gcm, ciphertext, tag = self._encrypt()
        with pytest.raises(CryptoError):
            gcm.decrypt(IV, ciphertext, tag, b"hEader")

    def test_wrong_key(self):
        _, ciphertext, tag = self._encrypt()
        with pytest.raises(CryptoError):
            AesGcm(bytes(16)).decrypt(IV, ciphertext, tag, b"header")

    def test_wrong_iv(self):
        gcm, ciphertext, tag = self._encrypt()
        with pytest.raises(CryptoError):
            gcm.decrypt(bytes(12), ciphertext, tag, b"header")

    def test_bad_tag_length(self):
        gcm, ciphertext, _ = self._encrypt()
        with pytest.raises(CryptoError):
            gcm.decrypt(IV, ciphertext, b"short", b"header")


class TestGhash:
    def test_table_matches_bitwise_reference(self):
        h = 0x66E94BD4EF8A2C3B884CFA59CA342B2E
        key = _GhashKey(h)
        values = [0, 1, 1 << 127, (1 << 128) - 1, 0xDEADBEEF << 64]
        for value in values:
            assert key.mult(value) == gf_mult(value, h)

    def test_gf_mult_identity(self):
        # x^0 (the MSB in GCM bit order) is the multiplicative identity.
        one = 1 << 127
        assert gf_mult(one, 0x1234) == 0x1234
        assert gf_mult(0x1234, one) == 0x1234

    def test_gf_mult_commutative(self):
        a, b = 0x0123456789ABCDEF << 32, 0xFEDCBA987654321 << 16
        assert gf_mult(a, b) == gf_mult(b, a)


@pytest.mark.usefixtures("pure_crypto")
class TestGhashTableCache:
    def test_hits_misses_and_sharing(self):
        from repro.crypto import gcm

        gcm.clear_ghash_table_cache()
        a = AesGcm(b"k" * 16)
        b = AesGcm(b"k" * 16)  # same key -> same H -> cache hit
        c = AesGcm(b"x" * 16)
        stats = gcm.ghash_table_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["size"] == 2
        assert stats["capacity"] == 512
        assert a._ghash_key is b._ghash_key
        assert a._ghash_key is not c._ghash_key
        # Shared tables still authenticate correctly.
        iv = bytes(12)
        ciphertext, tag = a.encrypt(iv, b"payload", b"aad")
        assert b.decrypt(iv, ciphertext, tag, b"aad") == b"payload"
        gcm.clear_ghash_table_cache()
        assert gcm.ghash_table_cache_stats() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": 512,
        }

    def test_lru_eviction_is_bounded(self, monkeypatch):
        from repro.crypto import gcm

        gcm.clear_ghash_table_cache()
        monkeypatch.setattr(gcm, "_GHASH_TABLE_CACHE_MAX", 2)
        keys = [bytes([i]) * 16 for i in range(3)]
        aeads = [AesGcm(key) for key in keys]
        stats = gcm.ghash_table_cache_stats()
        assert stats["size"] == 2  # oldest H evicted
        assert stats["misses"] == 3
        # The evicted key's AEAD keeps its (now uncached) tables and still
        # round-trips; re-instantiating it is a miss, not an error.
        iv = bytes(12)
        ciphertext, tag = aeads[0].encrypt(iv, b"data")
        assert AesGcm(keys[0]).decrypt(iv, ciphertext, tag) == b"data"
        assert gcm.ghash_table_cache_stats()["misses"] == 4
        gcm.clear_ghash_table_cache()


# Every class above again, on the pure-Python reference path.
globals().update(pure_variants(globals()))
