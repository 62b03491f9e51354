"""Known-answer tests for the fast modular-exponentiation paths.

Every fast path in :mod:`repro.crypto.modexp` must be bit-exact with
``builtins.pow`` — these tests pin that over the RFC 3526 2048-bit group the
simulator actually uses (Schnorr generator g=4, DH generator g=2), including
the edge exponents 0, 1 and q-1, plus the cache bookkeeping the benchmarks
rely on.
"""

import pytest

from repro.crypto import modexp
from repro.crypto.aes import (
    AES,
    clear_key_schedule_cache,
    key_schedule_cache_stats,
)
from repro.crypto.dh import MODP_2048_G, MODP_2048_P, MODP_2048_Q
from repro.errors import CryptoError

_P = MODP_2048_P
_Q = MODP_2048_Q

EDGE_EXPONENTS = (0, 1, 2, _Q - 1, _Q, 1 << 255, (1 << 2046) - 1)


class TestFixedBaseTable:
    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_schnorr_generator(self, exponent):
        table = modexp.FixedBaseTable(4, _P, max_bits=2048)
        assert table.pow(exponent) == pow(4, exponent, _P)

    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_dh_generator(self, exponent):
        table = modexp.FixedBaseTable(MODP_2048_G, _P, max_bits=2048)
        assert table.pow(exponent) == pow(MODP_2048_G, exponent, _P)

    def test_oversized_exponent_falls_back_to_pow(self):
        table = modexp.FixedBaseTable(4, _P, max_bits=16)
        exponent = 1 << 100  # way past max_bits
        assert table.pow(exponent) == pow(4, exponent, _P)

    def test_negative_exponent_rejected(self):
        table = modexp.FixedBaseTable(4, _P)
        with pytest.raises(CryptoError):
            table.pow(-1)

    def test_random_exponents_match_pow(self):
        import random

        rng = random.Random(1234)
        table = modexp.FixedBaseTable(4, _P, max_bits=2048)
        for _ in range(10):
            exponent = rng.getrandbits(2046)
            assert table.pow(exponent) == pow(4, exponent, _P)


class TestShamir:
    def test_mul2_powmod_matches_pow_product(self):
        import random

        rng = random.Random(99)
        for _ in range(5):
            b1, b2 = rng.getrandbits(2040), rng.getrandbits(2040)
            e1, e2 = rng.getrandbits(2046), rng.getrandbits(256)
            expected = pow(b1, e1, _P) * pow(b2, e2, _P) % _P
            assert modexp.mul2_powmod(b1, e1, b2, e2, _P) == expected

    @pytest.mark.parametrize("e1,e2", [(0, 0), (0, 1), (1, 0), (_Q - 1, 1)])
    def test_mul2_powmod_edge_exponents(self, e1, e2):
        expected = pow(4, e1, _P) * pow(9, e2, _P) % _P
        assert modexp.mul2_powmod(4, e1, 9, e2, _P) == expected

    def test_verify_product_matches_pow(self):
        modexp.clear_public_key_cache()
        public = pow(4, 0xDEADBEEF, _P)
        s, e = (1 << 2000) + 12345, (1 << 255) + 7
        expected = pow(4, s, _P) * pow(public, e, _P) % _P
        assert modexp.verify_product(4, s, public, e, _P) == expected


class TestPublicKeyLru:
    def test_hits_and_misses_counted(self):
        modexp.clear_public_key_cache()
        public = pow(4, 31337, _P)
        modexp.verify_product(4, 5, public, 6, _P)
        modexp.verify_product(4, 7, public, 8, _P)
        stats = modexp.public_key_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1

    def test_capacity_bounded(self):
        modexp.clear_public_key_cache()
        for i in range(modexp.LRU_CAPACITY + 8):
            modexp.warm_public_key(2 + i, _P)
        assert modexp.public_key_cache_stats()["size"] == modexp.LRU_CAPACITY


@pytest.mark.usefixtures("pure_crypto")
class TestKeyScheduleCache:
    def test_hit_and_miss_accounting(self):
        clear_key_schedule_cache()
        key = bytes(range(16))
        first = AES(key)
        stats = key_schedule_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = AES(key)
        stats = key_schedule_cache_stats()
        assert stats["hits"] == 1
        # Same schedule object, and identical ciphertext either way.
        assert first._round_keys is second._round_keys
        block = b"\x00" * 16
        assert first.encrypt_block(block) == second.encrypt_block(block)

    def test_distinct_keys_distinct_schedules(self):
        clear_key_schedule_cache()
        a = AES(b"\x00" * 16)
        b = AES(b"\x01" * 16)
        assert a._round_keys != b._round_keys
        assert key_schedule_cache_stats()["misses"] == 2
