"""AES block cipher (FIPS 197): the pure-Python reference.

AES-GCM and AES-CMAC run through the platform's libcrypto when present
(:mod:`repro.crypto.libcrypto`); this module is their fallback and the
oracle the differential tests compare libcrypto against.  Two code paths
are provided:

* a scalar path (:meth:`AES.encrypt_block` / :meth:`AES.decrypt_block`)
  used for single blocks — key schedules, CMAC subkeys, GHASH key
  derivation — with GF(2^8) multiplication tables so each round is pure
  lookups; and
* a numpy-vectorised batch path (:meth:`AES.encrypt_blocks`) that encrypts
  many blocks in parallel, used by CTR/GCM for bulk payloads such as the
  100 kB sealing benchmark.

Key schedules are cached across instances in a bounded module-level table
keyed by the key bytes: AEAD objects are constructed per seal / per channel
record stream, but the underlying keys (CPU fuse keys, report keys, session
keys) recur, so re-expanding them dominates AEAD setup without the cache.

The S-box and its inverse are computed programmatically from the GF(2^8)
inverse plus the affine transform, rather than transcribed, to rule out
copy errors; known-answer tests against the FIPS 197 vectors live in
``tests/unit/test_aes.py``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import CryptoError


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation: a^254 = a^-1 in GF(2^8).
    inverse = [0] * 256
    for a in range(1, 256):
        x = a
        for _ in range(253):  # a^255 = 1, so a^254 = a^-1
            x = _gf_mul(x, a)
        inverse[a] = x
    sbox = [0] * 256
    for a in range(256):
        x = inverse[a]
        # Affine transform: b = x ^ rotl(x,1) ^ rotl(x,2) ^ rotl(x,3) ^ rotl(x,4) ^ 0x63
        b = x
        for shift in range(1, 5):
            b ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        sbox[a] = b ^ 0x63
    inv_sbox = [0] * 256
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Numpy lookup tables for the batch path.
_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)
_XTIME_NP = np.array([_gf_mul(i, 2) for i in range(256)], dtype=np.uint8)
# ShiftRows permutation on the flat 16-byte column-major state:
# flat index = 4*col + row; row r rotates left by r columns.
_SHIFT_ROWS_IDX = np.array(
    [4 * ((col + row) % 4) + row for col in range(4) for row in range(4)],
    dtype=np.intp,
)
_INV_SHIFT_ROWS_IDX = np.argsort(_SHIFT_ROWS_IDX)

_KEY_ROUNDS = {16: 10, 24: 12, 32: 14}

# GF(2^8) multiplication tables for the MixColumns constants, so the scalar
# rounds are table lookups instead of per-bit _gf_mul loops.
_MUL2 = [_gf_mul(i, 2) for i in range(256)]
_MUL3 = [_gf_mul(i, 3) for i in range(256)]
_MUL9 = [_gf_mul(i, 9) for i in range(256)]
_MUL11 = [_gf_mul(i, 11) for i in range(256)]
_MUL13 = [_gf_mul(i, 13) for i in range(256)]
_MUL14 = [_gf_mul(i, 14) for i in range(256)]

# key bytes -> (round_keys, round_keys_np), most-recently-used last.
_SCHEDULE_CACHE: OrderedDict[bytes, tuple[list[bytes], np.ndarray]] = OrderedDict()
_SCHEDULE_CACHE_MAX = 512
_schedule_hits = 0
_schedule_misses = 0


def key_schedule_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the key-schedule cache (tests, tuning)."""
    return {
        "hits": _schedule_hits,
        "misses": _schedule_misses,
        "size": len(_SCHEDULE_CACHE),
        "capacity": _SCHEDULE_CACHE_MAX,
    }


def clear_key_schedule_cache() -> None:
    global _schedule_hits, _schedule_misses
    _SCHEDULE_CACHE.clear()
    _schedule_hits = 0
    _schedule_misses = 0


def checked_key(key: bytes) -> bytes:
    """``key`` as bytes, or :class:`CryptoError` unless it is 16/24/32 bytes."""
    if len(key) not in _KEY_ROUNDS:
        raise CryptoError(f"invalid AES key length: {len(key)}")
    return bytes(key)


class AES:
    """AES-128/192/256 block cipher over 16-byte blocks."""

    def __init__(self, key: bytes):
        global _schedule_hits, _schedule_misses
        key = checked_key(key)
        self.rounds = _KEY_ROUNDS[len(key)]
        cached = _SCHEDULE_CACHE.get(key)
        if cached is not None:
            _schedule_hits += 1
            _SCHEDULE_CACHE.move_to_end(key)
        else:
            _schedule_misses += 1
            round_keys = self._expand_key(key)
            round_keys_np = np.array(
                [np.frombuffer(rk, dtype=np.uint8) for rk in round_keys]
            )
            round_keys_np.setflags(write=False)
            cached = (round_keys, round_keys_np)
            _SCHEDULE_CACHE[key] = cached
            while len(_SCHEDULE_CACHE) > _SCHEDULE_CACHE_MAX:
                _SCHEDULE_CACHE.popitem(last=False)
        self._round_keys, self._round_keys_np = cached

    # ----------------------------------------------------------- key schedule
    def _expand_key(self, key: bytes) -> list[bytes]:
        nk = len(key) // 4
        nr = self.rounds
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        round_keys = []
        for r in range(nr + 1):
            rk = bytes(b for w in words[4 * r : 4 * r + 4] for b in w)
            round_keys.append(rk)
        return round_keys

    # ----------------------------------------------------------- scalar path
    @staticmethod
    def _sub_bytes(state: list[int]) -> list[int]:
        return [SBOX[b] for b in state]

    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        return [state[i] for i in _SHIFT_ROWS_IDX]

    @staticmethod
    def _mix_single_column(col: list[int]) -> list[int]:
        a0, a1, a2, a3 = col
        return [
            _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3,
            a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3,
            a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3],
            _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3],
        ]

    @classmethod
    def _mix_columns(cls, state: list[int]) -> list[int]:
        out: list[int] = []
        for c in range(4):
            out.extend(cls._mix_single_column(state[4 * c : 4 * c + 4]))
        return out

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block (scalar path, GF-table rounds).

        Single blocks (GCM tag masks, CMAC chaining, key derivation) stay
        scalar on purpose: numpy's per-call overhead only pays off from a
        few blocks up, which is what :meth:`encrypt_blocks` is for.
        """
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        state = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for r in range(1, self.rounds):
            state = self._sub_bytes(state)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, self._round_keys[r])]
        state = self._sub_bytes(state)
        state = self._shift_rows(state)
        state = [b ^ k for b, k in zip(state, self._round_keys[self.rounds])]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (inverse cipher)."""
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        state = [b ^ k for b, k in zip(block, self._round_keys[self.rounds])]
        state = [state[i] for i in _INV_SHIFT_ROWS_IDX]
        state = [INV_SBOX[b] for b in state]
        for r in range(self.rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, self._round_keys[r])]
            state = self._inv_mix_columns(state)
            state = [state[i] for i in _INV_SHIFT_ROWS_IDX]
            state = [INV_SBOX[b] for b in state]
        state = [b ^ k for b, k in zip(state, self._round_keys[0])]
        return bytes(state)

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> list[int]:
        out: list[int] = []
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            out.extend(
                [
                    _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3],
                    _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3],
                    _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3],
                    _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3],
                ]
            )
        return out

    # ------------------------------------------------------------ batch path
    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt ``blocks`` of shape (n, 16) uint8 in parallel.

        This is the bulk path used by CTR/GCM; it implements the same round
        function as :meth:`encrypt_block` but over whole arrays.
        """
        if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
            raise CryptoError("encrypt_blocks expects an (n, 16) uint8 array")
        state = blocks ^ self._round_keys_np[0]
        for r in range(1, self.rounds):
            state = _SBOX_NP[state]
            state = state[:, _SHIFT_ROWS_IDX]
            state = self._mix_columns_np(state)
            state ^= self._round_keys_np[r]
        state = _SBOX_NP[state]
        state = state[:, _SHIFT_ROWS_IDX]
        state = state ^ self._round_keys_np[self.rounds]
        return state

    @staticmethod
    def _mix_columns_np(state: np.ndarray) -> np.ndarray:
        s = state.reshape(-1, 4, 4)  # (n, column, row)
        a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
        x0, x1, x2, x3 = _XTIME_NP[a0], _XTIME_NP[a1], _XTIME_NP[a2], _XTIME_NP[a3]
        out = np.empty_like(s)
        out[:, :, 0] = x0 ^ (x1 ^ a1) ^ a2 ^ a3
        out[:, :, 1] = a0 ^ x1 ^ (x2 ^ a2) ^ a3
        out[:, :, 2] = a0 ^ a1 ^ x2 ^ (x3 ^ a3)
        out[:, :, 3] = (x0 ^ a0) ^ a1 ^ a2 ^ x3
        return out.reshape(-1, 16)
