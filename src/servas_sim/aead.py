"""Authenticated encryption primitives for the memory encryption engine.

The engine only needs a 128-bit-key, 128-bit-tag AEAD whose associated data
carries the full access tweak.  Two interchangeable backends are provided:

* ``AesGcmAead`` -- AES-128-GCM via the ``cryptography`` package.  Default,
  because the test suites run hundreds of thousands of line operations.
* ``Ascon128Aead`` -- a pure-Python Ascon-128 (v1.2), the lightweight
  permutation cipher family the hardware prototype is configured with.

Both raise :class:`AeadAuthError` on any verification failure so callers
never see partial plaintext.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_LEN = 16
TAG_LEN = 16


class AeadAuthError(Exception):
    """Tag verification failed; ciphertext, tag, nonce or AD was wrong."""


class AesGcmAead:
    """AES-128-GCM behind the common seal/open interface."""

    name = "aes-gcm"
    nonce_len = 12

    def __init__(self):
        # The cipher object of the last key used: an engine seals every line
        # under one key, so building it per call would be pure overhead.
        self._key: bytes | None = None
        self._cipher: AESGCM | None = None

    def _for(self, key: bytes) -> AESGCM:
        if key != self._key:
            self._cipher = AESGCM(key)
            self._key = key
        return self._cipher

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> tuple[bytes, bytes]:
        blob = self._for(key).encrypt(nonce, plaintext, ad)
        return blob[:-TAG_LEN], blob[-TAG_LEN:]

    def open(self, key: bytes, nonce: bytes, ciphertext: bytes, tag: bytes, ad: bytes) -> bytes:
        try:
            return self._for(key).decrypt(nonce, ciphertext + tag, ad)
        except InvalidTag as exc:
            raise AeadAuthError("authentication tag mismatch") from exc


# --- Ascon-128 v1.2 ---------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_ASCON128_IV = 0x80400C0600000000  # key=128, rate=64, a=12, b=6


# round constants of the 12-round permutation; a p^b call runs the last b
_ROUND_CONSTANTS = tuple(0xF0 - r * 0x10 + r * 0x1 for r in range(12))


def ascon_permutation(s: list[int], rounds: int) -> None:
    """In-place Ascon permutation on a 5x64-bit state, on five locals.
    ``~a & b`` stays within 64 bits because ``b`` does."""
    x0, x1, x2, x3, x4 = s
    for c in _ROUND_CONSTANTS[12 - rounds:]:
        # constant addition and substitution layer
        x2 ^= c
        x0 ^= x4
        x4 ^= x3
        x2 ^= x1
        t0, t1, t2, t3, t4 = ~x0 & x1, ~x1 & x2, ~x2 & x3, ~x3 & x4, ~x4 & x0
        x0 ^= t1
        x1 ^= t2
        x2 ^= t3
        x3 ^= t4
        x4 ^= t0
        x1 ^= x0
        x0 ^= x4
        x3 ^= x2
        x2 ^= _MASK64
        # linear diffusion layer: x ^= (x >>> a) ^ (x >>> b)
        x0 ^= ((x0 >> 19 | x0 << 45) ^ (x0 >> 28 | x0 << 36)) & _MASK64
        x1 ^= ((x1 >> 61 | x1 << 3) ^ (x1 >> 39 | x1 << 25)) & _MASK64
        x2 ^= ((x2 >> 1 | x2 << 63) ^ (x2 >> 6 | x2 << 58)) & _MASK64
        x3 ^= ((x3 >> 10 | x3 << 54) ^ (x3 >> 17 | x3 << 47)) & _MASK64
        x4 ^= ((x4 >> 7 | x4 << 57) ^ (x4 >> 41 | x4 << 23)) & _MASK64
    s[:] = x0, x1, x2, x3, x4


def _w(b: bytes) -> int:
    return int.from_bytes(b, "big")


def _b(x: int, n: int = 8) -> bytes:
    return x.to_bytes(n, "big")


class Ascon128Aead:
    """Ascon-128 (64-bit rate, 12 init/final rounds, 6 intermediate)."""

    name = "ascon128"
    nonce_len = 16

    def _init_state(self, key: bytes, nonce: bytes) -> tuple[list[int], int, int]:
        if len(key) != KEY_LEN or len(nonce) != self.nonce_len:
            raise ValueError(f"Ascon-128 takes a {KEY_LEN}-byte key and a "
                             f"{self.nonce_len}-byte nonce")
        k0, k1 = _w(key[:8]), _w(key[8:])
        s = [_ASCON128_IV, k0, k1, _w(nonce[:8]), _w(nonce[8:])]
        ascon_permutation(s, 12)
        s[3] ^= k0
        s[4] ^= k1
        return s, k0, k1

    def _absorb_ad(self, s: list[int], ad: bytes) -> None:
        if ad:
            padded = ad + b"\x80" + b"\x00" * (7 - len(ad) % 8)
            for i in range(0, len(padded), 8):
                s[0] ^= _w(padded[i : i + 8])
                ascon_permutation(s, 6)
        s[4] ^= 1  # domain separation

    def _finalize(self, s: list[int], k0: int, k1: int) -> bytes:
        s[1] ^= k0
        s[2] ^= k1
        ascon_permutation(s, 12)
        return _b(s[3] ^ k0) + _b(s[4] ^ k1)

    def seal(self, key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> tuple[bytes, bytes]:
        s, k0, k1 = self._init_state(key, nonce)
        self._absorb_ad(s, ad)

        last = len(plaintext) % 8
        padded = plaintext + b"\x80" + b"\x00" * (7 - last)
        ct = b""
        for i in range(0, len(padded) - 8, 8):
            s[0] ^= _w(padded[i : i + 8])
            ct += _b(s[0])
            ascon_permutation(s, 6)
        s[0] ^= _w(padded[-8:])
        ct += _b(s[0])[:last]

        return ct, self._finalize(s, k0, k1)

    def open(self, key: bytes, nonce: bytes, ciphertext: bytes, tag: bytes, ad: bytes) -> bytes:
        s, k0, k1 = self._init_state(key, nonce)
        self._absorb_ad(s, ad)

        last = len(ciphertext) % 8
        padded = ciphertext + b"\x00" * (8 - last)
        pt = b""
        for i in range(0, len(padded) - 8, 8):
            ci = _w(padded[i : i + 8])
            pt += _b(s[0] ^ ci)
            s[0] = ci
            ascon_permutation(s, 6)
        ci = _w(padded[-8:])
        pt += _b(s[0] ^ ci)[:last]
        mask = _MASK64 >> (last * 8)
        s[0] = ci ^ (s[0] & mask) ^ (0x80 << ((7 - last) * 8))

        if self._finalize(s, k0, k1) != tag:
            raise AeadAuthError("authentication tag mismatch")
        return pt


_BACKENDS = {cls.name: cls for cls in (AesGcmAead, Ascon128Aead)}


def get_aead(name: str):
    """Look up an AEAD backend by name (``aes-gcm`` or ``ascon128``)."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(f"unknown AEAD backend {name!r}") from None
