"""Line-granular authenticated memory encryption with replay counters.

Each 64-byte physical line is stored as (ciphertext, tag) plus a 58-bit
write counter held in a trusted store (standing in for the integrity tree;
the tree layout itself is out of scope).  Every write increments the
counter first and re-seals the line under the full 192-bit tweak
``counter || software-tweak``, so stale (ciphertext, tag) snapshots can
never verify again.  The nonce is derived as ``hash(line_index || counter)``
since the engine owns both values and never reuses a pair.

Destruction is a write under a reserved tweak that normal composition can
never produce (all three range bits set while the pte rsw field is 00 but
the sid is all-ones -- composition forces sid to 0 whenever rsw is 00).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .aead import TAG_LEN, AeadAuthError, get_aead
from .tweak import PRV_M, SID_MASK, SwTweak, voffset_bits

LINE_BYTES = 64
COUNTER_BITS = 58
COUNTER_LIMIT = 1 << COUNTER_BITS
LINE_LIMIT = 1 << 64  # the nonce encodes the line index in eight bytes


class AuthenticationError(Exception):
    """Decryption failed integrity verification for a line access."""

    def __init__(self, line_index: int, reason: str = "tag mismatch"):
        self.line_index = line_index
        super().__init__(f"line {line_index:#x}: {reason}")


class CounterOverflow(Exception):
    """A line counter would exceed its 58-bit range (decades of writes)."""


def destroy_tweak(va_bits: int = 48) -> SwTweak:
    """The reserved never-composable tweak used to invalidate lines."""
    return SwTweak(
        xrange=0b111,
        voffset=(1 << voffset_bits(va_bits)) - 1,
        prv=PRV_M,
        pte=0,
        sid=SID_MASK,
        va_bits=va_bits,
    )


@dataclass
class StoredLine:
    ciphertext: bytes
    tag: bytes


def full_tweak_bytes(counter: int, sw: SwTweak) -> bytes:
    """Serialize counter || software tweak, counter in the high bits."""
    width = sw.bit_width
    return (counter << width | sw.to_int()).to_bytes((COUNTER_BITS + width + 7) // 8, "big")


class Mee:
    """The memory encryption engine for one simulated machine."""

    def __init__(self, key: bytes, aead: str | object = "aes-gcm", va_bits: int = 48):
        if len(key) != 16:
            raise ValueError("engine key must be 128 bits")
        self.key = key
        self.aead = get_aead(aead) if isinstance(aead, str) else aead
        self.va_bits = va_bits
        self._lines: dict[int, StoredLine] = {}
        self._counters: dict[int, int] = {}
        self._destroy_sw = destroy_tweak(va_bits)

    @staticmethod
    def _check_line(line_index: int) -> None:
        if not 0 <= line_index < LINE_LIMIT:
            raise ValueError(f"no physical line {line_index}")

    def _nonce(self, line_index: int, counter: int) -> bytes:
        self._check_line(line_index)
        material = line_index.to_bytes(8, "little") + counter.to_bytes(8, "little")
        return hashlib.sha256(b"line-nonce" + material).digest()[: self.aead.nonce_len]

    def line_exists(self, line_index: int) -> bool:
        return line_index in self._lines

    def counter_of(self, line_index: int) -> int:
        return self._counters.get(line_index, 0)

    def write(self, line_index: int, plaintext: bytes, sw: SwTweak) -> None:
        if len(plaintext) != LINE_BYTES:
            raise ValueError("writes are whole 64-byte lines")
        counter = self._counters.get(line_index, 0) + 1
        if counter >= COUNTER_LIMIT:
            raise CounterOverflow(f"line {line_index:#x} counter exhausted")
        ct, tag = self.aead.seal(
            self.key, self._nonce(line_index, counter), plaintext, full_tweak_bytes(counter, sw)
        )
        self._counters[line_index] = counter
        self._lines[line_index] = StoredLine(ct, tag)

    def read(self, line_index: int, sw: SwTweak) -> bytes:
        stored = self._lines.get(line_index)
        if stored is None:
            raise AuthenticationError(line_index, "line never initialized")
        counter = self._counters.get(line_index, 0)
        try:
            return self.aead.open(
                self.key,
                self._nonce(line_index, counter),
                stored.ciphertext,
                stored.tag,
                full_tweak_bytes(counter, sw),
            )
        except AeadAuthError as exc:
            raise AuthenticationError(line_index) from exc

    def destroy(self, line_index: int) -> None:
        """Invalidate a line; any subsequent read fails until rewritten."""
        self.write(line_index, bytes(LINE_BYTES), self._destroy_sw)

    # --- raw physical access, the DRAM attack surface ---------------------

    def _stored(self, line_index: int) -> StoredLine:
        """The raw line; never-written DRAM holds zero ciphertext and a zero tag."""
        self._check_line(line_index)
        return self._lines.get(line_index) or StoredLine(bytes(LINE_BYTES), bytes(TAG_LEN))

    def snapshot_line(self, line_index: int) -> tuple[bytes, bytes]:
        stored = self._stored(line_index)
        return stored.ciphertext, stored.tag

    def restore_line(self, line_index: int, ciphertext: bytes, tag: bytes) -> None:
        self._lines[line_index] = StoredLine(ciphertext, tag)

    def flip_bit(self, line_index: int, bit: int, target: str = "ciphertext") -> None:
        if target not in ("ciphertext", "tag"):
            raise ValueError(f"flip target must be 'ciphertext' or 'tag', not {target!r}")
        stored = self._stored(line_index)
        blob = bytearray(getattr(stored, target))
        if not 0 <= bit < 8 * len(blob):
            raise ValueError(f"bit {bit} lies outside the {len(blob)}-byte {target}")
        blob[bit // 8] ^= 1 << (bit % 8)
        setattr(stored, target, bytes(blob))
        self._lines[line_index] = stored


__all__ = [
    "AuthenticationError",
    "CounterOverflow",
    "LINE_BYTES",
    "COUNTER_BITS",
    "Mee",
    "destroy_tweak",
    "full_tweak_bytes",
]
