import hashlib
import sys

import pytest
from hypothesis import HealthCheck, settings

from servas_sim import scenarios
from servas_sim.aead import AeadAuthError, get_aead
from servas_sim.image import ImagePageType, build_image
from servas_sim.machine import Machine, PAGE_BYTES
from servas_sim.mee import AuthenticationError, CounterOverflow, destroy_tweak
from servas_sim.monitor import SecurityMonitor
from servas_sim.tweak import VOFFSET_SHIFT, sw_tweak_bits

settings.register_profile(
    "sim", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("sim")

CODE_FILL = bytes.fromhex("1300000093080000")
A_BASE = 0x4000_0000


def std_image(n_data: int = 1, fill: bytes = CODE_FILL):
    pages = [(0, "rx", ImagePageType.SHENCLAVE, fill * (PAGE_BYTES // len(fill)))]
    for j in range(n_data):
        pages.append((1 + j, "rw", ImagePageType.REGULAR, b""))
    return build_image(pages, entry_offset=0)


def spawn_enclave(machine, sm, image=None, base=A_BASE, ppn_start=0x100,
                  stack_pages=1, meta_ppn=0x200, thread_ppn=0x201, space="host",
                  ppn_overrides=None):
    """:func:`servas_sim.scenarios.spawn_enclave` with the standard world's
    defaults; ``machine`` is the one ``sm`` runs on."""
    assert sm.machine is machine
    return scenarios.spawn_enclave(sm, image or std_image(), space, base, ppn_start,
                                   stack_pages, meta_ppn, thread_ppn, ppn_overrides)


def python_frames(fn, *args, **kwargs) -> list[str]:
    """The names of the Python functions ``fn(*args, **kwargs)`` runs, in
    call order, ``fn`` first."""
    frames = []
    sys.setprofile(lambda frame, event, arg: event == "call" and frames.append(
        frame.f_code.co_name))
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return frames


@pytest.fixture
def machine():
    return Machine(seed=7)


@pytest.fixture
def sm(machine):
    return SecurityMonitor(machine)


@pytest.fixture
def enclave(machine, sm):
    """(machine, sm, handle) with a standard 2-page enclave loaded."""
    handle = spawn_enclave(machine, sm)
    return machine, sm, handle


class ReferenceMee:
    """The memory encryption engine's contract and nothing more, to hold
    :class:`servas_sim.mee.Mee` to: every write seals at once, every read of
    a written line opens the stored bytes for real, and the whole state is
    a dict from line to (ciphertext, tag, counter).  It keeps no memo, no
    pending line and no page record, and builds nonce and associated data
    from first principles: ``sha256("line-nonce" || line || counter)`` and
    ``counter || tweak``, the counter in the high bits."""

    def __init__(self, key: bytes, aead: str = "aes-gcm", va_bits: int = 48):
        self.key, self.aead, self.va_bits = key, get_aead(aead), va_bits
        self.lines: dict[int, tuple[bytes, bytes, int]] = {}
        self.seals = self.opens = 0

    @staticmethod
    def _check(line: int) -> None:
        if not 0 <= line < 1 << 64:
            raise ValueError(f"no physical line {line}")

    def _nonce(self, line: int, counter: int) -> bytes:
        material = line.to_bytes(8, "little") + counter.to_bytes(8, "little")
        return hashlib.sha256(b"line-nonce" + material).digest()[:self.aead.nonce_len]

    @staticmethod
    def _ad(counter: int, sw_int: int, va_bits: int) -> bytes:
        width = sw_tweak_bits(va_bits)
        return (counter << width | sw_int).to_bytes((58 + width + 7) // 8, "big")

    def _open(self, line: int, sw_int: int, va_bits: int) -> bytes:
        ct, tag, counter = self.lines[line]
        return self.aead.open(self.key, self._nonce(line, counter), ct, tag,
                              self._ad(counter, sw_int, va_bits))

    def counter_of(self, line: int) -> int:
        return self.lines[line][2] if line in self.lines else 0

    def written_lines(self) -> dict[int, int]:
        return {line: self.lines[line][2] for line in sorted(self.lines)}

    def write(self, first_line, content, sw, lines=(0,)) -> None:
        if len(content) % 64:
            raise ValueError("writes are whole 64-byte lines")
        for i in lines:
            line = first_line + i
            self._check(line)
            plaintext = content[i * 64:(i + 1) * 64]
            if len(plaintext) != 64:
                raise ValueError("writes are whole 64-byte lines")
            counter = self.counter_of(line) + 1
            if counter >= 1 << 58:
                raise CounterOverflow(f"line {line:#x} counter exhausted")
            ad = self._ad(counter, sw.to_int() + (i << VOFFSET_SHIFT), sw.va_bits)
            self.lines[line] = (*self.aead.seal(self.key, self._nonce(line, counter),
                                                plaintext, ad), counter)
            self.seals += 1

    def read(self, first_line, sw, lines=(0,)) -> bytes:
        out = []
        for i in lines:
            line = first_line + i
            self._check(line)
            if line not in self.lines:
                out.append(bytes(64))
                continue
            self.opens += 1
            try:
                out.append(self._open(line, sw.to_int() + (i << VOFFSET_SHIFT), sw.va_bits))
            except AeadAuthError as exc:
                raise AuthenticationError(line) from exc
        return b"".join(out)

    def changed_lines(self, first_line, content, sw) -> list[int]:
        """The lines whose real open under the current counter fails or
        gives other bytes than ``content``'s; a query, so no open counts."""
        changed = []
        for i in range(len(content) // 64):
            line = first_line + i
            try:
                held = self._open(line, sw.to_int() + (i << VOFFSET_SHIFT), sw.va_bits)
            except (KeyError, AeadAuthError):
                held = None
            if held != content[i * 64:(i + 1) * 64]:
                changed.append(i)
        return changed

    def destroy(self, line) -> None:
        self.write(line, bytes(64), destroy_tweak(self.va_bits))

    def destroy_page(self, first_line) -> None:
        self._check(first_line)
        if first_line % 64:
            raise ValueError(f"line {first_line:#x} does not start a page")
        for i in range(64):
            self.destroy(first_line + i)

    def snapshot_line(self, line) -> tuple[bytes, bytes]:
        self._check(line)
        ct, tag, _ = self.lines.get(line, (bytes(64), bytes(16), 0))
        return ct, tag

    def restore_line(self, line, ciphertext, tag) -> None:
        self._check(line)
        self.lines[line] = (ciphertext, tag, self.counter_of(line))

    def flip_bit(self, line, bit, target="ciphertext") -> None:
        if target not in ("ciphertext", "tag"):
            raise ValueError(f"flip target must be 'ciphertext' or 'tag', not {target!r}")
        ct, tag = self.snapshot_line(line)
        blob = bytearray(tag if target == "tag" else ct)
        if not 0 <= bit < 8 * len(blob):
            raise ValueError(f"bit {bit} lies outside the {len(blob)}-byte {target}")
        blob[bit // 8] ^= 1 << (bit % 8)
        self.restore_line(line, *((ct, bytes(blob)) if target == "tag" else (bytes(blob), tag)))
