"""Line-granular authenticated memory encryption with replay counters.

Each 64-byte physical line is stored as (ciphertext, tag) plus a 58-bit
write counter held in a trusted store (standing in for the integrity tree;
the tree layout itself is out of scope).  Every write increments the
counter first and re-seals the line under the full 192-bit tweak
``counter || software-tweak``, so stale (ciphertext, tag) snapshots can
never verify again.  The nonce is derived as ``hash(line_index || counter)``
since the engine owns both values and never reuses a pair.

The engine's entry points are :meth:`Mee.write_lines` and
:meth:`Mee.read_lines`: they seal or open any set of lines of one page in
one call, line ``first_line + i`` under the packed software tweak plus
``i`` in its voffset field, which is how every line of a page is bound.
The tweak width, associated-data length and cipher are looked up once per
call.  :meth:`Mee.write` and :meth:`Mee.read` are the one-line case.
``seals`` and ``opens`` count the lines sealed and the lines verified (a
failed verification included), however and whenever the AEAD work was
done.

Never-written lines.  A line the engine never wrote and raw DRAM writes
never reached stands in for boot-time zeroed DRAM: a read returns 64 zero
bytes under any tweak, verifies nothing and so counts no open, and leaves
no memo of either kind below.  Once anything is put there -- an engine
write, :meth:`Mee.restore_line`, :meth:`Mee.flip_bit` -- the line is
written and verifies as any other.

Seal on observation.  A write moves the line's counter and stores the line
*pending*: its plaintext and associated data (counter || tweak), with no
ciphertext or tag yet.  A line's (ciphertext, tag) is a pure function of
key, line, counter, plaintext and associated data, and the nonce
``hash(line || counter)`` is one of the counter the associated data
carries, so the AEAD seal can run at any time before something looks at
the bytes, under the line's current counter: only a write moves it, and a
write replaces the pending entry.  ``Mee._materialize`` runs that seal at
exactly the points that observe raw DRAM:

* :meth:`Mee.snapshot_line`, and so :meth:`Mee.flip_bit`, returns the
  bytes;
* :meth:`Mee.restore_line` runs it before it overwrites them, so the memo
  below records the line's own bytes and vouches for them again if they
  are put back;
* a :meth:`Mee.read_lines` whose memo does not match opens the real bytes.

Every other use of a pending line (a read the memo below serves, a
store's :meth:`Mee.changed_lines`) only compares the memo's ciphertext and
tag with the stored ones, which are the same before the seal runs and
after.  So no verdict, error, stored byte or counter depends on when a
seal runs; only the number of AEAD calls does.

Verified-open memo.  Every write, and every successful open, records in
the line's entry the plaintext together with the exact ciphertext, tag and
associated data (counter || tweak) it was sealed or opened under.
:meth:`Mee.read_lines` returns that plaintext, with no nonce hash and no
AEAD call, only when all three are identical to the line's current
ciphertext and tag and to the associated data of this read (the current
counter and the requested tweak).  AEAD open is a deterministic function
of key, nonce, ciphertext, tag and associated data, and the nonce is a
function of the line and the counter the associated data carries, so the
memo returns exactly what the open would: a flipped bit, a restored stale
snapshot, a foreign tweak or a destroyed line falls through to the real
open and raises the same :class:`AuthenticationError` on the same line.
Raw DRAM writes (:meth:`Mee.restore_line`, :meth:`Mee.flip_bit`) replace
only the stored ciphertext and tag and record no memo; a memo the line
already has matches only while the stored bytes are the ones it recorded.
The same test answers a store's question, :meth:`Mee.changed_lines`: a
line whose memo matches under the current counter and holds the bytes
about to be written needs no new seal, and every other line does.  This
is simulator bookkeeping with no knob: the memory encryption it stands
for still seals every line it writes and verifies every line it reads.
A line memo's associated data is kept as an integer with a marker bit
just above its serialized length (see ``_ad_shape``), so comparing two of
them is comparing the bytes, length included; the bytes themselves are
built only when the AEAD runs, in ``_materialize`` and a real open.

Verified-page memo.  The monitor reads, and re-stores, the same 64-line
pages on every call, and nothing touches them in between.  ``Mee._pages``
maps a page's first line to (packed tweak, va bits, the page's 64
plaintexts) and holds only while every line of the page has a matching
line memo under that tweak, stepped per line, and its current counter,
with those plaintexts.  It is recorded or updated at these points:

* a whole-page :meth:`Mee.read_lines` that succeeds, line by line, records
  the plaintexts it returns;
* a whole-page :meth:`Mee.write_lines` records the page it wrote;
* a :meth:`Mee.write_lines` of some lines of a recorded page under the
  recorded tweak (the monitor's store of the lines it changed) updates
  those lines in place.

Any other write into the page drops it: one under another tweak, or not
starting at the page's first line (so every one-line write to lines 1 to
63, and :meth:`Mee.destroy`), and one starting in another page whose
lines run into it.  :meth:`Mee.restore_line` drops it too, and so does
:meth:`Mee.flip_bit` through it.  A write drops the page before its first
line moves and records it again only once the call completed, so a call
that fails part way leaves none.  While it holds, the 64 line memos it
stands for match, so a whole-page read under the recorded tweak returns
exactly the plaintexts 64 line checks would (and counts 64 opens), and
:meth:`Mee.changed_lines` is a comparison of those plaintexts with the
page to store.  A page holding a never-written line is never recorded:
that line has no line memo, so :meth:`Mee.changed_lines` must keep
listing it.  The line memos stay the only source of truth: dropping the
page memo at any point changes no result, only the work.

Destruction is a write under a reserved tweak that normal composition can
never produce (all three range bits set while the pte rsw field is 00 but
the sid is all-ones -- composition forces sid to 0 whenever rsw is 00).
"""

from __future__ import annotations

import functools
import hashlib

from .aead import TAG_LEN, AeadAuthError, get_aead
from .tweak import PRV_M, SID_MASK, VOFFSET_SHIFT, SwTweak, sw_tweak_bits, voffset_bits

LINE_BYTES = 64
COUNTER_BITS = 58
COUNTER_LIMIT = 1 << COUNTER_BITS
LINE_LIMIT = 1 << 64  # the nonce encodes the line index in eight bytes
PAGE_BYTES = 4096
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
_PAGE_MASK = ~(LINES_PER_PAGE - 1)
_PAGE_RANGE = range(LINES_PER_PAGE)
_PAGE_LIST = list(_PAGE_RANGE)
_ZERO_LINE = bytes(LINE_BYTES)

# The nonce hash with its domain prefix absorbed; copied once per line.
_NONCE_HASH = hashlib.sha256(b"line-nonce")


class AuthenticationError(Exception):
    """Decryption failed integrity verification for a line access."""

    def __init__(self, line_index: int):
        self.line_index = line_index
        super().__init__(f"line {line_index:#x}: tag mismatch")


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


def full_tweak_bytes(counter: int, sw: SwTweak) -> bytes:
    """Serialize counter || software tweak, counter in the high bits: the
    associated data a line is sealed under."""
    width = sw.bit_width
    return (counter << width | sw.to_int()).to_bytes((COUNTER_BITS + width + 7) // 8, "big")


@functools.cache
def _ad_shape(va_bits: int) -> tuple[int, int]:
    """(tweak width, length marker) of the associated data for ``va_bits``.
    A line's associated data is kept as the integer ``marker | counter <<
    width | tweak``: the marker is the bit just above the serialized
    length, so two such integers are equal exactly when the serialized
    bytes are equal, length included."""
    width = sw_tweak_bits(va_bits)
    return width, 1 << 8 * ((COUNTER_BITS + width + 7) // 8)


def _ad_bytes(ad: int) -> bytes:
    """The serialized associated data of a marked ``ad``: the marker's byte
    is the leading one, dropped."""
    return ad.to_bytes((ad.bit_length() + 7) // 8, "big")[1:]


def _memo(entry: list, ad: int) -> bytes | None:
    """The plaintext a line's ``_lines`` entry proves the line holds under
    associated data ``ad``, or None: the memo counts only while the stored
    ciphertext and tag are the ones it recorded and ``ad`` is the one it
    was sealed or opened under."""
    if len(entry) == 6 and entry[4] == ad and entry[2] == entry[0] and entry[3] == entry[1]:
        return entry[5]
    return None


def _check_line(line_index: int) -> None:
    if not 0 <= line_index < LINE_LIMIT:
        raise ValueError(f"no physical line {line_index}")


def _whole_page(lines) -> bool:
    """Whether ``lines`` lists a page's 64 line indices in order."""
    return len(lines) == LINES_PER_PAGE and (lines == _PAGE_RANGE or lines == _PAGE_LIST)


class Mee:
    """The memory encryption engine for one simulated machine."""

    def __init__(self, key: bytes, aead: str | object = "aes-gcm", va_bits: int = 48):
        if len(key) != 16:
            raise ValueError("engine key must be 128 bits")
        self.key = key
        self.aead = get_aead(aead) if isinstance(aead, str) else aead
        self.va_bits = va_bits
        # line -> [ciphertext, tag, memo ciphertext, memo tag, memo ad,
        # plaintext]: the DRAM bytes, then the memo of the line's last
        # write or successful open, its associated data a marked integer
        # (see _ad_shape).  A write stores the line pending, with None for
        # all four byte fields until _materialize seals it.  A line the
        # engine never wrote but raw DRAM writes reached holds just
        # [ciphertext, tag].
        self._lines: dict[int, list] = {}
        self._counters: dict[int, int] = {}
        # page-aligned first line -> (packed tweak, va_bits, the page's 64
        # plaintexts): the verified-page memo, derived from the line memos
        # above (see the module docstring)
        self._pages: dict[int, tuple[int, int, list[bytes]]] = {}
        self._destroy_sw = destroy_tweak(va_bits)
        self.seals = 0
        self.opens = 0

    def _nonce(self, line: int, counter: int) -> bytes:
        nonce = _NONCE_HASH.copy()
        nonce.update((counter << 64 | line).to_bytes(16, "little"))  # line || counter
        return nonce.digest()[:self.aead.nonce_len]

    def _materialize(self, line: int, entry: list) -> None:
        """If the line is pending, seal it: compute the (ciphertext, tag)
        its :meth:`write_lines` deferred and store it as both the DRAM
        bytes and the memo's.  The line's current counter is the sealing
        counter, since only :meth:`write_lines` moves it and it stores a
        new entry."""
        if entry[0] is None:
            ciphertext, tag = self.aead.seal(self.key, self._nonce(line, self._counters[line]),
                                             entry[5], _ad_bytes(entry[4]))
            entry[:4] = ciphertext, tag, ciphertext, tag

    def _page_memo(self, first_line: int, sw_int: int, va_bits: int) -> list[bytes] | None:
        """The verified-page memo's plaintexts of the page starting at
        ``first_line`` if it holds them under this tweak, else None."""
        memo = self._pages.get(first_line)
        if memo is not None and memo[0] == sw_int and memo[1] == va_bits:
            return memo[2]
        return None

    def counter_of(self, line_index: int) -> int:
        return self._counters.get(line_index, 0)

    def write_lines(self, first_line: int, sw_int: int, va_bits: int, content: bytes,
                    lines) -> None:
        """Seal line ``first_line + i`` for each ``i`` in ``lines``: its
        plaintext is the ``i``-th 64-byte line of ``content`` and its tweak
        the packed ``sw_int`` with ``i`` added to the voffset field.  The
        caller guarantees the stepped voffset stays in range.  Each line is
        stored pending, its AEAD seal left to the first observer of its raw
        bytes (see the module docstring).  Lines are written in order; a
        failing check stops the call at that line."""
        width, marker = _ad_shape(va_bits)
        counters, stored, pages = self._counters, self._lines, self._pages
        page = first_line & _PAGE_MASK
        memo = pages.pop(page, None)
        plaintexts = (memo[2] if memo is not None and first_line == page
                      and memo[0] == sw_int and memo[1] == va_bits else None)
        end = page + LINES_PER_PAGE if 0 <= page < LINE_LIMIT else page
        for i in lines:
            line = first_line + i
            if not page <= line < end:  # another page, or no line at all
                _check_line(line)
                pages.pop(line & _PAGE_MASK, None)
                plaintexts = None
            plaintext = content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
            if len(plaintext) != LINE_BYTES:
                raise ValueError("writes are whole 64-byte lines")
            counter = counters.get(line, 0) + 1
            if counter >= COUNTER_LIMIT:
                raise CounterOverflow(f"line {line:#x} counter exhausted")
            stored[line] = [None, None, None, None,
                            marker | counter << width | sw_int + (i << VOFFSET_SHIFT), plaintext]
            counters[line] = counter
            if plaintexts is not None:
                plaintexts[i] = plaintext
            self.seals += 1
        if plaintexts is not None:
            pages[page] = (sw_int, va_bits, plaintexts)
        elif first_line == page and _whole_page(lines):
            pages[page] = (sw_int, va_bits, [stored[line][5] for line in range(page, end)])

    def read_lines(self, first_line: int, sw_int: int, va_bits: int, lines) -> list[bytes]:
        """Open line ``first_line + i`` for each ``i`` in ``lines`` under the
        tweak :meth:`write_lines` steps the same way; returns the plaintexts
        in order; a never-written line reads as zeros.  The first line that
        fails verification raises :class:`AuthenticationError` naming it.  A
        whole page the verified-page memo holds, and a line whose memo
        matches, are served from the memo (see the module docstring)."""
        whole = first_line & _PAGE_MASK == first_line and _whole_page(lines)
        if whole:
            plaintexts = self._page_memo(first_line, sw_int, va_bits)
            if plaintexts is not None:
                self.opens += LINES_PER_PAGE
                return list(plaintexts)
        width, marker = _ad_shape(va_bits)
        open_, key = self.aead.open, self.key
        counters, stored = self._counters, self._lines
        out = []
        for i in lines:
            line = first_line + i
            _check_line(line)
            entry = stored.get(line)
            if entry is None:
                out.append(_ZERO_LINE)
                whole = False
                continue
            counter = counters.get(line, 0)
            ad = marker | counter << width | sw_int + (i << VOFFSET_SHIFT)
            self.opens += 1
            plaintext = _memo(entry, ad)
            if plaintext is None:
                self._materialize(line, entry)
                ciphertext, tag = entry[0], entry[1]
                try:
                    plaintext = open_(key, self._nonce(line, counter), ciphertext, tag,
                                      _ad_bytes(ad))
                except AeadAuthError as exc:
                    raise AuthenticationError(line) from exc
                entry[2:] = ciphertext, tag, ad, plaintext
            out.append(plaintext)
        if whole:
            self._pages[first_line] = (sw_int, va_bits, list(out))
        return out

    def changed_lines(self, first_line: int, sw_int: int, va_bits: int,
                      content: bytes) -> list[int]:
        """The indices ``i`` of the 64-byte lines of ``content`` that a
        :meth:`write_lines` of it, under the same tweak, would actually
        change: every line ``first_line + i`` whose memo does not prove that
        it already holds the ``i``-th line of ``content`` under the tweak
        :meth:`write_lines` steps and its current counter.  A never-written,
        tampered, destroyed or foreign-bound line is always listed."""
        n = len(content) // LINE_BYTES
        plaintexts = self._page_memo(first_line, sw_int, va_bits)
        if plaintexts is not None and n <= LINES_PER_PAGE:
            return [i for i in range(n)
                    if plaintexts[i] != content[i * LINE_BYTES:(i + 1) * LINE_BYTES]]
        width, marker = _ad_shape(va_bits)
        counters, stored = self._counters, self._lines
        changed = []
        for i in range(n):
            line = first_line + i
            ad = marker | counters.get(line, 0) << width | sw_int + (i << VOFFSET_SHIFT)
            if _memo(stored.get(line, []), ad) != content[i * LINE_BYTES:(i + 1) * LINE_BYTES]:
                changed.append(i)
        return changed

    def write(self, line_index: int, plaintext: bytes, sw: SwTweak) -> None:
        if len(plaintext) != LINE_BYTES:
            raise ValueError("writes are whole 64-byte lines")
        self.write_lines(line_index, sw.to_int(), sw.va_bits, plaintext, (0,))

    def read(self, line_index: int, sw: SwTweak) -> bytes:
        return self.read_lines(line_index, sw.to_int(), sw.va_bits, (0,))[0]

    def destroy(self, line_index: int) -> None:
        """Invalidate a line; any subsequent read fails until rewritten."""
        self.write(line_index, bytes(LINE_BYTES), self._destroy_sw)

    # --- raw physical access, the DRAM attack surface ---------------------

    def snapshot_line(self, line_index: int) -> tuple[bytes, bytes]:
        """The raw (ciphertext, tag); never-written DRAM holds zero
        ciphertext and a zero tag."""
        _check_line(line_index)
        entry = self._lines.get(line_index) or (bytes(LINE_BYTES), bytes(TAG_LEN))
        self._materialize(line_index, entry)
        return entry[0], entry[1]

    def restore_line(self, line_index: int, ciphertext: bytes, tag: bytes) -> None:
        """Overwrite the line's raw (ciphertext, tag).  Its memo, if any,
        is left to the read's comparison: it matches again only if these
        are the bytes it recorded.  Its page's verified-page memo is
        dropped."""
        _check_line(line_index)
        entry = self._lines.setdefault(line_index, [ciphertext, tag])
        self._materialize(line_index, entry)
        entry[0], entry[1] = ciphertext, tag
        self._pages.pop(line_index & _PAGE_MASK, None)

    def flip_bit(self, line_index: int, bit: int, target: str = "ciphertext") -> None:
        if target not in ("ciphertext", "tag"):
            raise ValueError(f"flip target must be 'ciphertext' or 'tag', not {target!r}")
        ct, tag = self.snapshot_line(line_index)
        blob = bytearray(tag if target == "tag" else ct)
        if not 0 <= bit < 8 * len(blob):
            raise ValueError(f"bit {bit} lies outside the {len(blob)}-byte {target}")
        blob[bit // 8] ^= 1 << (bit % 8)
        if target == "tag":
            self.restore_line(line_index, ct, bytes(blob))
        else:
            self.restore_line(line_index, bytes(blob), tag)


__all__ = [
    "AuthenticationError",
    "CounterOverflow",
    "LINE_BYTES",
    "COUNTER_BITS",
    "Mee",
    "destroy_tweak",
    "full_tweak_bytes",
]
