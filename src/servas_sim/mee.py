"""Line-granular authenticated memory encryption with replay counters.

Each 64-byte physical line is stored as (ciphertext, tag) plus a 58-bit
write counter held in a trusted store (standing in for the integrity tree;
the tree layout itself is out of scope).  Every write increments the
counter first and re-seals the line under the full 192-bit tweak
``counter || software-tweak``, so stale (ciphertext, tag) snapshots can
never verify again.  The nonce is derived as ``hash(line_index || counter)``
since the engine owns both values and never reuses a pair.

The engine's entry points are :meth:`Mee.write` and :meth:`Mee.read`.
Each takes the first line, the software tweak and the lines of the page
to seal or open, the first line alone by default.  Line ``first_line + i``
is bound to the tweak plus ``i`` in its voffset field, which is how every
line of a page is bound.  The tweak width, associated-data length and
cipher are looked up once per call.

One line.  A call for one line, ``lines`` left at its default, is the
machine's access path, so it runs no Python function but its own: the
packed tweak is read as the tweak's ``value`` slot, and a write's loop
body looks up each line's own page, so a loop of one line has no per-page
setup.  A one-line read that its memo or its page's record serves (see
below) returns before the loop, with the memo test written out; every
other one-line read -- a never-written line, a detach, a real open, an
error -- goes through the loop.  Tests hold both spellings of a one-line
call, the default and ``[0]``, to the reference engine.

``seals`` and ``opens`` count the lines sealed and the lines verified (a
failed verification included), however and whenever the AEAD work was
done.

Never-written lines.  A line the engine never wrote and raw DRAM writes
never reached stands in for boot-time zeroed DRAM: a read returns 64 zero
bytes under any tweak, verifies nothing and so counts no open, and leaves
no memo below.  Once anything is put there -- an engine
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
* a :meth:`Mee.read` whose memo does not match opens the real bytes.

Every other use of a pending line (a read the memo below serves, a
store's :meth:`Mee.changed_lines`) only compares the memo's ciphertext and
tag with the stored ones, which are the same before the seal runs and
after.  So no verdict, error, stored byte or counter depends on when a
seal runs; only the number of AEAD calls does.

Verified-open memo.  Every write, and every successful open, records in
the line's entry the plaintext together with the exact ciphertext, tag and
associated data (counter || tweak) it was sealed or opened under.
:meth:`Mee.read` returns that plaintext, with no nonce hash and no
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

Page records.  ``Mee._pages`` is the engine's only line store: one
``_Page`` for each page that holds anything, with the page's 64 counters
and the own entries of the lines addressed alone.  Most lines are written
a page at a time -- image pages, monitor pages, swapped pages -- and most
of those are never addressed one line at a time afterwards.  So a
whole-page :meth:`Mee.write` builds no own entry: it stores the
page's record -- the packed tweak, the va bits and the 4,096-byte content
-- moves each of the 64 counters by one, with the overflow check, and
drops the page's own entries.  A line with no own entry on a recorded
page is exactly the pending entry the write would have built for it:
associated data (its counter || the record's tweak, stepped per line) and
plaintext, with no ciphertext or tag yet.  :meth:`Mee.destroy_page`
stores a record too, of zeros under the destroy tweak, which is not
stepped.

A line gets that pending entry as its own when something addresses it on
its own (``Mee._detach``):

* a write of the line that is not part of a call starting at the page's
  first line under the record's tweak (so every one-line
  :meth:`Mee.write` but that of line 0 under it);
* a read under another tweak, which fails on that line;
* :meth:`Mee.snapshot_line`, :meth:`Mee.restore_line` and so
  :meth:`Mee.flip_bit`.

The record keeps covering the page's other lines until the next
whole-page write.  What a record serves:

* a read of a line under the record's tweak for it gets the plaintext,
  counted as an open, as its line memo would match (``_Page.ad`` is that
  associated data); a read of the whole page gets the content as it is
  stored;
* a write call starting at the page's first line under the record's
  tweak writes its lines into the record in place (the monitor's store
  of its changed lines);
* :meth:`Mee.changed_lines` compares the record's plaintexts with the
  page to store, under the same rule as a read.

So a record changes no result, error, stored byte, counter, seal count or
open count: detaching every line of every record after each call, which
is the line-by-line representation, gives the same answers.  Only the
work and ``Mee.line_entries`` (the own entries built) depend on it.

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
_LINE_MASK = LINES_PER_PAGE - 1
_PAGE_RANGE = range(LINES_PER_PAGE)
# the two spellings of a page's 64 line indices in order that name the page
_WHOLE_PAGE = (_PAGE_RANGE, list(_PAGE_RANGE))
_STEP = 1 << VOFFSET_SHIFT  # one line's step of a packed tweak
_ZERO_LINE = bytes(LINE_BYTES)
_ZERO_PAGE = bytes(PAGE_BYTES)

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
    return (counter << width | sw.value).to_bytes((COUNTER_BITS + width + 7) // 8, "big")


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
    """The plaintext a line's own entry proves the line holds under
    associated data ``ad``, or None: the memo counts only while the stored
    ciphertext and tag are the ones it recorded and ``ad`` is the one it
    was sealed or opened under."""
    if len(entry) == 6 and entry[4] == ad and entry[2] == entry[0] and entry[3] == entry[1]:
        return entry[5]
    return None


def _check_line(line_index: int) -> None:
    if not 0 <= line_index < LINE_LIMIT:
        raise ValueError(f"no physical line {line_index}")


def _differing_lines(old: bytes, new: bytes) -> list[int]:
    """The indices of the 64-byte lines in which two 4,096-byte pages
    differ, found by halving: an unchanged page is one comparison."""
    if old == new:
        return []
    out, spans = [], [(0, PAGE_BYTES)]
    while spans:
        lo, hi = spans.pop()
        if hi - lo == LINE_BYTES:
            out.append(lo // LINE_BYTES)
            continue
        mid = (lo + hi) // 2
        if old[mid:hi] != new[mid:hi]:
            spans.append((mid, hi))
        if old[lo:mid] != new[lo:mid]:
            spans.append((lo, mid))
    return out


class _Page:
    """One page's entry in ``Mee._pages``, the engine's only line store.
    ``counters[j]`` is line ``j``'s counter (0 if the engine never wrote
    it) and ``lines[j]`` its own entry, if it has one.  While ``content``
    is not None the page was written whole: each line ``j`` without an own
    entry is the pending line sealed under ``sw + j * step`` with the
    ``j``-th 64 bytes of ``content`` as plaintext.  Once it is None, a line
    without an own entry was never written."""

    __slots__ = ("sw", "va_bits", "step", "content", "counters", "lines")

    def __init__(self, sw: int | None = None, va_bits: int = 0, step: int = 0,
                 content: bytes | None = None, counters: list[int] | None = None):
        self.sw, self.va_bits, self.step, self.content = sw, va_bits, step, content
        self.counters = counters or [0] * LINES_PER_PAGE
        # line index in the page -> [ciphertext, tag, memo ciphertext, memo
        # tag, memo ad, plaintext]: the DRAM bytes, then the memo of the
        # line's last write or successful open, its associated data a
        # marked integer (see _ad_shape).  A write stores the line pending,
        # with None for all four byte fields until _materialize seals it.
        # A line the engine never wrote but raw DRAM writes reached holds
        # just [ciphertext, tag].
        self.lines: dict[int, list] = {}

    def ad(self, j: int) -> int:
        """The associated data the record seals line ``j`` under, marked
        (see ``_ad_shape``): its counter and the record's tweak, stepped."""
        width, marker = _ad_shape(self.va_bits)
        return marker | self.counters[j] << width | self.sw + j * self.step

    def serves(self, sw_int: int, va_bits: int) -> bool:
        """Whether a call starting at the page's first line under ``sw_int``
        is one under the page's record tweak, stepped per line."""
        return self.sw == sw_int and self.va_bits == va_bits and self.step == _STEP


class Mee:
    """The memory encryption engine for one simulated machine."""

    def __init__(self, key: bytes, aead: str | object = "aes-gcm", va_bits: int = 48):
        if len(key) != 16:
            raise ValueError("engine key must be 128 bits")
        self.key = key
        self.aead = get_aead(aead) if isinstance(aead, str) else aead
        self.va_bits = va_bits
        # page-aligned first line -> the page's counters, own line entries
        # and record (see "Page records" in the module docstring)
        self._pages: dict[int, _Page] = {}
        self._destroy_sw = destroy_tweak(va_bits)
        self.seals = 0
        self.opens = 0
        self.line_entries = 0  # own line entries built

    def _nonce(self, line: int, counter: int) -> bytes:
        nonce = _NONCE_HASH.copy()
        nonce.update((counter << 64 | line).to_bytes(16, "little"))  # line || counter
        return nonce.digest()[:self.aead.nonce_len]

    def _materialize(self, line: int, entry: list, counter: int) -> None:
        """If the line is pending, seal it: compute the (ciphertext, tag)
        its :meth:`write` deferred and store it as both the DRAM bytes and
        the memo's.  ``counter``, the line's current one, is the sealing
        counter, since only :meth:`write` moves it and it stores a new
        entry."""
        if entry[0] is None:
            ciphertext, tag = self.aead.seal(self.key, self._nonce(line, counter), entry[5],
                                             _ad_bytes(entry[4]))
            entry[:4] = ciphertext, tag, ciphertext, tag

    def _detach(self, page: _Page, j: int) -> list:
        """Give line ``j``, which the page's record covers, its own pending
        entry, the one :meth:`write` would have built."""
        entry = page.lines[j] = [None, None, None, None, page.ad(j),
                                 page.content[j * LINE_BYTES:(j + 1) * LINE_BYTES]]
        self.line_entries += 1
        return entry

    def _whole_record(self, first_line: int, sw_int: int, va_bits: int) -> _Page | None:
        """The page starting at ``first_line`` if its record covers every
        line under this tweak, else None."""
        page = self._pages.get(first_line)
        if page is not None and not page.lines and page.serves(sw_int, va_bits):
            return page
        return None

    def _entry(self, line: int) -> list | None:
        """The line's own entry, detached from its record if need be; None
        for a line with neither."""
        page = self._pages.get(line & _PAGE_MASK)
        j = line & _LINE_MASK
        entry = page and page.lines.get(j)
        if entry is None and page is not None and page.content is not None:
            entry = self._detach(page, j)
        return entry

    def _store_page(self, first_line: int, sw_int: int, va_bits: int, step: int,
                    content: bytes) -> bool:
        """Write the page as one record, dropping its own line entries;
        False, with nothing changed, if a counter would overflow."""
        page = self._pages.get(first_line)
        counters = [c + 1 for c in page.counters] if page else [1] * LINES_PER_PAGE
        if max(counters) >= COUNTER_LIMIT:
            return False
        self._pages[first_line] = _Page(sw_int, va_bits, step, content, counters)
        self.seals += LINES_PER_PAGE
        return True

    def counter_of(self, line_index: int) -> int:
        page = self._pages.get(line_index & _PAGE_MASK)
        return page.counters[line_index & _LINE_MASK] if page else 0

    def written_lines(self) -> dict[int, int]:
        """Every line that holds something, in ascending order, with its
        counter: lines with their own entry (one only raw DRAM writes
        reached has counter 0) and lines a record covers."""
        return {first + j: page.counters[j] for first, page in sorted(self._pages.items())
                for j in (_PAGE_RANGE if page.content is not None else sorted(page.lines))}

    def write(self, first_line: int, content: bytes, sw: SwTweak, lines=(0,)) -> None:
        """Seal line ``first_line + i`` for each ``i`` in ``lines``: its
        plaintext is the ``i``-th 64-byte line of ``content`` and its tweak
        ``sw`` with ``i`` added to the voffset field.  The caller guarantees
        the stepped voffset stays in range.  Each line is stored pending,
        its AEAD seal left to the first observer of its raw bytes, and a
        whole page as one record (see the module docstring).  ``content``
        that is not whole 64-byte lines is refused before any line moves;
        otherwise lines are written in order, and a failing check stops the
        call at that line.  Every line runs the same body, which looks up
        its own page, so a one-line write has no per-page setup."""
        if len(content) % LINE_BYTES:
            raise ValueError("writes are whole 64-byte lines")
        sw_int, va_bits = sw.value, sw.va_bits
        if (len(lines) == LINES_PER_PAGE and lines in _WHOLE_PAGE
                and not first_line & _LINE_MASK and 0 <= first_line < LINE_LIMIT
                and len(content) >= PAGE_BYTES
                and self._store_page(first_line, sw_int, va_bits, _STEP,
                                     bytes(content[:PAGE_BYTES]))):
            return
        width, marker = _ad_shape(va_bits)
        pages = self._pages
        for i in lines:
            line = first_line + i
            j = line & _LINE_MASK
            page = pages.get(line - j)
            plaintext = content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
            if page is None:
                _check_line(line)
            if len(plaintext) != LINE_BYTES:
                raise ValueError("writes are whole 64-byte lines")
            if page is None:
                page = pages[line - j] = _Page()
            counter = page.counters[j] + 1
            if counter >= COUNTER_LIMIT:
                raise CounterOverflow(f"line {line:#x} counter exhausted")
            page.counters[j] = counter
            self.seals += 1
            # i == j exactly when the call starts at this page's first line
            if (i == j and page.sw == sw_int and page.va_bits == va_bits
                    and page.step == _STEP and j not in page.lines):  # a line the record covers
                old = page.content
                page.content = b"".join((old[:j * LINE_BYTES], plaintext,
                                         old[(j + 1) * LINE_BYTES:]))
                continue
            page.lines[j] = [None, None, None, None,
                             marker | counter << width | sw_int + (i << VOFFSET_SHIFT), plaintext]
            self.line_entries += 1

    def read(self, first_line: int, sw: SwTweak, lines=(0,)) -> bytes:
        """Open line ``first_line + i`` for each ``i`` in ``lines`` under the
        tweak :meth:`write` steps the same way; returns the plaintexts
        joined; a never-written line reads as zeros.  The first line that
        fails verification raises :class:`AuthenticationError` naming it.  A
        line whose memo matches, or that its record serves, is read with no
        AEAD call, and a whole page its record serves, none of its lines
        detached, is returned as stored (see the module docstring).

        A one-line read its memo or record serves returns before the page
        loop, with the memo test written out; every other line, and every
        error, goes through the loop."""
        sw_int, va_bits = sw.value, sw.va_bits
        width, marker = _ad_shape(va_bits)
        if lines == (0,):
            j = first_line & _LINE_MASK
            page = self._pages.get(first_line - j)
            if page is not None:
                entry = page.lines.get(j)
                if entry is None:  # the record's tweak, if any, is the read's
                    if page.sw == sw_int - j * page.step and page.va_bits == va_bits:
                        self.opens += 1
                        return page.content[j * LINE_BYTES:(j + 1) * LINE_BYTES]
                elif (len(entry) == 6 and entry[4] == marker | page.counters[j] << width | sw_int
                      and entry[2] == entry[0] and entry[3] == entry[1]):
                    self.opens += 1
                    return entry[5]
        elif len(lines) == LINES_PER_PAGE and lines in _WHOLE_PAGE:
            page = self._whole_record(first_line, sw_int, va_bits)
            if page is not None:
                self.opens += LINES_PER_PAGE
                return page.content
        open_, key, pages = self.aead.open, self.key, self._pages
        out = []
        for i in lines:
            line = first_line + i
            j = line & _LINE_MASK
            page = pages.get(line - j)
            entry = page and page.lines.get(j)
            if entry is None and (page is None or page.content is None):  # never written
                _check_line(line)  # a line on no page may be no line at all
                out.append(_ZERO_LINE)
                continue
            counter = page.counters[j]
            ad = marker | counter << width | sw_int + (i << VOFFSET_SHIFT)
            self.opens += 1
            if entry is None:
                if page.ad(j) == ad:  # the line memo the record stands for matches
                    out.append(page.content[j * LINE_BYTES:(j + 1) * LINE_BYTES])
                    continue
                entry = self._detach(page, j)  # and fail on it below
            plaintext = _memo(entry, ad)
            if plaintext is None:
                self._materialize(line, entry, counter)
                ciphertext, tag = entry[0], entry[1]
                try:
                    plaintext = open_(key, self._nonce(line, counter), ciphertext, tag,
                                      _ad_bytes(ad))
                except AeadAuthError as exc:
                    raise AuthenticationError(line) from exc
                entry[2:] = ciphertext, tag, ad, plaintext
            out.append(plaintext)
        return b"".join(out)

    def changed_lines(self, first_line: int, content: bytes, sw: SwTweak) -> list[int]:
        """The indices ``i`` of the 64-byte lines of ``content`` that a
        :meth:`write` of it under ``sw`` would actually change: every line
        ``first_line + i`` whose memo, or record, does not prove that it
        already holds the ``i``-th line of ``content`` under the tweak
        :meth:`write` steps and its current counter.  A never-written,
        tampered, destroyed or foreign-bound line is always listed."""
        sw_int, va_bits = sw.value, sw.va_bits
        n = len(content) // LINE_BYTES
        if n == LINES_PER_PAGE:
            page = self._whole_record(first_line, sw_int, va_bits)
            if page is not None:
                return _differing_lines(page.content, content[:PAGE_BYTES])
        width, marker = _ad_shape(va_bits)
        pages = self._pages
        changed = []
        for i in range(n):
            line = first_line + i
            j = line & _LINE_MASK
            page = pages.get(line - j)
            held = None
            if page is not None:
                ad = marker | page.counters[j] << width | sw_int + (i << VOFFSET_SHIFT)
                entry = page.lines.get(j)
                if entry is not None:
                    held = _memo(entry, ad)
                elif page.content is not None and page.ad(j) == ad:
                    held = page.content[j * LINE_BYTES:(j + 1) * LINE_BYTES]
            if held != content[i * LINE_BYTES:(i + 1) * LINE_BYTES]:
                changed.append(i)
        return changed

    def destroy(self, line_index: int) -> None:
        """Invalidate a line; any subsequent read fails until rewritten."""
        self.write(line_index, _ZERO_LINE, self._destroy_sw)

    def destroy_page(self, first_line: int) -> None:
        """Invalidate the 64 lines of the page starting at ``first_line``,
        as :meth:`destroy` of each would, as one record."""
        _check_line(first_line)
        if first_line & _LINE_MASK:
            raise ValueError(f"line {first_line:#x} does not start a page")
        sw = self._destroy_sw
        if not self._store_page(first_line, sw.value, sw.va_bits, 0, _ZERO_PAGE):
            for i in _PAGE_RANGE:  # a counter overflows: stop at that line
                self.destroy(first_line + i)

    # --- raw physical access, the DRAM attack surface ---------------------

    def snapshot_line(self, line_index: int) -> tuple[bytes, bytes]:
        """The raw (ciphertext, tag); never-written DRAM holds zero
        ciphertext and a zero tag."""
        _check_line(line_index)
        entry = self._entry(line_index)
        if entry is None:
            return bytes(LINE_BYTES), bytes(TAG_LEN)
        self._materialize(line_index, entry, self.counter_of(line_index))
        return entry[0], entry[1]

    def restore_line(self, line_index: int, ciphertext: bytes, tag: bytes) -> None:
        """Overwrite the line's raw (ciphertext, tag).  Its memo, if any,
        is left to the read's comparison: it matches again only if these
        are the bytes it recorded."""
        _check_line(line_index)
        entry = self._entry(line_index)
        if entry is None:
            page = self._pages.setdefault(line_index & _PAGE_MASK, _Page())
            entry = page.lines[line_index & _LINE_MASK] = [ciphertext, tag]
            self.line_entries += 1
        self._materialize(line_index, entry, self.counter_of(line_index))
        entry[0], entry[1] = ciphertext, tag

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
