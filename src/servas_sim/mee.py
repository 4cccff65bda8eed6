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
call.  :meth:`Mee.write` and :meth:`Mee.read` are the one-line case, and
:meth:`Mee.read_page` returns a read's lines joined.  ``seals`` and ``opens`` count the lines sealed and the lines verified (a
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

Page records.  Most lines are written a page at a time -- image pages,
monitor pages, swapped pages -- and most of those are never addressed
one line at a time afterwards.  So a whole-page :meth:`Mee.write_lines`
stores one record in ``Mee._pages`` and builds no per-line entry: the
packed tweak, the va bits, the page's 4,096-byte content and its 64
counters, each moved by one with the overflow check.  A record line is
exactly the pending entry the write would have built for it: associated
data (its counter || the record's tweak, stepped per line) and plaintext,
with no ciphertext or tag yet.  :meth:`Mee.destroy_page` stores a record
too, of zeros under the destroy tweak, which is not stepped.

A line leaves its record, and gets that pending entry in ``Mee._lines``,
when something addresses it on its own (``Mee._detach``):

* a write of the line that is not part of a call starting at the page's
  first line under the record's tweak (so every one-line
  :meth:`Mee.write` but that of line 0 under it);
* a read under another tweak, which fails on that line;
* :meth:`Mee.snapshot_line`, :meth:`Mee.restore_line` and so
  :meth:`Mee.flip_bit`.

The record keeps covering the rest of the page, and a later whole-page
write takes the page's detached lines back.  What a record serves:

* a read of a line under the record's tweak for it gets the plaintext,
  counted as an open, as its line memo would match;
  :meth:`Mee.read_page` returns the whole content as it is stored;
* a write call starting at the page's first line under the record's
  tweak writes its lines into the record in place (the monitor's store
  of its changed lines);
* :meth:`Mee.changed_lines` compares the record's plaintexts with the
  page to store, under the same rule as a read;
* :meth:`Mee.counter_of` and :meth:`Mee.written_lines` read its
  counters.

So a record changes no result, error, stored byte, counter, seal count or
open count: detaching every line of every record after each call, which
is the line-by-line representation, gives the same answers.  Only the
work and ``Mee.line_entries`` (the per-line entries built) depend on it.

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
_ALL_LINES = (1 << LINES_PER_PAGE) - 1
_PAGE_RANGE = range(LINES_PER_PAGE)
_PAGE_LIST = list(_PAGE_RANGE)
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


class _Record:
    """One page's entry in ``Mee._pages``: a record of the page written
    whole, line ``j`` under ``sw + j * step`` with counter ``counters[j]``
    and the ``j``-th 64 bytes of ``content`` as plaintext, except the lines
    set in ``loose``, which have their own ``Mee._lines`` entry.  A page
    none of whose lines a record covers has ``content`` None; its entry
    only tracks ``loose``, so a whole-page write finds the lines it takes
    back without a scan."""

    __slots__ = ("sw", "va_bits", "step", "content", "counters", "loose")

    def __init__(self, sw: int | None = None, va_bits: int = 0, step: int = 0,
                 content: bytes | None = None, counters: list[int] | None = None):
        self.sw, self.va_bits, self.step = sw, va_bits, step
        self.content, self.counters, self.loose = content, counters, 0

    def leave(self, j: int) -> None:
        """Line ``j`` now has its own entry; once no line is left, the
        record's content and counters are dropped."""
        self.loose |= 1 << j
        if self.loose == _ALL_LINES:
            self.sw = self.content = self.counters = None

    def serves(self, sw_int: int, va_bits: int) -> bool:
        """Whether a call starting at the page's first line under ``sw_int``
        is one under the record's tweak, stepped per line."""
        return self.sw == sw_int and self.va_bits == va_bits and self.step == _STEP


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
        # [ciphertext, tag].  Lines a page record covers have no entry
        # here and no counter below: they live in _pages.
        self._lines: dict[int, list] = {}
        self._counters: dict[int, int] = {}  # the counter of each line in _lines
        # page-aligned first line -> the page's record (see "Page records"
        # in the module docstring)
        self._pages: dict[int, _Record] = {}
        self._destroy_sw = destroy_tweak(va_bits)
        self.seals = 0
        self.opens = 0
        self.line_entries = 0  # per-line entries built, in _lines

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

    def _covering(self, line: int) -> _Record | None:
        """The record that covers ``line``, or None."""
        record = self._pages.get(line & _PAGE_MASK)
        if (record is not None and record.content is not None
                and not record.loose >> (line & _LINE_MASK) & 1):
            return record
        return None

    def _detach(self, line: int, record: _Record) -> list:
        """Move ``line`` out of the record covering it into its own
        pending entry, the one :meth:`write_lines` would have built."""
        j = line & _LINE_MASK
        counter = record.counters[j]
        width, marker = _ad_shape(record.va_bits)
        entry = self._lines[line] = [
            None, None, None, None, marker | counter << width | record.sw + j * record.step,
            record.content[j * LINE_BYTES:(j + 1) * LINE_BYTES]]
        self._counters[line] = counter
        record.leave(j)
        self.line_entries += 1
        return entry

    def _whole_record(self, first_line: int, sw_int: int, va_bits: int) -> _Record | None:
        """The record of the page starting at ``first_line`` if it covers
        every line under this tweak, else None."""
        record = self._pages.get(first_line)
        if record is not None and not record.loose and record.serves(sw_int, va_bits):
            return record
        return None

    def _entry(self, line: int) -> list | None:
        """The line's own entry, detached from its record if need be; None
        for a never-written line."""
        entry = self._lines.get(line)
        if entry is None:
            record = self._covering(line)
            if record is not None:
                entry = self._detach(line, record)
        return entry

    def _store_page(self, page: int, sw_int: int, va_bits: int, step: int,
                    content: bytes) -> bool:
        """Write the page as one record, taking back its detached lines;
        False, with nothing changed, if a counter would overflow."""
        record = self._pages.get(page)
        if record is None or record.content is None:
            counters = [1] * LINES_PER_PAGE
        else:
            counters = [c + 1 for c in record.counters]
        if record is not None:
            loose, mask = [], record.loose
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask ^= 1 << j
                counters[j] = self._counters[page + j] + 1
                loose.append(page + j)
            if max(counters) >= COUNTER_LIMIT:
                return False
            for line in loose:
                del self._lines[line], self._counters[line]
        self._pages[page] = _Record(sw_int, va_bits, step, content, counters)
        self.seals += LINES_PER_PAGE
        return True

    def counter_of(self, line_index: int) -> int:
        record = self._covering(line_index)
        if record is not None:
            return record.counters[line_index & _LINE_MASK]
        return self._counters.get(line_index, 0)

    def written_lines(self) -> dict[int, int]:
        """Every line that holds something, in ascending order, with its
        counter: lines with their own entry (one only raw DRAM writes
        reached has counter 0) and lines a record covers."""
        out = {line: self._counters.get(line, 0) for line in self._lines}
        for page, record in self._pages.items():
            if record.content is not None:
                for j in _PAGE_RANGE:
                    if not record.loose >> j & 1:
                        out[page + j] = record.counters[j]
        return dict(sorted(out.items()))

    def write_lines(self, first_line: int, sw_int: int, va_bits: int, content: bytes,
                    lines) -> None:
        """Seal line ``first_line + i`` for each ``i`` in ``lines``: its
        plaintext is the ``i``-th 64-byte line of ``content`` and its tweak
        the packed ``sw_int`` with ``i`` added to the voffset field.  The
        caller guarantees the stepped voffset stays in range.  Each line is
        stored pending, its AEAD seal left to the first observer of its raw
        bytes, and a whole page as one record (see the module docstring).
        Lines are written in order; a failing check stops the call at that
        line."""
        page = first_line & _PAGE_MASK
        if (first_line == page and 0 <= page < LINE_LIMIT and _whole_page(lines)
                and len(content) >= PAGE_BYTES
                and self._store_page(page, sw_int, va_bits, _STEP, bytes(content[:PAGE_BYTES]))):
            return
        width, marker = _ad_shape(va_bits)
        counters, stored, pages = self._counters, self._lines, self._pages
        record = pages.get(page)
        in_place = first_line == page and record is not None and record.serves(sw_int, va_bits)
        end = page + LINES_PER_PAGE if 0 <= page < LINE_LIMIT else page
        for i in lines:
            line = first_line + i
            if not page <= line < end:  # another page, or no line at all
                _check_line(line)
                page = line & _PAGE_MASK
                end = page + LINES_PER_PAGE
                record = pages.get(page)
                in_place = False
            plaintext = content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
            if len(plaintext) != LINE_BYTES:
                raise ValueError("writes are whole 64-byte lines")
            counter = counters.get(line)
            fresh = counter is None  # the line has no entry of its own yet
            if fresh:
                j = line - page
                covered = (record is not None and record.content is not None
                           and not record.loose >> j & 1)
                counter = record.counters[j] if covered else 0
            counter += 1
            if counter >= COUNTER_LIMIT:
                raise CounterOverflow(f"line {line:#x} counter exhausted")
            if fresh:
                if covered and in_place:
                    record.counters[j] = counter
                    old = record.content
                    record.content = b"".join((old[:j * LINE_BYTES], plaintext,
                                               old[(j + 1) * LINE_BYTES:]))
                    self.seals += 1
                    continue
                record = record or pages.setdefault(page, _Record())
                record.leave(j)  # the line has its own entry from now on
            stored[line] = [None, None, None, None,
                            marker | counter << width | sw_int + (i << VOFFSET_SHIFT), plaintext]
            counters[line] = counter
            self.line_entries += 1
            self.seals += 1

    def read_lines(self, first_line: int, sw_int: int, va_bits: int, lines) -> list[bytes]:
        """Open line ``first_line + i`` for each ``i`` in ``lines`` under the
        tweak :meth:`write_lines` steps the same way; returns the plaintexts
        in order; a never-written line reads as zeros.  The first line that
        fails verification raises :class:`AuthenticationError` naming it.  A
        line whose memo matches, or that its record serves, is read with no
        AEAD call (see the module docstring)."""
        width, marker = _ad_shape(va_bits)
        open_, key = self.aead.open, self.key
        counters, stored, pages = self._counters, self._lines, self._pages
        out = []
        for i in lines:
            line = first_line + i
            _check_line(line)
            entry = stored.get(line)
            if entry is None:
                j = line & _LINE_MASK
                record = pages.get(line - j)
                if record is None or record.content is None or record.loose >> j & 1:
                    out.append(_ZERO_LINE)  # no record covers it: never written
                    continue
                # the record's tweak for the line is the one asked for, so
                # the line memo it stands for matches: serve the plaintext
                if (record.va_bits == va_bits
                        and record.sw + j * record.step == sw_int + (i << VOFFSET_SHIFT)):
                    self.opens += 1
                    out.append(record.content[j * LINE_BYTES:(j + 1) * LINE_BYTES])
                    continue
                entry = self._detach(line, record)  # and fail on it below
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
        return out

    def read_page(self, first_line: int, sw_int: int, va_bits: int,
                  lines=_PAGE_RANGE) -> bytes:
        """:meth:`read_lines` joined.  A whole page its record serves, none
        of its lines detached, is returned as stored."""
        record = self._whole_record(first_line, sw_int, va_bits)
        if record is not None and _whole_page(lines):
            self.opens += LINES_PER_PAGE
            return record.content
        return b"".join(self.read_lines(first_line, sw_int, va_bits, lines))

    def changed_lines(self, first_line: int, sw_int: int, va_bits: int,
                      content: bytes) -> list[int]:
        """The indices ``i`` of the 64-byte lines of ``content`` that a
        :meth:`write_lines` of it, under the same tweak, would actually
        change: every line ``first_line + i`` whose memo does not prove that
        it already holds the ``i``-th line of ``content`` under the tweak
        :meth:`write_lines` steps and its current counter.  A never-written,
        tampered, destroyed or foreign-bound line is always listed."""
        n = len(content) // LINE_BYTES
        record = self._whole_record(first_line, sw_int, va_bits)
        if record is not None and n == LINES_PER_PAGE:
            return _differing_lines(record.content, content[:PAGE_BYTES])
        width, marker = _ad_shape(va_bits)
        counters, stored = self._counters, self._lines
        changed = []
        for i in range(n):
            line = first_line + i
            want = content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
            entry = stored.get(line)
            if entry is None:
                record = self._covering(line)
                j = line & _LINE_MASK
                if (record is None or record.va_bits != va_bits  # as in read_lines
                        or record.sw + j * record.step != sw_int + (i << VOFFSET_SHIFT)
                        or record.content[j * LINE_BYTES:(j + 1) * LINE_BYTES] != want):
                    changed.append(i)
                continue
            ad = marker | counters.get(line, 0) << width | sw_int + (i << VOFFSET_SHIFT)
            if _memo(entry, ad) != want:
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
        self.write(line_index, _ZERO_LINE, self._destroy_sw)

    def destroy_page(self, first_line: int) -> None:
        """Invalidate the 64 lines of the page starting at ``first_line``,
        as :meth:`destroy` of each would, as one record."""
        _check_line(first_line)
        if first_line & _LINE_MASK:
            raise ValueError(f"line {first_line:#x} does not start a page")
        sw = self._destroy_sw
        if not self._store_page(first_line, sw.to_int(), sw.va_bits, 0, _ZERO_PAGE):
            for i in _PAGE_RANGE:  # a counter overflows: stop at that line
                self.destroy(first_line + i)

    # --- raw physical access, the DRAM attack surface ---------------------

    def snapshot_line(self, line_index: int) -> tuple[bytes, bytes]:
        """The raw (ciphertext, tag); never-written DRAM holds zero
        ciphertext and a zero tag."""
        _check_line(line_index)
        entry = self._entry(line_index) or (bytes(LINE_BYTES), bytes(TAG_LEN))
        self._materialize(line_index, entry)
        return entry[0], entry[1]

    def restore_line(self, line_index: int, ciphertext: bytes, tag: bytes) -> None:
        """Overwrite the line's raw (ciphertext, tag).  Its memo, if any,
        is left to the read's comparison: it matches again only if these
        are the bytes it recorded."""
        _check_line(line_index)
        entry = self._entry(line_index)
        if entry is None:
            entry = self._lines[line_index] = [ciphertext, tag]
            self._counters.setdefault(line_index, 0)
            self._pages.setdefault(line_index & _PAGE_MASK, _Record()).leave(
                line_index & _LINE_MASK)
            self.line_entries += 1
        self._materialize(line_index, entry)
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
