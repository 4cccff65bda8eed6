"""The simulated machine: physical line memory, page tables, CSRs, traps.

One machine is one logical hart.  Enclaves and hosts are not executed as
instructions; callers drive the machine through :meth:`Machine.access`,
page-table edits and CSR writes, which is enough to exercise every
isolation property end to end.

Access pipeline: page-table walk -> permission check -> tweak composition
-> page-type classification -> optional tweak-tagged cache -> encryption
engine.  M-mode accesses are untranslated (virtual address == physical
address, no PTE).

The front end -- walk, composition and classification -- depends only on
the page tables, the CSRs and the (space, line, privilege) of the access,
so :meth:`Machine.access` memoizes its result per line: the PTE (which is
immutable), the line's physical address, the composed tweak and the page
type.  An entry also holds its permission verdict: the access kinds the
PTE's r/w/x bits permit (an entry is made only once the U-bit check passed
for its privilege, which is part of its key; every kind for an M-mode
access).  So a hit checks the kind against the verdict, with no call; a
refused kind runs the permission check, which raises the fault a miss
raises.  The memo holds for the page tables and the nine CSR values it was
composed under.  A page-table edit (:meth:`Machine.map_page`,
:meth:`Machine.unmap_page`) clears it.  A CSR write (:meth:`Machine.write_csrs`,
the CSR file's only writer, or :meth:`Machine.write_csr` for one) only
marks the values for a check: the next access compares them with the
recorded ones and clears the memo if any differs.  So a monitor round trip
that ends where it began -- ``eexit`` then ``eenter``, an interrupt and its
resume, a swap cycle -- keeps the memo, although ``eexit`` zeroes the
enclave range and sids on the way; a check at each write would clear it
at those intermediate states.  Only an access whose classification
succeeded is stored, so the memo can change no verdict, trap, ciphertext,
cache hit or RNG draw.  It is simulator bookkeeping, not a modelled TLB:
there is no shootdown gap for software to observe.

The tweak is one packed integer from composition on: the CSR file keeps
the sid registers in the mapping composition reads (updated when a sid
CSR is written, not per access), composition writes the fields straight
into the integer, classification looks its (xrange, prv, pte) bits up in
a table filled on first use, the cache compares the integer and the
engine serializes it.

:meth:`Machine.pinned_page` classifies a monitor page once and makes the
page one engine call: :meth:`Mee.write` or :meth:`Mee.read` steps the
voffset field of the tweak per line, and an AUTH trap names the first line
that failed, with its address and stepped tweak.  A read through the cache
goes line by line, in line order, because cache fills draw the machine RNG
for replacement and their order must not move: each line is the cache's
read under the packed tweak stepped as an integer, its fill the engine's
read of that one line, so no tweak object is built but for an AUTH trap.

A read takes its bytes of the line: from the plain store under bypass,
else from the cache's read, whose fill is the engine's one-line read, or
with the cache off from the engine's read; a failed verification is the
AUTH trap.  A write goes through the one line routine,
``Machine._line_access``, a read-modify-write: it reads the old line as a
read does, merges its bytes into that line and stores the result, to the
plain store or to the engine and then the cache.  So the existing line
must verify under the access tweak before the merged line is re-sealed (a
never-written line reads as zeros; the engine's module docstring states
the rule).  The one exception is a write through
:meth:`Machine.pinned_page`, the monitor's page I/O under a tweak it pins
itself, which skips verification -- that is how the security monitor
initializes pages regardless of their previous binding.

A user access is the hot path, and each of its frames does modelled
work: with the cache on, a hit read runs :meth:`Machine.access` and the
cache's read, which matches the tag with one lookup; a miss read adds the
engine's one-line read and the install of the fill.  A hit write runs the
access, ``_line_access``, the cache's read, the engine's one-line write
and the cache's update, in place under a matching tag.  The tweak's packed
``value`` is read as a slot, with no call.

The cache is write-through, and the machine keeps it coherent: every path
that changes a line below it -- a pinned page write,
:meth:`Machine.destroy_page`, the physical attacker's restore and bit flip
-- drops the line's cached copy (``Machine._uncache``), so no other layer
touches the cache.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import NoReturn

from .mee import LINE_BYTES, LINE_LIMIT, LINES_PER_PAGE, PAGE_BYTES, AuthenticationError, Mee
from .tweak import (
    PRV_M,
    PRV_S,
    PRV_U,
    VOFFSET_SHIFT,
    XR_M,
    XR_S,
    XR_U,
    InvalidCombination,
    PageType,
    RangeReg,
    SwTweak,
    classify_tweak,
    compose_sw_tweak,
    pack_pte_bits,
    voffset_bits,
)

PPN_LIMIT = LINE_LIMIT // LINES_PER_PAGE  # the pages whose lines the engine addresses

_PRV_RANK = {PRV_U: 0, PRV_S: 1, PRV_M: 2}


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    FETCH = "fetch"


# module globals: an enum attribute load costs several times as much
_READ, _WRITE = AccessKind.READ, AccessKind.WRITE
_ANY_KIND = tuple(AccessKind)  # an M-mode access is untranslated: nothing refuses it
_ZERO_LINE = bytes(LINE_BYTES)  # a line the plain store never held
_UNPROTECTED = PageType.UNPROTECTED


class Trap(Exception):
    """Base of every fault the access pipeline can raise."""

    kind = "TRAP"

    def __init__(self, va: int | None = None, prv: int | None = None, detail: str = ""):
        self.va = va
        self.prv = prv
        self.detail = detail
        super().__init__(f"{self.kind} va={va:#x} prv={prv} {detail}" if va is not None else f"{self.kind} {detail}")


class PageFault(Trap):
    kind = "PAGE_FAULT"


class PrivilegeTrap(Trap):
    kind = "PRIVILEGE"


class InvalidCombinationTrap(Trap):
    kind = "INVALID_COMBINATION"


class AuthenticationException(Trap):
    """Raised whenever line decryption fails; routed to the monitor handler."""

    kind = "AUTH"

    def __init__(self, va, prv, sw: SwTweak, line_index: int, disposition=None):
        self.sw = sw
        self.line_index = line_index
        self.disposition = disposition
        super().__init__(va, prv, f"line={line_index:#x}")


@dataclass(frozen=True, slots=True)
class Pte:
    """One leaf mapping.  Immutable, so the access memo can hold it: a page
    table edit installs a new one."""

    ppn: int
    r: bool = False
    w: bool = False
    x: bool = False
    u: bool = False
    g: bool = False
    rsw: int = 0
    bits: int = field(init=False, repr=False, compare=False)  # the packed tweak field

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits",
                           pack_pte_bits(self.r, self.w, self.x, self.u, self.g, self.rsw))


def perms_from_str(perms: str) -> dict[str, bool]:
    """``"rwxug"`` subset string to PTE flag dict."""
    bad = set(perms) - set("rwxug")
    if bad:
        raise ValueError(f"unknown permission letters {bad}")
    return {flag: flag in perms for flag in "rwxug"}


@dataclass
class CsrFile:
    mrange: RangeReg = field(default_factory=RangeReg)
    srange: RangeReg = field(default_factory=RangeReg)
    urange: RangeReg = field(default_factory=RangeReg)
    msid0: int = 0
    msid1: int = 0
    ssid0: int = 0
    ssid1: int = 0
    usid0: int = 0
    usid1: int = 0
    # (sid0, sid1) keyed by each range's xrange bit, as composition takes
    # them; kept current by :meth:`write`, so no access has to build it
    sid_regs: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._map_sids()

    def write(self, values: dict) -> None:
        for name, value in values.items():
            setattr(self, name, value)
        self._map_sids()

    def _map_sids(self) -> None:
        self.sid_regs = {
            XR_M: (self.msid0, self.msid1),
            XR_S: (self.ssid0, self.ssid1),
            XR_U: (self.usid0, self.usid1),
        }


_CSR_LEVEL = {
    "mrange": PRV_M, "msid0": PRV_M, "msid1": PRV_M,
    "srange": PRV_S, "ssid0": PRV_S, "ssid1": PRV_S,
    "urange": PRV_U, "usid0": PRV_U, "usid1": PRV_U,
}

N_REGS = 32
_REG_MASK = (1 << 64) - 1


def _reg_index(idx: int) -> int:
    if not 0 <= idx < N_REGS:
        raise ValueError(f"register index {idx} outside 0..{N_REGS - 1}")
    return idx


def _csr_gate(prv: int, name: str) -> None:
    """The name and privilege checks of a CSR read or write."""
    level = _CSR_LEVEL.get(name)
    if level is None:
        raise ValueError(f"unknown CSR {name!r}")
    if _PRV_RANK[prv] < _PRV_RANK[level]:
        raise PrivilegeTrap(None, prv, f"CSR {name} requires privilege >= {level:#b}")


def _check_pte(pte: Pte, va: int, prv: int, kind: AccessKind) -> None:
    """The permission and U-bit checks of a translated access."""
    if not (pte.r if kind is _READ else pte.w if kind is _WRITE else pte.x):
        raise PageFault(va, prv, f"{kind.value} permission missing")
    if prv == PRV_U and not pte.u:
        raise PageFault(va, prv, "user access to a supervisor page")


class Machine:
    """A single simulated hart plus its physical memory and engine."""

    def __init__(self, seed: int = 0, va_bits: int = 48, aead: str = "aes-gcm",
                 cache_cfg=None):
        self.va_bits = va_bits
        self._va_limit = 1 << va_bits
        # str seeding is stable across processes (unlike tuple/hash seeding)
        self.rng = random.Random(f"servas-machine-{seed}")
        self.mee_key = self.rng.randbytes(16)
        self.cpu_key = hmac.new(self.mee_key, b"cpu-key", hashlib.sha256).digest()[:16]
        self.mee = Mee(self.mee_key, aead=aead, va_bits=va_bits)
        self.csr = CsrFile()
        self.spaces: dict[str, dict[int, Pte]] = {}
        self.regs = [0] * N_REGS
        self.pc = 0
        self.prv = PRV_S
        self.bypass = False
        self.plain_lines: dict[int, bytes] = {}
        self.sm_auth_handler = None  # set by the security monitor
        self.active_enclave = None
        # (space, line va, prv) -> (permitted kinds, line index, tweak, page
        # type, pte), valid for the CSR values in _memo_csrs; a CSR write sets
        # _csrs_written so the next access checks them (see the module
        # docstring)
        self._memo: dict[tuple[str, int, int],
                         tuple[tuple[AccessKind, ...], int, SwTweak, PageType, Pte | None]] = {}
        self._memo_csrs: tuple | None = None
        self._csrs_written = False
        self.cache = None
        if cache_cfg is not None:
            from .cache import TweakTaggedCache

            self.cache = TweakTaggedCache(cache_cfg, self.rng)

    # --- registers ---------------------------------------------------------

    def set_reg(self, idx: int, value: int) -> None:
        self.regs[_reg_index(idx)] = value & _REG_MASK

    def get_reg(self, idx: int) -> int:
        return self.regs[_reg_index(idx)]

    # --- page tables (the untrusted OS surface) ----------------------------

    def map_page(self, caller_prv: int, space: str, va: int, ppn: int,
                 perms: str = "rw", rsw: int = 0) -> None:
        """Install a mapping.  Deliberately unvalidated beyond privilege and
        the shape of its arguments (a non-negative, page-aligned va, a
        non-negative ppn below ``PPN_LIMIT``, a 2-bit rsw): the OS is the
        attacker and may alias or remap anything."""
        if caller_prv not in (PRV_S, PRV_M):
            raise PrivilegeTrap(va, caller_prv, "page tables are managed at S-mode or above")
        if va < 0 or ppn < 0:
            raise ValueError("mappings take a non-negative va and ppn")
        if ppn >= PPN_LIMIT:
            raise ValueError(f"no physical page {ppn:#x}: its lines lie beyond the engine's range")
        if va % PAGE_BYTES:
            raise ValueError("mappings are page aligned")
        if not 0 <= rsw < 4:
            raise ValueError("rsw is a 2-bit field")
        flags = perms_from_str(perms)
        self.spaces.setdefault(space, {})[va // PAGE_BYTES] = Pte(ppn=ppn, rsw=rsw, **flags)
        self._memo.clear()

    def unmap_page(self, caller_prv: int, space: str, va: int) -> None:
        if caller_prv not in (PRV_S, PRV_M):
            raise PrivilegeTrap(va, caller_prv, "page tables are managed at S-mode or above")
        self.spaces.get(space, {}).pop(va // PAGE_BYTES, None)
        self._memo.clear()

    def walk(self, space: str, va: int) -> Pte | None:
        return self.spaces.get(space, {}).get(va // PAGE_BYTES)

    # --- CSRs ---------------------------------------------------------------

    def write_csr(self, prv: int, name: str, value) -> None:
        self.write_csrs(prv, {name: value})

    def write_csrs(self, prv: int, values: dict) -> None:
        """Write CSRs as one bank, name to value: every name and value is
        checked before the first is written, so a refused one writes none.
        :meth:`SecurityMonitor._switch` writes its six this way."""
        checked = {}
        for name, value in values.items():
            _csr_gate(prv, name)
            if name.endswith("range"):
                if isinstance(value, (tuple, list)):
                    if len(value) != 3:
                        raise ValueError(f"CSR {name} takes (base, size, enabled), got {value!r}")
                    value = RangeReg(*value)
                if not isinstance(value, RangeReg):
                    raise ValueError(f"CSR {name} takes a range, got {value!r}")
                value.validate(self.va_bits)
            elif not isinstance(value, int) or not 0 <= value < (1 << 64):
                raise ValueError(f"sid registers are 64-bit integers, got {value!r}")
            checked[name] = value
        self.csr.write(checked)
        self._csrs_written = True

    def read_csr(self, prv: int, name: str):
        if name == "cpu_key":
            if prv != PRV_M:
                raise PrivilegeTrap(None, prv, "the CPU key is never readable below M-mode")
            return self.cpu_key
        _csr_gate(prv, name)
        return getattr(self.csr, name)

    def set_bypass(self, prv: int, enabled: bool) -> None:
        """Toggle the encryption bypass for unprotected-classified accesses.
        The functional cache is flushed first so no tagged state leaks
        across the mode change."""
        if prv != PRV_M:
            raise PrivilegeTrap(None, prv, "bypass control is M-mode only")
        if self.cache is not None:
            self.cache.invalidate_all()
        self.bypass = enabled

    # --- the access pipeline -----------------------------------------------

    def compose_for_access(self, va: int, prv: int, pte_bits: int) -> SwTweak:
        csr = self.csr
        return compose_sw_tweak(va & ~(LINE_BYTES - 1), prv, pte_bits, csr.mrange,
                                csr.srange, csr.urange, csr.sid_regs, self.va_bits)

    def access(self, space: str, va: int, kind: AccessKind, prv: int,
               data: bytes | None = None, size: int = 1) -> bytes:
        """Perform one byte-granular access within a single 64-byte line.

        Returns the bytes read (or written back) or raises exactly one trap:
        PageFault, AuthenticationException or InvalidCombinationTrap.
        """
        if kind is _WRITE:
            if not data:
                raise ValueError("WRITE needs data")
            size = len(data)
        elif size < 1:
            raise ValueError(f"{kind.value} size must be at least 1, got {size}")
        offset = va % LINE_BYTES
        if offset + size > LINE_BYTES:
            raise ValueError("access crosses a line boundary")
        if not 0 <= va < self._va_limit:
            raise PageFault(va, prv, "virtual address outside the address width")

        if self._csrs_written:
            self._check_memo_csrs()
        key = (space, va - offset, prv)
        entry = self._memo.get(key)
        if entry is None:
            if prv == PRV_M:
                kinds, pte, line_pa, pte_bits = _ANY_KIND, None, va - offset, 0
            else:
                pte = self.walk(space, va)
                if pte is None:
                    raise PageFault(va, prv, "unmapped")
                _check_pte(pte, va, prv, kind)
                # the verdict: the U-bit check passed at this privilege, so
                # the kinds the r/w/x bits permit
                kinds = tuple(compress(_ANY_KIND, (pte.r, pte.w, pte.x)))
                line_pa = pte.ppn * PAGE_BYTES + (va - offset) % PAGE_BYTES
                pte_bits = pte.bits
            sw = self.compose_for_access(va, prv, pte_bits)
            entry = self._memo[key] = (kinds, line_pa // LINE_BYTES, sw,
                                       self._classify(va, prv, sw), pte)
        kinds, line, sw, ptype, pte = entry
        if kind not in kinds:
            _check_pte(pte, va, prv, kind)  # raises the fault a memo miss raises
        if kind is _WRITE:
            return self._line_access(va, prv, line, offset, sw, ptype, data)
        if self.bypass and ptype is _UNPROTECTED:
            return self.plain_lines.get(line, _ZERO_LINE)[offset:offset + size]
        try:
            if self.cache is not None:
                old = self.cache.read(line, sw.value, self.mee.read, line, sw)
            else:
                old = self.mee.read(line, sw)
        except AuthenticationError as exc:
            self._auth_trap(va, prv, sw, exc)
        return old[offset:offset + size]

    def _check_memo_csrs(self) -> None:
        """Clear the access memo if the CSRs no longer hold the values it
        was composed under."""
        values = tuple(getattr(self.csr, name) for name in _CSR_LEVEL)
        if values != self._memo_csrs:
            self._memo.clear()
            self._memo_csrs = values
        self._csrs_written = False

    def pinned_page(self, ppn: int, sw: SwTweak, kind: AccessKind = AccessKind.READ,
                    content: bytes | None = None, lines=range(LINES_PER_PAGE)) -> bytes | None:
        """M-mode access to whole lines of physical page ``ppn`` under a
        software tweak the caller pins: line ``i`` under ``sw`` with its
        voffset advanced by ``i``, the binding the monitor gives every line
        of a page.  A tweak whose last line would step past the voffset
        field is refused.  No page table and no CSR is consulted, and there
        is no privilege check, as only M-mode code can reach it.  The lines
        share xrange, prv and pte, so the page is classified once.

        A write seals the given ``lines`` of the page's ``content`` without
        verifying their previous content, which is how the monitor
        initializes a page whatever its previous binding, and returns None;
        a read verifies as any access does and returns those lines joined.
        This is the security monitor's page I/O.

        A protected page is one engine call: a write drops its lines from
        the cache and seals them with :meth:`Mee.write`, a read with the
        cache off opens them with :meth:`Mee.read`.  A read through the
        cache is the cache's read of each line in line order, under the
        packed tweak stepped per line, since cache fills draw the machine
        RNG for replacement and their order must not move.  An unprotected
        page under bypass goes line by line through the plain store.
        """
        if sw.voffset + LINES_PER_PAGE - 1 >> voffset_bits(sw.va_bits):
            raise ValueError("voffset out of range")
        base = ppn * PAGE_BYTES
        first = base // LINE_BYTES
        ptype = self._classify(base, PRV_M, sw)
        value = sw.value
        plain = self.bypass and ptype is _UNPROTECTED
        if kind is _WRITE:
            if not plain:
                self._uncache(first + i for i in lines)
                self.mee.write(first, content, sw, lines)
                return None
            for i in lines:
                self._line_access(base + i * LINE_BYTES, PRV_M, first + i, 0,
                                  SwTweak.from_int(value + (i << VOFFSET_SHIFT), sw.va_bits),
                                  ptype, content[i * LINE_BYTES:(i + 1) * LINE_BYTES])
            return None
        if plain:
            return b"".join([self.plain_lines.get(first + i, _ZERO_LINE) for i in lines])
        try:
            if self.cache is None:
                return self.mee.read(first, sw, lines)
            read, fill, out = self.cache.read, self.mee.read, []
            for i in lines:
                out.append(read(first + i, value + (i << VOFFSET_SHIFT), fill, first, sw, (i,)))
            return b"".join(out)
        except AuthenticationError as exc:
            i = exc.line_index - first
            self._auth_trap(base + i * LINE_BYTES, PRV_M,
                            SwTweak.from_int(value + (i << VOFFSET_SHIFT), sw.va_bits), exc)

    @staticmethod
    def _classify(va: int, prv: int, sw: SwTweak) -> PageType:
        try:
            return classify_tweak(sw)
        except InvalidCombination as exc:
            raise InvalidCombinationTrap(va, prv, str(exc)) from exc

    def _line_access(self, va: int, prv: int, line_index: int, off: int, sw: SwTweak,
                     ptype: PageType, data: bytes) -> bytes:
        """The read-modify-write of the module docstring: a write of
        ``data`` at byte ``off`` of its composed, classified line."""
        plain = self.bypass and ptype is _UNPROTECTED
        try:
            if plain:
                old = self.plain_lines.get(line_index, _ZERO_LINE)
            elif self.cache is not None:
                old = self.cache.read(line_index, sw.value, self.mee.read, line_index, sw)
            else:
                old = self.mee.read(line_index, sw)
        except AuthenticationError as exc:
            self._auth_trap(va, prv, sw, exc)
        merged = old[:off] + data + old[off + len(data):]
        if plain:
            self.plain_lines[line_index] = merged
        else:
            self.mee.write(line_index, merged, sw)
            if self.cache is not None:
                self.cache.update(line_index, sw.value, merged)
        return data

    def _auth_trap(self, va: int, prv: int, sw: SwTweak, exc: AuthenticationError) -> NoReturn:
        """Raise the AUTH trap for the line ``exc`` names, with the monitor's
        disposition."""
        trap = AuthenticationException(va, prv, sw, exc.line_index)
        if self.sm_auth_handler is not None:
            trap.disposition = self.sm_auth_handler(trap)
        try:
            raise trap from exc
        finally:
            # the traceback holds this frame: without the del, trap -> frame
            # -> trap is a cycle that only the cyclic GC frees
            del trap, exc

    def _uncache(self, lines) -> None:
        """Drop the cached copies of lines changed below the cache."""
        if self.cache is not None:
            for i in lines:
                self.cache.invalidate(i)

    def destroy_page(self, ppn: int) -> None:
        """Invalidate physical page ``ppn``: every line is re-sealed under
        the engine's reserved destroy tweak (:meth:`Mee.destroy_page`), so
        any later use fails authentication until the page is rewritten."""
        first = ppn * LINES_PER_PAGE
        self._uncache(range(first, first + LINES_PER_PAGE))
        self.mee.destroy_page(first)

    # --- physical attacker hooks --------------------------------------------

    def phys_snapshot(self, line_indices) -> dict[int, tuple[bytes, bytes]]:
        return {i: self.mee.snapshot_line(i) for i in line_indices}

    def phys_restore(self, snapshot: dict[int, tuple[bytes, bytes]]) -> None:
        """Put raw (ciphertext, tag) pairs back.  Every entry is checked
        before the first line is restored, so a bad snapshot changes
        nothing."""
        if any(not 0 <= i < LINE_LIMIT or len(pair) != 2 for i, pair in snapshot.items()):
            raise ValueError("a snapshot maps physical lines to (ciphertext, tag) pairs")
        for i, (ct, tag) in snapshot.items():
            self.mee.restore_line(i, ct, tag)
        self._uncache(snapshot)

    def phys_flip_bit(self, line_index: int, bit: int, target: str = "ciphertext") -> None:
        self.mee.flip_bit(line_index, bit, target)
        self._uncache((line_index,))
