"""The trusted M-mode security monitor.

The monitor owns the whole enclave lifecycle: loading images, entering and
exiting, interruption, dynamic page preparation and destruction, in-place
re-encryption, swapping and sealing.  It holds no state but the
monotonically increasing runtime-id counter: everything else lives in two
per-enclave MONITOR pages (metadata + thread state) that are OS-allocated
but sealed under an M-mode tweak, so every call re-reads and re-verifies,
through the engine, each monitor page it uses (what the monitor keeps of
them only saves decoding; see below).
Destroying those pages erases the enclave as far as the monitor is
concerned.  Both pages keep a hart's user context in one record
(:class:`UserCtx`): the metadata page the host's, saved on entry and given
back on exit, the thread page the enclave's, saved on interruption and
given back on resume.  The pages list at most ``MAX_OWNED`` owned pages
and ``MAX_SWAPS`` swap records, and every call checks that limit before
its first seal, so a call over it fails with nothing changed.

Page I/O pins the tweak: the monitor builds a page's first-line tweak
once, all five software fields -- for an enclave page with the machine's
own :func:`compose_sw_tweak` under the CSR values the enclave runs with,
so it is exactly what the enclave's own access to that line will compose
later, and refused unless it classifies as the page's own type
(:meth:`SecurityMonitor._page_tweak`); for one of its own pages the
binding :meth:`SecurityMonitor._monitor_page_tweak` decides, which ties
both monitor pages to their enclave through its runtime id -- and hands
it to the machine's pinned-tweak page access (:meth:`Machine.pinned_page`),
which classifies the page once, steps the voffset per line and seals or
verifies the page in one engine call.  No CSR is
written and no page table is consulted.  That is the entire trust
story -- the OS-controlled page tables never have to be believed.

Every call runs in one order: load and verify the monitor pages it uses,
decide, store each page it changes, and only then switch the hart at one
commit point (:meth:`SecurityMonitor._switch`), the only code that writes
the six monitor-owned CSRs, the pc, the register file, the active enclave
and the privilege.  So a call that raises before it switches (an engine
write that fails, say) leaves the hart as it found it: a running enclave
keeps its range, sids and registers, and a host holds none of them.  Of
the calls that store both pages, ``eenter`` stores the thread page, its
parked registers cleared, then the metadata page: a failed second store
leaves the enclave INTERRUPTED with no registers parked, which an entry
refuses.  ``interrupt`` stores the thread page, the registers parked,
then the metadata page: a failed second store leaves the enclave running,
and the stale registers parked are cleared at its next entry.

A call loads only the monitor pages it reads and stores only those it
may change.  ``eexit`` and a fault-threshold termination read the
metadata page alone: the thread page was verified by the ``eenter`` that
made the handle active, which loads it even for a fresh start, so a
handle whose thread page is another enclave's is refused before the
enclave runs, and every later call that reads it verifies it again; and
while the enclave runs, its thread page parks no registers, so a
termination has nothing there to clear.  Every call made from inside the
enclave reaches its metadata page one way
(:meth:`SecurityMonitor._active_meta`), which fails closed: a page that
fails verification has no host context to give back, so the registers
are wiped, no enclave is left active, the hart drops to S-mode with no
user range or sids, and the AUTH trap propagates (for a fault, with the
terminating disposition).  Each load verifies the whole page; nothing
the monitor keeps is trusted over the engine.  Per monitor frame it
keeps the page's tweak, built once per frame and runtime id, the bytes
it last read or wrote there and their decoded record, and it decodes a
page only when the verified bytes differ from the kept ones.  A load
takes the record out of the keep and a store puts it back with the bytes
it wrote, so a call that raises in between leaves no record behind, and
a peek hands out one no later call shares.  A store packs the fixed
header over the kept bytes, and the owned and swap rows as well only
when the call changed them, then re-seals the lines the engine cannot
prove unchanged (:meth:`Mee.changed_lines`): those whose bytes differ,
and any line sealed since under another binding (the OS may alias
another page onto a monitor page) whatever its bytes; with no such line
it makes no engine call.  The encid sids of recent enclaves are kept
too, so an enclave's is derived once.

Swap-out seals a page with a fresh nonce and records (nonce, tag, address,
permissions) in the metadata page; only that exact sealed version can come
back in.  The sealed bytes are written to the OS-supplied temporary page
under the plain S-mode identity-mapping tweak (map it ``rw``, not user)
so the OS can move them to disk.

Authentication faults route here.  Faults on an address with a swap
record are the legitimate demand-swap flow and cost nothing; any other
fault inside an enclave bumps its fault counter, and the enclave is
terminated at the configured threshold, which is what defeats online
brute-force probing of shared-memory secrets and enclave identities.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import hmac
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .aead import AeadAuthError, AesGcmAead
from .image import (
    EnclaveImage,
    InvalidImage,
    load_enclave_image,
    pack_perm_byte,
    parse_header,
    unpack_perm_byte,
)
from .machine import (
    LINES_PER_PAGE,
    PAGE_BYTES,
    PPN_LIMIT,
    AccessKind,
    AuthenticationException,
    Machine,
    PageFault,
)
from .tweak import (
    ENCLAVE_RSW,
    PRV_M,
    PRV_S,
    PRV_U,
    SID_MASK,
    XR_M,
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


class MonitorError(Exception):
    """Base of all monitor API failures."""


class BadHandle(MonitorError):
    pass


class WrongState(MonitorError):
    pass


class NotInEnclave(MonitorError):
    pass


class MonitorTypeForbidden(MonitorError):
    pass


class DoubleMap(MonitorError):
    pass


class RangeViolation(MonitorError):
    pass


class NotOwned(MonitorError):
    pass


class TypeNotSwappable(MonitorError):
    pass


class SwapAuthFailure(MonitorError):
    pass


class NoRecord(MonitorError):
    pass


class MonitorCapacity(MonitorError):
    pass


class EnclaveState(enum.IntEnum):
    LOADED = 1
    RUNNING = 2
    INTERRUPTED = 3
    TERMINATED = 4


class DispositionKind(enum.Enum):
    """What the monitor made of an authentication fault, as the machine
    stores it on the trap."""

    RETRY_DENIED = "retry_denied"
    ENCLAVE_TERMINATED = "enclave_terminated"


@dataclass(frozen=True)
class EnclaveHandle:
    """What the OS/application holds: the two monitor page numbers and the
    runtime id both pages are sealed under.  A handle whose pages belong to
    different enclaves, or whose rtid is not theirs, fails authentication
    at the first page the monitor loads."""

    meta_ppn: int
    thread_ppn: int
    rtid: int = 0


@dataclass(frozen=True)
class PageCtx:
    """A page's tweak-relevant identity, as the metadata page lists it and
    as in-place re-encryption names it.  The page type fixes the rsw the
    page is sealed under (:data:`ENCLAVE_RSW`); ``sid``, when given (by
    keyword), is an 80-bit value."""

    page_type: PageType
    perms: dict[str, bool]
    # explicit shared secret for SHM rekeying
    sid: int | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if self.page_type is PageType.MONITOR:
            raise MonitorTypeForbidden("enclaves cannot mint monitor pages")
        if self.page_type not in ENCLAVE_RSW:
            raise InvalidCombination(f"no enclave page is {self.page_type.value}")
        if self.sid is not None and not 0 <= self.sid <= SID_MASK:
            raise ValueError(f"sid {self.sid} is not an 80-bit value")


@functools.cache
def _listed_ctx(code: int, perm: int) -> PageCtx:
    """The context a metadata page record encodes, its page type stored as
    the type's own rsw (:data:`ENCLAVE_RSW`), decoded once per distinct
    record and then shared: a listed context is replaced, never changed in
    place."""
    page_type = next(t for t, own in ENCLAVE_RSW.items() if own == code)
    return PageCtx(page_type, unpack_perm_byte(perm))


def _listed(ctx: PageCtx) -> PageCtx:
    """``ctx`` as the metadata page lists it: the context a decode of its
    record gives (no sid, the permission byte's five flags)."""
    return _listed_ctx(ENCLAVE_RSW[ctx.page_type], pack_perm_byte(ctx.perms))


@dataclass
class SwapRecord:
    """A swapped-out page's context, and the nonce and tag of the one
    sealed version of it that may come back in."""

    ctx: PageCtx
    nonce: bytes
    tag: bytes


_NO_REGS = (0,) * 32


@dataclass
class UserCtx:
    """A hart's user context: pc, registers, user range and user sids.
    ``regs`` is None when no registers are saved; switching to such a
    context zeroes the register file."""

    pc: int = 0
    regs: list[int] | None = None
    urange: RangeReg = field(default_factory=RangeReg)
    usid0: int = 0
    usid1: int = 0

    @classmethod
    def of(cls, machine: Machine) -> "UserCtx":
        csr = machine.csr
        return cls(machine.pc, list(machine.regs), csr.urange, csr.usid0, csr.usid1)

    def fields(self) -> tuple:
        """The values of ``_CTX``, zero registers standing for none."""
        urange = self.urange
        return (*(_NO_REGS if self.regs is None else self.regs), urange.base, urange.size,
                urange.enabled, self.usid0, self.usid1)

    @classmethod
    def from_fields(cls, pc: int, fields, has_regs: bool = True) -> "UserCtx":
        *regs, ubase, usize, uen, usid0, usid1 = fields
        return cls(pc, regs if has_regs else None, RangeReg(ubase, usize, bool(uen)),
                   usid0, usid1)


# The fixed part of each monitor page, one struct each, both ending in a
# UserCtx past its pc: registers, urange (base, size, enabled), usid0/usid1.
# Metadata: magic, version, state, pad, rtid, encid, entry point, mrange
# base and size, fault count, owned and swap record counts, host space,
# then the host's pc, the privilege eenter was called from and the host's
# context.  Thread: magic, version, two pad bytes, the enclave's pc and
# context, and whether its registers are saved.
_CTX = "32QQQB7xQQ"
_META = struct.Struct("<4sHBBQ32sQQQIHH16sQB7x" + _CTX)
_META_MAGIC = b"SMEP"
# An owned row is va, page type, perms, then the page type again; a swap
# row is va, nonce, tag, perms, the page type twice and live (always 1).
# The repeated byte is the page's rsw, which its type fixes (a type's code
# is its rsw).  It is kept so that the layout, and every page and swap
# associated data written under it, stays version 1; decoding ignores it,
# since the monitor reads only pages it sealed itself.
_OWNED = struct.Struct("<QBBB5x")
_SWAP = struct.Struct("<Q12s16sBBBB8x")
_THREAD = struct.Struct("<4sHxxQ" + _CTX + "B")
_THREAD_MAGIC = b"SMTP"
MAX_OWNED = 64
MAX_SWAPS = 40

_OWNED_OFF = _META.size
_SWAP_OFF = _OWNED_OFF + MAX_OWNED * _OWNED.size


@dataclass
class EnclaveMeta:
    """The metadata page: owned pages and swap records keyed by va, in the
    order they were added."""

    state: EnclaveState
    rtid: int
    encid_full: bytes
    entry_point: int
    mrange: RangeReg
    host_space: str
    fault_count: int = 0
    caller_prv: int = PRV_U
    # the page always holds the host's registers, zeros until an entry
    host: UserCtx = field(default_factory=lambda: UserCtx(regs=list(_NO_REGS)))
    owned: dict[int, PageCtx] = field(default_factory=dict)
    swaps: dict[int, SwapRecord] = field(default_factory=dict)

    def check_room(self, owned: int = 0, swaps: int = 0) -> None:
        """Raise :class:`MonitorCapacity` unless the page can list ``owned``
        more owned pages and ``swaps`` more swap records than it does."""
        if len(self.owned) + owned > MAX_OWNED:
            raise MonitorCapacity("too many owned pages for the metadata page")
        if len(self.swaps) + swaps > MAX_SWAPS:
            raise MonitorCapacity("too many swap records for the metadata page")

    def pack(self, page: bytes | None = None) -> bytes:
        """The page's bytes.  ``page``, if given, is this record's page as
        last packed, with the same owned and swap rows: only the fixed
        header is packed again, over that page's."""
        if page is None:
            self.check_room()
            page = bytearray(PAGE_BYTES)
            for i, (va, o) in enumerate(self.owned.items()):
                code = ENCLAVE_RSW[o.page_type]
                _OWNED.pack_into(page, _OWNED_OFF + i * _OWNED.size, va, code,
                                 pack_perm_byte(o.perms), code)
            for i, (va, s) in enumerate(self.swaps.items()):
                code = ENCLAVE_RSW[s.ctx.page_type]
                _SWAP.pack_into(page, _SWAP_OFF + i * _SWAP.size, va, s.nonce, s.tag,
                                pack_perm_byte(s.ctx.perms), code, code, True)
        return _META.pack(
            _META_MAGIC, 1, int(self.state), 0, self.rtid, self.encid_full,
            self.entry_point, self.mrange.base, self.mrange.size,
            self.fault_count, len(self.owned), len(self.swaps),
            self.host_space.encode(), self.host.pc, self.caller_prv, *self.host.fields(),
        ) + page[_META.size:]

    @classmethod
    def unpack(cls, buf: bytes) -> "EnclaveMeta":
        (magic, version, state, _, rtid, encid, entry, mbase, msize, faults,
         n_owned, n_swaps, space, pc, prv, *host) = _META.unpack_from(buf)
        if magic != _META_MAGIC or version != 1:
            raise BadHandle("not an enclave metadata page")
        owned = {va: _listed_ctx(code, perm) for va, code, perm, _ in
                 _OWNED.iter_unpack(buf[_OWNED_OFF:_OWNED_OFF + n_owned * _OWNED.size])}
        swaps = {va: SwapRecord(_listed_ctx(code, perm), nonce, tag)
                 for va, nonce, tag, perm, _, code, _ in
                 _SWAP.iter_unpack(buf[_SWAP_OFF:_SWAP_OFF + n_swaps * _SWAP.size])}
        return cls(EnclaveState(state), rtid, encid, entry, RangeReg(mbase, msize, True),
                   space.rstrip(b"\x00").decode(), faults, prv,
                   UserCtx.from_fields(pc, host), owned, swaps)


@dataclass
class ThreadMeta:
    """The thread page: the enclave's context while it is interrupted.  A
    resume clears the registers (the page then holds zeros and no "saved"
    flag) but leaves the saved pc, user range and sids in the page.  Whether
    the enclave runs is the metadata page's state alone."""

    saved: UserCtx = field(default_factory=UserCtx)

    def pack(self) -> bytes:
        buf = bytearray(PAGE_BYTES)
        saved = self.saved
        _THREAD.pack_into(buf, 0, _THREAD_MAGIC, 1, saved.pc, *saved.fields(),
                          saved.regs is not None)
        return bytes(buf)

    @classmethod
    def unpack(cls, buf: bytes) -> "ThreadMeta":
        magic, version, pc, *ctx, has_regs = _THREAD.unpack_from(buf)
        if magic != _THREAD_MAGIC or version != 1:
            raise BadHandle("not a thread metadata page")
        return cls(UserCtx.from_fields(pc, ctx, bool(has_regs)))


def _check_reg_writes(machine: Machine, regs: dict[int, int] | None) -> None:
    """A bad register index or value fails here, before any state moves."""
    for reg, value in (regs or {}).items():
        machine.get_reg(reg)
        if not isinstance(value, int):
            raise ValueError(f"register x{reg} value {value!r} is not an integer")


def _with_regs(regs, writes: dict[int, int]) -> list[int]:
    """``regs`` with the checked ``writes`` made, as :meth:`Machine.set_reg`
    makes them."""
    regs = list(regs)
    for reg, value in writes.items():
        regs[reg] = value & ((1 << 64) - 1)
    return regs


def _check_frame(ppn: int, what: str, limit: int = PPN_LIMIT) -> None:
    """Refuse a page number outside ``[0, limit)``, by default the pages
    whose lines the engine can address, before any state moves."""
    if not 0 <= ppn < limit:
        raise BadHandle(f"the {what} page {ppn:#x} is not addressable")


def check_capacity(host_space: str, image: EnclaveImage, stack_pages: int) -> None:
    """Refuse what the metadata page cannot hold: a host space that is not
    text, or is over 16 bytes of UTF-8 or holds a NUL (its field keeps 16
    bytes and drops trailing NULs, so the name would read back as another
    space), a negative stack page count (both ValueErrors, as for any
    malformed argument) and a region of more pages than the page can
    list."""
    if (not isinstance(host_space, str) or len(host_space.encode()) > 16
            or "\x00" in host_space):
        raise ValueError(f"host space {host_space!r:.40} is not text of at most 16 NUL-free "
                         "bytes")
    if stack_pages < 0:
        raise ValueError(f"stack_pages {stack_pages} is negative")
    if len(image.pages) + stack_pages > MAX_OWNED:
        raise MonitorCapacity("too many owned pages for the metadata page")


def kdf(key: bytes, label: bytes, data: bytes = b"", n: int = 16) -> bytes:
    return hmac.new(key, label + b"\x00" + data, hashlib.sha256).digest()[:n]


def derive_developer_key(cpu_key: bytes, developer_id: bytes) -> bytes:
    return kdf(cpu_key, b"developer-key", developer_id)


def _truncated_encid(cpu_key: bytes, encid_full: bytes) -> int:
    """The 80-bit identity an enclave's image hash derives under a CPU key."""
    return int.from_bytes(kdf(cpu_key, b"encid-sid", encid_full, n=32), "big") & SID_MASK


# rw, no user, rsw 00: the pte field of monitor pages (with PRV_M) and of
# the swap temporary page (with PRV_S, the OS's identity-mapped view)
MONITOR_PTE_BITS = pack_pte_bits(r=True, w=True, x=False, u=False, g=False, rsw=0)

_STACK_PERMS = {"r": True, "w": True, "x": False, "u": True, "g": False}

_NO_RANGE = RangeReg()


def _weak_auth_handler(monitor: "SecurityMonitor"):
    """The machine's AUTH handler for ``monitor``, holding it weakly: the
    monitor holds its machine, so a strong back-reference would be a cycle
    that keeps a finished machine, engine lines and all, alive until a full
    pass of the cyclic GC.  Once the monitor is gone, faults get no
    disposition, as on a machine without one."""
    ref = weakref.ref(monitor)

    def handler(trap):
        sm = ref()
        return None if sm is None else sm.handle_auth_fault(trap)

    return handler


class SecurityMonitor:
    """Monitor instance bound to one machine.

    ``fault_threshold`` (at least 1) is the number of authentication faults
    one enclave may cause before it is terminated.
    """

    def __init__(self, machine: Machine, fault_threshold: int = 3):
        if fault_threshold < 1:
            raise ValueError(f"fault_threshold must be at least 1, got {fault_threshold}")
        self.machine = machine
        self.fault_threshold = fault_threshold
        self.aead = AesGcmAead()
        self._rtid_next = 1  # the only state that outlives a call
        # monitor frame -> (rtid, page tweak, page bytes, decoded record or
        # None): a copy of what the monitor last read or wrote there, so a
        # load whose verified bytes are the kept ones decodes nothing
        self._kept: dict[int, tuple] = {}
        # the truncated encids of the most recent enclaves, each derived once
        self._encids = functools.lru_cache(maxsize=64)(
            functools.partial(_truncated_encid, machine.cpu_key))
        self._in_monitor = False
        machine.sm_auth_handler = _weak_auth_handler(self)

    # --- plumbing -----------------------------------------------------------

    @contextmanager
    def _monitor_call(self):
        assert not self._in_monitor, "monitor calls never nest"
        self._in_monitor = True
        saved_prv = self.machine.prv
        self.machine.prv = PRV_M
        try:
            yield saved_prv
        finally:
            if self.machine.prv == PRV_M:
                self.machine.prv = saved_prv
            self._in_monitor = False

    def _switch(self, active: EnclaveHandle | None, prv: int, user: UserCtx, mrange: RangeReg,
                msid0: int, msid1: int) -> None:
        """The commit point, and the only code that changes the hart: the
        six monitor-owned CSRs, ``user``'s pc and registers, the active
        enclave and the privilege.  A call reaches it only after every
        store it makes, so a call that raises leaves the hart as it was."""
        m = self.machine
        for name, value in (("mrange", mrange), ("msid0", msid0), ("msid1", msid1),
                            ("urange", user.urange), ("usid0", user.usid0),
                            ("usid1", user.usid1)):
            m.write_csr(PRV_M, name, value)
        m.pc = user.pc
        m.regs = list(_NO_REGS if user.regs is None else user.regs)
        m.active_enclave = active
        m.prv = prv

    def _monitor_page_tweak(self, ppn: int, rtid: int = 0) -> SwTweak:
        """The first-line tweak of a monitor page, and so the one place that
        decides a monitor page's binding: no range, the absolute line index,
        M-mode read/write, and the owning enclave's runtime id as the sid
        (0, like a handle's default rtid, belongs to no enclave, as rtids
        start at 1).  The sid ties both pages to their enclave: neither
        verifies when it is offered as another enclave's page."""
        va_bits = self.machine.va_bits
        voffset = (ppn * LINES_PER_PAGE) & ((1 << voffset_bits(va_bits)) - 1)
        return SwTweak(0, voffset, PRV_M, MONITOR_PTE_BITS, rtid & SID_MASK, va_bits)

    def _load(self, ppn: int, rtid: int, decode):
        """The record of monitor page ``ppn`` under its binding to ``rtid``,
        as the engine verifies the page now: the kept record if the
        verified bytes are the kept ones, else ``decode`` of them.  The
        record leaves the keep, so a call that raises before its store
        leaves none behind."""
        kept = self._kept.get(ppn)
        if kept is None or kept[0] != rtid:
            kept = (rtid, self._monitor_page_tweak(ppn, rtid), None, None)
        _, sw, kept_page, record = kept
        page = self.machine.pinned_page(ppn, sw)
        if record is None or page != kept_page:
            record = decode(page)
        self._kept[ppn] = (rtid, sw, page, None)
        return record

    def _store(self, ppn: int, record, content: bytes) -> None:
        """Re-seal the lines of monitor page ``ppn``, loaded by this call,
        that the engine cannot prove already hold ``content`` under the
        page's binding (:meth:`Mee.changed_lines`), and keep ``record``
        with it.  A store that changes no line makes no engine call."""
        rtid, sw, _, _ = self._kept[ppn]
        changed = self.machine.mee.changed_lines(ppn * LINES_PER_PAGE, content, sw)
        if changed:
            self.machine.pinned_page(ppn, sw, AccessKind.WRITE, content, changed)
        self._kept[ppn] = (rtid, sw, content, record)

    def _load_meta(self, handle: EnclaveHandle) -> EnclaveMeta:
        return self._load(handle.meta_ppn, handle.rtid, EnclaveMeta.unpack)

    def _store_meta(self, handle: EnclaveHandle, meta: EnclaveMeta, rows: bool = False) -> None:
        """Store ``meta``; ``rows`` says the call changed its owned or swap
        rows, which are then packed again with the rest of the page."""
        page = None if rows else self._kept[handle.meta_ppn][2]
        self._store(handle.meta_ppn, meta, meta.pack(page))

    def _load_thread(self, handle: EnclaveHandle) -> ThreadMeta:
        return self._load(handle.thread_ppn, handle.rtid, ThreadMeta.unpack)

    def _store_thread(self, handle: EnclaveHandle, thread: ThreadMeta) -> None:
        self._store(handle.thread_ppn, thread, thread.pack())

    # --- tweak-field resolution for enclave pages ----------------------------

    def _encid_sid(self, encid_full: bytes) -> int:
        # The 80-bit derived identity, capped to the 64-bit msid1 register
        # that actually supplies it during enclave execution.
        return self.derive_truncated_encid(encid_full) & ((1 << 64) - 1)

    def derive_truncated_encid(self, encid_full: bytes) -> int:
        return self._encids(encid_full)

    def _page_tweak(self, meta: EnclaveMeta, ctx: PageCtx, va: int,
                    urange: RangeReg | None = None) -> SwTweak:
        """The tweak the enclave's own access to the first line of the page
        at ``va`` composes (line ``i`` of the page is its voffset plus
        ``i``): :func:`compose_sw_tweak` of the context's pte bits under the
        CSRs the enclave runs with -- its range, its rtid as msid0 and its
        encid sid as msid1, no S range and, for a shared page only,
        ``urange`` with the user sids or ``(ctx.sid, 0)``.  A page outside
        its range raises :class:`RangeViolation`; a context whose tweak
        :func:`classify_tweak` refuses, :class:`InvalidCombination`.  Any
        tweak it accepts is of the context's own type, as the type fixes the
        rsw and the checks above fix the range."""
        if ctx.page_type is PageType.SHM:
            if urange is None or not urange.enabled:
                raise RangeViolation("shared memory needs an enabled user range")
            if not urange.contains(va) or not urange.contains(va + PAGE_BYTES - 1):
                raise RangeViolation("shared page lies outside the user range")
            if meta.mrange.contains(va):
                raise RangeViolation("shared page aliases the enclave range")
            csr = self.machine.csr
            usids = (csr.usid0, csr.usid1) if ctx.sid is None else (ctx.sid, 0)
        else:
            if not meta.mrange.contains(va) or not meta.mrange.contains(va + PAGE_BYTES - 1):
                raise RangeViolation("page lies outside the enclave range")
            urange, usids = _NO_RANGE, (0, 0)
        # only a shared enclave page selects msid1, so only it pays the HMAC
        encid = self._encid_sid(meta.encid_full) if ctx.page_type is PageType.SHENCLAVE else 0
        perms = ctx.perms
        pte_bits = pack_pte_bits(perms["r"], perms["w"], perms["x"], perms["u"],
                                 perms.get("g", False), ENCLAVE_RSW[ctx.page_type])
        sw = compose_sw_tweak(va, PRV_U, pte_bits, meta.mrange, _NO_RANGE, urange,
                              {XR_M: (meta.rtid, encid), XR_U: usids},
                              self.machine.va_bits)
        classify_tweak(sw)
        return sw

    def _walk_ppn(self, space: str, va: int) -> int:
        pte = self.machine.walk(space, va)
        if pte is None:
            raise PageFault(va, PRV_M, "enclave page not mapped by the OS")
        return pte.ppn

    # --- lifecycle API -------------------------------------------------------

    def ecreate(self, host_space: str, image, target_base: int, stack_pages: int,
                meta_ppn: int, thread_ppn: int) -> EnclaveHandle:
        """Load an image: authenticate (and unwrap), initialize every page
        under its pinned tweak, set up both monitor pages, allocate a fresh
        runtime id.  Every check -- image, capacity, region, mappings and
        the two monitor pages -- comes before the first seal and before the
        runtime id is spent."""
        with self._monitor_call():
            if isinstance(image, (bytes, bytearray)):
                _, dev_id, _, _ = parse_header(bytes(image))
                dev_key = derive_developer_key(self.machine.cpu_key, dev_id)
                image = load_enclave_image(bytes(image), dev_key)
            elif not isinstance(image, EnclaveImage):
                raise TypeError("image must be bytes or an EnclaveImage")
            image.validate()
            if target_base % PAGE_BYTES:
                raise InvalidImage("target base must be page aligned")
            check_capacity(host_space, image, stack_pages)
            mrange = RangeReg(target_base, (image.n_region_pages + stack_pages) * PAGE_BYTES,
                              True)
            try:
                mrange.validate(self.machine.va_bits)
            except ValueError as exc:
                raise InvalidImage(f"enclave region: {exc}") from exc
            meta = EnclaveMeta(
                state=EnclaveState.LOADED, rtid=self._rtid_next, encid_full=image.encid(),
                entry_point=target_base + image.entry_offset, mrange=mrange,
                host_space=host_space,
            )
            pages = [(page.index, PageCtx(PageType[page.page_type.name], page.perms),
                      page.body) for page in image.pages]
            pages += [(image.n_region_pages + i, PageCtx(PageType.REGULAR, _STACK_PERMS),
                       bytes(PAGE_BYTES)) for i in range(stack_pages)]
            writes = []
            for index, ctx, body in pages:
                va = target_base + index * PAGE_BYTES
                writes.append((self._walk_ppn(host_space, va), self._page_tweak(meta, ctx, va),
                               body))
                meta.owned[va] = _listed(ctx)
            _check_frame(meta_ppn, "metadata")
            _check_frame(thread_ppn, "thread")
            if meta_ppn == thread_ppn:
                raise BadHandle("the metadata and thread pages must differ")
            frames = {ppn for ppn, _, _ in writes}
            if len(frames) < len(writes):
                raise BadHandle("two of the enclave's pages cannot share a frame")
            if {meta_ppn, thread_ppn} & frames:
                raise BadHandle("a monitor page cannot be one of the enclave's own pages")
            self._rtid_next += 1
            for ppn, sw, body in writes:
                self.machine.pinned_page(ppn, sw, AccessKind.WRITE, body)
            # the rtid is fresh, so no line of either page can already hold
            # its content: both are sealed whole, with no changed_lines walk
            for ppn, record in ((meta_ppn, meta), (thread_ppn, ThreadMeta())):
                sw, content = self._monitor_page_tweak(ppn, meta.rtid), record.pack()
                self.machine.pinned_page(ppn, sw, AccessKind.WRITE, content)
                self._kept[ppn] = (meta.rtid, sw, content, record)
            return EnclaveHandle(meta_ppn, thread_ppn, meta.rtid)

    def eenter(self, handle: EnclaveHandle, args: dict[int, int] | None = None) -> None:
        """Trap from the host into the enclave: save the host context, then
        resume the parked thread or start at the entry point with a fresh
        register file (shared memory disabled) and ``args`` set, which a
        resume refuses with :class:`WrongState` before anything moves.  The
        call loads and verifies both monitor pages, decides, stores the
        thread page, its parked registers cleared (a fresh start parks
        none, so that store writes nothing), then the RUNNING metadata
        page, and switches last.  A failed second store leaves the enclave
        INTERRUPTED with no registers parked, which an entry refuses."""
        m = self.machine
        _check_reg_writes(m, args)
        with self._monitor_call() as caller_prv:
            meta = self._load_meta(handle)
            thread = self._load_thread(handle)
            if meta.state not in (EnclaveState.LOADED, EnclaveState.INTERRUPTED):
                raise WrongState(f"cannot enter enclave in state {meta.state.name}")
            resume = meta.state is EnclaveState.INTERRUPTED
            if resume and thread.saved.regs is None:
                raise WrongState("interrupted enclave has no saved thread state")
            if resume and args:
                raise WrongState("a resume continues the saved thread and takes no arguments")
            user = (replace(thread.saved) if resume
                    else UserCtx(meta.entry_point, _with_regs(_NO_REGS, args or {})))
            thread.saved.regs = None  # the pc, user range and sids stay
            meta.host, meta.caller_prv = UserCtx.of(m), caller_prv
            meta.state = EnclaveState.RUNNING
            self._store_thread(handle, thread)
            self._store_meta(handle, meta)
            self._switch(handle, PRV_U, user, meta.mrange, meta.rtid,
                         self._encid_sid(meta.encid_full))

    def eexit(self, returns: dict[int, int] | None = None) -> None:
        """Leave the enclave: host registers come back except the return
        value registers, and the enclave CSRs are reset."""
        m = self.machine
        _check_reg_writes(m, returns)
        with self._monitor_call():
            handle, meta = self._active_meta()
            host = meta.host
            regs = _with_regs(host.regs, {10: m.regs[10], 11: m.regs[11], **(returns or {})})
            self._leave(handle, meta, EnclaveState.LOADED, meta.caller_prv,  # after the enter site
                        UserCtx(host.pc + 4, regs, host.urange, host.usid0, host.usid1))

    def interrupt(self) -> None:
        """Asynchronous interruption: park the enclave state in the thread
        page, then leave with the register file wiped and control at the
        OS.  The thread page is stored before the INTERRUPTED metadata
        page; a failed second store leaves the enclave running, and the
        stale registers it parked are cleared at the next entry.  A thread
        page that fails verification cannot hold the parked state: the
        enclave is stored as TERMINATED, control still goes to the OS, and
        the AUTH trap propagates.  A metadata page that fails does the same
        with nothing stored (:meth:`_active_meta`)."""
        with self._monitor_call():
            handle, meta = self._active_meta()
            try:
                thread = self._load_thread(handle)
            except AuthenticationException:
                self._leave(handle, meta, EnclaveState.TERMINATED, PRV_S)
                raise
            thread.saved = UserCtx.of(self.machine)
            self._store_thread(handle, thread)
            self._leave(handle, meta, EnclaveState.INTERRUPTED, PRV_S)

    def _leave(self, handle: EnclaveHandle, meta: EnclaveMeta | None, state: EnclaveState,
               prv: int, user: UserCtx | None = None) -> None:
        """The one way out of the enclave, once the caller has stored what
        else it changed: store ``state`` in the metadata page, then switch
        to ``prv`` with the enclave CSRs reset and ``user`` as the host's
        context, by default the host's own user range and sids, a wiped
        register file and the current pc.  With no ``meta`` (its page
        failed verification) there is no host context to give back:
        nothing is stored, the user range is left disabled and the user
        sids 0."""
        if meta is not None:
            meta.state = state
            self._store_meta(handle, meta)
        if user is None:
            host = UserCtx() if meta is None else meta.host
            user = UserCtx(self.machine.pc, None, host.urange, host.usid0, host.usid1)
        self._switch(None, prv, user, _NO_RANGE, 0, 0)

    def _active_meta(self) -> tuple[EnclaveHandle, EnclaveMeta]:
        """The running enclave's handle and verified metadata page, for a
        monitor call made from inside it.  A metadata page that fails
        verification fails closed: the enclave is left with the registers
        wiped and no host context restored (:meth:`_leave`), and the AUTH
        trap propagates, so the host's next entry fails on the page too."""
        handle = self.machine.active_enclave
        if handle is None:
            raise NotInEnclave("call is only valid from inside an enclave")
        try:
            return handle, self._load_meta(handle)
        except AuthenticationException:
            self._leave(handle, None, EnclaveState.TERMINATED, PRV_S)
            raise

    # --- dynamic memory ------------------------------------------------------

    def eprepare(self, va: int, page_type: PageType, perms: dict[str, bool]) -> None:
        """Zero-initialize a dynamically supplied page to an enclave-chosen
        type.  Every type except MONITOR is allowed; the per-enclave mapping
        list rejects double mapping, and :meth:`_page_tweak` a context that
        does not classify as its type."""
        ctx = PageCtx(page_type, perms)
        m = self.machine
        caller_urange = m.csr.urange
        with self._monitor_call():
            handle, meta = self._active_meta()
            if va in meta.owned:
                raise DoubleMap(f"page {va:#x} is already mapped into the enclave")
            if va in meta.swaps:
                raise DoubleMap(f"page {va:#x} is swapped out of the enclave")
            meta.check_room(owned=1)
            sw = self._page_tweak(meta, ctx, va, urange=caller_urange)
            ppn = self._walk_ppn(meta.host_space, va)
            m.pinned_page(ppn, sw, AccessKind.WRITE, bytes(PAGE_BYTES))
            meta.owned[va] = _listed(ctx)
            self._store_meta(handle, meta, rows=True)

    def edestroy(self, va: int) -> None:
        """Release a page: every line is re-sealed under the reserved tweak,
        so any later use fails authentication until re-prepared."""
        with self._monitor_call():
            handle, meta = self._active_meta()
            if va not in meta.owned:
                raise NotOwned(f"page {va:#x} is not mapped into the enclave")
            self.machine.destroy_page(self._walk_ppn(meta.host_space, va))
            del meta.owned[va]
            self._store_meta(handle, meta, rows=True)

    def emod(self, va: int, old_ctx: PageCtx, new_ctx: PageCtx) -> None:
        """In-place re-encryption: read every line under the old context,
        rewrite under the new one.  Content is preserved bit for bit; a
        wrong old context dies on the first line, and a new one that does
        not classify as its type is refused before any line moves."""
        m = self.machine
        caller_urange = m.csr.urange
        with self._monitor_call():
            handle, meta = self._active_meta()
            old = self._page_tweak(meta, old_ctx, va, urange=caller_urange)
            new = self._page_tweak(meta, new_ctx, va, urange=caller_urange)
            ppn = self._walk_ppn(meta.host_space, va)
            content = m.pinned_page(ppn, old)
            m.pinned_page(ppn, new, AccessKind.WRITE, content)
            if va in meta.owned:
                meta.owned[va] = _listed(new_ctx)
                self._store_meta(handle, meta, rows=True)

    def egetsealkey(self) -> bytes:
        """Deterministic 128-bit sealing key bound to (image hash, CPU key)."""
        with self._monitor_call():
            _, meta = self._active_meta()
            return kdf(self.machine.cpu_key, b"seal-key", meta.encid_full)

    # --- swapping ------------------------------------------------------------

    def _swap_key(self, meta: EnclaveMeta) -> bytes:
        return kdf(self.machine.cpu_key, b"swap-key", meta.rtid.to_bytes(8, "little"))

    def _swap_ad(self, meta: EnclaveMeta, va: int, ctx: PageCtx) -> bytes:
        code = ENCLAVE_RSW[ctx.page_type]
        return struct.pack("<QQBBB", meta.rtid, va, pack_perm_byte(ctx.perms), code, code)

    def swap_out(self, handle: EnclaveHandle, va: int, temp_ppn: int) -> bytes:
        """Seal one enclave page into the OS-supplied temporary page and
        invalidate the original.  Monitor and shared-data pages stay put."""
        m = self.machine
        # the temporary page's identity-mapped voffset must fit its field
        _check_frame(temp_ppn, "temporary", (1 << voffset_bits(m.va_bits)) // LINES_PER_PAGE)
        with self._monitor_call():
            meta = self._load_meta(handle)
            ctx = meta.owned.get(va)
            if ctx is None:
                raise NotOwned(f"page {va:#x} is not mapped into the enclave")
            if ctx.page_type is PageType.SHM:
                raise TypeNotSwappable("shared-data pages are excluded from swapping")
            if va in meta.swaps:
                raise DoubleMap(f"page {va:#x} is both mapped and swapped out")
            meta.check_room(swaps=1)
            sw = self._page_tweak(meta, ctx, va)
            ppn = self._walk_ppn(meta.host_space, va)
            content = m.pinned_page(ppn, sw)
            nonce = m.rng.randbytes(self.aead.nonce_len)
            sealed, tag = self.aead.seal(self._swap_key(meta), nonce, content,
                                         self._swap_ad(meta, va, ctx))
            # the OS's identity-mapped S-mode view of the temporary page
            m.pinned_page(temp_ppn, SwTweak(0, temp_ppn * LINES_PER_PAGE, PRV_S,
                                            MONITOR_PTE_BITS, 0, m.va_bits),
                          AccessKind.WRITE, sealed)
            m.destroy_page(ppn)
            meta.swaps[va] = SwapRecord(ctx, nonce, tag)
            del meta.owned[va]
            self._store_meta(handle, meta, rows=True)
            return sealed

    def swap_in(self, handle: EnclaveHandle, va: int, sealed: bytes) -> None:
        """Re-admit exactly the most recently sealed version of a page.  The
        stored nonce/tag pin one version; anything else fails."""
        with self._monitor_call():
            meta = self._load_meta(handle)
            record = meta.swaps.get(va)
            if record is None:
                raise NoRecord(f"no swap record for page {va:#x}")
            meta.check_room(owned=1)
            try:
                content = self.aead.open(self._swap_key(meta), record.nonce, sealed,
                                         record.tag, self._swap_ad(meta, va, record.ctx))
            except AeadAuthError as exc:
                raise SwapAuthFailure("sealed page is stale or tampered") from exc
            sw = self._page_tweak(meta, record.ctx, va)
            self.machine.pinned_page(self._walk_ppn(meta.host_space, va), sw,
                                     AccessKind.WRITE, content)
            del meta.swaps[va]
            meta.owned[va] = record.ctx
            self._store_meta(handle, meta, rows=True)

    # --- the authentication-exception handler --------------------------------

    def handle_auth_fault(self, trap) -> DispositionKind:
        """Fault-threshold termination policy for authentication faults.
        A termination leaves the thread page alone: while the enclave runs
        it parks no registers, so there is nothing to clear.  A metadata
        page that fails verification terminates the enclave at once
        (:meth:`_active_meta`), as its fault count cannot be read, and the
        enclave's fault is the trap raised."""
        m = self.machine
        if self._in_monitor or m.active_enclave is None:
            # The monitor's own probe (image check, re-encryption read, ...)
            # is reported to its caller, and neither it nor a fault outside
            # any enclave is charged to an enclave.
            return DispositionKind.RETRY_DENIED
        with self._monitor_call():
            try:
                handle, meta = self._active_meta()
            except AuthenticationException:
                return DispositionKind.ENCLAVE_TERMINATED
            page_va = trap.va - (trap.va % PAGE_BYTES)
            if page_va in meta.swaps:
                # Legitimate touch of a swapped-out page: the demand-swap
                # flow, not an attack.  No penalty.
                return DispositionKind.RETRY_DENIED
            meta.fault_count += 1
            if meta.fault_count >= self.fault_threshold:
                self._leave(handle, meta, EnclaveState.TERMINATED, PRV_S)
                return DispositionKind.ENCLAVE_TERMINATED
            self._store_meta(handle, meta)
            return DispositionKind.RETRY_DENIED

    # --- inspection (tests) --------------------------------------------------
    # A peek's load takes the record out of the keep and nothing puts it
    # back, so the caller's record is shared with no later call.

    def peek_meta(self, handle: EnclaveHandle) -> EnclaveMeta:
        with self._monitor_call():
            return self._load_meta(handle)

    def peek_thread(self, handle: EnclaveHandle) -> ThreadMeta:
        with self._monitor_call():
            return self._load_thread(handle)
