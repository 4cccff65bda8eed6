"""The trusted M-mode security monitor.

The monitor owns the whole enclave lifecycle: loading images, entering and
exiting, interruption, dynamic page preparation and destruction, in-place
re-encryption, swapping and sealing.  It holds no state but the
monotonically increasing runtime-id counter: everything else lives in two
per-enclave MONITOR pages (metadata + thread state) that are OS-allocated
but sealed under an M-mode tweak, so the monitor re-reads and re-verifies
its own state on every call.
Destroying those pages erases the enclave as far as the monitor is
concerned.

Page I/O pins the tweak: the monitor builds a page's first-line tweak
once, all five software fields -- for an enclave page exactly what the
enclave's own access to that line will compose later
(:meth:`SecurityMonitor._page_tweak`), for one of its own pages the
binding :meth:`SecurityMonitor._monitor_page_tweak` decides, which ties
both monitor pages to their enclave through its runtime id -- and hands
it to the machine's pinned-tweak page access (:meth:`Machine.pinned_page`),
which classifies the page once, steps the voffset per line and seals or
verifies the page in one engine call.  No CSR is
written and no page table is consulted.  That is the entire trust
story -- the OS-controlled page tables never have to be believed.  Monitor
pages are read and verified in full on every call; a store re-seals the
lines the engine cannot prove unchanged (:meth:`Mee.changed_lines`): those
whose bytes differ, and any line sealed since under another binding (the
OS may alias another page onto a monitor page) whatever its bytes.

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
import hashlib
import hmac
import struct
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

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
    Machine,
    PageFault,
    Trap,
)
from .mee import LINE_BYTES
from .tweak import (
    PRV_M,
    PRV_S,
    PRV_U,
    SID_MASK,
    InvalidCombination,
    PageType,
    RangeReg,
    SwTweak,
    classify_page_type,
    pack_pte_bits,
    truncate_sid,
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
    RETRY_DENIED = "retry_denied"
    ENCLAVE_TERMINATED = "enclave_terminated"
    DELAY = "delay"


@dataclass(frozen=True)
class Disposition:
    kind: DispositionKind
    delay: int = 0


@dataclass(frozen=True)
class EnclaveHandle:
    """What the OS/application holds: the two monitor page numbers and the
    runtime id both pages are sealed under.  A handle whose pages belong to
    different enclaves, or whose rtid is not theirs, fails authentication
    at the first page the monitor loads."""

    meta_ppn: int
    thread_ppn: int
    rtid: int = 0


_PTYPE_CODE = {PageType.REGULAR: 1, PageType.SHENCLAVE: 2, PageType.SHM: 3}
_PTYPE_FROM_CODE = {v: k for k, v in _PTYPE_CODE.items()}

_RSW_FOR = {PageType.REGULAR: 0b01, PageType.SHENCLAVE: 0b10, PageType.SHM: 0b11}


@dataclass
class OwnedPage:
    va: int
    page_type: PageType
    perms: dict[str, bool]
    rsw: int


@dataclass
class SwapRecord:
    va: int
    nonce: bytes
    tag: bytes
    perms: dict[str, bool]
    rsw: int
    page_type: PageType


# The fixed part of each monitor page, one struct each.  Metadata: magic,
# version, state, pad, rtid, encid, entry point, mrange base and size, fault
# count, owned and swap record counts, host space, host pc and privilege,
# then the host's registers, urange (base, size, enabled) and usid0/usid1.
# Thread: magic, version, in-enclave flag, pad, resume pc, saved registers,
# urange and usid0/usid1, and whether the registers are saved.
_META = struct.Struct("<4sHBBQ32sQQQIHH16sQB7x32QQQB7xQQ")
_META_MAGIC = b"SMEP"
_OWNED = struct.Struct("<QBBB5x")
_SWAP = struct.Struct("<Q12s16sBBBB8x")  # ..., page type, live (always 1)
_THREAD = struct.Struct("<4sHBBQ32QQQB7xQQB")
_THREAD_MAGIC = b"SMTP"
_NO_REGS = (0,) * 32
MAX_OWNED = 64
MAX_SWAPS = 40

_OWNED_OFF = _META.size
_SWAP_OFF = _OWNED_OFF + MAX_OWNED * _OWNED.size


@dataclass
class EnclaveMeta:
    state: EnclaveState
    rtid: int
    encid_full: bytes
    entry_point: int
    mrange: RangeReg
    host_space: str
    fault_count: int = 0
    host_pc: int = 0
    host_prv: int = PRV_U
    host_regs: list[int] = field(default_factory=lambda: [0] * 32)
    host_urange: RangeReg = field(default_factory=RangeReg)
    host_usid0: int = 0
    host_usid1: int = 0
    owned: list[OwnedPage] = field(default_factory=list)
    swaps: list[SwapRecord] = field(default_factory=list)

    def pack(self) -> bytes:
        if len(self.owned) > MAX_OWNED:
            raise MonitorCapacity("too many owned pages for the metadata page")
        if len(self.swaps) > MAX_SWAPS:
            raise MonitorCapacity("too many swap records for the metadata page")
        buf = bytearray(PAGE_BYTES)
        urange = self.host_urange
        _META.pack_into(
            buf, 0, _META_MAGIC, 1, int(self.state), 0, self.rtid, self.encid_full,
            self.entry_point, self.mrange.base, self.mrange.size,
            self.fault_count, len(self.owned), len(self.swaps),
            self.host_space.encode()[:16], self.host_pc, self.host_prv, *self.host_regs,
            urange.base, urange.size, urange.enabled, self.host_usid0, self.host_usid1,
        )
        for i, o in enumerate(self.owned):
            _OWNED.pack_into(buf, _OWNED_OFF + i * _OWNED.size, o.va,
                             _PTYPE_CODE[o.page_type], pack_perm_byte(o.perms), o.rsw)
        for i, s in enumerate(self.swaps):
            _SWAP.pack_into(buf, _SWAP_OFF + i * _SWAP.size, s.va, s.nonce, s.tag,
                            pack_perm_byte(s.perms), s.rsw, _PTYPE_CODE[s.page_type], True)
        return bytes(buf)

    @classmethod
    def unpack(cls, buf: bytes) -> "EnclaveMeta":
        fields = _META.unpack_from(buf)
        (magic, version, state, _, rtid, encid, entry, mbase, msize, faults,
         n_owned, n_swaps, space, host_pc, host_prv) = fields[:15]
        ubase, usize, uen, usid0, usid1 = fields[47:]
        if magic != _META_MAGIC or version != 1:
            raise BadHandle("not an enclave metadata page")
        owned = []
        for i in range(n_owned):
            va, code, perm, rsw = _OWNED.unpack_from(buf, _OWNED_OFF + i * _OWNED.size)
            owned.append(OwnedPage(va, _PTYPE_FROM_CODE[code], unpack_perm_byte(perm), rsw))
        swaps = []
        for i in range(n_swaps):
            va, nonce, tag, perm, rsw, code, _ = _SWAP.unpack_from(buf, _SWAP_OFF + i * _SWAP.size)
            swaps.append(SwapRecord(va, nonce, tag, unpack_perm_byte(perm), rsw,
                                    _PTYPE_FROM_CODE[code]))
        return cls(
            state=EnclaveState(state), rtid=rtid, encid_full=encid, entry_point=entry,
            mrange=RangeReg(mbase, msize, True), host_space=space.rstrip(b"\x00").decode(),
            fault_count=faults, host_pc=host_pc, host_prv=host_prv, host_regs=list(fields[15:47]),
            host_urange=RangeReg(ubase, usize, bool(uen)), host_usid0=usid0,
            host_usid1=usid1, owned=owned, swaps=swaps,
        )


@dataclass
class ThreadMeta:
    in_enclave: bool = False
    resume_pc: int = 0
    saved_regs: list[int] | None = None
    saved_urange: RangeReg = field(default_factory=RangeReg)
    saved_usid0: int = 0
    saved_usid1: int = 0

    def pack(self) -> bytes:
        buf = bytearray(PAGE_BYTES)
        urange, regs = self.saved_urange, self.saved_regs
        _THREAD.pack_into(buf, 0, _THREAD_MAGIC, 1, self.in_enclave, 0, self.resume_pc,
                          *(_NO_REGS if regs is None else regs), urange.base, urange.size,
                          urange.enabled, self.saved_usid0, self.saved_usid1, regs is not None)
        return bytes(buf)

    @classmethod
    def unpack(cls, buf: bytes) -> "ThreadMeta":
        fields = _THREAD.unpack_from(buf)
        magic, version, in_enc, _, pc = fields[:5]
        ubase, usize, uen, usid0, usid1, has_regs = fields[37:]
        if magic != _THREAD_MAGIC or version != 1:
            raise BadHandle("not a thread metadata page")
        return cls(in_enclave=bool(in_enc), resume_pc=pc,
                   saved_regs=list(fields[5:37]) if has_regs else None,
                   saved_urange=RangeReg(ubase, usize, bool(uen)),
                   saved_usid0=usid0, saved_usid1=usid1)


def _check_reg_writes(machine: Machine, regs: dict[int, int] | None) -> None:
    """A bad register index or value fails here, before any state moves."""
    for reg, value in (regs or {}).items():
        machine.get_reg(reg)
        if not isinstance(value, int):
            raise ValueError(f"register x{reg} value {value!r} is not an integer")


def _check_frame(ppn: int, what: str, limit: int = PPN_LIMIT) -> None:
    """Refuse a page number outside ``[0, limit)``, by default the pages
    whose lines the engine can address, before any state moves."""
    if not 0 <= ppn < limit:
        raise BadHandle(f"the {what} page {ppn:#x} is not addressable")


def check_capacity(image: EnclaveImage, stack_pages: int) -> None:
    """Refuse a negative stack page count (a ValueError, as for any
    malformed argument) and a region of more pages than the metadata page
    can list."""
    if stack_pages < 0:
        raise ValueError(f"stack_pages {stack_pages} is negative")
    if len(image.pages) + stack_pages > MAX_OWNED:
        raise MonitorCapacity("too many owned pages for the metadata page")


def kdf(key: bytes, label: bytes, data: bytes = b"", n: int = 16) -> bytes:
    return hmac.new(key, label + b"\x00" + data, hashlib.sha256).digest()[:n]


def derive_developer_key(cpu_key: bytes, developer_id: bytes) -> bytes:
    return kdf(cpu_key, b"developer-key", developer_id)


# rw, no user, rsw 00: the pte field of monitor pages (with PRV_M) and of
# the swap temporary page (with PRV_S, the OS's identity-mapped view)
MONITOR_PTE_BITS = pack_pte_bits(r=True, w=True, x=False, u=False, g=False, rsw=0)

_STACK_PERMS = {"r": True, "w": True, "x": False, "u": True, "g": False}


@dataclass(frozen=True)
class PageCtx:
    """A page's tweak-relevant identity for in-place re-encryption."""

    page_type: PageType
    perms: dict[str, bool]
    rsw: int | None = None
    sid: int | None = None  # explicit shared secret for SHM rekeying

    def __post_init__(self) -> None:
        if self.page_type is PageType.MONITOR:
            raise MonitorTypeForbidden("enclaves cannot mint monitor pages")
        if self.page_type not in _RSW_FOR:
            raise InvalidCombination(f"no enclave page is {self.page_type.value}")
        if self.rsw is not None and not 0 <= self.rsw < 4:
            raise InvalidCombination(f"rsw {self.rsw} is not a 2-bit field")

    def resolved_rsw(self) -> int:
        return self.rsw if self.rsw is not None else _RSW_FOR[self.page_type]


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
    one enclave may cause before it is terminated; ``delay_penalty`` is a
    simulated tick cost charged per fault (pure bookkeeping, returned in the
    disposition).
    """

    def __init__(self, machine: Machine, fault_threshold: int = 3,
                 delay_penalty: int = 0):
        if fault_threshold < 1:
            raise ValueError(f"fault_threshold must be at least 1, got {fault_threshold}")
        self.machine = machine
        self.fault_threshold = fault_threshold
        self.delay_penalty = delay_penalty
        self.aead = AesGcmAead()
        self._rtid_next = 1  # the only state that outlives a call
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

    def _read_monitor_page(self, ppn: int, rtid: int) -> bytes:
        return self.machine.pinned_page(ppn, self._monitor_page_tweak(ppn, rtid))

    def _write_monitor_page(self, ppn: int, rtid: int, content: bytes) -> None:
        """Re-seal the lines the engine cannot prove already hold
        ``content`` under the page's binding (:meth:`Mee.changed_lines`)."""
        sw = self._monitor_page_tweak(ppn, rtid)
        changed = self.machine.mee.changed_lines(ppn * LINES_PER_PAGE, sw.to_int(),
                                                 sw.va_bits, content)
        self.machine.pinned_page(ppn, sw, AccessKind.WRITE, content, changed)

    def _load_meta(self, handle: EnclaveHandle) -> EnclaveMeta:
        return EnclaveMeta.unpack(self._read_monitor_page(handle.meta_ppn, handle.rtid))

    def _store_meta(self, handle: EnclaveHandle, meta: EnclaveMeta) -> None:
        self._write_monitor_page(handle.meta_ppn, handle.rtid, meta.pack())

    def _load_thread(self, handle: EnclaveHandle) -> ThreadMeta:
        return ThreadMeta.unpack(self._read_monitor_page(handle.thread_ppn, handle.rtid))

    def _store_thread(self, handle: EnclaveHandle, thread: ThreadMeta) -> None:
        self._write_monitor_page(handle.thread_ppn, handle.rtid, thread.pack())

    # --- tweak-field resolution for enclave pages ----------------------------

    def _encid_sid(self, encid_full: bytes) -> int:
        # The 80-bit derived identity, capped to the 64-bit msid1 register
        # that actually supplies it during enclave execution.
        return self.derive_truncated_encid(encid_full) & ((1 << 64) - 1)

    def derive_truncated_encid(self, encid_full: bytes) -> int:
        mac = kdf(self.machine.cpu_key, b"encid-sid", encid_full, n=32)
        return int.from_bytes(mac, "big") & SID_MASK

    def _page_tweak(self, meta: EnclaveMeta, ctx: PageCtx, va: int,
                    urange: RangeReg | None = None) -> SwTweak:
        """The tweak the enclave's own access to the first line of the page
        at ``va`` composes; line ``i`` of the page is its voffset plus ``i``."""
        rsw = ctx.resolved_rsw()
        pte_bits = pack_pte_bits(ctx.perms["r"], ctx.perms["w"], ctx.perms["x"],
                                 ctx.perms["u"], ctx.perms.get("g", False), rsw)
        classify_page_type(
            {PageType.REGULAR: 0b100, PageType.SHENCLAVE: 0b100, PageType.SHM: 0b001}[ctx.page_type],
            PRV_U, pte_bits, rsw,
        )
        if ctx.page_type in (PageType.REGULAR, PageType.SHENCLAVE):
            if not meta.mrange.contains(va) or not meta.mrange.contains(va + PAGE_BYTES - 1):
                raise RangeViolation("page lies outside the enclave range")
            base = meta.mrange.base
            xrange = 0b100
            sid = meta.rtid if ctx.page_type is PageType.REGULAR else self._encid_sid(meta.encid_full)
        else:  # SHM
            if urange is None or not urange.enabled:
                raise RangeViolation("shared memory needs an enabled user range")
            if not urange.contains(va) or not urange.contains(va + PAGE_BYTES - 1):
                raise RangeViolation("shared page lies outside the user range")
            if meta.mrange.contains(va):
                raise RangeViolation("shared page aliases the enclave range")
            base = urange.base
            xrange = 0b001
            sid = ctx.sid if ctx.sid is not None else truncate_sid(
                self.machine.csr.usid0, self.machine.csr.usid1)
        return SwTweak(xrange, (va - base) // LINE_BYTES, PRV_U, pte_bits, sid,
                       self.machine.va_bits)

    def _walk_ppn(self, space: str, va: int) -> int:
        pte = self.machine.walk(space, va)
        if pte is None:
            raise PageFault(va, PRV_M, "enclave page not mapped by the OS")
        return pte.ppn

    def _destroy_page(self, ppn: int) -> None:
        base_line = ppn * LINES_PER_PAGE
        if self.machine.cache is not None:
            for i in range(LINES_PER_PAGE):
                self.machine.cache.invalidate(base_line + i)
        self.machine.mee.destroy_page(base_line)

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
            check_capacity(image, stack_pages)
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
            pages = [(page.index, PageCtx(PageType[page.page_type.name], page.perms, page.rsw),
                      page.body) for page in image.pages]
            pages += [(image.n_region_pages + i, PageCtx(PageType.REGULAR, _STACK_PERMS),
                       bytes(PAGE_BYTES)) for i in range(stack_pages)]
            writes = []
            for index, ctx, body in pages:
                va = target_base + index * PAGE_BYTES
                writes.append((self._walk_ppn(host_space, va), self._page_tweak(meta, ctx, va),
                               body))
                meta.owned.append(OwnedPage(va, ctx.page_type, dict(ctx.perms),
                                            ctx.resolved_rsw()))
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
            for ppn, content in ((meta_ppn, meta.pack()), (thread_ppn, ThreadMeta().pack())):
                self.machine.pinned_page(ppn, self._monitor_page_tweak(ppn, meta.rtid),
                                         AccessKind.WRITE, content)
            return EnclaveHandle(meta_ppn, thread_ppn, meta.rtid)

    def eenter(self, handle: EnclaveHandle, args: dict[int, int] | None = None) -> None:
        """Trap from the host into the enclave: save the host context, wire
        the enclave CSRs, resume or start at the entry point."""
        m = self.machine
        _check_reg_writes(m, args)
        with self._monitor_call() as caller_prv:
            meta = self._load_meta(handle)
            thread = self._load_thread(handle)
            if meta.state not in (EnclaveState.LOADED, EnclaveState.INTERRUPTED):
                raise WrongState(f"cannot enter enclave in state {meta.state.name}")
            if meta.state is EnclaveState.INTERRUPTED and thread.saved_regs is None:
                raise WrongState("interrupted enclave has no saved thread state")
            meta.host_regs = list(m.regs)
            meta.host_pc = m.pc
            meta.host_prv = caller_prv
            meta.host_urange = m.csr.urange
            meta.host_usid0 = m.csr.usid0
            meta.host_usid1 = m.csr.usid1
            m.write_csr(PRV_M, "mrange", meta.mrange)
            m.write_csr(PRV_M, "msid0", meta.rtid)
            m.write_csr(PRV_M, "msid1", self._encid_sid(meta.encid_full))
            if meta.state is EnclaveState.INTERRUPTED:
                m.regs = list(thread.saved_regs)
                m.pc = thread.resume_pc
                m.write_csr(PRV_M, "urange", thread.saved_urange)
                m.write_csr(PRV_M, "usid0", thread.saved_usid0)
                m.write_csr(PRV_M, "usid1", thread.saved_usid1)
                thread.saved_regs = None
            else:
                m.regs = [0] * len(m.regs)
                for reg, val in (args or {}).items():
                    m.set_reg(reg, val)
                m.pc = meta.entry_point
                m.write_csr(PRV_M, "urange", RangeReg())  # shared memory starts disabled
                m.write_csr(PRV_M, "usid0", 0)
                m.write_csr(PRV_M, "usid1", 0)
            meta.state = EnclaveState.RUNNING
            thread.in_enclave = True
            self._store_meta(handle, meta)
            self._store_thread(handle, thread)
            m.active_enclave = handle
            m.prv = PRV_U

    def eexit(self, returns: dict[int, int] | None = None) -> None:
        """Leave the enclave: host registers come back except the return
        value registers, and the enclave CSRs are reset."""
        m = self.machine
        handle = m.active_enclave
        if handle is None:
            raise NotInEnclave("no enclave is executing")
        _check_reg_writes(m, returns)
        with self._monitor_call():
            meta = self._load_meta(handle)
            thread = self._load_thread(handle)
            ret_vals = {10: m.regs[10], 11: m.regs[11]}
            ret_vals.update(returns or {})
            m.regs = list(meta.host_regs)
            for reg, val in ret_vals.items():
                m.set_reg(reg, val)
            m.pc = meta.host_pc + 4  # continue after the enter site
            self._reset_enclave_csrs(meta)
            meta.state = EnclaveState.LOADED
            thread.in_enclave = False
            self._store_meta(handle, meta)
            self._store_thread(handle, thread)
            m.active_enclave = None
            m.prv = meta.host_prv

    def interrupt(self) -> None:
        """Asynchronous interruption: park the enclave state in the thread
        page, wipe the register file, hand control to the OS."""
        m = self.machine
        handle = m.active_enclave
        if handle is None:
            raise NotInEnclave("no enclave is executing")
        with self._monitor_call():
            meta = self._load_meta(handle)
            thread = self._load_thread(handle)
            thread.saved_regs = list(m.regs)
            thread.resume_pc = m.pc
            thread.saved_urange = m.csr.urange
            thread.saved_usid0 = m.csr.usid0
            thread.saved_usid1 = m.csr.usid1
            thread.in_enclave = False
            m.regs = [0] * len(m.regs)  # the OS sees nothing
            self._reset_enclave_csrs(meta)
            meta.state = EnclaveState.INTERRUPTED
            self._store_meta(handle, meta)
            self._store_thread(handle, thread)
            m.active_enclave = None
            m.prv = PRV_S

    def _reset_enclave_csrs(self, meta: EnclaveMeta) -> None:
        m = self.machine
        m.write_csr(PRV_M, "mrange", RangeReg())
        m.write_csr(PRV_M, "msid0", 0)
        m.write_csr(PRV_M, "msid1", 0)
        m.write_csr(PRV_M, "urange", meta.host_urange)
        m.write_csr(PRV_M, "usid0", meta.host_usid0)
        m.write_csr(PRV_M, "usid1", meta.host_usid1)

    # --- dynamic memory ------------------------------------------------------

    def _active_handle(self) -> EnclaveHandle:
        handle = self.machine.active_enclave
        if handle is None:
            raise NotInEnclave("call is only valid from inside an enclave")
        return handle

    def eprepare(self, va: int, page_type: PageType, perms: dict[str, bool],
                 rsw: int | None = None) -> None:
        """Zero-initialize a dynamically supplied page to an enclave-chosen
        type.  Every type except MONITOR is allowed; the per-enclave mapping
        list rejects double mapping."""
        ctx = PageCtx(page_type, perms, rsw)
        handle = self._active_handle()
        m = self.machine
        caller_urange = m.csr.urange
        with self._monitor_call():
            meta = self._load_meta(handle)
            if rsw is not None and rsw != _RSW_FOR[page_type]:
                raise InvalidCombination("rsw bits disagree with the page type")
            if any(o.va == va for o in meta.owned):
                raise DoubleMap(f"page {va:#x} is already mapped into the enclave")
            if any(s.va == va for s in meta.swaps):
                raise DoubleMap(f"page {va:#x} is swapped out of the enclave")
            sw = self._page_tweak(meta, ctx, va, urange=caller_urange)
            ppn = self._walk_ppn(meta.host_space, va)
            m.pinned_page(ppn, sw, AccessKind.WRITE, bytes(PAGE_BYTES))
            meta.owned.append(OwnedPage(va, page_type, dict(perms), ctx.resolved_rsw()))
            self._store_meta(handle, meta)

    def edestroy(self, va: int) -> None:
        """Release a page: every line is re-sealed under the reserved tweak,
        so any later use fails authentication until re-prepared."""
        handle = self._active_handle()
        with self._monitor_call():
            meta = self._load_meta(handle)
            entry = next((o for o in meta.owned if o.va == va), None)
            if entry is None:
                raise NotOwned(f"page {va:#x} is not mapped into the enclave")
            self._destroy_page(self._walk_ppn(meta.host_space, va))
            meta.owned.remove(entry)
            self._store_meta(handle, meta)

    def emod(self, va: int, old_ctx: PageCtx, new_ctx: PageCtx) -> None:
        """In-place re-encryption: read every line under the old context,
        rewrite under the new one.  Content is preserved bit for bit; a
        wrong old context dies on the first line."""
        handle = self._active_handle()
        m = self.machine
        caller_urange = m.csr.urange
        with self._monitor_call():
            meta = self._load_meta(handle)
            old = self._page_tweak(meta, old_ctx, va, urange=caller_urange)
            new = self._page_tweak(meta, new_ctx, va, urange=caller_urange)
            ppn = self._walk_ppn(meta.host_space, va)
            content = m.pinned_page(ppn, old)
            m.pinned_page(ppn, new, AccessKind.WRITE, content)
            entry = next((o for o in meta.owned if o.va == va), None)
            if entry is not None:
                entry.page_type = new_ctx.page_type
                entry.perms = dict(new_ctx.perms)
                entry.rsw = new_ctx.resolved_rsw()
                self._store_meta(handle, meta)

    def egetsealkey(self) -> bytes:
        """Deterministic 128-bit sealing key bound to (image hash, CPU key)."""
        handle = self._active_handle()
        with self._monitor_call():
            meta = self._load_meta(handle)
            return kdf(self.machine.cpu_key, b"seal-key", meta.encid_full)

    # --- swapping ------------------------------------------------------------

    def _swap_key(self, meta: EnclaveMeta) -> bytes:
        return kdf(self.machine.cpu_key, b"swap-key", meta.rtid.to_bytes(8, "little"))

    def _swap_ad(self, meta: EnclaveMeta, va: int, perms: dict[str, bool],
                 rsw: int, page_type: PageType) -> bytes:
        return struct.pack("<QQBBB", meta.rtid, va, pack_perm_byte(perms), rsw,
                           _PTYPE_CODE[page_type])

    def swap_out(self, handle: EnclaveHandle, va: int, temp_ppn: int) -> bytes:
        """Seal one enclave page into the OS-supplied temporary page and
        invalidate the original.  Monitor and shared-data pages stay put."""
        m = self.machine
        # the temporary page's identity-mapped voffset must fit its field
        _check_frame(temp_ppn, "temporary", (1 << voffset_bits(m.va_bits)) // LINES_PER_PAGE)
        with self._monitor_call():
            meta = self._load_meta(handle)
            entry = next((o for o in meta.owned if o.va == va), None)
            if entry is None:
                raise NotOwned(f"page {va:#x} is not mapped into the enclave")
            if entry.page_type is PageType.SHM:
                raise TypeNotSwappable("shared-data pages are excluded from swapping")
            if any(s.va == va for s in meta.swaps):
                raise DoubleMap(f"page {va:#x} is both mapped and swapped out")
            ctx = PageCtx(entry.page_type, entry.perms, entry.rsw)
            sw = self._page_tweak(meta, ctx, va)
            ppn = self._walk_ppn(meta.host_space, va)
            content = m.pinned_page(ppn, sw)
            nonce = m.rng.randbytes(self.aead.nonce_len)
            sealed, tag = self.aead.seal(
                self._swap_key(meta), nonce, content,
                self._swap_ad(meta, va, entry.perms, entry.rsw, entry.page_type))
            # the OS's identity-mapped S-mode view of the temporary page
            m.pinned_page(temp_ppn, SwTweak(0, temp_ppn * LINES_PER_PAGE, PRV_S,
                                            MONITOR_PTE_BITS, 0, m.va_bits),
                          AccessKind.WRITE, sealed)
            self._destroy_page(ppn)
            meta.swaps.append(SwapRecord(va, nonce, tag, dict(entry.perms),
                                         entry.rsw, entry.page_type))
            meta.owned.remove(entry)
            self._store_meta(handle, meta)
            return sealed

    def swap_in(self, handle: EnclaveHandle, va: int, sealed: bytes) -> None:
        """Re-admit exactly the most recently sealed version of a page.  The
        stored nonce/tag pin one version; anything else fails."""
        with self._monitor_call():
            meta = self._load_meta(handle)
            record = next((s for s in meta.swaps if s.va == va), None)
            if record is None:
                raise NoRecord(f"no swap record for page {va:#x}")
            try:
                content = self.aead.open(
                    self._swap_key(meta), record.nonce, sealed, record.tag,
                    self._swap_ad(meta, va, record.perms, record.rsw, record.page_type))
            except AeadAuthError as exc:
                raise SwapAuthFailure("sealed page is stale or tampered") from exc
            ctx = PageCtx(record.page_type, record.perms, record.rsw)
            sw = self._page_tweak(meta, ctx, va)
            self.machine.pinned_page(self._walk_ppn(meta.host_space, va), sw,
                                     AccessKind.WRITE, content)
            meta.swaps.remove(record)
            meta.owned.append(OwnedPage(va, record.page_type, dict(record.perms), record.rsw))
            self._store_meta(handle, meta)

    # --- the authentication-exception handler --------------------------------

    def handle_auth_fault(self, trap) -> Disposition:
        """Rate-limit and termination policy for authentication faults."""
        if self._in_monitor:
            # The monitor's own probe (image check, re-encryption read, ...)
            # is reported to its caller, never charged to an enclave.
            return Disposition(DispositionKind.RETRY_DENIED)
        m = self.machine
        handle = m.active_enclave
        if handle is None:
            return Disposition(DispositionKind.RETRY_DENIED)
        with self._monitor_call():
            try:
                meta = self._load_meta(handle)
            except (Trap, MonitorError):
                return Disposition(DispositionKind.RETRY_DENIED)
            page_va = trap.va - (trap.va % PAGE_BYTES)
            if any(s.va == page_va for s in meta.swaps):
                # Legitimate touch of a swapped-out page: the demand-swap
                # flow, not an attack.  No penalty.
                return Disposition(DispositionKind.RETRY_DENIED)
            meta.fault_count += 1
            if meta.fault_count >= self.fault_threshold:
                thread = self._load_thread(handle)
                thread.in_enclave = False
                thread.saved_regs = None
                meta.state = EnclaveState.TERMINATED
                m.regs = [0] * len(m.regs)
                self._reset_enclave_csrs(meta)
                self._store_meta(handle, meta)
                self._store_thread(handle, thread)
                m.active_enclave = None
                self.machine.prv = PRV_S
                return Disposition(DispositionKind.ENCLAVE_TERMINATED)
            self._store_meta(handle, meta)
            if self.delay_penalty:
                return Disposition(DispositionKind.DELAY, self.delay_penalty)
            return Disposition(DispositionKind.RETRY_DENIED)

    # --- inspection (tests) --------------------------------------------------

    def peek_meta(self, handle: EnclaveHandle) -> EnclaveMeta:
        with self._monitor_call():
            return self._load_meta(handle)

    def peek_thread(self, handle: EnclaveHandle) -> ThreadMeta:
        with self._monitor_call():
            return self._load_thread(handle)
