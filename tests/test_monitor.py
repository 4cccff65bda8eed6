"""Security-monitor lifecycle: creation, entry/exit, interruption, dynamic
pages, re-encryption, sealing, swapping, fault-threshold termination,
statelessness."""

import collections
import dataclasses
import hashlib
import random
import weakref

import pytest

from conftest import A_BASE, CODE_FILL, spawn_enclave, std_image
from servas_sim.cache import CacheCfg
from servas_sim.image import ImageAuthFailure, InvalidImage
from servas_sim.machine import (
    LINES_PER_PAGE,
    AccessKind,
    AuthenticationException,
    Machine,
    PAGE_BYTES,
    PageFault,
    Trap,
)
from servas_sim.monitor import (
    BadHandle,
    DispositionKind,
    DoubleMap,
    EnclaveMeta,
    EnclaveState,
    MonitorCapacity,
    MonitorError,
    MonitorTypeForbidden,
    NoRecord,
    NotInEnclave,
    NotOwned,
    PageCtx,
    RangeViolation,
    SecurityMonitor,
    SwapAuthFailure,
    SwapRecord,
    ThreadMeta,
    TypeNotSwappable,
    UserCtx,
    WrongState,
)
from servas_sim.tweak import (
    ENCLAVE_RSW, VOFFSET_SHIFT, InvalidCombination, PageType, PRV_M, PRV_S, PRV_U, RangeReg,
    SwTweak, classify_tweak,
)

READ, WRITE, FETCH = AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH
DATA_VA = A_BASE + PAGE_BYTES
RW = {"r": True, "w": True, "x": False, "u": True, "g": False}
RO = {"r": True, "w": False, "x": False, "u": True, "g": False}


# --- creation ---------------------------------------------------------------


def test_ecreate_initializes_and_isolates(enclave):
    m, sm, handle = enclave
    meta = sm.peek_meta(handle)
    assert meta.state is EnclaveState.LOADED
    assert meta.mrange == RangeReg(A_BASE, 3 * PAGE_BYTES, True)
    assert len(meta.owned) == 3  # code, data, stack
    sm.eenter(handle)
    assert m.access("host", A_BASE, READ, PRV_U, size=8) == CODE_FILL
    assert m.access("host", DATA_VA, READ, PRV_U, size=4) == bytes(4)
    sm.eexit()
    # the OS sees only ciphertext
    m.prv = PRV_S
    m.map_page(PRV_S, "os", 0x100 * PAGE_BYTES, 0x100, "rw")
    with pytest.raises(AuthenticationException):
        m.access("os", 0x100 * PAGE_BYTES, READ, PRV_S, size=8)


def test_ecreate_demands_mapped_region(machine, sm):
    with pytest.raises(PageFault):
        sm.ecreate("host", std_image(), A_BASE, 1, 0x200, 0x201)


def test_ecreate_wrapped_image(machine, sm):
    from servas_sim.monitor import derive_developer_key

    image = std_image()
    dev_key = derive_developer_key(machine.cpu_key, image.developer_id)
    wrapped = image.wrap(dev_key, bytes(12))
    handle = spawn_enclave(machine, sm, image=image)
    # a second instance created straight from the wrapped bytes
    for i, perms, rsw in [(0, "rxu", 0b10), (1, "rwu", 0b01), (2, "rwu", 0b01)]:
        machine.map_page(PRV_S, "host", 0x5000_0000 + i * PAGE_BYTES, 0x110 + i,
                         perms, rsw)
    machine.prv = PRV_U
    handle2 = sm.ecreate("host", wrapped, 0x5000_0000, 1, 0x210, 0x211)
    assert sm.peek_meta(handle).encid_full == sm.peek_meta(handle2).encid_full


def test_ecreate_tampered_wrapped_image(machine, sm):
    from servas_sim.monitor import derive_developer_key

    image = std_image()
    dev_key = derive_developer_key(machine.cpu_key, image.developer_id)
    blob = bytearray(image.wrap(dev_key, bytes(12)))
    blob[100] ^= 1
    machine.map_page(PRV_S, "host", A_BASE, 0x100, "rxu", 0b10)
    with pytest.raises(ImageAuthFailure):
        sm.ecreate("host", bytes(blob), A_BASE, 1, 0x200, 0x201)


def test_ecreate_over_capacity_has_no_side_effects(machine, sm):
    """An image that cannot fit the metadata page's owned list is refused
    before any line is sealed and before a runtime id is spent."""
    with pytest.raises(MonitorCapacity):
        spawn_enclave(machine, sm, image=std_image(n_data=62), stack_pages=2)  # 65 pages
    assert not machine.mee.written_lines()
    # 64 pages fit exactly, and get the first runtime id
    handle = spawn_enclave(machine, sm, image=std_image(n_data=62), stack_pages=1)
    assert sm.peek_meta(handle).rtid == 1
    assert len(sm.peek_meta(handle).owned) == 64


def test_ecreate_refuses_a_negative_stack_page_count(machine, sm):
    """Refused before any line is sealed and before a runtime id is spent."""
    machine.map_page(PRV_S, "host", A_BASE, 0x100, "rxu", 0b10)
    machine.map_page(PRV_S, "host", A_BASE + PAGE_BYTES, 0x101, "rwu", 0b01)
    with pytest.raises(ValueError, match="stack_pages -1 is negative"):
        sm.ecreate("host", std_image(), A_BASE, -1, 0x200, 0x201)
    assert not machine.mee.written_lines()
    assert sm.peek_meta(spawn_enclave(machine, sm)).rtid == 1


@pytest.mark.parametrize("layout, error", [
    (dict(meta_ppn=0x201), BadHandle),
    (dict(meta_ppn=0x100), BadHandle),
    (dict(thread_ppn=0x102), BadHandle),
    (dict(base=-0x10_0000), InvalidImage),
    (dict(base=1 << 48), InvalidImage),
], ids=["meta-is-thread", "meta-on-code-page", "thread-on-stack-page", "negative-base",
        "base-past-address-width"])
def test_ecreate_bad_layout_has_no_side_effects(machine, sm, layout, error):
    """Monitor pages that clash and regions outside the address space are
    refused before any line is sealed and before a runtime id is spent."""
    with pytest.raises(error):
        spawn_enclave(machine, sm, **layout)
    assert not machine.mee.written_lines()
    handle = spawn_enclave(machine, sm, base=0x5000_0000, ppn_start=0x110,
                           meta_ppn=0x210, thread_ppn=0x211)
    assert sm.peek_meta(handle).rtid == 1


def test_ecreate_pages_sharing_a_frame_have_no_side_effects(machine, sm):
    """Two region pages on one frame would seal the second over the first;
    they are refused before any line is sealed or a runtime id is spent."""
    with pytest.raises(BadHandle, match="share a frame"):
        spawn_enclave(machine, sm, ppn_overrides={1: 0x100})  # data on the code frame
    assert not machine.mee.written_lines()
    handle = spawn_enclave(machine, sm)
    assert sm.peek_meta(handle).rtid == 1


def test_ecreate_unmapped_page_has_no_side_effects(machine, sm):
    """Every region page is walked before the first one is sealed."""
    machine.map_page(PRV_S, "host", A_BASE, 0x100, "rxu", 0b10)
    machine.map_page(PRV_S, "host", A_BASE + 2 * PAGE_BYTES, 0x102, "rwu", 0b01)
    with pytest.raises(PageFault):
        sm.ecreate("host", std_image(), A_BASE, 1, 0x200, 0x201)
    assert not machine.mee.written_lines()
    machine.map_page(PRV_S, "host", DATA_VA, 0x101, "rwu", 0b01)
    assert sm.peek_meta(sm.ecreate("host", std_image(), A_BASE, 1, 0x200, 0x201)).rtid == 1


@pytest.mark.parametrize("layout", [
    dict(meta_ppn=-1), dict(meta_ppn=1 << 58), dict(thread_ppn=-1), dict(thread_ppn=1 << 58),
], ids=["negative-meta", "meta-past-line-range", "negative-thread", "thread-past-line-range"])
def test_ecreate_unaddressable_monitor_page_has_no_side_effects(machine, sm, layout):
    """A monitor page number the engine cannot address is a bad handle,
    refused before a runtime id is spent, a line sealed or the RNG drawn."""
    rng = machine.rng.getstate()
    with pytest.raises(BadHandle, match="not addressable"):
        spawn_enclave(machine, sm, **layout)
    assert (sm._rtid_next, machine.mee.seals) == (1, 0)
    assert machine.rng.getstate() == rng


def test_spawn_with_an_enclave_page_past_the_line_range_has_no_side_effects(machine, sm):
    """The OS cannot map an enclave page the engine cannot address, so the
    spawn fails at the mapping, before ``ecreate`` spends a runtime id or
    seals a line."""
    rng = machine.rng.getstate()
    with pytest.raises(ValueError, match="beyond the engine's range"):
        spawn_enclave(machine, sm, ppn_overrides={1: 1 << 58})
    assert (sm._rtid_next, machine.mee.seals) == (1, 0)
    assert machine.rng.getstate() == rng


@pytest.mark.parametrize("space", ["host-space-long-x", "\u00e9" * 9, "host\x00"],
                         ids=["17-bytes", "18-utf8-bytes", "nul"])
def test_a_host_space_the_metadata_page_cannot_hold_is_refused(machine, sm, space):
    """The metadata page keeps 16 bytes of host space and drops trailing
    NULs, so a longer name or one holding a NUL would send every later
    page-table walk to another space.  The spawn refuses it before the OS
    maps anything, and ``ecreate`` before a line is sealed or a runtime id
    spent, even with the region mapped in that space."""
    with pytest.raises(ValueError, match="host space"):
        spawn_enclave(machine, sm, space=space)
    assert machine.walk(space, A_BASE) is None
    for i, perms, rsw in [(0, "rxu", 0b10), (1, "rwu", 0b01), (2, "rwu", 0b01)]:
        machine.map_page(PRV_S, space, A_BASE + i * PAGE_BYTES, 0x100 + i, perms, rsw)
    machine.prv = PRV_U
    with pytest.raises(ValueError, match="host space"):
        sm.ecreate(space, std_image(), A_BASE, 1, 0x200, 0x201)
    assert not machine.mee.written_lines()
    assert sm._rtid_next == 1


def test_a_sixteen_byte_host_space_completes_a_swap_cycle(machine, sm):
    space = "host-space-16-by"
    assert len(space.encode()) == 16
    handle = spawn_enclave(machine, sm, space=space)
    assert sm.peek_meta(handle).host_space == space
    machine.prv = PRV_S
    sm.swap_in(handle, DATA_VA, sm.swap_out(handle, DATA_VA, temp_ppn=0x400))
    machine.prv = PRV_U
    sm.eenter(handle)
    assert machine.access(space, DATA_VA, READ, PRV_U, size=4) == bytes(4)


def _sealed_digests(m, monitor_ppns=(0x200, 0x201)):
    """SHA-256 over (line, ciphertext, tag) of every sealed line, split into
    the enclave's lines and the lines of its two monitor pages."""
    monitor = {p * LINES_PER_PAGE + i for p in monitor_ppns for i in range(LINES_PER_PAGE)}
    digests = [hashlib.sha256(), hashlib.sha256()]
    for i in m.mee.written_lines():
        digests[i in monitor].update(i.to_bytes(8, "little") + b"".join(m.mee.snapshot_line(i)))
    return digests[0].hexdigest(), digests[1].hexdigest()


def test_ecreate_ciphertext_golden():
    """Every sealed line of the standard enclave at seed 7, pinned: page
    initialization must stay bit-identical however it is implemented."""
    m = Machine(seed=7)
    spawn_enclave(m, SecurityMonitor(m))
    assert len(m.mee.written_lines()) == 5 * 64  # code, data, stack, metadata, thread
    enclave_pages, monitor_pages = _sealed_digests(m)
    assert enclave_pages == "247d02e260b2ed83e560aaa1386d596f56d91c461bf3e79665d2a2ef4c768bcc"
    assert monitor_pages == "03f897c151a90a7a6b9c09784b9a28719c778fa955e0c557125970a9b13b7d57"


def test_auth_handler_holds_the_monitor_weakly():
    """The machine's AUTH handler reaches the monitor while it lives and
    does not keep it alive: once it is dropped, faults get no disposition."""
    m = Machine(seed=7)
    sm = SecurityMonitor(m)
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rw")
    m.access("p", 0x1000, AccessKind.WRITE, PRV_S, data=b"x")
    m.phys_flip_bit(0x10 * LINES_PER_PAGE, 3)
    with pytest.raises(AuthenticationException) as info:
        m.access("p", 0x1000, AccessKind.READ, PRV_S)
    assert info.value.disposition is DispositionKind.RETRY_DENIED
    monitor = weakref.ref(sm)
    del sm, info
    assert monitor() is None
    with pytest.raises(AuthenticationException) as info:
        m.access("p", 0x1000, AccessKind.READ, PRV_S)
    assert info.value.disposition is None


def test_two_instances_share_code_color_not_rtid(machine, sm):
    h1 = spawn_enclave(machine, sm)
    h2 = spawn_enclave(machine, sm, base=0x5000_0000, ppn_start=0x110,
                       meta_ppn=0x210, thread_ppn=0x211)
    m1, m2 = sm.peek_meta(h1), sm.peek_meta(h2)
    assert m1.encid_full == m2.encid_full  # same binary, same identity
    assert m1.rtid != m2.rtid              # distinct instances


def test_rtid_monotonic_uniqueness(machine, sm):
    rtids = []
    for i in range(5):
        h = spawn_enclave(machine, sm, base=0x4000_0000 + i * 0x10_0000,
                          ppn_start=0x100 + 0x10 * i,
                          meta_ppn=0x300 + 2 * i, thread_ppn=0x301 + 2 * i)
        rtids.append(sm.peek_meta(h).rtid)
    assert len(set(rtids)) == 5
    assert rtids == sorted(rtids)


# --- enter / exit / interrupt ---------------------------------------------------


def test_enter_exit_register_discipline(enclave):
    """Host registers survive the excursion except the return-value pair."""
    m, sm, handle = enclave
    host_regs = [random.Random(1).randrange(2**32) for _ in range(32)]
    for i, v in enumerate(host_regs):
        m.set_reg(i, v)
    m.pc = 0x1234
    sm.eenter(handle, {10: 7, 11: 8})
    assert m.get_reg(10) == 7 and m.get_reg(12) == 0  # fresh file inside
    assert m.pc == A_BASE  # entry point
    m.set_reg(20, 0xEEEE)  # enclave scratch state
    sm.eexit({10: 0xAA, 11: 0xBB})
    diff = {i for i in range(32) if m.get_reg(i) != host_regs[i]}
    assert diff == {10, 11}
    assert (m.get_reg(10), m.get_reg(11)) == (0xAA, 0xBB)
    assert m.pc == 0x1234 + 4


def test_bad_register_index_fails_before_any_state_moves(enclave):
    m, sm, handle = enclave
    with pytest.raises(ValueError, match="register index"):
        sm.eenter(handle, {32: 1})
    assert sm.peek_meta(handle).state is EnclaveState.LOADED
    assert m.active_enclave is None and m.csr.msid0 == 0
    sm.eenter(handle, {5: 9})
    with pytest.raises(ValueError, match="register index"):
        sm.eexit({999: 1})
    assert m.active_enclave == handle and m.get_reg(5) == 9


def test_bad_register_value_fails_before_any_state_moves(enclave):
    """A value no register can hold is refused before the enclave CSRs are
    written: the host keeps its own range and sids, so its read of the
    enclave's code page still fails authentication."""
    m, sm, handle = enclave
    m.prv = PRV_U
    csrs = (m.csr.mrange, m.csr.msid0, m.csr.msid1)
    with pytest.raises(ValueError, match="not an integer"):
        sm.eenter(handle, {5: "x"})
    assert (m.csr.mrange, m.csr.msid0, m.csr.msid1) == csrs
    assert m.active_enclave is None and m.prv == PRV_U
    assert sm.peek_meta(handle).state is EnclaveState.LOADED
    with pytest.raises(AuthenticationException):
        m.access("host", A_BASE, READ, PRV_U, size=8)
    sm.eenter(handle, {5: 9})
    with pytest.raises(ValueError, match="not an integer"):
        sm.eexit({10: 1.5})
    assert m.active_enclave == handle and m.get_reg(5) == 9


def test_enter_wrong_states(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    with pytest.raises(WrongState):
        sm.eenter(handle)  # no nesting
    sm.eexit()
    with pytest.raises(NotInEnclave):
        sm.eexit()


def test_interrupt_wipes_registers_and_resumes(enclave):
    """The counter-loop check: computation survives interruption, the OS
    sees zeroed state in between."""
    m, sm, handle = enclave
    sm.eenter(handle)
    m.set_reg(5, 41)
    m.pc = A_BASE + 0x10
    sm.interrupt()
    assert all(m.get_reg(i) == 0 for i in range(32))  # wiped for the OS
    assert m.prv == PRV_S
    assert sm.peek_meta(handle).state is EnclaveState.INTERRUPTED
    assert sm.peek_thread(handle).saved.regs is not None
    m.prv = PRV_U
    sm.eenter(handle)  # resume
    assert m.get_reg(5) == 41 and m.pc == A_BASE + 0x10
    m.set_reg(5, m.get_reg(5) + 1)
    sm.eexit()
    assert sm.peek_thread(handle).saved.regs is None  # image only while interrupted


def test_a_resume_with_arguments_moves_nothing(enclave):
    """A resume continues the saved thread, so it takes no arguments: an
    eenter of an interrupted enclave with some is refused before any
    register, CSR, privilege or seal moves, and the enclave stays
    interrupted."""
    m, sm, handle = enclave
    sm.eenter(handle)
    m.set_reg(5, 41)
    sm.interrupt()
    m.prv = PRV_U

    def state():
        return (list(m.regs), m.pc, dataclasses.astuple(m.csr), m.prv, m.active_enclave,
                m.mee.written_lines(), m.mee.seals)

    before = state()
    with pytest.raises(WrongState):
        sm.eenter(handle, {5: 9, 6: 1})
    assert state() == before
    assert sm.peek_meta(handle).state is EnclaveState.INTERRUPTED
    sm.eenter(handle)
    assert (m.get_reg(5), m.get_reg(6)) == (41, 0)


def test_double_interrupt_rejected(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    sm.interrupt()
    with pytest.raises(NotInEnclave):
        sm.interrupt()


def test_enclave_csrs_reset_on_exit(enclave):
    m, sm, handle = enclave
    m.write_csr(PRV_U, "usid0", 0x9999)  # host value
    sm.eenter(handle)
    assert m.read_csr(PRV_U, "usid0") == 0  # shared memory starts disabled
    assert m.read_csr(PRV_M, "mrange").enabled
    m.write_csr(PRV_U, "usid0", 0x1111)
    sm.eexit()
    assert m.read_csr(PRV_U, "usid0") == 0x9999  # host value restored
    assert not m.read_csr(PRV_M, "mrange").enabled


def test_interrupt_preserves_enclave_usids_across_resume(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(0x6000_0000, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 42)
    sm.interrupt()
    m.prv = PRV_U
    sm.eenter(handle)
    assert m.read_csr(PRV_U, "usid0") == 42
    assert m.read_csr(PRV_U, "urange").base == 0x6000_0000


@pytest.mark.parametrize("caller_prv", [PRV_M, PRV_S, PRV_U], ids=["M", "S", "U"])
def test_an_exit_ends_at_the_privilege_the_entry_was_called_from(enclave, caller_prv):
    """The exit switches to the privilege ``eenter`` was called from, and
    nothing afterwards puts the enclave's U-mode back."""
    m, sm, handle = enclave
    m.prv = caller_prv
    sm.eenter(handle)
    assert m.prv == PRV_U
    sm.eexit()
    assert (m.prv, m.active_enclave) == (caller_prv, None)


@pytest.mark.parametrize("caller_prv", [PRV_M, PRV_S, PRV_U], ids=["M", "S", "U"])
def test_a_refused_call_leaves_the_privilege_as_it_was(enclave, caller_prv):
    """A call refused before it switches, from the host or from inside
    the enclave, ends at the caller's privilege."""
    m, sm, handle = enclave
    m.prv = caller_prv
    with pytest.raises(NotInEnclave):
        sm.eexit()
    assert m.prv == caller_prv
    sm.eenter(handle)
    m.prv = caller_prv
    with pytest.raises(MonitorTypeForbidden):
        sm.eprepare(0x5000_0000, PageType.MONITOR, RW)
    with pytest.raises(WrongState):
        sm.eenter(handle)
    assert (m.prv, m.active_enclave) == (caller_prv, handle)


def _interrupt(m, sm):
    sm.interrupt()


def _fault(m, sm):
    with pytest.raises(AuthenticationException):
        m.access("host", 0x9000_0000, READ, PRV_U, size=4)


def _tamper_then_interrupt(ppn):
    def leave(m, sm):
        m.phys_flip_bit(ppn * LINES_PER_PAGE + 5, 77)
        with pytest.raises(AuthenticationException):
            sm.interrupt()
    return leave


@pytest.mark.parametrize("leave,host_pc", [
    (_interrupt, 0x1234),
    (_fault, 0x1234),  # the first fault reaches the threshold of 1
    (_tamper_then_interrupt(0x201), 0x1234),  # thread page: terminated, host context kept
    (_tamper_then_interrupt(0x200), 0),  # metadata page: no host context to give back
], ids=["interrupt", "fault-threshold", "thread-page-tampered", "metadata-page-tampered"])
def test_the_host_never_reads_the_enclaves_pc(machine, leave, host_pc):
    """Leaving the enclave other than by ``eexit`` hands the host the pc it
    had at entry (0 with no verified metadata page), never the enclave's;
    a resume still continues at the enclave's own pc."""
    sm = SecurityMonitor(machine, fault_threshold=1)
    _os_bait_page(machine)
    handle = spawn_enclave(machine, sm)
    machine.pc = 0x1234
    sm.eenter(handle)
    machine.pc = A_BASE + 0x40
    leave(machine, sm)
    assert (machine.pc, machine.active_enclave) == (host_pc, None)
    if leave is _interrupt:
        machine.prv = PRV_U
        sm.eenter(handle)
        assert machine.pc == A_BASE + 0x40


# --- dynamic pages ----------------------------------------------------------------


def test_eprepare_regular_page(machine, sm):
    image = std_image()
    handle = spawn_enclave(machine, sm, image=image, stack_pages=2)
    va = A_BASE + 3 * PAGE_BYTES  # second stack page slot, re-purposed
    sm.eenter(handle)
    with pytest.raises(DoubleMap):
        sm.eprepare(va, PageType.REGULAR, RW)  # already owned (stack)
    sm.edestroy(va)
    sm.eprepare(va, PageType.REGULAR, RW)
    assert machine.access("host", va, READ, PRV_U, size=8) == bytes(8)
    machine.access("host", va, WRITE, PRV_U, data=b"dynamic")
    assert machine.access("host", va, READ, PRV_U, size=7) == b"dynamic"


def test_eprepare_monitor_forbidden(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    with pytest.raises(MonitorTypeForbidden):
        sm.eprepare(A_BASE + 0x3000, PageType.MONITOR, RW)


def test_eprepare_requires_enclave(enclave):
    m, sm, handle = enclave
    with pytest.raises(NotInEnclave):
        sm.eprepare(A_BASE + 0x3000, PageType.REGULAR, RW)


def test_eprepare_shm_range_rules(enclave):
    m, sm, handle = enclave
    shm_va = 0x6000_0000
    m.prv = PRV_S
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    m.prv = PRV_U
    sm.eenter(handle)
    with pytest.raises(RangeViolation):
        sm.eprepare(shm_va, PageType.SHM, RW)  # user range still disabled
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0xAB)
    sm.eprepare(shm_va, PageType.SHM, RW)
    assert m.access("host", shm_va, READ, PRV_U, size=4) == bytes(4)


def test_edestroy_then_reuse(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"doomed")
    sm.edestroy(DATA_VA)
    with pytest.raises(AuthenticationException):
        m.access("host", DATA_VA, READ, PRV_U, size=6)
    sm.eprepare(DATA_VA, PageType.REGULAR, RW)
    assert m.access("host", DATA_VA, READ, PRV_U, size=6) == bytes(6)


def test_edestroy_unowned(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    with pytest.raises(NotOwned):
        sm.edestroy(0x7777_0000)


# --- emod --------------------------------------------------------------------------


def test_emod_preserves_content_across_permission_change(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    payload = bytes(random.Random(3).randbytes(64))
    m.access("host", DATA_VA, WRITE, PRV_U, data=payload)
    sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW), PageCtx(PageType.REGULAR, RO))
    # the OS updates the mapping to match (benign flow after mprotect)
    sm.interrupt()
    m.map_page(PRV_S, "host", DATA_VA, 0x101, "ru", 0b01)
    m.prv = PRV_U
    sm.eenter(handle)
    assert m.access("host", DATA_VA, READ, PRV_U, size=64) == payload
    with pytest.raises(PageFault):
        m.access("host", DATA_VA, WRITE, PRV_U, data=b"x")


def test_emod_wrong_old_context(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"live")
    with pytest.raises(AuthenticationException):
        sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RO),  # wrong old perms
                PageCtx(PageType.REGULAR, RW))


def test_a_page_ctx_takes_its_sid_by_keyword_only():
    """A leftover third positional argument cannot become a sid."""
    with pytest.raises(TypeError):
        PageCtx(PageType.REGULAR, RO, 0b10)


SHM_VA = 0x6000_0000
STACK_VA = A_BASE + 2 * PAGE_BYTES
_REFUSED = (MonitorError, InvalidCombination)


def _monitor_state(m):
    """Everything a refused monitor call must leave as it was, but the
    engine's open count and the metadata page, checked apart."""
    return (m.mee.written_lines(), m.mee.seals, dataclasses.astuple(m.csr),
            list(m.regs), m.pc, m.prv, m.active_enclave, m.rng.getstate())


def _refused_with_nothing_moved(m, sm, handle, call, error=_REFUSED):
    """Run ``call``; if it raises ``error``, check that nothing moved and
    return True, else return False.  A refused call may have verified its
    metadata page, and no other page."""
    meta = sm.peek_meta(handle).pack()
    before, opens = _monitor_state(m), m.mee.opens
    try:
        call()
    except error:
        assert _monitor_state(m) == before
        assert m.mee.opens - opens in (0, LINES_PER_PAGE)
        assert sm.peek_meta(handle).pack() == meta
        return True
    return False


@pytest.mark.parametrize("perms", ["ru", "rwu", "rxu"])
@pytest.mark.parametrize("rsw", range(4))
@pytest.mark.parametrize("page_type", list(PageType), ids=lambda t: t.name)
def test_an_accepted_emod_context_is_one_the_enclave_can_read(enclave, page_type, rsw, perms):
    """A context ``emod`` accepts for the data page is one the running
    enclave can read the page under, exactly when the OS maps it with that
    context's perms and rsw ``ENCLAVE_RSW[page_type]``; under any other rsw
    the read traps.  A context ``emod`` does not accept is refused before
    anything moves."""
    m, sm, handle = enclave
    sm.eenter(handle)
    payload = random.Random(5).randbytes(64)
    m.access("host", DATA_VA, WRITE, PRV_U, data=payload)
    ctx = {c: c in perms for c in "rwxug"}
    if _refused_with_nothing_moved(m, sm, handle, lambda: sm.emod(
            DATA_VA, PageCtx(PageType.REGULAR, RW), PageCtx(page_type, ctx))):
        return
    sm.interrupt()
    m.map_page(PRV_S, "host", DATA_VA, m.walk("host", DATA_VA).ppn, perms, rsw)
    m.prv = PRV_U
    sm.eenter(handle)
    if rsw == ENCLAVE_RSW[page_type]:
        assert m.access("host", DATA_VA, READ, PRV_U, size=64) == payload
    else:
        with pytest.raises(Trap):
            m.access("host", DATA_VA, READ, PRV_U, size=64)


@pytest.mark.parametrize("perms", ["ru", "rwu", "rxu"])
@pytest.mark.parametrize("rsw", range(4))
def test_an_accepted_shared_context_is_one_the_enclave_can_read(enclave, rsw, perms):
    """The same for a shared page ``eprepare`` zero-fills under an enabled
    user range: once accepted, the enclave reads the zeros exactly when the
    OS maps the page with rsw 11, and traps under any other."""
    m, sm, handle = enclave
    m.map_page(PRV_S, "host", SHM_VA, 0x180, perms, rsw)
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(SHM_VA, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0xAB)
    ctx = {c: c in perms for c in "rwxug"}
    if _refused_with_nothing_moved(
            m, sm, handle, lambda: sm.eprepare(SHM_VA, PageType.SHM, ctx)):
        return
    if rsw == ENCLAVE_RSW[PageType.SHM]:
        assert m.access("host", SHM_VA, READ, PRV_U, size=64) == bytes(64)
    else:
        with pytest.raises(Trap):
            m.access("host", SHM_VA, READ, PRV_U, size=64)


def _shm(perms=RW, sid=None):
    return PageCtx(PageType.SHM, perms, sid=sid)


_OVER_MRANGE = RangeReg(A_BASE, 3 * PAGE_BYTES, True)


@pytest.mark.parametrize("urange, call, error", [
    pytest.param(None, lambda sm: sm.emod(0x7777_0000, PageCtx(PageType.REGULAR, RW),
                                          PageCtx(PageType.REGULAR, RO)),
                 RangeViolation, id="emod-outside-mrange"),
    pytest.param(None, lambda sm: sm.eprepare(0x7777_0000, PageType.REGULAR, RW),
                 RangeViolation, id="eprepare-outside-mrange"),
    pytest.param(None, lambda sm: sm.emod(SHM_VA + PAGE_BYTES, _shm(), _shm(RO)),
                 RangeViolation, id="emod-shm-outside-urange"),
    pytest.param(None, lambda sm: sm.eprepare(SHM_VA + PAGE_BYTES, PageType.SHM, RW),
                 RangeViolation, id="eprepare-shm-outside-urange"),
    pytest.param(_OVER_MRANGE, lambda sm: sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW),
                                                  _shm()),
                 RangeViolation, id="emod-shm-aliases-mrange"),
    pytest.param(_OVER_MRANGE, lambda sm: sm.eprepare(STACK_VA, PageType.SHM, RW),
                 RangeViolation, id="eprepare-shm-aliases-mrange"),
    pytest.param(None, lambda sm: sm.emod(SHM_VA, _shm(), _shm(sid=-1)),
                 ValueError, id="emod-sid-negative"),
    pytest.param(None, lambda sm: sm.emod(SHM_VA, _shm(), _shm(sid=1 << 80)),
                 ValueError, id="emod-sid-past-80-bits"),
])
def test_a_refused_page_call_moves_nothing(enclave, urange, call, error):
    """``emod`` and ``eprepare`` refuse a bad context or address before any
    line, counter, CSR, register, privilege, random draw or metadata record
    moves.  The enclave owns a written data page and a shared page, and its
    stack page is free."""
    m, sm, handle = enclave
    m.map_page(PRV_S, "host", SHM_VA, 0x180, "rwu", 0b11)
    sm.eenter(handle)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"live")
    sm.edestroy(STACK_VA)
    shm_range = RangeReg(SHM_VA, PAGE_BYTES, True)
    m.write_csr(PRV_U, "urange", shm_range)
    m.write_csr(PRV_U, "usid0", 0xAB)
    sm.eprepare(SHM_VA, PageType.SHM, RW)
    m.write_csr(PRV_U, "urange", urange or shm_range)
    assert _refused_with_nothing_moved(m, sm, handle, lambda: call(sm), error)
    m.write_csr(PRV_U, "urange", shm_range)
    assert m.access("host", DATA_VA, READ, PRV_U, size=4) == b"live"


def test_emod_rekeys_shared_page(enclave):
    m, sm, handle = enclave
    shm_va = 0x6000_0000
    m.prv = PRV_S
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    m.prv = PRV_U
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0xAAAA)
    sm.eprepare(shm_va, PageType.SHM, RW)
    m.access("host", shm_va, WRITE, PRV_U, data=b"keyed")
    sm.emod(shm_va, PageCtx(PageType.SHM, RW, sid=0xAAAA),
            PageCtx(PageType.SHM, RW, sid=0xBBBB))
    with pytest.raises(AuthenticationException):
        m.access("host", shm_va, READ, PRV_U, size=5)  # old key in the CSRs
    m.write_csr(PRV_U, "usid0", 0xBBBB)
    assert m.access("host", shm_va, READ, PRV_U, size=5) == b"keyed"


# --- sealing ----------------------------------------------------------------------


def test_sealing_key_determinism_and_avalanche(machine, sm):
    h1 = spawn_enclave(machine, sm)
    sm.eenter(h1)
    k1 = sm.egetsealkey()
    sm.eexit()
    h2 = spawn_enclave(machine, sm, base=0x5000_0000, ppn_start=0x110,
                       meta_ppn=0x210, thread_ppn=0x211)
    sm.eenter(h2)
    k2 = sm.egetsealkey()
    sm.eexit()
    assert k1 == k2  # same image, same machine

    changed = std_image(fill=bytes.fromhex("1300000093080001"))
    h3 = spawn_enclave(machine, sm, image=changed, base=0x6000_0000,
                       ppn_start=0x120, meta_ppn=0x220, thread_ppn=0x221)
    sm.eenter(h3)
    k3 = sm.egetsealkey()
    assert k3 != k1  # one image byte flips the key

    other_machine = Machine(seed=1000)
    other_sm = SecurityMonitor(other_machine)
    h4 = spawn_enclave(other_machine, other_sm)
    other_sm.eenter(h4)
    assert other_sm.egetsealkey() != k1  # per-CPU key enters the derivation


def test_truncated_encid_derivation(machine, sm):
    a = sm.derive_truncated_encid(b"\x01" * 32)
    assert 0 <= a < 1 << 80
    assert a == sm.derive_truncated_encid(b"\x01" * 32)
    assert a != sm.derive_truncated_encid(b"\x02" * 32)
    other = SecurityMonitor(Machine(seed=1001))
    assert other.derive_truncated_encid(b"\x01" * 32) != a


# --- swapping ----------------------------------------------------------------------


@pytest.mark.parametrize("temp_ppn", [-1, 1 << 36, 1 << 58],
                         ids=["negative", "voffset-past-its-field", "past-line-range"])
def test_swap_out_unaddressable_temp_page_has_no_side_effects(enclave, temp_ppn):
    """The temporary page is checked before the page is read, the nonce is
    drawn or anything is sealed."""
    m, sm, handle = enclave
    m.prv = PRV_S
    rng, rtid, seals = m.rng.getstate(), sm._rtid_next, m.mee.seals
    with pytest.raises(BadHandle, match="temporary page"):
        sm.swap_out(handle, DATA_VA, temp_ppn)
    assert (sm._rtid_next, m.mee.seals) == (rtid, seals)
    assert m.rng.getstate() == rng
    assert not sm.peek_meta(handle).swaps


def test_swap_roundtrip_preserves_content(enclave):
    m, sm, handle = enclave
    sm.eenter(handle)
    payload = bytes(random.Random(9).randbytes(64))
    m.access("host", DATA_VA, WRITE, PRV_U, data=payload)
    sm.eexit()
    m.prv = PRV_S
    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    assert len(sealed) == PAGE_BYTES
    with pytest.raises(NotOwned):
        sm.swap_out(handle, DATA_VA, temp_ppn=0x400)  # one live version only
    sm.swap_in(handle, DATA_VA, sealed)
    m.prv = PRV_U
    sm.eenter(handle)
    assert m.access("host", DATA_VA, READ, PRV_U, size=64) == payload


def test_swap_records_do_not_accumulate(machine, sm):
    """A swapped-in page leaves no record behind, so 41 distinct pages can
    each make the round trip (the metadata page holds 40 records)."""
    handle = spawn_enclave(machine, sm, image=std_image(n_data=40))
    vas = [A_BASE + i * PAGE_BYTES for i in range(1, 42)]  # 40 data + stack
    machine.prv = PRV_S
    for va in vas:
        sealed = sm.swap_out(handle, va, temp_ppn=0x400)
        sm.swap_in(handle, va, sealed)
    meta = sm.peek_meta(handle)
    assert meta.swaps == {}
    assert len(meta.owned) == 42


def test_swap_out_past_the_swap_records_keeps_the_page(machine, sm):
    """The 41st swap record does not fit the metadata page: that swap-out is
    refused before the page is read, a nonce drawn or a line sealed, and the
    enclave still reads the page it would have lost."""
    handle = spawn_enclave(machine, sm, image=std_image(n_data=40))
    stack_va = A_BASE + 41 * PAGE_BYTES
    sm.eenter(handle)
    machine.access("host", stack_va, WRITE, PRV_U, data=b"kept")
    sm.eexit()
    machine.prv = PRV_S
    for i in range(1, 41):
        sm.swap_out(handle, A_BASE + i * PAGE_BYTES, temp_ppn=0x400)
    lines, rng = machine.mee.written_lines(), machine.rng.getstate()
    with pytest.raises(MonitorCapacity):
        sm.swap_out(handle, stack_va, temp_ppn=0x400)
    assert machine.mee.written_lines() == lines
    assert machine.rng.getstate() == rng
    assert len(sm.peek_meta(handle).swaps) == 40
    machine.prv = PRV_U
    sm.eenter(handle)
    assert machine.access("host", stack_va, READ, PRV_U, size=4) == b"kept"
    assert sm.peek_meta(handle).fault_count == 0


def test_eprepare_past_the_owned_pages_seals_nothing(machine, sm):
    """Preparing a 65th page is refused before its frame is sealed."""
    handle = spawn_enclave(machine, sm, image=std_image(n_data=62))  # 64 pages
    shm_va = 0x6000_0000
    machine.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    sm.eenter(handle)
    machine.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    lines = machine.mee.written_lines()
    with pytest.raises(MonitorCapacity):
        sm.eprepare(shm_va, PageType.SHM, RW)
    assert machine.mee.written_lines() == lines
    assert shm_va not in sm.peek_meta(handle).owned


def test_swap_in_past_the_owned_pages_writes_nothing(machine, sm):
    """A page swapped out of a full enclave cannot come back once the
    enclave has prepared another in its place; the refusal leaves the frame
    and the swap record as they were, so it comes back once there is room."""
    handle = spawn_enclave(machine, sm, image=std_image(n_data=62))
    machine.prv = PRV_S
    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    shm_va = 0x6000_0000
    machine.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    machine.prv = PRV_U
    sm.eenter(handle)
    machine.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    sm.eprepare(shm_va, PageType.SHM, RW)
    sm.eexit()
    machine.prv = PRV_S
    lines = machine.mee.written_lines()
    with pytest.raises(MonitorCapacity):
        sm.swap_in(handle, DATA_VA, sealed)
    assert machine.mee.written_lines() == lines
    assert DATA_VA in sm.peek_meta(handle).swaps
    machine.prv = PRV_U
    sm.eenter(handle)
    sm.edestroy(shm_va)
    sm.eexit()
    machine.prv = PRV_S
    sm.swap_in(handle, DATA_VA, sealed)
    assert len(sm.peek_meta(handle).owned) == 64


def test_eprepare_refuses_swapped_out_page(enclave):
    """A swapped-out page is still the enclave's: preparing its va anew is a
    double mapping, and the swap-in that follows restores the one page."""
    m, sm, handle = enclave
    sm.eenter(handle)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"kept")
    sm.eexit()
    m.prv = PRV_S
    n_owned = len(sm.peek_meta(handle).owned)
    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    m.prv = PRV_U
    sm.eenter(handle)
    with pytest.raises(DoubleMap):
        sm.eprepare(DATA_VA, PageType.REGULAR, RW)
    sm.eexit()
    m.prv = PRV_S
    sm.swap_in(handle, DATA_VA, sealed)
    assert len(sm.peek_meta(handle).owned) == n_owned
    m.prv = PRV_U
    sm.eenter(handle)
    assert m.access("host", DATA_VA, READ, PRV_U, size=4) == b"kept"


def test_monitor_pages_round_trip_every_field():
    """Each monitor page's fixed part is one struct: every field written is
    read back, saved registers present or not."""
    meta = EnclaveMeta(
        EnclaveState.INTERRUPTED, 7, bytes(range(32)), A_BASE + 0x40,
        RangeReg(A_BASE, 3 * PAGE_BYTES, True), "host", fault_count=2, caller_prv=PRV_S,
        host=UserCtx(0x1234, list(range(100, 132)), RangeReg(0x6000_0000, PAGE_BYTES, True),
                     5, 1 << 63),
        owned={A_BASE: PageCtx(PageType.SHENCLAVE, {**RO, "x": True})},
        swaps={DATA_VA: SwapRecord(PageCtx(PageType.REGULAR, RW), bytes(range(12)), bytes(16))})
    assert EnclaveMeta.unpack(meta.pack()) == meta
    for regs in (None, list(range(32))):
        thread = ThreadMeta(UserCtx(0x99, regs, RangeReg(64, 128, True), 3, 4))
        assert ThreadMeta.unpack(thread.pack()) == thread


def test_monitor_pages_pack_golden():
    """SHA-256 of both monitor pages' bytes for fully populated records:
    owned pages of all three types (one re-typed by emod, one destroyed),
    two swap records, a fault count, a non-default host context, and a
    resumed thread whose registers are cleared while its saved pc, user
    range and sids stay.  The records come from the monitor's own calls,
    so their Python shape may change; the bytes they pack to may not."""
    m = Machine(seed=7)
    sm = SecurityMonitor(m, fault_threshold=5)
    handle = spawn_enclave(m, sm, image=std_image(n_data=3))
    shm_va, stack_va = 0x6000_0000, A_BASE + 4 * PAGE_BYTES
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    m.prv = PRV_S
    for va in (A_BASE + 2 * PAGE_BYTES, A_BASE + 3 * PAGE_BYTES):
        sm.swap_out(handle, va, temp_ppn=0x400)
    m.prv = PRV_U
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0x0123_4567_89AB_CDEF)
    m.write_csr(PRV_U, "usid1", 0xFEDC)
    sm.eprepare(shm_va, PageType.SHM, RW)
    sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW), PageCtx(PageType.REGULAR, RO))
    sm.edestroy(stack_va)
    with pytest.raises(AuthenticationException):
        m.access("host", stack_va, READ, PRV_U, size=8)
    m.set_reg(5, 41)
    m.pc = A_BASE + 0x10
    sm.interrupt()
    for i in range(1, 32):
        m.set_reg(i, 0x1000_0000 + i)
    m.pc = 0x9000
    m.write_csr(PRV_S, "urange", RangeReg(0x7000_0000, 2 * PAGE_BYTES, True))
    m.write_csr(PRV_S, "usid0", 0x55)
    m.write_csr(PRV_S, "usid1", 1 << 63)
    sm.eenter(handle)  # resume, called from S-mode
    meta, thread = sm.peek_meta(handle).pack(), sm.peek_thread(handle).pack()
    assert (hashlib.sha256(meta).hexdigest(), hashlib.sha256(thread).hexdigest()) == (
        "22f248f7c99499ef525a9a37fa3bccc67127c3d13928f4fd64a9655caad90ee3",
        "1893576400a66403ffa8827bc61f52ff736d09ffba516fc1425509495a00dbac")


def test_swap_temp_page_readable_by_os(enclave):
    """The sealed bytes land under the OS identity-mapping tweak."""
    m, sm, handle = enclave
    m.prv = PRV_S
    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    m.map_page(PRV_S, "os", 0x400 * PAGE_BYTES, 0x400, "rw")
    got = b"".join(
        m.access("os", 0x400 * PAGE_BYTES + i, READ, PRV_S, size=64)
        for i in range(0, PAGE_BYTES, 64)
    )
    assert got == sealed


def test_swap_replay_rejected(enclave):
    m, sm, handle = enclave
    m.prv = PRV_S
    first = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    sm.swap_in(handle, DATA_VA, first)
    second = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    assert first != second  # fresh nonce every cycle
    with pytest.raises(SwapAuthFailure):
        sm.swap_in(handle, DATA_VA, first)  # the roll-back attack
    sm.swap_in(handle, DATA_VA, second)


def test_swap_in_without_record(enclave):
    m, sm, handle = enclave
    with pytest.raises(NoRecord):
        sm.swap_in(handle, DATA_VA, bytes(PAGE_BYTES))


def test_swap_tampered_sealed_page(enclave):
    m, sm, handle = enclave
    sealed = bytearray(sm.swap_out(handle, DATA_VA, temp_ppn=0x400))
    sealed[17] ^= 0x40
    with pytest.raises(SwapAuthFailure):
        sm.swap_in(handle, DATA_VA, bytes(sealed))


def test_shm_pages_not_swappable(enclave):
    m, sm, handle = enclave
    shm_va = 0x6000_0000
    m.prv = PRV_S
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    m.prv = PRV_U
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 1)
    sm.eprepare(shm_va, PageType.SHM, RW)
    sm.eexit()
    m.prv = PRV_S
    with pytest.raises(TypeNotSwappable):
        sm.swap_out(handle, shm_va, temp_ppn=0x400)


def test_swapped_page_access_is_not_penalized(enclave):
    """Faults on swapped-out pages are the demand-swap flow, not attacks."""
    m, sm, handle = enclave
    m.prv = PRV_S
    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    m.prv = PRV_U
    sm.eenter(handle)
    for _ in range(5):  # more than the fault threshold
        with pytest.raises(AuthenticationException) as exc_info:
            m.access("host", DATA_VA, READ, PRV_U, size=4)
        assert exc_info.value.disposition is DispositionKind.RETRY_DENIED
    assert sm.peek_meta(handle).fault_count == 0
    sm.interrupt()
    sm.swap_in(handle, DATA_VA, sealed)
    m.prv = PRV_U
    sm.eenter(handle)
    assert m.access("host", DATA_VA, READ, PRV_U, size=4) == bytes(4)


# --- fault rate limiting ------------------------------------------------------------


def _os_bait_page(machine, va=0x9000_0000, ppn=0x900):
    """Map a page holding S-mode data: any U-mode probe of it faults."""
    machine.map_page(PRV_S, "host", va, ppn, "rwu")
    machine.access("host", va, WRITE, PRV_S, data=b"os-owned-data!!!")


def test_fault_threshold_terminates(machine):
    sm = SecurityMonitor(machine, fault_threshold=3)
    _os_bait_page(machine)
    handle = spawn_enclave(machine, sm)
    sm.eenter(handle)
    machine.set_reg(10, 0x5A5A)
    machine.prv = PRV_U
    for strike in range(1, 4):
        with pytest.raises(AuthenticationException) as exc_info:
            machine.access("host", 0x9000_0000, READ, PRV_U, size=4)
        if strike < 3:
            assert exc_info.value.disposition is DispositionKind.RETRY_DENIED
            assert sm.peek_meta(handle).fault_count == strike
        else:
            assert exc_info.value.disposition is DispositionKind.ENCLAVE_TERMINATED
    assert sm.peek_meta(handle).state is EnclaveState.TERMINATED
    assert all(machine.get_reg(i) == 0 for i in range(32))  # wiped on kill
    assert machine.active_enclave is None
    with pytest.raises(WrongState):
        machine.prv = PRV_U
        sm.eenter(handle)


@pytest.mark.parametrize("threshold", [0, -1])
def test_a_fault_threshold_below_one_is_refused(machine, threshold):
    with pytest.raises(ValueError, match="fault_threshold must be at least 1"):
        SecurityMonitor(machine, fault_threshold=threshold)


def test_fault_outside_enclave_only_denies(machine, sm):
    machine.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    machine.access("p", 0x1000, WRITE, PRV_S, data=b"s")
    with pytest.raises(AuthenticationException) as exc_info:
        machine.access("p", 0x1000, READ, PRV_U, size=1)
    assert exc_info.value.disposition is DispositionKind.RETRY_DENIED


def test_fresh_create_starts_with_clean_counter(machine):
    sm = SecurityMonitor(machine, fault_threshold=3)
    _os_bait_page(machine)
    handle = spawn_enclave(machine, sm)
    sm.eenter(handle)
    machine.prv = PRV_U
    for _ in range(2):
        with pytest.raises(AuthenticationException):
            machine.access("host", 0x9000_0000, READ, PRV_U, size=4)
    assert sm.peek_meta(handle).fault_count == 2
    sm.eexit()
    fresh = spawn_enclave(machine, sm, base=0x5000_0000, ppn_start=0x110,
                          meta_ppn=0x210, thread_ppn=0x211)
    assert sm.peek_meta(fresh).fault_count == 0


# --- statelessness -------------------------------------------------------------------


def test_monitor_state_lives_in_monitor_pages(machine, sm):
    """Destroying the monitor pages erases the enclave: the monitor itself
    holds nothing but the rtid counter."""
    handle = spawn_enclave(machine, sm)
    for line in range(0x200 * 64, 0x202 * 64):
        machine.mee.destroy(line)
    machine.prv = PRV_U
    with pytest.raises(AuthenticationException):
        sm.eenter(handle)


def _two_enclaves(interrupted: bool):
    """A (monitor pages 0x200/0x201) and B (0x210/0x211) at seed 7, never
    entered or both interrupted; an interrupted A left x5 and usid0 set."""
    m = Machine(seed=7)
    sm = SecurityMonitor(m)
    ha = spawn_enclave(m, sm)
    hb = spawn_enclave(m, sm, base=0x5000_0000, ppn_start=0x110,
                       meta_ppn=0x210, thread_ppn=0x211)
    if interrupted:
        sm.eenter(ha)
        m.set_reg(5, 0xDEAD)
        m.write_csr(PRV_U, "usid0", 0x1234)
        sm.interrupt()
        sm.eenter(hb)
        sm.interrupt()
    return m, sm, ha, hb


@pytest.mark.parametrize("rtid_of, pairing, state", [
    pytest.param(rtid_of, pairing, state,
                 id=f"{rtid_of}-{pairing}" + ("-loaded" if state == "loaded" else ""))
    for state in ("interrupted", "loaded") for rtid_of in ("meta", "thread")
    for pairing in ("A-meta+B-thread", "B-meta+A-thread")])
def test_monitor_pages_of_two_enclaves_do_not_mix(rtid_of, pairing, state):
    """A handle made of one enclave's metadata page and another's thread
    page fails authentication at the first page sealed for the other
    enclave, whichever rtid it carries, and nothing moves: the host never
    runs one enclave with the other's registers or session id.  A fresh
    start reads nothing of the thread page, and is refused all the same."""
    m, sm, ha, hb = _two_enclaves(state == "interrupted")
    meta_of, thread_of = (ha, hb) if pairing == "A-meta+B-thread" else (hb, ha)
    if rtid_of == "meta":
        mixed = dataclasses.replace(meta_of, thread_ppn=thread_of.thread_ppn)
    else:
        mixed = dataclasses.replace(thread_of, meta_ppn=meta_of.meta_ppn)
    pages = [(sm.peek_meta(h).pack(), sm.peek_thread(h).pack()) for h in (ha, hb)]
    before = _monitor_state(m)
    with pytest.raises(AuthenticationException):
        sm.eenter(mixed)
    assert _monitor_state(m) == before and m.active_enclave is None
    assert [(sm.peek_meta(h).pack(), sm.peek_thread(h).pack()) for h in (ha, hb)] == pages
    if state == "loaded":  # both enclaves still start at their own entry
        for h in (hb, ha):
            sm.eenter(h)
            meta = sm.peek_meta(h)
            assert (m.pc, m.csr.msid0) == (meta.entry_point, meta.rtid)
            sm.eexit()
        return
    # both enclaves still resume with their own state
    sm.eenter(hb)
    assert (m.get_reg(5), m.csr.usid0, m.csr.msid0) == (0, 0, sm.peek_meta(hb).rtid)
    sm.interrupt()
    sm.eenter(ha)
    assert (m.get_reg(5), m.csr.usid0, m.csr.msid0) == (0xDEAD, 0x1234, sm.peek_meta(ha).rtid)


def test_interrupted_enclave_without_saved_registers_is_wrong_state(enclave):
    """Metadata that says INTERRUPTED over a thread page with no saved
    registers is a monitor error, raised before any state moves."""
    m, sm, handle = enclave
    sm.eenter(handle)
    sm.interrupt()
    with sm._monitor_call():
        sm._store_thread(handle, ThreadMeta())
    with pytest.raises(WrongState):
        sm.eenter(handle)
    assert m.active_enclave is None and m.csr.msid0 == 0


def test_monitor_page_zero_garbage_is_bad_handle(machine, sm):
    from servas_sim.monitor import BadHandle, EnclaveHandle

    with pytest.raises(BadHandle):
        sm.eenter(EnclaveHandle(0x700, 0x701))  # fresh pages parse as zeros


def test_os_cannot_read_monitor_pages(enclave):
    m, sm, handle = enclave
    m.prv = PRV_S
    m.map_page(PRV_S, "os", 0x200 * PAGE_BYTES, 0x200, "rw")
    with pytest.raises(AuthenticationException):
        m.access("os", 0x200 * PAGE_BYTES, READ, PRV_S, size=8)


def test_tampered_monitor_page_detected(enclave):
    m, sm, handle = enclave
    m.phys_flip_bit(0x200 * 64, 12, "ciphertext")
    m.prv = PRV_U
    with pytest.raises(AuthenticationException):
        sm.eenter(handle)


@pytest.mark.parametrize("ppn", [0x200, 0x201], ids=["metadata", "thread"])
def test_every_monitor_line_is_reverified(enclave, ppn):
    """Stores re-seal only changed lines, but loads verify all 64: a bit
    flipped in any one line of either monitor page stops the next call."""
    m, sm, handle = enclave
    m.prv = PRV_U
    for i in range(64):
        line, bit = ppn * 64 + i, (37 * i) % 512
        m.phys_flip_bit(line, bit)
        with pytest.raises(AuthenticationException):
            sm.eenter(handle)
        m.phys_flip_bit(line, bit)  # undo, then move the state on
        sm.eenter(handle)
        sm.eexit()


def _trap_after_a_flip(cache_cfg, ppn: int, line: int, while_running: bool):
    """The standard world at seed 7, warmed by one entry and exit (the
    monitor keeps both pages' records; with the cache on, their lines are
    cached), then line ``line`` of monitor page ``ppn`` flipped in DRAM
    between two calls: between the exit and the next entry, or, with
    ``while_running``, between that entry and its exit.  Returns the AUTH
    trap's (line, va, tweak) of the call after the flip."""
    m = Machine(seed=7, cache_cfg=cache_cfg)
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    m.prv = PRV_U
    sm.eenter(handle)
    sm.eexit()
    target = ppn * LINES_PER_PAGE + line
    if cache_cfg == CacheCfg(512, 4):  # the flip must pass a cached copy
        assert any(target in ways for ways in m.cache.sets)
    if while_running:
        sm.eenter(handle)
    m.phys_flip_bit(target, 77)
    with pytest.raises(AuthenticationException) as info:
        sm.eexit() if while_running else sm.eenter(handle)
    return info.value.line_index, info.value.va, info.value.sw.to_int()


@pytest.mark.parametrize("ppn, line, while_running", [
    (0x200, 1, False), (0x200, 37, False), (0x201, 5, False), (0x201, 63, False),
    (0x200, 1, True), (0x200, 63, True)],
    ids=["metadata-1", "metadata-37", "thread-5", "thread-63",
         "metadata-1-running", "metadata-63-running"])
def test_a_monitor_line_flipped_between_two_calls_is_an_auth_trap(ppn, line, while_running):
    """Neither the monitor's kept page record nor a cached copy of the line
    vouches for a monitor line flipped in DRAM between two calls: the next
    call that reads the page fails authentication on that line, at its
    address, under the page's tweak stepped to it, with the cache off, on
    (512 x 4) and evicting (8 x 2) alike."""
    traps = {cfg: _trap_after_a_flip(cfg, ppn, line, while_running)
             for cfg in (None, CacheCfg(512, 4), CacheCfg(8, 2))}
    off = traps[None]
    assert off[:2] == (ppn * LINES_PER_PAGE + line, ppn * PAGE_BYTES + line * 64)
    assert traps == dict.fromkeys(traps, off)
    first_line = _trap_after_a_flip(None, ppn, 0, while_running)[2]
    assert off[2] == first_line + (line << VOFFSET_SHIFT)


def test_a_tampered_thread_page_stops_the_next_call_that_reads_it(enclave):
    """``eexit`` reads only the metadata page, so a thread-page line flipped
    while the enclave runs does not keep the host out: the exit completes
    with no enclave active.  The next entry reads the page, fails
    authentication and moves nothing."""
    m, sm, handle = enclave
    caller_prv = m.prv
    sm.eenter(handle)
    m.phys_flip_bit(0x201 * LINES_PER_PAGE + 5, 77)
    sm.eexit()
    assert (m.active_enclave, m.prv, m.csr.msid0) == (None, caller_prv, 0)
    assert sm.peek_meta(handle).state is EnclaveState.LOADED
    before = _monitor_state(m)
    with pytest.raises(AuthenticationException):
        sm.eenter(handle)
    assert _monitor_state(m) == before


def test_an_interrupt_on_a_tampered_thread_page_still_returns_to_the_host(enclave):
    """An interrupt cannot park the enclave in a thread page that fails
    authentication.  The AUTH trap propagates, but the OS still gets
    control: the registers are wiped, the host's user range and sids are
    back, the privilege is S, no enclave is active, and the enclave is
    stored as terminated, so it is never resumed."""
    m, sm, handle = enclave
    m.write_csr(PRV_S, "usid0", 0x5EED)
    sm.eenter(handle)
    m.set_reg(5, 41)
    m.write_csr(PRV_U, "usid0", 0xE0C1)
    m.phys_flip_bit(0x201 * LINES_PER_PAGE + 5, 77)
    with pytest.raises(AuthenticationException) as info:
        sm.interrupt()
    assert info.value.line_index == 0x201 * LINES_PER_PAGE + 5
    assert all(m.get_reg(i) == 0 for i in range(32))
    assert (m.active_enclave, m.prv) == (None, PRV_S)
    assert (m.csr.mrange, m.csr.msid0, m.csr.msid1, m.csr.usid0) == (RangeReg(), 0, 0, 0x5EED)
    assert sm.peek_meta(handle).state is EnclaveState.TERMINATED
    with pytest.raises(AuthenticationException):
        sm.eenter(handle)
    m.phys_flip_bit(0x201 * LINES_PER_PAGE + 5, 77)  # even with the page put back
    with pytest.raises(WrongState):
        sm.eenter(handle)


def test_a_termination_on_a_tampered_thread_page_still_terminates(machine):
    """The fault that reaches the threshold terminates the enclave even
    when its thread page fails authentication: the enclave's own fault is
    the trap raised, with the terminating disposition, and the OS gets
    control back."""
    sm = SecurityMonitor(machine, fault_threshold=1)
    _os_bait_page(machine)
    handle = spawn_enclave(machine, sm)
    sm.eenter(handle)
    machine.set_reg(10, 0x5A5A)
    machine.phys_flip_bit(0x201 * LINES_PER_PAGE + 5, 77)
    with pytest.raises(AuthenticationException) as info:
        machine.access("host", 0x9000_0000, READ, PRV_U, size=4)
    assert info.value.va == 0x9000_0000
    assert info.value.disposition is DispositionKind.ENCLAVE_TERMINATED
    assert all(machine.get_reg(i) == 0 for i in range(32))
    assert (machine.active_enclave, machine.prv, machine.csr.msid0) == (None, PRV_S, 0)
    assert sm.peek_meta(handle).state is EnclaveState.TERMINATED


def _faulting_read(m, sm):
    m.access("host", 0x9000_0000, READ, PRV_U, size=4)


# every call made from inside a running enclave, a faulting read standing in
# for the authentication-fault handler
_IN_ENCLAVE_CALLS = {
    "eexit": lambda m, sm: sm.eexit(),
    "interrupt": lambda m, sm: sm.interrupt(),
    "eprepare": lambda m, sm: sm.eprepare(A_BASE + 3 * PAGE_BYTES, PageType.REGULAR, RW),
    "edestroy": lambda m, sm: sm.edestroy(DATA_VA),
    "emod": lambda m, sm: sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW),
                                  PageCtx(PageType.REGULAR, RO)),
    "egetsealkey": lambda m, sm: sm.egetsealkey(),
    "handle_auth_fault": _faulting_read,
}


@pytest.mark.parametrize("call", _IN_ENCLAVE_CALLS.values(), ids=_IN_ENCLAVE_CALLS)
def test_a_call_on_a_tampered_metadata_page_fails_closed(enclave, call):
    """A bit flipped in the running enclave's metadata page leaves no host
    context to give back, so every call from inside the enclave fails
    closed: the AUTH trap propagates (a fault's own trap, terminating at
    its first strike, as the fault count cannot be read), the registers
    are zero, no enclave is active, the privilege is S, and no range or sid
    is left set.  The host's next entry fails on the page too."""
    m, sm, handle = enclave
    _os_bait_page(m)
    m.write_csr(PRV_S, "usid0", 0x5EED)
    sm.eenter(handle)
    m.set_reg(5, 41)
    m.write_csr(PRV_U, "urange", RangeReg(0x6000_0000, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0xE0C1)
    m.write_csr(PRV_U, "usid1", 0xE0C2)
    m.phys_flip_bit(handle.meta_ppn * LINES_PER_PAGE + 3, 5)
    with pytest.raises(AuthenticationException) as info:
        call(m, sm)
    if call is _faulting_read:
        assert info.value.va == 0x9000_0000
        assert info.value.disposition is DispositionKind.ENCLAVE_TERMINATED
    assert (m.active_enclave, m.prv) == (None, PRV_S)
    assert not m.csr.mrange.enabled and not m.csr.urange.enabled
    assert (m.csr.msid0, m.csr.msid1, m.csr.usid0, m.csr.usid1) == (0, 0, 0, 0)
    assert m.regs == [0] * 32
    with pytest.raises(AuthenticationException):
        sm.eenter(handle)


def test_a_torn_resume_never_runs_with_registers_parked(enclave):
    """A resume stores the cleared thread page before the RUNNING metadata
    page.  When the second store fails, the enclave reads as interrupted
    with no registers parked, which an entry refuses; it never reads as
    running with its registers still in the thread page, the state a
    termination would leave them in."""
    m, sm, handle = enclave
    sm.eenter(handle)
    m.set_reg(5, 41)
    sm.interrupt()
    store, seen = sm._store, []

    def failing(*args):
        seen.append(1)
        if len(seen) == 2:
            raise RuntimeError("engine write failed")
        return store(*args)

    sm._store = failing
    m.prv = PRV_U
    with pytest.raises(RuntimeError):
        sm.eenter(handle)
    del sm._store
    meta, thread = sm.peek_meta(handle), sm.peek_thread(handle)
    assert not (meta.state is EnclaveState.RUNNING and thread.saved.regs is not None)
    assert (meta.state, thread.saved.regs) == (EnclaveState.INTERRUPTED, None)
    with pytest.raises(WrongState):
        sm.eenter(handle)


def test_enter_exit_engine_op_counts(enclave):
    """Both monitor pages are verified in full on entry and the metadata
    page alone on exit, and only the lines whose bytes changed are
    re-sealed."""
    m, sm, handle = enclave
    before = (m.mee.seals, m.mee.opens)
    sm.eenter(handle)
    sm.eexit()
    counts = {"write": m.mee.seals - before[0], "read": m.mee.opens - before[1]}
    assert counts == {"write": 2, "read": 192}


@pytest.mark.parametrize("cache_cfg", [None, CacheCfg(512, 4)], ids=["cache-off", "cache-on"])
def test_os_aliases_freed_page_onto_metadata_page(cache_cfg):
    """The OS maps a freed enclave va onto the metadata page and the enclave
    prepares it.  Zeroing that page re-seals the metadata lines under the
    enclave tweak, so the store that follows must rewrite every line, not
    only those whose bytes changed."""
    machine = Machine(seed=7, cache_cfg=cache_cfg)
    sm = SecurityMonitor(machine)
    handle = spawn_enclave(machine, sm, stack_pages=2)
    second_stack = A_BASE + 3 * PAGE_BYTES
    sm.eenter(handle)
    sm.edestroy(second_stack)
    machine.map_page(PRV_S, "host", second_stack, 0x200, "rwu", 0b01)
    sm.eprepare(second_stack, PageType.REGULAR, RW)
    meta = sm.peek_meta(handle)
    assert meta.state is EnclaveState.RUNNING
    assert len(meta.owned) == 4
    sm.eexit()


# --- randomized lifecycle traces ------------------------------------------------------


def test_randomized_lifecycle_traces():
    """Random walks over the lifecycle API: invariants hold at every step."""
    for trial in range(60):
        rng = random.Random(trial)
        m = Machine(seed=trial)
        sm = SecurityMonitor(m, fault_threshold=1 + rng.randrange(5))
        handle = spawn_enclave(m, sm)
        state = "LOADED"
        shadow = {}  # our model of the data page
        for _ in range(rng.randrange(4, 16)):
            op = rng.choice(["enter", "exit", "interrupt", "write", "read",
                             "swap_cycle", "seal"])
            try:
                if op == "enter":
                    m.prv = PRV_U
                    sm.eenter(handle)
                    assert state in ("LOADED", "INTERRUPTED")
                    state = "RUNNING"
                elif op == "exit":
                    sm.eexit()
                    assert state == "RUNNING"
                    state = "LOADED"
                elif op == "interrupt":
                    sm.interrupt()
                    assert state == "RUNNING"
                    state = "INTERRUPTED"
                elif op == "write" and state == "RUNNING":
                    off = rng.randrange(0, 64) * 64
                    data = rng.randbytes(8)
                    m.access("host", DATA_VA + off, AccessKind.WRITE, PRV_U, data=data)
                    shadow[off] = data
                elif op == "read" and state == "RUNNING":
                    off, expect = (rng.choice(list(shadow.items()))
                                   if shadow else (0, bytes(8)))
                    got = m.access("host", DATA_VA + off, AccessKind.READ, PRV_U, size=8)
                    assert got == expect
                elif op == "swap_cycle" and state == "LOADED":
                    m.prv = PRV_S
                    sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
                    sm.swap_in(handle, DATA_VA, sealed)
                elif op == "seal" and state == "RUNNING":
                    assert len(sm.egetsealkey()) == 16
            except (WrongState, NotInEnclave):
                continue
        meta = sm.peek_meta(handle)
        assert meta.state.name == state
        # swapped/interrupted content still consistent with the shadow model
        if state != "RUNNING":
            m.prv = PRV_U
            sm.eenter(handle)
        for off, data in shadow.items():
            assert m.access("host", DATA_VA + off, AccessKind.READ, PRV_U, size=8) == data


def test_shm_visibility_needs_equal_secret_and_offset(machine, sm):
    """Partner enclaves see shared writes iff the 80-bit secret matches and
    both map the page at the same offset from their user range base."""
    h_a = spawn_enclave(machine, sm)
    h_b = spawn_enclave(machine, sm, base=0x5000_0000, ppn_start=0x110,
                        meta_ppn=0x210, thread_ppn=0x211)
    shm_ppn = 0x180
    va_a, va_b = 0x6000_0000, 0x7000_0000
    machine.prv = PRV_S
    machine.map_page(PRV_S, "host", va_a, shm_ppn, "rwu", 0b11)
    machine.map_page(PRV_S, "host", va_b, shm_ppn, "rwu", 0b11)
    machine.prv = PRV_U

    sm.eenter(h_a)
    machine.write_csr(PRV_U, "urange", RangeReg(va_a, 2 * PAGE_BYTES, True))
    machine.write_csr(PRV_U, "usid0", 0x5EC)
    machine.write_csr(PRV_U, "usid1", 0x123)
    sm.eprepare(va_a, PageType.SHM, RW)
    machine.access("host", va_a, WRITE, PRV_U, data=b"between-enclaves")
    sm.eexit()

    sm.eenter(h_b)
    machine.write_csr(PRV_U, "usid0", 0x5EC)
    machine.write_csr(PRV_U, "usid1", 0x123)
    # wrong relative offset: urange base shifted one page back
    machine.write_csr(PRV_U, "urange", RangeReg(va_b - PAGE_BYTES, 2 * PAGE_BYTES, True))
    with pytest.raises(AuthenticationException):
        machine.access("host", va_b, READ, PRV_U, size=16)
    # same offset, wrong secret
    machine.write_csr(PRV_U, "urange", RangeReg(va_b, 2 * PAGE_BYTES, True))
    machine.write_csr(PRV_U, "usid1", 0x999)
    with pytest.raises(AuthenticationException):
        machine.access("host", va_b, READ, PRV_U, size=16)
    # same offset, same secret
    machine.write_csr(PRV_U, "usid1", 0x123)
    assert machine.access("host", va_b, READ, PRV_U, size=16) == b"between-enclaves"


def test_page_tweak_equals_enclave_composition(enclave):
    """For every line of the code, data, stack and shared pages, the tweak
    the monitor pins (the page's first-line tweak stepped by the line index)
    is the one the running enclave's own U-mode access composes -- what the
    ciphertext goldens rest on."""
    m, sm, handle = enclave
    shm_va = 0x6000_0000
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0x0123_4567_89AB_CDEF)
    m.write_csr(PRV_U, "usid1", 0xFEDC)
    sm.eprepare(shm_va, PageType.SHM, RW)
    meta = sm.peek_meta(handle)
    assert sorted(ctx.page_type.name for ctx in meta.owned.values()) == \
        ["REGULAR", "REGULAR", "SHENCLAVE", "SHM"]
    for va, ctx in meta.owned.items():
        first = sm._page_tweak(meta, ctx, va, urange=m.csr.urange)
        pte_bits = m.walk("host", va).bits
        for i in range(LINES_PER_PAGE):
            stepped = SwTweak.from_int(first.to_int() + (i << VOFFSET_SHIFT), first.va_bits)
            assert stepped == m.compose_for_access(va + i * 64, PRV_U, pte_bits)


def test_a_page_tweak_is_of_its_own_type_or_refused(enclave):
    """Every permission set of each type the monitor may write, in range:
    the type fixes the rsw and the range checks fix the range, so
    :func:`classify_tweak` either gives the context's own type or refuses
    the context itself."""
    m, sm, handle = enclave
    meta = sm.peek_meta(handle)
    urange = RangeReg(SHM_VA, PAGE_BYTES, True)
    outcomes = []
    for page_type, va in ((PageType.REGULAR, DATA_VA), (PageType.SHENCLAVE, A_BASE),
                          (PageType.SHM, SHM_VA)):
        for bits in range(32):
            perms = {flag: bool(bits >> i & 1) for i, flag in enumerate("rwxug")}
            try:
                sw = sm._page_tweak(meta, PageCtx(page_type, perms), va, urange=urange)
            except InvalidCombination:
                outcomes.append("refused")
                continue
            outcomes.append("own type" if classify_tweak(sw) is page_type else "other type")
    assert collections.Counter(outcomes) == {"own type": 64, "refused": 32}


def _user_trace_world():
    """The standard enclave with four data pages on a 512x4 tweak cache,
    entered, with a shared page and two unprotected host pages mapped: its
    user accesses compose all four rsw values."""
    m = Machine(seed=7, cache_cfg=CacheCfg(512, 4))
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm, image=std_image(n_data=4))
    m.map_page(PRV_S, "host", 0x1000, 0x20, "rwu")
    m.map_page(PRV_S, "host", 0x2000, 0x21, "ru")  # never written
    shm_va = 0x6000_0000
    m.map_page(PRV_S, "host", shm_va, 0x180, "rwu", 0b11)
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(shm_va, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0x0123_4567_89AB_CDEF)
    m.write_csr(PRV_U, "usid1", 0xFEDC)
    sm.eprepare(shm_va, PageType.SHM, RW)
    data = [A_BASE + PAGE_BYTES * (1 + p) + 64 * i for p in range(5) for i in range(64)]
    shm = [shm_va + 64 * i for i in range(64)]
    host = [0x1000 + 64 * i for i in range(64)]
    code = [A_BASE + 64 * i for i in range(64)]
    return m, sm, handle, data + shm + host, code


def test_user_trace_ciphertext_and_counts_golden():
    """A seeded 2,000-access U-mode trace through the tweak cache, with one
    interrupt and resume halfway: SHA-256 over every sealed line afterwards
    and the exact cache and engine counts, pinned.  The line path must stay
    bit-identical however tweaks are composed and classified.  Reads of a
    never-written host page alternate between U- and S-mode, which is where
    the cache sees tweak mismatches without a fault."""
    m, sm, handle, rw_lines, code = _user_trace_world()
    before = (m.cache.hits, m.cache.misses, m.cache.tweak_mismatches, m.mee.seals, m.mee.opens)
    rng = random.Random("user-trace")
    out = hashlib.sha256()
    for step in range(2000):
        if step == 1000:
            sm.interrupt()
            m.prv = PRV_U
            sm.eenter(handle)
        roll = rng.random()
        if roll < 0.1:
            va = code[rng.randrange(64)] + 4 * rng.randrange(16)
            out.update(m.access("host", va, FETCH, PRV_U, size=4))
            continue
        if roll < 0.15:
            va = 0x2000 + 64 * rng.randrange(4)
            out.update(m.access("host", va, READ, rng.choice((PRV_U, PRV_S)), size=8))
            continue
        pool = rw_lines[:64] if roll < 0.6 else rw_lines
        va = pool[rng.randrange(len(pool))] + 8 * rng.randrange(8)
        if roll < 0.35:
            m.access("host", va, WRITE, PRV_U, data=rng.randbytes(8))
        else:
            out.update(m.access("host", va, READ, PRV_U, size=8))
    enclave_pages, monitor_pages = _sealed_digests(m)
    after = (m.cache.hits, m.cache.misses, m.cache.tweak_mismatches, m.mee.seals, m.mee.opens)
    counts = tuple(a - b for a, b in zip(after, before)) + (len(m.mee.written_lines()),)
    assert out.hexdigest() == \
        "38bf91c8a5e65856bdf3625aa9266e8dd22ba40233ac244e2c6c309dd65fd289"
    assert enclave_pages == "5f45fa1ee76f6c44ff314cd81c77059193e623995aed1a09534d58bd77273d07"
    assert monitor_pages == "e974bedba588142d4127938bb56946e530a1bb880ae13c27f575d7fbf7b69800"
    # cache hits, misses, tweak mismatches; engine writes, reads; sealed lines
    assert counts == (1695, 561, 41, 415, 455, 576)
