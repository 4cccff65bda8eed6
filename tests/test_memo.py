"""The per-line access memo of :meth:`Machine.access`: one named test per
flush point, the composition count it saves (also across a monitor round
trip that restores the CSRs), and a fuzz that holds a memoizing machine to
one that forgets before every access."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import A_BASE, spawn_enclave
from servas_sim.cache import CacheCfg
from servas_sim.machine import (
    AccessKind,
    AuthenticationException,
    Machine,
    PAGE_BYTES,
    PageFault,
    Trap,
)
from servas_sim.monitor import SecurityMonitor
from servas_sim.tweak import PRV_M, PRV_S, PRV_U, PageType, RangeReg

READ, WRITE, FETCH = AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH
DATA_VA = A_BASE + PAGE_BYTES
SHM_VA, SHM_PPN = 0x6000_0000, 0x180
RW = {"r": True, "w": True, "x": False, "u": True, "g": False}


@pytest.fixture
def m():
    machine = Machine(seed=3)
    machine.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    return machine


def _shm_world(cache_cfg=None, seed=7):
    """The standard enclave, entered, with a prepared shared page."""
    m = Machine(seed=seed, cache_cfg=cache_cfg)
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    m.map_page(PRV_S, "host", SHM_VA, SHM_PPN, "rwu", 0b11)
    m.map_page(PRV_S, "host", 0x1000, 0x20, "rwu")
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(SHM_VA, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0x0123_4567_89AB_CDEF)
    m.write_csr(PRV_U, "usid1", 0xFEDC)
    sm.eprepare(SHM_VA, PageType.SHM, RW)
    return m, sm, handle


# --- one test per flush point ---------------------------------------------------


def test_memo_flushed_by_remap_to_a_new_frame(m):
    m.access("p", 0x1008, WRITE, PRV_U, data=b"old")
    assert m.access("p", 0x1008, READ, PRV_U, size=3) == b"old"
    m.map_page(PRV_S, "p", 0x1000, 0x11, "rwu")
    assert m.access("p", 0x1008, READ, PRV_U, size=3) == bytes(3)  # the new frame


def test_memo_flushed_by_permission_downgrade(m):
    m.access("p", 0x1000, WRITE, PRV_U, data=b"w")
    m.map_page(PRV_S, "p", 0x1000, 0x10, "ru")
    with pytest.raises(PageFault, match="write permission missing"):
        m.access("p", 0x1000, WRITE, PRV_U, data=b"w")
    with pytest.raises(AuthenticationException):  # the pte bits are in the tweak
        m.access("p", 0x1000, READ, PRV_U)


def test_memo_flushed_by_unmap(m):
    assert m.access("p", 0x1000, READ, PRV_U) == b"\0"
    m.unmap_page(PRV_S, "p", 0x1000)
    with pytest.raises(PageFault, match="unmapped"):
        m.access("p", 0x1000, READ, PRV_U)


@pytest.mark.parametrize("name, value", [("usid0", 0x1111), ("urange", RangeReg())],
                         ids=["usid0", "urange"])
def test_memo_flushed_by_shm_csr_write(name, value):
    """The shared page's tweak moves with the user sid and range; a line
    sealed under the old one no longer verifies."""
    m, sm, handle = _shm_world()
    m.access("host", SHM_VA, WRITE, PRV_U, data=b"shared")
    assert m.access("host", SHM_VA, READ, PRV_U, size=6) == b"shared"
    m.write_csr(PRV_U, name, value)
    with pytest.raises(AuthenticationException):
        m.access("host", SHM_VA, READ, PRV_U, size=6)


def test_memo_flushed_by_enclave_exit_and_entry(enclave):
    """``eexit`` clears mrange and msid0, so the host's access to an enclave
    line composes the host's tweak and fails; ``eenter`` restores them."""
    m, sm, handle = enclave
    sm.eenter(handle)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"enclave-secret")
    assert m.access("host", DATA_VA, READ, PRV_U, size=14) == b"enclave-secret"
    sm.eexit()
    with pytest.raises(AuthenticationException):
        m.access("host", DATA_VA, READ, PRV_U, size=14)
    sm.eenter(handle)
    assert m.access("host", DATA_VA, READ, PRV_U, size=14) == b"enclave-secret"


def _count_compositions(monkeypatch):
    calls = []
    compose = Machine.compose_for_access
    monkeypatch.setattr(Machine, "compose_for_access",
                        lambda self, *args: calls.append(args) or compose(self, *args))
    return calls


def test_compose_runs_once_per_line_until_a_flush(m, monkeypatch):
    calls = _count_compositions(monkeypatch)
    for off in range(0, 64, 8):
        m.access("p", 0x1000 + off, WRITE, PRV_U, data=bytes(8))
        m.access("p", 0x1000 + off, READ, PRV_U, size=8)
    assert len(calls) == 1
    m.access("p", 0x1040, READ, PRV_U)  # another line is another entry
    m.access("p", 0x1040, READ, PRV_S)  # and so is another privilege
    assert len(calls) == 3
    m.write_csr(PRV_S, "ssid0", 5)
    m.access("p", 0x1000, READ, PRV_U)
    m.map_page(PRV_S, "p", 0x3000, 0x30, "rwu")
    m.access("p", 0x1000, READ, PRV_U)
    m.unmap_page(PRV_S, "p", 0x3000)
    m.access("p", 0x1000, READ, PRV_U)
    assert len(calls) == 6
    with pytest.raises(PageFault):
        m.access("p", 0x1000, FETCH, PRV_U)  # checked on a hit too
    assert len(calls) == 6


def _restore_shm_csrs(m, usid0=0x0123_4567_89AB_CDEF):
    """The enclave re-arms its shared page after an entry from scratch."""
    m.write_csr(PRV_U, "urange", RangeReg(SHM_VA, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", usid0)
    m.write_csr(PRV_U, "usid1", 0xFEDC)


def _read_both(m):
    return (m.access("host", DATA_VA, READ, PRV_U, size=6),
            m.access("host", SHM_VA, READ, PRV_U, size=6))


def _primed_shm_world(monkeypatch):
    """The shared-page world with an enclave line and the shared line
    written, so both are in the memo; and a composition counter."""
    m, sm, handle = _shm_world()
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"secret")
    m.access("host", SHM_VA, WRITE, PRV_U, data=b"shared")
    return m, sm, handle, _count_compositions(monkeypatch)


def test_memo_survives_a_monitor_round_trip(monkeypatch):
    """``eexit``+``eenter`` (with the shared page re-armed) and
    ``interrupt``+``eenter`` write the enclave CSRs away and back; the
    memo composed under the restored values still holds, so no line is
    composed again."""
    m, sm, handle, calls = _primed_shm_world(monkeypatch)
    assert _read_both(m) == (b"secret", b"shared")
    sm.eexit()
    sm.eenter(handle)
    _restore_shm_csrs(m)
    assert _read_both(m) == (b"secret", b"shared")
    sm.interrupt()
    sm.eenter(handle)
    assert _read_both(m) == (b"secret", b"shared")
    assert calls == []


def test_memo_recomposes_after_a_round_trip_to_other_values(monkeypatch):
    """A round trip that ends in a different user sid clears the memo: the
    shared line's tweak moved, so a kept entry would have read it."""
    m, sm, handle, calls = _primed_shm_world(monkeypatch)
    sm.eexit()
    sm.eenter(handle)
    _restore_shm_csrs(m, usid0=0x1111)
    assert m.access("host", DATA_VA, READ, PRV_U, size=6) == b"secret"
    with pytest.raises(AuthenticationException):
        m.access("host", SHM_VA, READ, PRV_U, size=6)
    assert len(calls) == 2


def test_memo_recomposes_for_a_second_enclave(monkeypatch):
    """Leaving one enclave and entering another is a round trip to other
    enclave CSRs: the second enclave's access to the first one's line
    composes its own tweak and fails, where a kept entry would read it."""
    m = Machine(seed=7)
    sm = SecurityMonitor(m)
    first = spawn_enclave(m, sm)
    second = spawn_enclave(m, sm, base=A_BASE + 0x10_0000, ppn_start=0x110,
                           meta_ppn=0x210, thread_ppn=0x211)
    sm.eenter(first)
    m.access("host", DATA_VA, WRITE, PRV_U, data=b"secret")
    calls = _count_compositions(monkeypatch)
    sm.eexit()
    sm.eenter(second)
    with pytest.raises(AuthenticationException):
        m.access("host", DATA_VA, READ, PRV_U, size=6)
    assert len(calls) == 1


# --- equivalence fuzz ---------------------------------------------------------------

SPACES = ["host", "host", "os"]  # "os" starts with nothing mapped
PAGES = [A_BASE, DATA_VA, SHM_VA, 0x1000]
PPNS = [0x100, 0x101, SHM_PPN, 0x20, 0x200]
PERMS = ["rwu", "ru", "rxu", "rw", "rwxu"]
CSRS = ["mrange", "srange", "urange", "msid0", "msid1", "ssid0", "ssid1", "usid0", "usid1"]
RANGES = [RangeReg(), RangeReg(A_BASE, 3 * PAGE_BYTES, True),
          RangeReg(SHM_VA, PAGE_BYTES, True), RangeReg(0, 0x3000, True)]

# one line per page, mostly one space and U-mode: lines repeat, so the memo
# is hit between edits and an edit has accesses to its lines on both sides
_line_va = st.builds(int.__add__,
                     st.sampled_from(PAGES + [0x101 * PAGE_BYTES, SHM_PPN * PAGE_BYTES]),
                     st.sampled_from([0, 8, 56]))
_access = st.tuples(st.just("access"), st.sampled_from(SPACES), _line_va,
                    st.sampled_from([READ, READ, WRITE, FETCH]),
                    st.sampled_from([PRV_U, PRV_U, PRV_S, PRV_M]),
                    st.binary(min_size=1, max_size=8))
_edits = [
    st.tuples(st.just("map"), st.sampled_from(SPACES), st.sampled_from(PAGES),
              st.sampled_from(PPNS), st.sampled_from(PERMS), st.integers(0, 3)),
    st.tuples(st.just("unmap"), st.sampled_from(SPACES), st.sampled_from(PAGES)),
    st.tuples(st.just("csr"), st.sampled_from(CSRS), st.integers(0, 3)),
    st.tuples(st.just("csr_and_back"), st.sampled_from(CSRS), st.integers(0, 3)),
    st.tuples(st.just("bypass"), st.booleans()),
    st.tuples(st.just("flip"), st.sampled_from(PPNS), st.integers(0, 1), st.integers(0, 511)),
]
OPS = st.sampled_from([_access] * 20 + _edits).flatmap(lambda ops: ops)


def _apply(m, op, sids, forget):
    """Run one step; return what it returned or trapped with."""
    kind = op[0]
    try:
        if kind == "map":
            m.map_page(PRV_S, *op[1:])
        elif kind == "unmap":
            m.unmap_page(PRV_S, *op[1:])
        elif kind in ("csr", "csr_and_back"):
            name, pick = op[1:]
            old = getattr(m.csr, name)
            m.write_csr(PRV_M, name, RANGES[pick] if name.endswith("range") else sids[pick])
            if kind == "csr_and_back":  # a monitor round trip in one CSR
                m.write_csr(PRV_M, name, old)
        elif kind == "bypass":
            m.set_bypass(PRV_M, op[1])
        elif kind == "flip":
            ppn, line, bit = op[1:]
            m.phys_flip_bit(ppn * 64 + line, bit)
        else:
            space, va, access_kind, prv, data = op[1:]
            if forget:  # the entries and the CSR values they were composed under
                m._memo.clear()
                m._memo_csrs = None
            if access_kind is WRITE:
                return m.access(space, va, WRITE, prv, data=data)
            return m.access(space, va, access_kind, prv, size=len(data))
    except Trap as trap:
        sw = getattr(trap, "sw", None)
        disposition = getattr(trap, "disposition", None)
        return (trap.kind, trap.va, trap.prv, trap.detail, sw and sw.to_int(),
                disposition)
    return None


def _state(m):
    cache = m.cache
    raw = {line: m.mee.snapshot_line(line) for line in m.mee.written_lines()}
    return (m.mee.written_lines(), raw, m.mee.seals, m.mee.opens, m.plain_lines,
            m.csr, m.regs, m.prv, m.bypass, m.active_enclave, m.rng.getstate(),
            cache.hits, cache.misses, cache.tweak_mismatches,
            [list(ways.items()) for ways in cache.sets])


@settings(max_examples=100)
@given(ops=st.lists(OPS, min_size=30, max_size=80))
def test_memo_is_invisible(ops):
    """Two same-seed machines, one of which clears its memo before every
    access, agree on every result, trap and tweak, and end in the same
    engine, cache, RNG and CSR state."""
    worlds = [_shm_world(CacheCfg(16, 2)) for _ in range(2)]
    sids = [0, 1, worlds[0][0].csr.msid1, 0x0123_4567_89AB_CDEF]
    outcomes = [[_apply(m, op, sids, forget) for op in ops]
                for (m, _, _), forget in zip(worlds, (False, True))]
    assert outcomes[0] == outcomes[1]
    assert _state(worlds[0][0]) == _state(worlds[1][0])
