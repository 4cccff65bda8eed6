"""The engine's page records seen from the monitor: one named test per way a
monitor page can change under its record, and two differential fuzzes that
hold a machine to one whose engine keeps every line in its own entry, the
line-by-line representation, and to one on the reference engine, which
seals every write and opens every read."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import A_BASE, ReferenceMee, spawn_enclave
from servas_sim.machine import (
    AccessKind,
    AuthenticationException,
    Machine,
    PAGE_BYTES,
    Trap,
)
import servas_sim.mee as mee_module
from servas_sim.mee import Mee
from servas_sim.monitor import MonitorError, SecurityMonitor
from servas_sim.scenarios import ScenarioRunner, builtin_suite
from servas_sim.tweak import PRV_S, PRV_U, PageType

RW = {"r": True, "w": True, "x": False, "u": True, "g": False}
B_BASE = 0x5000_0000
B_STACK2 = B_BASE + 3 * PAGE_BYTES  # the second of enclave B's two stack pages
META_A, THREAD_A, META_B, THREAD_B = 0x200, 0x201, 0x210, 0x211


def _world(seed=5, engine=None):
    """Two enclaves in one host space: A with the standard layout, B with
    two stack pages.  A has been entered and left once.  ``engine``, if
    given, builds the machine's engine from its key."""
    m = Machine(seed=seed)
    if engine is not None:
        m.mee = engine(m.mee_key)
    sm = SecurityMonitor(m)
    a = spawn_enclave(m, sm)
    b = spawn_enclave(m, sm, base=B_BASE, ppn_start=0x110, stack_pages=2,
                      meta_ppn=META_B, thread_ppn=THREAD_B)
    sm.eenter(a)
    sm.eexit()
    return m, sm, a, b


def _meta_binding(sm, handle):
    """(first line, tweak) of the handle's metadata page."""
    sw = sm._monitor_page_tweak(handle.meta_ppn, handle.rtid)
    return handle.meta_ppn * (PAGE_BYTES // 64), sw


# --- one test per way a line of a recorded monitor page changes ---------------


def _flip(m, sm, a, b):
    m.phys_flip_bit(META_A * 64 + 3, 9)
    return 3


def _stale_restore(m, sm, a, b):
    """Line 0 holds the state, so the enter/exit pair re-seals it twice."""
    stale = m.phys_snapshot([META_A * 64])
    sm.eenter(a)
    sm.eexit()
    m.phys_restore(stale)
    return 0


def _os_aliased_write(m, sm, a, b):
    """The OS maps a page B freed onto A's metadata page, and B's
    eprepare zeroes it under B's own U-mode tweak."""
    sm.eenter(b)
    sm.edestroy(B_STACK2)
    m.map_page(PRV_S, "host", B_STACK2, META_A, "rwu", 0b01)
    sm.eprepare(B_STACK2, PageType.REGULAR, RW)
    sm.eexit()
    return 0


def _destroy(m, sm, a, b):
    """The OS remaps B's second stack page onto A's metadata page; B's
    edestroy of it destroys A's metadata lines."""
    m.map_page(PRV_S, "host", B_STACK2, META_A, "rwu", 0b01)
    sm.eenter(b)
    sm.edestroy(B_STACK2)
    sm.eexit()
    return 0


def _write_under_another_tweak(m, sm, a, b):
    """Line 5's own bytes, re-sealed under the binding the monitor gives
    the page as B's: the bytes match, only the tweak differs."""
    first, sw = _meta_binding(sm, a)
    content = m.mee.read(first, sw, range(64))
    m.pinned_page(META_A, sm._monitor_page_tweak(META_A, b.rtid), AccessKind.WRITE, content,
                  lines=[5])
    return 5


@pytest.mark.parametrize("change", [_flip, _stale_restore, _os_aliased_write, _destroy,
                                    _write_under_another_tweak],
                         ids=["flip-bit", "stale-restore", "os-aliased-write", "destroy",
                              "write-under-another-tweak"])
def test_a_changed_metadata_line_is_not_vouched_for(change, monkeypatch):
    """A's metadata page is a record, written whole by ``ecreate`` and
    updated in place by the monitor's own stores.  After each change, the
    store query lists the changed line, and A's next monitor load fails
    AUTH on it, where a stale record would have served the page as it
    was."""
    m, sm, a, b = _world()
    first, sw = _meta_binding(sm, a)
    checks = []
    real_memo = mee_module._memo
    monkeypatch.setattr(mee_module, "_memo", lambda *args: checks.append(1) or real_memo(*args))
    page = m.mee.read(first, sw, range(64))
    assert not checks  # every line is served by the record
    k = change(m, sm, a, b)
    assert k in m.mee.changed_lines(first, page, sw)
    with pytest.raises(AuthenticationException) as info:
        sm.eenter(a)
    assert info.value.line_index == first + k


# --- the differential fuzzes -----------------------------------------------------


class _ForgetfulMee(Mee):
    """An engine that moves every line of every page record into its own
    entry after each call that can write a record, so every line is
    proved by its own memo: the line-by-line representation."""

    def _forget(self):
        for line in self.written_lines():
            self._entry(line)

    def write(self, *args):
        try:
            return super().write(*args)
        finally:
            self._forget()

    def destroy_page(self, *args):
        try:
            return super().destroy_page(*args)
        finally:
            self._forget()


def _engine_state(m):
    mee = m.mee
    return mee.written_lines(), mee.seals, mee.opens


def _raw_lines(m):
    return {line: m.mee.snapshot_line(line) for line in m.mee.written_lines()}


@pytest.mark.parametrize("seed", [0, 5])
def test_page_memo_is_invisible_on_the_builtin_suite(seed):
    """Each builtin scenario, run as is, on an engine that keeps every line
    in its own entry and on the reference engine, gives the same verdict,
    the same written lines and counters, seal and open counts, and the same
    raw bytes on every line."""
    detached = 0
    for scenario in builtin_suite():
        runners = [ScenarioRunner(scenario, seed=seed) for _ in range(3)]
        runners[1].machine.mee.__class__ = _ForgetfulMee
        runners[2].machine.mee = ReferenceMee(runners[2].machine.mee_key)
        verdicts = [runner.run() for runner in runners]
        assert verdicts == [scenario.expected] * 3, scenario.name
        machines = [runner.machine for runner in runners]
        detached += machines[1].mee.line_entries - machines[0].mee.line_entries
        for other in machines[1:]:
            assert _engine_state(other) == _engine_state(machines[0]), scenario.name
            assert _raw_lines(other) == _raw_lines(machines[0]), scenario.name
    assert detached > 0  # the forgetful engine really moved record lines out


# Enclave A's data page, B's data page, A's stack page and B's second stack
# page; the frames the OS can alias them onto include all four monitor
# pages; the temporary pages a swap-out may be handed include two of them.
_VAS = [A_BASE + PAGE_BYTES, B_BASE + PAGE_BYTES, A_BASE + 2 * PAGE_BYTES, B_STACK2]
_FRAMES = [META_A, THREAD_A, META_B, THREAD_B, 0x300, 0x101, 0x113]
_TEMPS = [0x300, META_A, THREAD_B]
_ENCLAVE = st.integers(0, 1)
_ENTER = st.tuples(st.just("eenter"), _ENCLAVE)
_EXIT = st.tuples(st.just("eexit"))
_ACCESS = st.tuples(st.just("access"), st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
                    st.integers(0, 3), st.sampled_from([0, 8, 4032]),
                    st.binary(min_size=1, max_size=8))
_OTHERS = [
    st.tuples(st.just("interrupt")),
    st.tuples(st.just("eprepare"), st.integers(0, 3)),
    st.tuples(st.just("edestroy"), st.integers(0, 3)),
    st.tuples(st.just("alias"), st.integers(0, 3), st.integers(0, len(_FRAMES) - 1)),
    st.tuples(st.just("recycle"), st.integers(0, 3), st.integers(0, len(_FRAMES) - 1)),
    st.tuples(st.just("flip"), st.integers(0, 3), st.sampled_from([0, 1, 63]),
              st.integers(0, 127)),
    st.tuples(st.just("snapshot"), st.integers(0, 3), st.sampled_from([0, 1, 63])),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("peek"), _ENCLAVE),
    st.tuples(st.just("swap_out"), _ENCLAVE, st.integers(0, len(_TEMPS) - 1)),
    st.tuples(st.just("swap_in"), _ENCLAVE),
]
# entries, exits and accesses often enough that monitor calls mostly
# succeed and page records are written, served and detached many times
_OPS = st.sampled_from([_ENTER] * 4 + [_EXIT] * 4 + [_ACCESS] * 4 + _OTHERS).flatmap(
    lambda ops: ops)


def _apply(m, sm, handles, op, log):
    """Run one operation; return what it returned or raised."""
    name, *args = op
    try:
        if name == "eenter":
            m.prv = PRV_U
            return sm.eenter(handles[args[0]])
        if name == "eexit":
            return sm.eexit()
        if name == "interrupt":
            return sm.interrupt()
        if name == "access":
            kind, page, off, data = args
            if kind is AccessKind.WRITE:
                return m.access("host", _VAS[page] + off, kind, PRV_U, data=data)
            return m.access("host", _VAS[page] + off, kind, PRV_U, size=len(data))
        if name == "eprepare":
            return sm.eprepare(_VAS[args[0]], PageType.REGULAR, RW)
        if name == "edestroy":
            return sm.edestroy(_VAS[args[0]])
        if name == "alias":
            return m.map_page(PRV_S, "host", _VAS[args[0]], _FRAMES[args[1]], "rwu", 0b01)
        if name == "recycle":  # the running enclave frees a page, the OS remaps it
            va = _VAS[args[0]]
            sm.edestroy(va)
            m.map_page(PRV_S, "host", va, _FRAMES[args[1]], "rwu", 0b01)
            return sm.eprepare(va, PageType.REGULAR, RW)
        if name == "flip":
            frame, line, bit = args
            return m.phys_flip_bit(_FRAMES[frame] * 64 + line, bit, "tag")
        if name == "snapshot":
            frame, line = args
            log["snapshots"].append(m.phys_snapshot([_FRAMES[frame] * 64 + line]))
            return log["snapshots"][-1]
        if name == "restore":
            if log["snapshots"]:
                return m.phys_restore(log["snapshots"][args[0] % len(log["snapshots"])])
            return None
        if name == "peek":
            return repr(sm.peek_meta(handles[args[0]]))
        if name == "swap_out":
            enclave, temp = args
            sealed = sm.swap_out(handles[enclave], _VAS[enclave], _TEMPS[temp])
            log["sealed"][enclave] = sealed
            return sealed
        enclave = args[0]
        return sm.swap_in(handles[enclave], _VAS[enclave], log["sealed"].get(enclave, b""))
    except (Trap, MonitorError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_index", None)


def _machine_state(m, sm):
    return (_engine_state(m), m.regs, m.pc, m.prv, m.csr, m.active_enclave,
            m.rng.getstate(), sm._rtid_next)


@settings(max_examples=60)
@given(ops=st.lists(_OPS, min_size=10, max_size=40))
def test_page_memo_is_invisible_on_random_operations(ops):
    """Three same-seed two-enclave machines run the same monitor calls,
    accesses, OS remappings onto monitor pages and raw DRAM tampering; one
    engine keeps every line in its own entry, and one is the reference
    engine.  Every result, trap and line it names, every written line and
    counter, the seal and open counts and the machine state agree after
    each operation, and every line's raw bytes at the end."""
    worlds = [_world(), _world(), _world(engine=ReferenceMee)]
    worlds[1][0].mee.__class__ = _ForgetfulMee
    logs = [{"snapshots": [], "sealed": {}} for _ in worlds]
    for op in ops:
        results = [_apply(m, sm, (a, b), op, log) for (m, sm, a, b), log in zip(worlds, logs)]
        assert results[1:] == results[:1] * 2, op
        for m, sm, _, _ in worlds[1:]:
            assert _machine_state(m, sm) == _machine_state(*worlds[0][:2]), op
    for m, _, _, _ in worlds[1:]:
        assert _raw_lines(m) == _raw_lines(worlds[0][0])
