"""The monitor's kept records.  A monitor call reads both monitor pages
through the engine, which verifies them, and decodes a page only when its
verified bytes differ from the ones the monitor last read or wrote there.
A call that fails after its load leaves no record behind, and a monitor
that keeps nothing gives the same results, traps, engine state and bytes."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import spawn_enclave, std_image
from test_ledger import DATA_VA, LEDGER, RW, _counted
from test_page_memo import _OPS, _apply, _engine_state, _machine_state, _raw_lines, _world
from servas_sim.machine import PAGE_BYTES, Machine
from servas_sim.monitor import DoubleMap, EnclaveMeta, PageCtx, SecurityMonitor, ThreadMeta
from servas_sim.scenarios import ScenarioRunner, builtin_suite
from servas_sim.tweak import PRV_S, PRV_U, PageType, RangeReg

STACK_VA = DATA_VA + PAGE_BYTES
SHM_VA = 0x6000_0000


class _ForgetfulMonitor(SecurityMonitor):
    """A monitor that drops everything it keeps after each call, so every
    load decodes the engine's bytes and builds the page tweak again."""

    @contextmanager
    def _monitor_call(self):
        try:
            with super()._monitor_call() as caller_prv:
                yield caller_prv
        finally:
            self._kept.clear()


def _check_kept(sm):
    """Every kept tweak is the page's binding, and every kept record is
    the decode of its kept bytes, which are its own full pack."""
    for ppn, (rtid, sw, page, record) in sm._kept.items():
        assert sw == sm._monitor_page_tweak(ppn, rtid)
        if record is not None:
            decode = EnclaveMeta.unpack if isinstance(record, EnclaveMeta) else ThreadMeta.unpack
            assert record == decode(page)
            assert record.pack() == page


# --- a call that fails leaves no record ------------------------------------------


def _fail_the_store(m, sm):
    """eprepare's second engine write, its store of the metadata page,
    fails before it seals anything."""
    write, seen = m.mee.write, []

    def failing(*args):
        seen.append(1)
        if len(seen) == 2:
            raise RuntimeError("engine write failed")
        return write(*args)

    m.mee.write = failing
    try:
        with pytest.raises(RuntimeError):
            sm.eprepare(DATA_VA, PageType.REGULAR, RW)
    finally:
        m.mee.write = write


def _refuse_after_the_load(m, sm):
    """eprepare of the stack page, which the enclave owns."""
    with pytest.raises(DoubleMap):
        sm.eprepare(STACK_VA, PageType.REGULAR, RW)


def _inside_after_a_free():
    """The standard world at seed 0, inside the enclave after it freed its
    data page, engine reads and writes counted."""
    m = Machine(seed=0)
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    sm.eenter(handle)
    sm.edestroy(DATA_VA)
    calls = {"read": 0, "write": 0}
    m.mee.read = _counted(calls, "read", m.mee.read)
    m.mee.write = _counted(calls, "write", m.mee.write)
    return m, sm, handle, calls


@pytest.mark.parametrize("fail", [_fail_the_store, _refuse_after_the_load],
                         ids=["store-write-fails", "refused-after-load"])
def test_a_failed_call_leaves_no_kept_record(fail):
    """Inside the enclave, after it freed its data page, the failing call
    takes the kept metadata record and changes it (the failed eprepare has
    listed the page) or not; either way the record is gone from the keep
    and the page reads as before the call.  The next round trip, an eexit
    and an eenter from the host's one call site, costs the engine what the
    ledger says."""
    m, sm, handle, calls = _inside_after_a_free()
    _, _, page, kept = sm._kept[handle.meta_ppn]
    before = EnclaveMeta.unpack(page)
    assert kept == before

    fail(m, sm)
    assert sm._kept[handle.meta_ppn][3] is None
    assert sm.peek_meta(handle) == before
    for name, call in (("eexit", sm.eexit), ("eenter", lambda: sm.eenter(handle))):
        m.pc = 0  # the host enters from one call site, so its saved context repeats
        start = calls["read"], calls["write"], m.mee.seals, m.mee.opens
        call()
        end = calls["read"], calls["write"], m.mee.seals, m.mee.opens
        assert tuple(b - a for a, b in zip(start, end)) == LEDGER[name], name
    _check_kept(sm)


# --- a kept record lists what the page lists --------------------------------------


def test_a_kept_record_lists_contexts_as_its_page_does():
    """ecreate and emod keep each context as the metadata page lists it,
    which is what a decode reads back: not the caller's perms dict, which
    the caller may change later, and no sid, which the page does not
    store."""
    m = Machine(seed=0)
    sm = SecurityMonitor(m)
    image = std_image()
    handle = spawn_enclave(m, sm, image)
    image.pages[1].perms["w"] = False  # the caller reuses its image
    _check_kept(sm)
    m.map_page(PRV_S, "host", SHM_VA, 0x180, "rwu", 0b11)
    sm.eenter(handle)
    m.write_csr(PRV_U, "urange", RangeReg(SHM_VA, PAGE_BYTES, True))
    m.write_csr(PRV_U, "usid0", 0xAAAA)
    sm.eprepare(SHM_VA, PageType.SHM, RW)
    sm.emod(SHM_VA, PageCtx(PageType.SHM, RW, sid=0xAAAA), PageCtx(PageType.SHM, RW, sid=0xBBBB))
    _check_kept(sm)
    owned = sm.peek_meta(handle).owned
    assert owned[DATA_VA].perms["w"]
    assert owned[SHM_VA].sid is None


# --- a monitor that keeps nothing is the same monitor -----------------------------


@pytest.mark.parametrize("seed", [0, 5])
def test_kept_records_are_invisible_on_the_builtin_suite(seed):
    """Each builtin scenario gives the same verdict, engine state and raw
    bytes with a monitor that keeps nothing, which decodes on every load."""
    for scenario in builtin_suite():
        runners = [ScenarioRunner(scenario, seed=seed) for _ in range(2)]
        runners[1].sm.__class__ = _ForgetfulMonitor
        verdicts = [runner.run() for runner in runners]
        assert verdicts == [scenario.expected] * 2, scenario.name
        machines = [runner.machine for runner in runners]
        assert _engine_state(machines[1]) == _engine_state(machines[0]), scenario.name
        assert _raw_lines(machines[1]) == _raw_lines(machines[0]), scenario.name
        _check_kept(runners[0].sm)


@settings(max_examples=40)
@given(ops=st.lists(_OPS, min_size=10, max_size=40))
def test_kept_records_are_invisible_on_random_operations(ops):
    """Two same-seed two-enclave machines run the same monitor calls,
    accesses, OS remappings onto monitor pages and raw DRAM tampering; one
    monitor keeps nothing.  Every result, trap and line it names and the
    machine state agree after each operation, every kept record is the
    decode of its kept bytes, and every line's raw bytes agree at the end."""
    worlds = [_world(), _world()]
    worlds[1][1].__class__ = _ForgetfulMonitor
    worlds[1][1]._kept.clear()
    logs = [{"snapshots": [], "sealed": {}} for _ in worlds]
    for op in ops:
        results = [_apply(m, sm, (a, b), op, log) for (m, sm, a, b), log in zip(worlds, logs)]
        assert results[1] == results[0], op
        assert _machine_state(*worlds[1][:2]) == _machine_state(*worlds[0][:2]), op
        _check_kept(worlds[0][1])
    assert _raw_lines(worlds[1][0]) == _raw_lines(worlds[0][0])
