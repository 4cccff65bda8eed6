"""The engine work of each monitor call on the standard world at seed 0,
pinned: the engine ``read`` and ``write`` calls it makes and the seals and
opens the engine counts, the deterministic cost of a call, with no timing
claim.

The ``eenter``/``eexit`` rows are the simulator's answer to the paper's
cheap enclave switch: the tweak carries the context, so a switch flushes
nothing.  An entry verifies the enclave's two monitor pages and re-seals
the one metadata line whose state moved, with no engine write for the
thread page a fresh start leaves as it was; an exit verifies and re-seals
only the metadata page's, as it reads nothing of the thread page.

The ``fault`` and ``terminate`` rows are one faulting enclave read each at
the default fault threshold of 3: the failed line, then the metadata page
verified and its fault count re-sealed.  A termination costs what a
counted fault does plus the state's line: it reads nothing of the thread
page, which parks no registers while the enclave runs."""

import pytest

from conftest import A_BASE, spawn_enclave
from servas_sim.machine import AccessKind, AuthenticationException, Machine, PAGE_BYTES
from servas_sim.monitor import DispositionKind, PageCtx, SecurityMonitor
from servas_sim.tweak import PageType, PRV_S, PRV_U

DATA_VA = A_BASE + PAGE_BYTES
BAIT_VA = 0x9000_0000  # S-mode data the host space maps user-accessible
RW = {"r": True, "w": True, "x": False, "u": True, "g": False}
RO = {"r": True, "w": False, "x": False, "u": True, "g": False}

# call: (engine reads, engine writes, seals, opens)
LEDGER = {
    "ecreate": (0, 5, 320, 0),
    "eenter": (2, 1, 1, 128),
    "interrupt": (2, 2, 3, 128),
    "resume": (2, 2, 3, 128),
    "emod": (2, 2, 65, 128),
    "edestroy": (1, 1, 67, 64),
    "eprepare": (1, 2, 67, 64),
    "eexit": (1, 1, 1, 64),
    "swap_out": (2, 2, 132, 128),
    "swap_in": (1, 2, 68, 64),
    "fault": (2, 1, 1, 65),
    "terminate": (2, 1, 2, 65),
}


def _counted(calls: dict, name: str, method):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)
    return wrapper


def _ledger() -> dict[str, tuple[int, int]]:
    """Run one enclave's life through every call and count each call's
    engine work; a step named None is run but not counted."""
    m = Machine(seed=0)
    sm = SecurityMonitor(m)
    m.map_page(PRV_S, "host", BAIT_VA, 0x900, "rwu")
    m.access("host", BAIT_VA, AccessKind.WRITE, PRV_S, data=b"os-owned-data!!!")
    mee = m.mee
    calls = {"read": 0, "write": 0}
    mee.read = _counted(calls, "read", mee.read)
    mee.write = _counted(calls, "write", mee.write)
    handle = None
    sealed = None

    def ecreate():
        nonlocal handle
        handle = spawn_enclave(m, sm)

    def swap_out():
        nonlocal sealed
        sealed = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)

    def probe(disposition=DispositionKind.RETRY_DENIED):
        with pytest.raises(AuthenticationException) as info:
            m.access("host", BAIT_VA, AccessKind.READ, PRV_U, size=4)
        assert info.value.disposition is disposition

    steps = [
        ("ecreate", ecreate),
        ("eenter", lambda: sm.eenter(handle)),
        ("interrupt", sm.interrupt),
        ("resume", lambda: sm.eenter(handle)),
        ("emod", lambda: sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW),
                                 PageCtx(PageType.REGULAR, RO))),
        ("edestroy", lambda: sm.edestroy(DATA_VA)),
        ("eprepare", lambda: sm.eprepare(DATA_VA, PageType.REGULAR, RW)),
        ("eexit", sm.eexit),
        ("swap_out", swap_out),
        ("swap_in", lambda: sm.swap_in(handle, DATA_VA, sealed)),
        (None, lambda: sm.eenter(handle)),
        ("fault", probe),
        (None, probe),
        ("terminate", lambda: probe(DispositionKind.ENCLAVE_TERMINATED)),
    ]
    out = {}
    for name, step in steps:
        before = calls["read"], calls["write"], mee.seals, mee.opens
        step()
        after = calls["read"], calls["write"], mee.seals, mee.opens
        if name is not None:
            out[name] = tuple(a - b for a, b in zip(after, before))
    return out


def test_each_monitor_call_costs_the_engine_what_the_ledger_says():
    assert _ledger() == LEDGER

