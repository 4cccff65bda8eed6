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


class LedgerWorld:
    """The standard world at seed 0, with an S-mode bait page the host
    space maps user-accessible, and ``steps``: one enclave's life through
    every call, as (name, step) pairs in order, a step named None run but
    not counted.  ``handle`` is the enclave's once ``ecreate`` has run."""

    def __init__(self, cache_cfg=None):
        self.m = m = Machine(seed=0, cache_cfg=cache_cfg)
        self.sm = sm = SecurityMonitor(m)
        self.handle = self.sealed = None
        m.map_page(PRV_S, "host", BAIT_VA, 0x900, "rwu")
        m.access("host", BAIT_VA, AccessKind.WRITE, PRV_S, data=b"os-owned-data!!!")
        self.steps = [
            ("ecreate", self._ecreate),
            ("eenter", lambda: sm.eenter(self.handle)),
            ("interrupt", sm.interrupt),
            ("resume", lambda: sm.eenter(self.handle)),
            ("emod", lambda: sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW),
                                     PageCtx(PageType.REGULAR, RO))),
            ("edestroy", lambda: sm.edestroy(DATA_VA)),
            ("eprepare", lambda: sm.eprepare(DATA_VA, PageType.REGULAR, RW)),
            ("eexit", sm.eexit),
            ("swap_out", self._swap_out),
            ("swap_in", lambda: sm.swap_in(self.handle, DATA_VA, self.sealed)),
            (None, lambda: sm.eenter(self.handle)),
            ("fault", self._probe),
            (None, self._probe),
            ("terminate", lambda: self._probe(DispositionKind.ENCLAVE_TERMINATED)),
        ]

    def _ecreate(self):
        self.handle = spawn_enclave(self.m, self.sm)

    def _swap_out(self):
        self.sealed = self.sm.swap_out(self.handle, DATA_VA, temp_ppn=0x400)

    def _probe(self, disposition=DispositionKind.RETRY_DENIED):
        with pytest.raises(AuthenticationException) as info:
            self.m.access("host", BAIT_VA, AccessKind.READ, PRV_U, size=4)
        assert info.value.disposition is disposition


def _ledger() -> dict[str, tuple[int, int]]:
    """Run one enclave's life through every call and count each call's
    engine work."""
    world = LedgerWorld()
    mee = world.m.mee
    calls = {"read": 0, "write": 0}
    mee.read = _counted(calls, "read", mee.read)
    mee.write = _counted(calls, "write", mee.write)
    out = {}
    for name, step in world.steps:
        before = calls["read"], calls["write"], mee.seals, mee.opens
        step()
        after = calls["read"], calls["write"], mee.seals, mee.opens
        if name is not None:
            out[name] = tuple(a - b for a, b in zip(after, before))
    return out


def test_each_monitor_call_costs_the_engine_what_the_ledger_says():
    assert _ledger() == LEDGER

