"""Monitor calls that cannot be torn.

Every monitor call loads and verifies, decides, stores each page it
changes, and only then switches the hart, at one commit point
(:meth:`SecurityMonitor._switch`).  So an engine write that raises
mid-call leaves the hart as the call found it: an enclave that was running
still runs, with its own range, sids and registers, and a host that was
running holds none of the enclave's.  The failure-injection test makes
each engine write of each ledger call raise in turn and checks that; the
structural test holds the commit point to one function."""

import ast
import inspect

import pytest

from conftest import A_BASE
from test_ledger import LEDGER, LedgerWorld
from servas_sim import monitor
from servas_sim.cache import CacheCfg
from servas_sim.machine import LINES_PER_PAGE, PAGE_BYTES, AccessKind, AuthenticationException, Trap
from servas_sim.monitor import WrongState
from servas_sim.tweak import PRV_U, RangeReg

ENCLAVE_VAS = [A_BASE + i * PAGE_BYTES for i in range(3)]  # code, data, stack
MRANGE = RangeReg(A_BASE, len(ENCLAVE_VAS) * PAGE_BYTES, True)
CANARY = 0x5EC2E7
ENCLAVE_REGS = [0] * 5 + [CANARY] + [0] * 26  # x5 marks the enclave's registers


class InjectedFault(Exception):
    pass


CASES = [(row, k) for row, (_, writes, _, _) in LEDGER.items() for k in range(1, writes + 1)]


def _fail_write(m, k: int):
    """Make the ``k``-th engine write from now on raise, before it seals
    anything; return the engine's own write."""
    write, seen = m.mee.write, []

    def failing(*args):
        seen.append(1)
        if len(seen) == k:
            raise InjectedFault(f"engine write {k} failed")
        return write(*args)

    m.mee.write = failing
    return write


def _check_host_holds_nothing(m):
    """No enclave range, sid or register value is left, and a U-mode host
    read of each enclave page the engine has sealed traps."""
    assert not m.csr.mrange.enabled
    assert (m.csr.msid0, m.csr.msid1) == (0, 0)
    assert CANARY not in m.regs
    sealed = m.mee.written_lines()
    for va in ENCLAVE_VAS:
        if m.walk("host", va).ppn * LINES_PER_PAGE in sealed:
            with pytest.raises(Trap):
                m.access("host", va, AccessKind.READ, PRV_U, size=16)


def _check_enclave_runs(m, rtid: int, regs):
    assert (m.prv, m.csr.mrange, m.csr.msid0) == (PRV_U, MRANGE, rtid)
    assert m.regs in regs


@pytest.mark.parametrize("cache_cfg", [None, CacheCfg(8, 2)], ids=["cache-off", "cache-8x2"])
@pytest.mark.parametrize("row,k", CASES, ids=[f"{row}-k{k}" for row, k in CASES])
def test_a_failed_engine_write_leaves_the_hart_as_it_was(row, k, cache_cfg):
    """Run one enclave's life up to ledger call ``row`` and make its
    ``k``-th engine write raise.  With no enclave active afterwards, the
    host holds nothing of the enclave's; with one still active, it runs
    at U-mode under its own range, rtid and registers.  The host's next
    entry then runs the enclave with its own registers (zero on a fresh
    start) or is refused with WrongState or AUTH."""
    world = LedgerWorld(cache_cfg)
    m, sm = world.m, world.sm
    for name, step in world.steps:
        if name == row:
            break
        step()
        if m.active_enclave is not None:
            m.set_reg(5, CANARY)
    write = _fail_write(m, k)
    with pytest.raises(InjectedFault):
        step()
    m.mee.write = write
    if m.active_enclave is None:
        _check_host_holds_nothing(m)
    else:
        _check_enclave_runs(m, world.handle.rtid, [ENCLAVE_REGS])
    if world.handle is None:
        return  # ecreate failed: the host holds no handle to enter
    try:
        sm.eenter(world.handle)
    except (WrongState, AuthenticationException):
        return
    assert m.active_enclave == world.handle
    _check_enclave_runs(m, world.handle.rtid, [[0] * 32, ENCLAVE_REGS])


# --- one commit point ------------------------------------------------------------

HART = {"regs", "pc", "active_enclave", "prv"}


def _machine_exprs(fn: ast.FunctionDef) -> set[str]:
    """The expressions that name the machine in ``fn``: ``self.machine``,
    a parameter annotated ``Machine`` and any name bound to either."""
    names = {"self.machine"} | {arg.arg for arg in fn.args.args if arg.annotation is not None
                                and ast.unparse(arg.annotation) == "Machine"}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and ast.unparse(node.value) in names:
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _flat(targets):
    """Assignment targets with tuples and lists unpacked."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat(target.elts)
        else:
            yield target.value if isinstance(target, ast.Starred) else target


def hart_writes(source: str) -> list[str]:
    """Each place in ``source`` outside ``_switch`` that changes the hart:
    a ``write_csr``, ``write_csrs`` or ``set_reg`` call, or an assignment to the machine's
    ``regs`` (or one of them), ``pc``, ``active_enclave`` or ``prv``, bar
    ``_monitor_call``'s save and restore of ``prv``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_switch":
            continue
        machine = _machine_exprs(fn)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_csr", "write_csrs", "set_reg")):
                found.append(f"{fn.name}: {ast.unparse(node)}")
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for sub in _flat(targets):
                if isinstance(sub, ast.Subscript):
                    sub = sub.value
                if (isinstance(sub, ast.Attribute) and sub.attr in HART
                        and ast.unparse(sub.value) in machine
                        and not (fn.name == "_monitor_call" and sub.attr == "prv")):
                    found.append(f"{fn.name}: {ast.unparse(node)}")
    return found


def test_the_guard_sees_each_kind_of_hart_write():
    source = '''
class UserCtx:
    def restore(self, machine: Machine):
        machine.pc = self.pc

def eenter(self, regs):
    m = self.machine
    m.write_csr(0, "mrange", None)
    m.write_csrs(0, {"msid0": 0})
    m.regs[5] = 1
    self.machine.prv, done = 0, True
    m.set_reg(5, 1)

def _monitor_call(self):
    self.machine.prv = 3
    self.machine.active_enclave = None

def _switch(self, m):
    m.active_enclave = None
    m.write_csr(0, "msid0", 0)

def _store(self, thread):
    thread.saved.regs = None
'''
    assert sorted(line.split(":")[0] for line in hart_writes(source)) == [
        "_monitor_call", "eenter", "eenter", "eenter", "eenter", "eenter", "restore"]


def test_only_the_commit_point_changes_the_hart():
    assert hart_writes(inspect.getsource(monitor)) == []
