"""Work kept off the hot paths, held by counts rather than wall time.

No enum member load on the access path.  On CPython 3.11 ``EnumType``
defines ``__getattr__``, so ``AccessKind.WRITE`` in a function body takes
the slow attribute hook, several times the cost of a plain class attribute
load, and a read hit through the tweak cache made three such loads.  The
hot functions compare against module globals bound once at import instead.
Wall time cannot hold that; these tests read the functions' source and
fail on any ``Enum.MEMBER`` load back in their bodies.

No decode and no key derivation on a warm enclave switch.  The monitor
keeps each monitor page's decoded record, page tweak and derived encid
sid, so once an enclave has been entered and left, an exit and an entry
decode neither monitor page, build no page tweak and run no HMAC, while
the engine still verifies and re-seals what the ledger says.

No Python frame that does no modelled work on a cached line access.  With
the tweak cache on, a hit read runs the access and the cache read: the
access memo holds the permission verdict, and a read goes straight to the
cache.  A hit write runs the access, the read-modify-write line routine,
the cache read, the engine's one-line write and the cache update; a miss
read adds the engine's one-line read and the install of the fill to a hit
read.  A warm switch reads its monitor pages through the same cache read,
with no line routine and no tweak object per line.  The frames are pinned
by name."""

import ast
import enum
import inspect
import textwrap

import pytest

from conftest import python_frames, spawn_enclave
from test_ledger import LEDGER, _counted
from servas_sim import aead, cache, cli, image, machine, mee, monitor, scenarios, tweak
from servas_sim.cache import CacheCfg
from servas_sim.machine import AccessKind, Machine
from servas_sim.tweak import PRV_S, PRV_U, PageType

PACKAGE_ENUMS = frozenset(
    obj for module in (aead, cache, cli, image, machine, mee, monitor, scenarios, tweak)
    for obj in vars(module).values()
    if isinstance(obj, type) and issubclass(obj, enum.Enum)
    and obj.__module__.startswith("servas_sim."))

HOT = [
    machine.Machine.access,
    machine.Machine._line_access,
    machine._check_pte,
    machine.Machine.pinned_page,
    machine.CsrFile._map_sids,
    cache.TweakTaggedCache.read,
    cache.TweakTaggedCache.update,
    cache.TweakTaggedCache._install,
    mee.Mee.read,
    mee.Mee.write,
    tweak.compose_sw_tweak,
    tweak.select_sid,
    tweak.classify_tweak,
    scenarios.ScenarioRunner._act_access,
]


def _resolve(expr, names: dict):
    """The object a ``Name`` or dotted ``Name.attr...`` expression names in
    ``names``, or None for anything else."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, names), expr.attr, None)
    return None


def enum_member_loads(fn) -> list[str]:
    """Every ``Enum.MEMBER`` load in ``fn``'s body (its signature's defaults
    and annotations are evaluated once, not per call) where ``Enum`` names
    one of the package's enum classes in ``fn``'s module."""
    source, first = inspect.getsourcelines(fn)
    node = ast.parse(textwrap.dedent("".join(source))).body[0]
    found = []
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                cls = _resolve(sub.value, fn.__globals__)
                if cls in PACKAGE_ENUMS and sub.attr in cls.__members__:
                    found.append(f"{ast.unparse(sub)} at line {first + sub.lineno - 1}")
    return found


def test_the_package_enums_are_found():
    assert {cls.__name__ for cls in PACKAGE_ENUMS} >= {
        "AccessKind", "PageType", "EvictionMode", "ImagePageType",
        "EnclaveState", "DispositionKind"}


def _loads_members(kind, ptype):
    read = AccessKind.READ
    return kind is machine.AccessKind.WRITE or ptype is PageType.SHM or kind is read


def test_the_guard_sees_a_member_load():
    assert [f.split(" at ")[0] for f in enum_member_loads(_loads_members)] == [
        "AccessKind.READ", "machine.AccessKind.WRITE", "PageType.SHM"]


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__qualname__)
def test_no_enum_member_load_on_the_access_path(fn):
    assert enum_member_loads(fn) == [], (
        f"{fn.__module__}.{fn.__qualname__} loads an enum member; bind it as a "
        "module global instead")


def test_a_warm_switch_decodes_and_derives_nothing(monkeypatch):
    """After one warm-up round trip on the standard world, an eenter from
    the host's one call site and the eexit after it call neither page
    decoder, the page-tweak builder nor the key derivation, and cost the
    engine exactly the ledger's rows.  Each switch writes the six CSRs the
    monitor owns as one bank: one ``Machine.write_csrs`` call, and no
    ``Machine.write_csr`` call, a switch."""
    m = Machine(seed=0)
    sm = monitor.SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    sm.eenter(handle)
    sm.eexit()
    calls = {"read": 0, "write": 0, "EnclaveMeta.unpack": 0, "ThreadMeta.unpack": 0,
             "kdf": 0, "_monitor_page_tweak": 0, "write_csr": 0, "write_csrs": 0}
    m.mee.read = _counted(calls, "read", m.mee.read)
    m.mee.write = _counted(calls, "write", m.mee.write)
    for cls in (monitor.EnclaveMeta, monitor.ThreadMeta):
        monkeypatch.setattr(cls, "unpack",
                            _counted(calls, f"{cls.__name__}.unpack", cls.unpack))
    monkeypatch.setattr(monitor, "kdf", _counted(calls, "kdf", monitor.kdf))
    monkeypatch.setattr(m, "write_csr", _counted(calls, "write_csr", m.write_csr))
    monkeypatch.setattr(m, "write_csrs", _counted(calls, "write_csrs", m.write_csrs))
    monkeypatch.setattr(sm, "_monitor_page_tweak",
                        _counted(calls, "_monitor_page_tweak", sm._monitor_page_tweak))
    ledger = {}
    m.pc = 0  # the host enters from one call site, so its saved context repeats
    for name, call in (("eenter", lambda: sm.eenter(handle)), ("eexit", sm.eexit)):
        start = calls["read"], calls["write"], m.mee.seals, m.mee.opens
        call()
        end = calls["read"], calls["write"], m.mee.seals, m.mee.opens
        ledger[name] = tuple(b - a for a, b in zip(start, end))
    assert ledger == {"eenter": LEDGER["eenter"], "eexit": LEDGER["eexit"]}
    assert {name: n for name, n in calls.items() if name not in ("read", "write")} == {
        "EnclaveMeta.unpack": 0, "ThreadMeta.unpack": 0, "kdf": 0, "_monitor_page_tweak": 0,
        "write_csr": 0, "write_csrs": 2}


@pytest.fixture
def cached():
    """A machine with the tweak cache on, one user page mapped and line 0
    of it written and read, so its access memo and cache entry are warm."""
    m = Machine(seed=0, cache_cfg=CacheCfg(512, 4))
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    m.access("p", 0x1000, AccessKind.WRITE, PRV_U, data=b"abcdefgh")
    m.access("p", 0x1000, AccessKind.READ, PRV_U, size=8)
    return m


_READ_ARGS = ("p", 0x1000, AccessKind.READ, PRV_U, None, 8)


def test_a_cached_hit_read_runs_two_python_frames(cached):
    assert python_frames(cached.access, *_READ_ARGS) == ["access", "read"]
    assert cached.cache.hits == 2


def test_a_cached_hit_write_runs_five_python_frames(cached):
    assert python_frames(cached.access, "p", 0x1000, AccessKind.WRITE, PRV_U,
                         b"12345678") == ["access", "_line_access", "read", "write", "update"]
    assert cached.access(*_READ_ARGS) == b"12345678"


def test_a_cache_miss_read_runs_four_python_frames(cached):
    """The engine's memo serves the fill: no AEAD call, no helper frame."""
    cached.cache.invalidate(0x10 * 64)
    assert python_frames(cached.access, *_READ_ARGS) == ["access", "read", "read", "_install"]
    assert cached.cache.misses == 2


def test_a_warm_cached_switch_steps_the_packed_tweak():
    """With the tweak cache on, a warm ``eenter`` and the ``eexit`` after
    it read their monitor pages through the cache's read line by line,
    under the packed tweak stepped per line: no line routine frame and no
    tweak object built per line.  With the cache emptied before each call,
    every line is a miss the engine reads on its own, and the engine's
    writes, seals and opens are the ledger's."""
    m = Machine(seed=0, cache_cfg=CacheCfg(512, 4))
    sm = monitor.SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    sm.eenter(handle)
    sm.eexit()
    calls = {"read": 0, "write": 0}
    m.mee.read = _counted(calls, "read", m.mee.read)
    m.mee.write = _counted(calls, "write", m.mee.write)
    m.pc = 0  # the host enters from one call site, so its saved context repeats
    frames, ledger = [], {}
    for name, call in (("eenter", lambda: sm.eenter(handle)), ("eexit", sm.eexit)):
        m.cache.invalidate_all()
        start = calls["read"], calls["write"], m.mee.seals, m.mee.opens
        frames += python_frames(call)
        ledger[name] = tuple(b - a for a, b in zip(
            start, (calls["read"], calls["write"], m.mee.seals, m.mee.opens)))
    assert "_line_access" not in frames and "from_int" not in frames
    assert frames.count("_install") == 128 + 64
    assert ledger == {name: (LEDGER[name][3], *LEDGER[name][1:]) for name in ("eenter", "eexit")}
