"""Access pipeline, CSR gating, bypass, and the end-to-end
isolation properties of the machine."""

import random

import pytest

from servas_sim.cache import CacheCfg
from servas_sim.machine import (
    AccessKind,
    AuthenticationException,
    Machine,
    InvalidCombinationTrap,
    PageFault,
    PrivilegeTrap,
)
from servas_sim.tweak import (
    PRV_M,
    PRV_S,
    PRV_U,
    RangeReg,
    XR_M,
    XR_U,
    SwTweak,
    pack_pte_bits,
)

READ, WRITE, FETCH = AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH


@pytest.fixture
def m():
    machine = Machine(seed=3)
    machine.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    return machine


def test_write_read_roundtrip_same_context(m):
    m.access("p", 0x1010, WRITE, PRV_U, data=b"hello-line")
    assert m.access("p", 0x1010, READ, PRV_U, size=10) == b"hello-line"


def test_fresh_lines_read_as_zeros(m):
    assert m.access("p", 0x1000, READ, PRV_U, size=8) == bytes(8)


def test_unmapped_access_page_faults(m):
    with pytest.raises(PageFault):
        m.access("p", 0x9000, READ, PRV_U)
    m.unmap_page(PRV_S, "p", 0x1000)
    with pytest.raises(PageFault):
        m.access("p", 0x1000, READ, PRV_U)


def test_permission_checks(m):
    m.map_page(PRV_S, "p", 0x2000, 0x20, "r")  # no write, no user
    with pytest.raises(PageFault):
        m.access("p", 0x2000, WRITE, PRV_S, data=b"x")
    with pytest.raises(PageFault):
        m.access("p", 0x2000, FETCH, PRV_S)
    with pytest.raises(PageFault):
        m.access("p", 0x2000, READ, PRV_U)  # user bit clear
    assert m.access("p", 0x2000, READ, PRV_S, size=4) == bytes(4)


def test_double_mapping_walks_to_one_frame(m):
    """The attack primitive: two virtual pages over one physical page."""
    m.map_page(PRV_S, "p", 0x3000, 0x10, "rwu")
    m.access("p", 0x1000, WRITE, PRV_U, data=b"aliased!")
    # same frame, same pte bits, different va => different voffset => denied
    with pytest.raises(AuthenticationException):
        m.access("p", 0x3000, READ, PRV_U, size=8)


def test_map_page_requires_supervisor(m):
    with pytest.raises(PrivilegeTrap):
        m.map_page(PRV_U, "p", 0x4000, 0x40, "rw")
    with pytest.raises(PrivilegeTrap):
        m.unmap_page(PRV_U, "p", 0x1000)


def test_cross_privilege_isolation(m):
    """Same mapping, same address: S-mode data is unreadable at U."""
    m.access("p", 0x1000, WRITE, PRV_S, data=b"supervisor-only!")
    with pytest.raises(AuthenticationException):
        m.access("p", 0x1000, READ, PRV_U, size=16)
    assert m.access("p", 0x1000, READ, PRV_S, size=16) == b"supervisor-only!"


def test_pte_bits_bind_the_mapping(m):
    m.access("p", 0x1000, WRITE, PRV_U, data=b"bound-to-rwu!")
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwxu")  # OS flips X on
    with pytest.raises(AuthenticationException):
        m.access("p", 0x1000, READ, PRV_U, size=13)


def test_sub_line_slicing(m):
    m.access("p", 0x1000, WRITE, PRV_U, data=bytes(range(64)))
    assert m.access("p", 0x1020, READ, PRV_U, size=4) == bytes([32, 33, 34, 35])
    m.access("p", 0x1021, WRITE, PRV_U, data=b"\xff")
    line = m.access("p", 0x1000, READ, PRV_U, size=64)
    assert line[33] == 0xFF and line[32] == 32


@pytest.mark.parametrize("va, ppn", [(-4096, 0x10), (0x2000, -1)])
def test_map_page_rejects_negative_va_or_ppn(m, va, ppn):
    with pytest.raises(ValueError, match="non-negative"):
        m.map_page(PRV_S, "p", va, ppn, "rwu")
    assert m.walk("p", va) is None


@pytest.mark.parametrize("ppn", [1 << 58, 1 << 70])
def test_map_page_rejects_a_ppn_past_the_engine_line_range(m, ppn):
    """A page whose lines the engine cannot address is refused, so no
    S-mode read or write can reach it; the last addressable page maps and
    holds data."""
    with pytest.raises(ValueError, match="beyond the engine's range"):
        m.map_page(PRV_S, "p", 0x2000, ppn, "rw")
    assert m.walk("p", 0x2000) is None
    for kind in (READ, WRITE):
        with pytest.raises(PageFault, match="unmapped"):
            m.access("p", 0x2000, kind, PRV_S, size=1, data=b"x")
    m.map_page(PRV_S, "p", 0x2000, (1 << 58) - 1, "rw")
    m.access("p", 0x2fc0, WRITE, PRV_S, data=b"top")
    assert m.access("p", 0x2fc0, READ, PRV_S, size=3) == b"top"


@pytest.mark.parametrize("kind", [READ, WRITE])
def test_negative_va_page_faults_in_s_mode(m, kind):
    """A negative va is outside the address space: no page-table entry can
    make it reachable."""
    m.spaces["p"][-1] = m.walk("p", 0x1000)  # as an unvalidated mapping would have
    with pytest.raises(PageFault, match="outside the address width"):
        m.access("p", -4096, kind, PRV_S, data=b"x" if kind is WRITE else None)


@pytest.mark.parametrize("kind", [READ, WRITE])
def test_negative_va_page_faults_in_m_mode(m, kind):
    """M-mode is untranslated, so va -64 would be physical line -1: a read
    used to return zeros there while a write raised ValueError."""
    with pytest.raises(PageFault, match="outside the address width"):
        m.access("p", -64, kind, PRV_M, data=b"x" if kind is WRITE else None)


def test_access_cannot_cross_line(m):
    with pytest.raises(ValueError):
        m.access("p", 0x103C, READ, PRV_U, size=8)


@pytest.mark.parametrize("kind", [READ, FETCH])
@pytest.mark.parametrize("size", [0, -5])
def test_non_positive_read_size_rejected(m, kind, size):
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwxu")
    m.access("p", 0x1000, WRITE, PRV_U, data=bytes(range(64)))
    with pytest.raises(ValueError, match="at least 1"):
        m.access("p", 0x1000, kind, PRV_U, size=size)
    assert m.access("p", 0x1000, kind, PRV_U, size=1) == b"\x00"


def test_trap_totality_single_outcome(m):
    """Every access yields data or exactly one trap type."""
    outcomes = set()
    for va, kind, prv in [(0x1000, READ, PRV_U), (0x9000, READ, PRV_U),
                          (0x1000, WRITE, PRV_S)]:
        try:
            m.access("p", va, kind, prv, data=b"z" if kind is WRITE else None)
            outcomes.add("ok")
        except (PageFault, AuthenticationException, PrivilegeTrap,
                InvalidCombinationTrap) as exc:
            outcomes.add(exc.kind)
    assert outcomes == {"ok", "PAGE_FAULT"}


# --- CSR file -----------------------------------------------------------------


def test_csr_privilege_gating(m):
    m.write_csr(PRV_U, "urange", RangeReg(0x1000, 0x1000, True))
    m.write_csr(PRV_S, "srange", RangeReg(0x2000, 0x1000, True))
    with pytest.raises(PrivilegeTrap):
        m.write_csr(PRV_U, "srange", RangeReg(0, 64, True))
    with pytest.raises(PrivilegeTrap):
        m.write_csr(PRV_U, "msid0", 1)
    with pytest.raises(PrivilegeTrap):
        m.write_csr(PRV_S, "mrange", RangeReg(0, 64, True))
    m.write_csr(PRV_M, "mrange", RangeReg(0x4000, 0x1000, True))
    assert m.read_csr(PRV_S, "srange").base == 0x2000


def test_csr_misaligned_range_rejected(m):
    with pytest.raises(ValueError):
        m.write_csr(PRV_S, "srange", RangeReg(0x1008, 0x1000, True))


@pytest.mark.parametrize("value, error", [
    ((-4096, 8192, True), "negative"), ((4096, -4096, True), "negative"),
    ([-64, 0, False], "negative"), ((4096.0, 4096, True), "integers"),
    ((4096, 4096.0, True), "integers"), ((4096, 4096, "yes"), "bool"),
    ((4096, 4096, 1), "bool"),
])
def test_csr_bad_range_rejected(m, value, error):
    for name in ("urange", "srange", "mrange"):
        before = m.read_csr(PRV_M, name)
        with pytest.raises(ValueError, match=error):
            m.write_csr(PRV_M, name, value)
        assert m.read_csr(PRV_M, name) == before


@pytest.mark.parametrize("name, value", [
    ("urange", 5), ("srange", "x"), ("usid0", RangeReg(0, 64, True)), ("msid1", [1, 2]),
    ("ssid0", 2.5),
])
def test_csr_value_of_the_wrong_kind_rejected(m, name, value):
    """A range CSR takes a range (or its three fields), a sid CSR an
    integer; anything else is a ValueError before the CSR changes."""
    before = m.read_csr(PRV_M, name)
    with pytest.raises(ValueError):
        m.write_csr(PRV_M, name, value)
    assert m.read_csr(PRV_M, name) == before


@pytest.mark.parametrize("value", [(), (4096,), (4096, 4096), [4096, 4096, True, 0]],
                         ids=["empty", "base-only", "no-enabled", "four-fields"])
def test_csr_range_tuple_of_the_wrong_length_rejected(m, value):
    """A range given as fields takes exactly (base, size, enabled): any
    other length is a ValueError, like any malformed CSR value."""
    with pytest.raises(ValueError, match=r"takes \(base, size, enabled\)"):
        m.write_csr(PRV_M, "urange", value)
    assert m.read_csr(PRV_M, "urange") == RangeReg()


_BANK = {"mrange": RangeReg(0x4000, 0x1000, True), "msid0": 7, "msid1": 8,
         "urange": RangeReg(0x1000, 0x1000, True), "usid0": 9, "usid1": 10}


@pytest.mark.parametrize("prv, bad", [
    (PRV_M, {"usid1": -1}), (PRV_M, {"urange": RangeReg(0x1008, 0x1000, True)}),
    (PRV_M, {"tsid0": 1}), (PRV_S, {}),
], ids=["bad-sid", "misaligned-range", "unknown-csr", "below-m"])
def test_a_csr_bank_write_is_all_or_nothing(m, prv, bad):
    """A bank write checks every name and value before it writes the first:
    one refused value (or a privilege too low for one CSR) writes none of
    them and leaves the access memo unflagged; the good bank then writes
    all six and maps the sids once."""
    before = {name: m.read_csr(PRV_M, name) for name in _BANK}
    with pytest.raises((ValueError, PrivilegeTrap)):
        m.write_csrs(prv, {**_BANK, **bad})
    assert {name: m.read_csr(PRV_M, name) for name in _BANK} == before
    assert not m._csrs_written
    m.write_csrs(PRV_M, _BANK)
    assert {name: m.read_csr(PRV_M, name) for name in _BANK} == _BANK
    assert (m.csr.sid_regs[XR_M], m.csr.sid_regs[XR_U]) == ((7, 8), (9, 10))


def test_cpu_key_not_readable_below_m(m):
    with pytest.raises(PrivilegeTrap):
        m.read_csr(PRV_S, "cpu_key")
    assert len(m.read_csr(PRV_M, "cpu_key")) == 16


def test_cpu_key_deterministic_per_seed():
    assert Machine(seed=5).cpu_key == Machine(seed=5).cpu_key
    assert Machine(seed=5).cpu_key != Machine(seed=6).cpu_key


@pytest.mark.parametrize("idx", [-1, 32, 99])
def test_register_index_outside_file_rejected(m, idx):
    with pytest.raises(ValueError, match="register index"):
        m.set_reg(idx, 7)
    with pytest.raises(ValueError, match="register index"):
        m.get_reg(idx)
    assert m.regs == [0] * 32
    m.set_reg(31, -1)
    assert m.get_reg(31) == (1 << 64) - 1


# --- the pinned-tweak page path -------------------------------------------------


def test_override_initialization_matches_enclave_view(m):
    """An M-mode write under a pinned tweak, which overrides whatever
    composition would give, seals lines the targeted context reads back
    natively (the page-initialization mechanism)."""
    m.write_csr(PRV_M, "mrange", RangeReg(0x1000, 0x1000, True))
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu", rsw=0b01)
    pte = m.walk("p", 0x1000).bits
    m.pinned_page(0x10, SwTweak(0b100, 0, PRV_U, pte, 99), WRITE, b"I" * 4096)
    m.write_csr(PRV_M, "msid0", 99)
    assert m.access("p", 0x1000, READ, PRV_U, size=2) == b"II"
    assert m.access("p", 0x1FC0, READ, PRV_U, size=2) == b"II"  # the last line


def test_pinned_page_matches_direct_engine_write(m):
    """A pinned-page write seals line ``i`` under the given tweak stepped by
    ``i``, byte for byte what the engine seals for that tweak; it reads back
    under that tweak and fails authentication under any other sid."""
    pte = pack_pte_bits(r=True, w=True, x=False, u=True, g=False, rsw=0b01)
    fields = dict(xrange=0b100, voffset=3, prv=PRV_U, pte=pte, sid=99)
    other = Machine(seed=3)
    other.mee.write(0x10 * 64 + 2, b"P" * 64, SwTweak(**dict(fields, voffset=5)))
    m.pinned_page(0x10, SwTweak(**fields), WRITE, b"P" * 4096, lines=[2])
    assert m.mee.snapshot_line(0x10 * 64 + 2) == other.mee.snapshot_line(0x10 * 64 + 2)
    assert m.pinned_page(0x10, SwTweak(**fields), lines=[2]) == b"P" * 64
    with pytest.raises(AuthenticationException):
        m.pinned_page(0x10, SwTweak(**dict(fields, sid=98)), lines=[2])


@pytest.mark.parametrize("cache_cfg", [None, CacheCfg(64, 4)], ids=["cache-off", "cache-on"])
def test_pinned_page_write_returns_nothing(cache_cfg):
    """A write hands nothing back (no caller reads the lines it wrote); a
    read returns the lines it verified."""
    machine = Machine(seed=3, cache_cfg=cache_cfg)
    sw = SwTweak(0, 0x10 * 64, PRV_M, 0b0000110, 5)
    assert machine.pinned_page(0x10, sw, WRITE, b"W" * 4096) is None
    assert machine.pinned_page(0x10, sw, WRITE, b"V" * 4096, lines=[1]) is None
    assert machine.pinned_page(0x10, sw, lines=[0, 1]) == b"W" * 64 + b"V" * 64


def test_pinned_page_auth_trap_names_the_failing_line(m):
    """A flipped bit in line 17 of a page fails the page read there: the
    trap carries that line's address, its stepped tweak and the monitor's
    disposition, and lines never written read as zeros, cache on or off."""
    from servas_sim.cache import CacheCfg

    fields = dict(xrange=0, voffset=0x10 * 64, prv=PRV_M, pte=0, sid=0)
    for machine in (m, Machine(seed=3, cache_cfg=CacheCfg(n_lines=16, ways=2))):
        machine.sm_auth_handler = lambda trap: ("handled", trap.line_index)
        content = bytes(range(64)) * 64
        machine.pinned_page(0x10, SwTweak(**fields), WRITE, content, lines=range(32))
        page = machine.pinned_page(0x10, SwTweak(**fields))
        assert page == content[:32 * 64] + bytes(32 * 64)
        machine.phys_flip_bit(0x10 * 64 + 17, 3)
        with pytest.raises(AuthenticationException) as info:
            machine.pinned_page(0x10, SwTweak(**fields))
        trap = info.value
        assert (trap.va, trap.prv, trap.line_index) == (0x10 * 4096 + 17 * 64, PRV_M, 0x10 * 64 + 17)
        assert trap.sw == SwTweak(**dict(fields, voffset=0x10 * 64 + 17))
        assert trap.disposition == ("handled", 0x10 * 64 + 17)


def test_pinned_page_over_a_partly_written_page_is_the_same_cache_on_or_off():
    """Scattered written lines read back, and the rest as zeros, with the
    same bytes and the same opens whether the read goes through the cache
    line by line or is one engine call."""
    sw = SwTweak(0, 0x10 * 64, PRV_M, 0, 7)
    content = bytes(random.Random(5).randbytes(4096))
    pages = []
    for cache_cfg in (None, CacheCfg(512, 4)):
        machine = Machine(seed=3, cache_cfg=cache_cfg)
        machine.pinned_page(0x10, sw, WRITE, content, lines=[0, 5, 6, 63])
        pages.append(machine.pinned_page(0x10, sw))
        assert machine.mee.opens == 4
    expected = bytearray(4096)
    for i in (0, 5, 6, 63):
        expected[i * 64:(i + 1) * 64] = content[i * 64:(i + 1) * 64]
    assert pages == [bytes(expected)] * 2


# --- invalid combinations ---------------------------------------------------------


def test_invalid_combination_traps(m):
    # user access inside the supervisor range only: no table row
    m.write_csr(PRV_S, "srange", RangeReg(0x1000, 0x1000, True))
    with pytest.raises(InvalidCombinationTrap):
        m.access("p", 0x1000, READ, PRV_U)


def test_shm_fetch_is_invalid(m):
    m.map_page(PRV_S, "p", 0x5000, 0x50, "rwxu", rsw=0b11)
    m.write_csr(PRV_U, "urange", RangeReg(0x5000, 0x1000, True))
    with pytest.raises(InvalidCombinationTrap):
        m.access("p", 0x5000, FETCH, PRV_U)


# --- bypass ------------------------------------------------------------------------


def test_bypass_roundtrip_without_counters(m):
    m.set_bypass(PRV_M, True)
    before = m.mee.counter_of(0x10 * 64)
    m.access("p", 0x1000, WRITE, PRV_U, data=b"fastpath")
    assert m.access("p", 0x1000, READ, PRV_U, size=8) == b"fastpath"
    assert m.mee.counter_of(0x10 * 64) == before


def test_bypass_requires_m_mode(m):
    with pytest.raises(PrivilegeTrap):
        m.set_bypass(PRV_S, True)


def test_bypass_neutral_for_protected_types(m):
    """Range-covered accesses still traverse the engine when bypass is on."""
    m.write_csr(PRV_M, "mrange", RangeReg(0x1000, 0x1000, True))
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu", rsw=0b01)
    m.write_csr(PRV_M, "msid0", 5)
    m.access("p", 0x1000, WRITE, PRV_U, data=b"protected-bytes!")
    m.set_bypass(PRV_M, True)
    assert m.access("p", 0x1000, READ, PRV_U, size=16) == b"protected-bytes!"
    assert m.mee.counter_of(0x10 * 64) == 1


def test_end_to_end_context_isolation():
    """Randomized pairs of access contexts: data written under one context
    is never readable under a different one."""
    rng = random.Random(42)
    for trial in range(40):
        m = Machine(seed=trial)
        m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu", rsw=rng.choice([0, 1, 2, 3]))
        m.write_csr(PRV_M, "mrange", RangeReg(0x1000, 0x1000, True))
        m.write_csr(PRV_M, "msid0", rng.randrange(2**64))
        m.write_csr(PRV_M, "msid1", rng.randrange(2**64))
        try:
            m.access("p", 0x1000, WRITE, PRV_U, data=b"ctx-A")
        except InvalidCombinationTrap:
            continue
        sw_a = m.compose_for_access(0x1000, PRV_U, m.walk("p", 0x1000).bits)
        # perturb exactly one context ingredient
        change = rng.choice(["msid0", "remap", "perm"])
        if change == "msid0":
            m.write_csr(PRV_M, "msid0", rng.randrange(2**64))
        elif change == "remap":
            m.write_csr(PRV_M, "mrange", RangeReg(0x0, 0x2000, True))
        else:
            m.map_page(PRV_S, "p", 0x1000, 0x10, "ru", rsw=m.walk("p", 0x1000).rsw)
        try:
            sw_b = m.compose_for_access(0x1000, PRV_U, m.walk("p", 0x1000).bits)
        except Exception:
            continue
        if sw_b == sw_a:
            continue  # perturbation happened to be a no-op for this access
        with pytest.raises((AuthenticationException, InvalidCombinationTrap, PageFault)):
            m.access("p", 0x1000, READ, PRV_U)


def test_adversarial_search_cannot_forge_m_initialized_line():
    """Bounded adversarial search: no sequence of S-mode CSR writes and
    page-table edits reads a line the monitor initialized in M-mode under a
    pinned tweak with a secret sid."""
    m = Machine(seed=9)
    secret_sid = 0xFEED_FACE_CAFE
    sw = SwTweak(0b100, 0, PRV_U, 0b0110110 | 0b01 << 5, secret_sid)
    m.pinned_page(0x77, sw, WRITE, b"M" * 64, lines=[0])

    rng = random.Random(1234)
    for _ in range(500):
        move = rng.randrange(4)
        try:
            if move == 0:
                m.write_csr(PRV_S, "srange",
                            RangeReg(rng.randrange(0, 1 << 20) & ~63,
                                     rng.choice([0x1000, 0x40, 0x80000]), True))
            elif move == 1:
                m.write_csr(PRV_S, rng.choice(["ssid0", "ssid1", "usid0", "usid1"]),
                            rng.choice([secret_sid, 0, rng.randrange(2**64)]))
            elif move == 2:
                m.map_page(PRV_S, "adv", rng.randrange(0, 1 << 20) & ~0xFFF, 0x77,
                           rng.choice(["rw", "rwu", "ru", "rwxu"]),
                           rsw=rng.randrange(4))
            else:
                va = rng.choice([0x77000, rng.randrange(0, 1 << 20) & ~63])
                data = m.access("adv", va, READ,
                                rng.choice([PRV_S, PRV_U]), size=64)
                assert data != b"M" * 64, "adversary forged the monitor context"
        except Exception:
            continue


def test_bypass_toggle_flushes_cache():
    """Toggling the bypass flushes the functional cache so no tweak-tagged
    state survives the mode change."""
    from servas_sim.cache import CacheCfg

    m = Machine(seed=4, cache_cfg=CacheCfg(n_lines=16, ways=2))
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    m.access("p", 0x1000, WRITE, PRV_U, data=b"warm")
    assert any(ways for ways in m.cache.sets)
    m.set_bypass(PRV_M, True)
    assert not any(ways for ways in m.cache.sets)
    # unprotected traffic now bypasses; the sealed line is untouched
    m.access("p", 0x1000, WRITE, PRV_U, data=b"plain-store")
    m.set_bypass(PRV_M, False)
    assert m.access("p", 0x1000, READ, PRV_U, size=4) == b"warm"


@pytest.mark.parametrize("cache_cfg", [None, CacheCfg(16, 2)], ids=["cache-off", "cache-on"])
def test_a_bad_snapshot_restores_nothing(cache_cfg):
    """A snapshot naming a line the engine does not address is refused
    before any line is put back: the line keeps its bytes and its current
    content reads back, cache on or off."""
    m = Machine(seed=3, cache_cfg=cache_cfg)
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    line = 0x10 * 64
    m.access("p", 0x1000, WRITE, PRV_U, data=b"old!")
    old = m.phys_snapshot([line])[line]
    m.access("p", 0x1000, WRITE, PRV_U, data=b"new!")
    assert m.access("p", 0x1000, READ, PRV_U, size=4) == b"new!"
    current = m.phys_snapshot([line])
    with pytest.raises(ValueError):
        m.phys_restore({line: old, -1: old})
    assert m.phys_snapshot([line]) == current
    assert m.access("p", 0x1000, READ, PRV_U, size=4) == b"new!"
