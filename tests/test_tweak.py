"""Tweak composition and page-type classification.

The decision-table test re-interprets the table with an independent
row-matching engine and enumerates all 3,072 (xrange, privilege,
permission, rsw) combinations against it.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from servas_sim.machine import Machine, Pte
from servas_sim.monitor import SecurityMonitor
from servas_sim.tweak import (
    ENCLAVE_RSW,
    PRV_M,
    PRV_S,
    PRV_U,
    XR_M,
    XR_S,
    XR_U,
    InvalidCombination,
    PageType,
    RangeReg,
    SwTweak,
    classify_page_type,
    classify_tweak,
    compose_sw_tweak,
    compute_voffset,
    match_ranges,
    pack_pte_bits,
    select_basis,
    select_sid,
    sw_tweak_bits,
    truncate_sid,
    unpack_pte_bits,
    voffset_bits,
)

DIS = RangeReg()


def _sid_regs(m=(0, 0), s=(0, 0), u=(0, 0)):
    return {XR_M: m, XR_S: s, XR_U: u}


# --- widths and serialization -------------------------------------------------


def test_tweak_widths():
    assert sw_tweak_bits(48) == 134
    assert sw_tweak_bits(39) == 125
    assert voffset_bits(48) == 42
    assert voffset_bits(39) == 33


def test_serialization_field_order_golden():
    # Field order, most significant first: xrange | voffset | prv | pte | sid.
    sw = SwTweak(xrange=0b101, voffset=2, prv=PRV_U, pte=0b0100110, sid=0xDEADBEEF)
    bits = f"{0b101:03b}" + f"{2:042b}" + f"{PRV_U:02b}" + f"{0b0100110:07b}" \
        + f"{0xDEADBEEF:080b}"
    assert len(bits) == 134
    assert sw.to_int() == int(bits, 2)
    assert sw.to_bytes() == int(bits, 2).to_bytes(17, "big")


@given(
    xrange=st.integers(0, 7),
    voffset=st.integers(0, 2**42 - 1),
    prv=st.sampled_from([PRV_U, PRV_S, PRV_M]),
    pte=st.integers(0, 127),
    sid=st.integers(0, 2**80 - 1),
)
def test_serialization_roundtrip(xrange, voffset, prv, pte, sid):
    sw = SwTweak(xrange, voffset, prv, pte, sid)
    assert sw.to_int().bit_length() <= 134
    assert SwTweak.from_int(sw.to_int()) == sw


def test_narrow_va_roundtrip():
    sw = SwTweak(0b001, 2**33 - 1, PRV_U, 0x7F, 1, va_bits=39)
    assert sw.bit_width == 125
    assert SwTweak.from_int(sw.to_int(), va_bits=39) == sw
    with pytest.raises(ValueError):
        SwTweak(0, 2**33, PRV_U, 0, 0, va_bits=39)  # voffset too wide


def test_pte_bit_packing_roundtrip():
    for pte in range(128):
        bits = unpack_pte_bits(pte)
        assert pack_pte_bits(bits["r"], bits["w"], bits["x"], bits["u"],
                             bits["g"], bits["rsw"]) == pte


@pytest.mark.parametrize("rsw", [-1, 4, 5])
def test_an_rsw_outside_two_bits_is_refused(rsw):
    """A value error, not an assert, so it holds under ``python -O``; and a
    PTE built with such an rsw is refused the same way."""
    with pytest.raises(ValueError, match="2-bit"):
        pack_pte_bits(1, 1, 0, 1, 0, rsw)
    with pytest.raises(ValueError, match="2-bit"):
        Pte(ppn=1, r=True, w=True, rsw=rsw)


# --- range matching and basis selection ----------------------------------------


def test_match_ranges_all_disabled():
    assert match_ranges(0x1234_0000, DIS, DIS, DIS) == 0b000


def test_match_ranges_mrange_only():
    m = RangeReg(0x1000, 0x1000, True)
    assert match_ranges(0x1800, m, DIS, DIS) == 0b100


def test_match_ranges_overlap_sets_both_bits():
    m = RangeReg(0x1000, 0x2000, True)
    u = RangeReg(0x2000, 0x1000, True)
    assert match_ranges(0x2400, m, DIS, u) == 0b101


def test_match_ranges_disabled_matches_nothing():
    m = RangeReg(0x1000, 0x1000, False)
    assert match_ranges(0x1800, m, DIS, DIS) == 0b000


def test_range_boundaries_half_open():
    r = RangeReg(0x1000, 0x1000, True)
    assert r.contains(0x1000) and r.contains(0x1FFF)
    assert not r.contains(0xFFF) and not r.contains(0x2000)


def test_range_alignment_validation():
    with pytest.raises(ValueError):
        RangeReg(0x1020, 0x1000, True).validate(48)
    with pytest.raises(ValueError):
        RangeReg(0x1000, 0x1010, True).validate(48)
    RangeReg(0x1000, 0x1000, True).validate(48)


@pytest.mark.parametrize("bitmap,basis", [
    (0b101, XR_U),  # user range has precedence
    (0b111, XR_U),
    (0b110, XR_S),
    (0b100, XR_M),
    (0b000, 0),
], ids=["101-XR_U", "111-XR_U", "110-XR_S", "100-XR_M", "000-none"])
def test_select_basis(bitmap, basis):
    assert select_basis(bitmap) == basis


def test_compute_voffset_relative():
    bases = {XR_M: 0x40_0000}
    assert compute_voffset(0x40_0000, XR_M, bases) == 0
    assert compute_voffset(0x40_0000 + 128, XR_M, bases) == 2


def test_compute_voffset_absolute_when_unmatched():
    assert compute_voffset(0x1000, 0, {}) == 0x40
    # truncated to the field width
    wide = (1 << 48) - 64
    assert compute_voffset(wide, 0, {}) == (wide >> 6) & (2**42 - 1)


# --- sid selection ---------------------------------------------------------------


def test_select_sid_single_registers():
    regs = _sid_regs(m=(0x1234, 0x5678))
    assert select_sid(XR_M, 0b01, regs) == 0x1234
    assert select_sid(XR_M, 0b10, regs) == 0x5678


@given(a=st.integers(0, 2**64 - 1), b=st.integers(0, 2**64 - 1))
def test_select_sid_concatenation_truncates_to_80(a, b):
    # low 80 bits of (high register << 64 | low register)
    expected = ((b << 64) | a) % (1 << 80)
    assert select_sid(XR_U, 0b11, _sid_regs(u=(a, b))) == expected
    assert truncate_sid(a, b) == expected


def test_select_sid_zero_cases():
    regs = _sid_regs(m=(5, 6), u=(7, 8))
    assert select_sid(XR_M, 0b00, regs) == 0
    assert select_sid(0, 0b11, regs) == 0


def test_sid_registers_are_keyed_by_the_xrange_bits():
    """The machine keys its sid pairs by the matched range's xrange bit, a
    plain int, as composition selects them."""
    sid_regs = Machine().csr.sid_regs
    assert set(sid_regs) == {XR_U, XR_S, XR_M}
    assert all(type(key) is int for key in sid_regs)


# --- the decision table -----------------------------------------------------------


def _oracle_classify(xrange, prv, u, g, r, w, x, rsw):
    """Independent table interpretation: one predicate tuple per row,
    monitor row shadowing the no-range row."""
    rows = [
        (lambda: prv == PRV_M and r and w, PageType.MONITOR),
        (lambda: xrange == 0b000, PageType.UNPROTECTED),
        (lambda: xrange == 0b100 and prv == PRV_U and rsw == 0b01, PageType.REGULAR),
        (lambda: xrange == 0b100 and prv == PRV_U and rsw == 0b10 and not w,
         PageType.SHENCLAVE),
        (lambda: xrange == 0b001 and prv == PRV_U and rsw == 0b11 and not x,
         PageType.SHM),
    ]
    for predicate, ptype in rows:
        if predicate():
            return ptype
    return None


def test_decision_table_exhaustive():
    checked = 0
    for xrange in range(8):
        for prv in (PRV_U, PRV_S, PRV_M):
            for perm in range(32):
                u, g, r, w, x = (bool(perm >> i & 1) for i in range(5))
                for rsw in range(4):
                    pte = pack_pte_bits(r, w, x, u, g, rsw)
                    expected = _oracle_classify(xrange, prv, u, g, r, w, x, rsw)
                    if expected is None:
                        with pytest.raises(InvalidCombination):
                            classify_page_type(xrange, prv, pte, rsw)
                    else:
                        assert classify_page_type(xrange, prv, pte, rsw) == expected
                    checked += 1
    assert checked == 3072


def test_decision_table_named_rows():
    rx = pack_pte_bits(True, False, True, True, False, 0b10)
    assert classify_page_type(0b100, PRV_U, rx, 0b10) == PageType.SHENCLAVE
    rw = pack_pte_bits(True, True, False, True, False, 0b11)
    assert classify_page_type(0b001, PRV_U, rw, 0b11) == PageType.SHM
    rwx = pack_pte_bits(True, True, True, True, False, 0b11)
    with pytest.raises(InvalidCombination):
        classify_page_type(0b001, PRV_U, rwx, 0b11)  # shared data never executable
    w = pack_pte_bits(True, True, False, True, False, 0b10)
    with pytest.raises(InvalidCombination):
        classify_page_type(0b100, PRV_U, w, 0b10)  # shared code never writable
    monitor = pack_pte_bits(True, True, False, False, False, 0)
    assert classify_page_type(0b000, PRV_M, monitor, 0) == PageType.MONITOR
    assert classify_page_type(0b000, PRV_M, pack_pte_bits(True, False, False, False, False, 0), 0) \
        == PageType.UNPROTECTED


def test_enclave_rsw_agrees_with_the_decision_table():
    """Each enclave page type's rsw, on a user-mode readable page in the
    range that type needs, classifies as that type, so the one rsw table
    and the decision table cannot drift apart."""
    needs = {PageType.REGULAR: XR_M, PageType.SHENCLAVE: XR_M, PageType.SHM: XR_U}
    assert ENCLAVE_RSW.keys() == needs.keys()
    for page_type, rsw in ENCLAVE_RSW.items():
        readable = pack_pte_bits(True, False, False, True, False, rsw)
        assert classify_page_type(needs[page_type], PRV_U, readable) is page_type


# --- composition -----------------------------------------------------------------


def _compose(va, prv, pte, mrange=DIS, srange=DIS, urange=DIS, sid_regs=None):
    return compose_sw_tweak(va, prv, pte, mrange, srange, urange, sid_regs or _sid_regs())


def test_compose_regular_row():
    mrange = RangeReg(0x4000_0000, 0x4000, True)
    pte = pack_pte_bits(True, True, False, True, False, 0b01)
    sw = _compose(0x4000_1000, PRV_U, pte, mrange=mrange,
                  sid_regs=_sid_regs(m=(77, 0)))
    assert sw.xrange == 0b100
    assert sw.voffset == 0x1000 // 64
    assert sw.sid == 77
    assert classify_page_type(sw.xrange, sw.prv, sw.pte, sw.rsw) == PageType.REGULAR


def test_compose_monitor_row_with_override():
    """The tweak the monitor pins for its own pages, overriding what an
    M-mode access would compose, is the MONITOR row of the table."""
    sw = SecurityMonitor(Machine(seed=0))._monitor_page_tweak(0x8)
    assert classify_page_type(sw.xrange, sw.prv, sw.pte, sw.rsw) == PageType.MONITOR
    assert classify_tweak(sw) == PageType.MONITOR
    assert sw.sid == 0 and sw.voffset == 0x8000 // 64


@given(
    va=st.integers(0, 2**48 - 64).map(lambda v: v & ~63),
    prv=st.sampled_from([PRV_U, PRV_S, PRV_M]),
    pte=st.integers(0, 127),
    msid=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_compose_is_pure(va, prv, pte, msid):
    mrange = RangeReg(0, 1 << 30, True)
    first = _compose(va % (1 << 30), prv, pte, mrange=mrange, sid_regs=_sid_regs(m=msid))
    second = _compose(va % (1 << 30), prv, pte, mrange=mrange, sid_regs=_sid_regs(m=msid))
    assert first == second


@given(
    off=st.integers(0, (1 << 20) - 64).map(lambda v: v & ~63),
    pte=st.integers(0, 127),
    m_base=st.integers(0, 2**30).map(lambda v: v & ~63),
    msid=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    ssid=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    usid=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_user_range_precedence_shields_other_levels(off, pte, m_base, msid, ssid, usid):
    """Once the user range matches, M/S range bases and sids cannot move
    voffset or sid (only the membership bitmap may differ)."""
    u_base = 0x7000_0000
    urange = RangeReg(u_base, 1 << 20, True)
    va = u_base + off
    baseline = _compose(va, PRV_U, pte, urange=urange, sid_regs=_sid_regs(u=usid))
    shadow = _compose(
        va, PRV_U, pte,
        mrange=RangeReg(m_base, 1 << 31, True), srange=RangeReg(0, 1 << 48, True),
        urange=urange, sid_regs=_sid_regs(m=msid, s=ssid, u=usid),
    )
    assert shadow.voffset == baseline.voffset
    assert shadow.sid == baseline.sid


# --- the packed representation against the field-by-field reference -------------

FIELDS = ("xrange", "voffset", "prv", "pte", "sid")


def _reference_compose(va, prv, pte, mrange, srange, urange, sid_regs, va_bits):
    """The tweak assembled field by field from the building blocks, through
    the validating constructor."""
    bitmap = match_ranges(va, mrange, srange, urange)
    basis = select_basis(bitmap)
    bases = {XR_M: mrange.base, XR_S: srange.base, XR_U: urange.base}
    fields = {
        "xrange": bitmap,
        "voffset": compute_voffset(va, basis, bases, va_bits),
        "prv": prv,
        "pte": pte,
        "sid": select_sid(basis, (pte >> 5) & 0b11, sid_regs),
    }
    return SwTweak(va_bits=va_bits, **fields)


@st.composite
def _compose_case(draw):
    va_bits = draw(st.sampled_from([48, 39]))
    n_lines = 1 << voffset_bits(va_bits)
    va = draw(st.integers(0, (1 << va_bits) - 1))

    def range_reg():
        # half of the ranges start at or below va's line, so that several
        # enabled ranges often contain va and overlap
        below = draw(st.booleans())
        lo = draw(st.integers(0, va >> 6 if below else n_lines - 1))
        hi = draw(st.integers(lo, n_lines))
        return RangeReg(lo * 64, (hi - lo) * 64, draw(st.booleans()))

    mrange, srange, urange = range_reg(), range_reg(), range_reg()
    sid = st.integers(0, 2**64 - 1)
    sid_regs = {b: (draw(sid), draw(sid)) for b in (XR_M, XR_S, XR_U)}
    return (va, draw(st.integers(0, 3)), draw(st.integers(0, 127)),
            mrange, srange, urange, sid_regs, va_bits)


@settings(max_examples=400)
@given(_compose_case())
def test_compose_equals_field_by_field_reference(case):
    got = compose_sw_tweak(*case)
    want = _reference_compose(*case)
    assert got == want
    assert got.to_int() == want.to_int()
    assert [getattr(got, f) for f in FIELDS] == [getattr(want, f) for f in FIELDS]
    assert got.rsw == (got.pte >> 5) & 0b11


def test_compose_rejects_out_of_range_prv_and_pte():
    with pytest.raises(ValueError, match="privilege"):
        compose_sw_tweak(0, 4, 0, DIS, DIS, DIS, _sid_regs())
    with pytest.raises(ValueError, match="privilege"):
        compose_sw_tweak(0, -1, 0, DIS, DIS, DIS, _sid_regs())
    with pytest.raises(ValueError, match="pte"):
        compose_sw_tweak(0, PRV_U, 128, DIS, DIS, DIS, _sid_regs())


def _rules(xrange, prv, pte):
    try:
        return classify_page_type(xrange, prv, pte)
    except InvalidCombination as exc:
        return f"InvalidCombination: {exc}"


def _table(sw):
    try:
        return classify_tweak(sw)
    except InvalidCombination as exc:
        return f"InvalidCombination: {exc}"


@pytest.mark.parametrize("va_bits", [48, 39])
def test_classify_table_equals_rules_on_every_key(va_bits):
    """All 4,096 (xrange, prv, pte) keys, twice each (the second lookup is
    answered by the filled table), under voffset and sid values that vary
    with the key so that no other field leaks into it."""
    vmask = (1 << voffset_bits(va_bits)) - 1
    for xrange in range(8):
        for prv in range(4):
            for pte in range(128):
                key = (xrange << 9) | (prv << 7) | pte
                sw = SwTweak(xrange, (key * 0x9E3779B1) & vmask, prv, pte,
                             (key * 0x9E3779B97F4A7C15) & (2**80 - 1), va_bits)
                want = _rules(xrange, prv, pte)
                assert _table(sw) == want
                assert _table(sw) == want


def test_classify_table_is_not_built_at_import():
    code = ("import servas_sim.tweak as t; n = t._classify_key.cache_info().currsize; "
            "t.classify_tweak(t.SwTweak(0, 0, 0, 0, 0)); "
            "print(n, t._classify_key.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                         check=True).stdout
    assert out.split() == ["0", "1"]


_tweaks = st.builds(
    lambda vb, x, v, p, t, s: SwTweak(x, v & ((1 << voffset_bits(vb)) - 1), p, t, s, vb),
    st.sampled_from([48, 39]), st.integers(0, 7), st.integers(0, 2**42 - 1),
    st.integers(0, 3), st.integers(0, 127), st.integers(0, 2**80 - 1),
)


@given(_tweaks, _tweaks)
def test_sw_tweak_api_parity(a, b):
    """Equality, hashing, round trips and immutability behave as for a
    frozen record of the five fields and the VA width."""
    key_a = tuple(getattr(a, f) for f in FIELDS) + (a.va_bits,)
    key_b = tuple(getattr(b, f) for f in FIELDS) + (b.va_bits,)
    assert (a == b) == (key_a == key_b)
    assert (a != b) == (key_a != key_b)
    assert SwTweak(*key_a) == a and hash(SwTweak(*key_a)) == hash(a)
    assert SwTweak.from_int(a.to_int(), a.va_bits) == a
    assert int.from_bytes(a.to_bytes(), "big") == a.to_int()
    assert len(a.to_bytes()) == (a.bit_width + 7) // 8
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    assert a != key_a and a.to_int() != a
    assert len({a, b, SwTweak(*key_a)}) == (1 if key_a == key_b else 2)
    for name in FIELDS + ("va_bits", "rsw", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.sid
    assert tuple(getattr(a, f) for f in FIELDS) + (a.va_bits,) == key_a


def test_from_int_rejects_values_outside_the_width():
    with pytest.raises(ValueError):
        SwTweak.from_int(1 << 134)
    with pytest.raises(ValueError):
        SwTweak.from_int(1 << 125, va_bits=39)
    with pytest.raises(ValueError):
        SwTweak.from_int(-1)
