"""Acceptance gate: one test per criterion, each printing a PASS line and
holding its stated runtime budget (run with ``pytest -s`` to see the lines).

The cycle-level numbers of the prototype hardware (syscall-relative
enter/exit cost, engine throughput overhead, FPGA area) are explicitly not
reproducible in a behavioral simulator; criterion 8 records that
substitution."""

import random
import time

import pytest

from conftest import A_BASE, spawn_enclave, std_image
from servas_sim.cache import (
    CacheCfg,
    EvictionMode,
    TcCfg,
    break_even_lines,
    inline_overhead_bits,
    servas_tag_bits,
    simulate_eviction,
    tc_overhead_bits,
)
from servas_sim.machine import AccessKind, Machine, PAGE_BYTES
from servas_sim.mee import LINE_BYTES, AuthenticationError, Mee, full_tweak_bytes
from servas_sim.monitor import PageCtx, SecurityMonitor
from servas_sim.scenarios import builtin_suite, run_scenario
from servas_sim.monitor import SwapAuthFailure
from servas_sim.tweak import (
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
    compose_sw_tweak,
    pack_pte_bits,
    sw_tweak_bits,
)

DATA_VA = A_BASE + PAGE_BYTES
RW = {"r": True, "w": True, "x": False, "u": True, "g": False}
RO = {"r": True, "w": False, "x": False, "u": True, "g": False}


def _budget(start: float, seconds: float, label: str) -> float:
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} exceeded its {seconds}s budget ({elapsed:.1f}s)"
    return elapsed


def test_acceptance_1_tweak_layout():
    start = time.perf_counter()
    regs = {b: (0, 0) for b in (XR_U, XR_S, XR_M)}
    sw = compose_sw_tweak(0x4000_0040, PRV_U, pack_pte_bits(1, 1, 0, 1, 0, 1),
                          RangeReg(0x4000_0000, 0x1000, True), RangeReg(), RangeReg(),
                          regs)
    assert sw.bit_width == 134
    assert len(sw.to_bytes()) * 8 >= 134 and sw.to_int() < (1 << 134)
    # field widths 3 / 42 / 2 / 7 / 80, checked as exact slice equations
    v = sw.to_int()
    assert v & ((1 << 80) - 1) == sw.sid
    assert (v >> 80) & 0x7F == sw.pte
    assert (v >> 87) & 0x3 == sw.prv
    assert (v >> 89) & ((1 << 42) - 1) == sw.voffset
    assert (v >> 131) == sw.xrange
    # the engine prepends a 58-bit counter: 192 bits total
    blob = full_tweak_bytes((1 << 58) - 1, sw)
    assert len(blob) == 24 and int.from_bytes(blob, "big") < (1 << 192)
    # the 39-bit address-space build tags cache lines with 125 bits
    assert sw_tweak_bits(39) == 125
    assert servas_tag_bits(39) == 125
    narrow = SwTweak(0b100, 1, PRV_U, 0x21, 5, va_bits=39)
    assert narrow.bit_width == 125
    elapsed = _budget(start, 1.0, "criterion 1")
    print(f"\nACCEPTANCE 1 PASS: 134-bit tweak (3/42/2/7/80) + 58-bit counter = 192; "
          f"39-bit build tags 125 bits [{elapsed:.2f}s]")


def test_acceptance_2_decision_table():
    start = time.perf_counter()
    checked = invalid = 0
    for xrange in range(8):
        for prv in (PRV_U, PRV_S, PRV_M):
            for perm in range(32):
                u, g, r, w, x = (bool(perm >> i & 1) for i in range(5))
                for rsw in range(4):
                    pte = pack_pte_bits(r, w, x, u, g, rsw)
                    if prv == PRV_M and r and w:
                        expected = PageType.MONITOR
                    elif xrange == 0:
                        expected = PageType.UNPROTECTED
                    elif xrange == 0b100 and prv == PRV_U and rsw == 0b01:
                        expected = PageType.REGULAR
                    elif xrange == 0b100 and prv == PRV_U and rsw == 0b10 and not w:
                        expected = PageType.SHENCLAVE
                    elif xrange == 0b001 and prv == PRV_U and rsw == 0b11 and not x:
                        expected = PageType.SHM
                    else:
                        expected = None
                    if expected is None:
                        invalid += 1
                        with pytest.raises(InvalidCombination):
                            classify_page_type(xrange, prv, pte, rsw)
                    else:
                        assert classify_page_type(xrange, prv, pte, rsw) is expected
                    checked += 1
    assert checked == 3072
    # the two named rejections are inside the invalid set
    with pytest.raises(InvalidCombination):
        classify_page_type(0b100, PRV_U, pack_pte_bits(1, 1, 0, 1, 0, 2), 2)
    with pytest.raises(InvalidCombination):
        classify_page_type(0b001, PRV_U, pack_pte_bits(1, 1, 1, 1, 0, 3), 3)
    elapsed = _budget(start, 1.0, "criterion 2")
    print(f"\nACCEPTANCE 2 PASS: decision table equals brute force over 3072 "
          f"combinations ({invalid} invalid) [{elapsed:.2f}s]")


def test_acceptance_3_cryptographic_isolation():
    start = time.perf_counter()
    key = bytes(range(16))
    mee = Mee(key)
    rng = random.Random(20260808)
    false_accepts = 0
    trials = 1000
    for trial in range(trials):
        line = rng.randrange(1 << 20)
        sw = SwTweak(
            xrange=rng.randrange(8), voffset=rng.randrange(1 << 42),
            prv=rng.randrange(4), pte=rng.randrange(128), sid=rng.randrange(1 << 80),
        )
        pt = rng.randbytes(LINE_BYTES)
        mee.write(line, pt, sw)
        if mee.read(line, sw) != pt:  # round trip
            false_accepts += 1
        intact = mee.snapshot_line(line)
        for _ in range(128):  # ciphertext/tag tamper sample
            target, width = rng.choice((("ciphertext", 512), ("tag", 128)))
            mee.flip_bit(line, rng.randrange(width), target)
            try:
                mee.read(line, sw)
                false_accepts += 1
            except AuthenticationError:
                pass
            mee.restore_line(line, *intact)
        if trial % 50 == 0:  # full 134-position single-bit tweak sweep
            base = sw.to_int()
            for bit in range(134):
                try:
                    mee.read(line, SwTweak.from_int(base ^ (1 << bit)))
                    false_accepts += 1
                except AuthenticationError:
                    pass
        else:  # spot-check one flipped tweak bit
            try:
                mee.read(line, SwTweak.from_int(sw.to_int() ^ (1 << rng.randrange(134))))
                false_accepts += 1
            except AuthenticationError:
                pass
        # replay: stale (ciphertext, tag) after a newer write
        stale = mee.snapshot_line(line)
        mee.write(line, rng.randbytes(LINE_BYTES), sw)
        mee.restore_line(line, *stale)
        try:
            mee.read(line, sw)
            false_accepts += 1
        except AuthenticationError:
            pass
    assert false_accepts == 0
    elapsed = _budget(start, 60.0, "criterion 3")
    print(f"\nACCEPTANCE 3 PASS: {trials} randomized trials (round-trip, 134-bit "
          f"sweep, 128-position tamper sample, replay), zero false accepts "
          f"[{elapsed:.1f}s]")


def test_acceptance_4_attack_scenarios():
    start = time.perf_counter()
    suite = builtin_suite()
    assert len(suite) >= 12
    flakes = []
    for seed in range(100):
        for scenario in suite:
            got = run_scenario(scenario, seed=seed)
            if got != scenario.expected:
                flakes.append((scenario.name, seed, got))
    assert not flakes, flakes[:5]
    elapsed = _budget(start, 120.0, "criterion 4")
    print(f"\nACCEPTANCE 4 PASS: {len(suite)} scenarios x 100 seeds, zero flakes "
          f"[{elapsed:.1f}s]")


def test_acceptance_5_eviction_monte_carlo():
    start = time.perf_counter()
    two_enclaves = simulate_eviction(32, 2, 12, trials=10000,
                                     mode=EvictionMode.TOTAL, seed=0)
    assert two_enclaves <= 0.05 + 0.02
    eleven = simulate_eviction(128, 4, 66, trials=10000,
                               mode=EvictionMode.TOTAL, seed=0)
    assert 0.05 - 0.02 <= eleven <= 0.05 + 0.02
    # Monotonicity across the appendix grid.  The coupled draws make every
    # direction exact except the TOTAL fraction along n_tweaks, whose
    # denominator grows: there the per-trial eviction *count* is exactly
    # monotone and the fraction is monotone in expectation (epsilon for MC
    # noise at the 1e-6 probability floor).
    tweak_counts = list(range(2, 73, 2))
    for mode in EvictionMode:
        for entries in (32, 128):
            for ways in (1, 2, 4, 8):
                series = [simulate_eviction(entries, ways, k, 10000, mode, seed=0)
                          for k in tweak_counts]
                if mode is EvictionMode.AT_LEAST_ONE:
                    assert series == sorted(series)
                else:
                    counts = [p * k for p, k in zip(series, tweak_counts)]
                    assert all(b >= a - 1e-9 for a, b in zip(counts, counts[1:]))
                    assert all(b >= a - 5e-4 for a, b in zip(series, series[1:]))
        for k in (12, 36, 66):
            for ways in (1, 2, 4, 8):
                assert simulate_eviction(128, ways, k, 10000, mode, seed=0) <= \
                    simulate_eviction(32, ways, k, 10000, mode, seed=0)
            for entries in (32, 128):
                by_ways = [simulate_eviction(entries, w, k, 10000, mode, seed=0)
                           for w in (1, 2, 4, 8)]
                assert by_ways == sorted(by_ways, reverse=True)
    elapsed = _budget(start, 120.0, "criterion 5")
    print(f"\nACCEPTANCE 5 PASS: 2 enclaves @ 32x2 total={two_enclaves:.3f} <= 0.07, "
          f"11 enclaves @ 128x4 total={eleven:.3f} in [0.03, 0.07], grid monotone "
          f"[{elapsed:.1f}s]")


def test_acceptance_6_overhead_analytics():
    start = time.perf_counter()
    assert inline_overhead_bits(CacheCfg(n_lines=1, ways=1, va_bits=48)) == 2 * 134
    assert inline_overhead_bits(CacheCfg(n_lines=1, ways=1, va_bits=39)) == 2 * 125
    assert servas_tag_bits(48) == 134 and servas_tag_bits(39) == 125
    for n_tweak in (32, 128, 512):
        for voffl in (6, 20, 42):
            tc = TcCfg(n_tweak=n_tweak, voffset_low_bits=voffl)
            assert break_even_lines(tc) == n_tweak, (n_tweak, voffl)
            at_parity = CacheCfg(n_lines=n_tweak, ways=1)
            assert tc_overhead_bits(at_parity, tc) < inline_overhead_bits(at_parity)
    elapsed = _budget(start, 1.0, "criterion 6")
    print(f"\nACCEPTANCE 6 PASS: inline tags 134/125 bits; tweak-cache break-even "
          f"at n_tweak == n_lines for all nine configurations [{elapsed:.2f}s]")


def _lifecycle_trace(trial: int) -> None:
    rng = random.Random(f"trace-{trial}")
    m = Machine(seed=trial)
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    shadow: dict[int, bytes] = {}
    state = "LOADED"
    for _ in range(rng.randrange(3, 10)):
        op = rng.choice(["enter", "exit", "interrupt", "write", "emod_cycle",
                         "swap_cycle", "seal"])
        if op == "enter" and state in ("LOADED", "INTERRUPTED"):
            m.prv = PRV_U
            sm.eenter(handle)
            state = "RUNNING"
        elif op == "exit" and state == "RUNNING":
            sm.eexit()
            state = "LOADED"
        elif op == "interrupt" and state == "RUNNING":
            sm.interrupt()
            state = "INTERRUPTED"
        elif op == "write" and state == "RUNNING":
            off = rng.randrange(64) * 64
            data = rng.randbytes(16)
            m.access("host", DATA_VA + off, AccessKind.WRITE, PRV_U, data=data)
            shadow[off] = data
        elif op == "emod_cycle" and state == "RUNNING":
            sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW), PageCtx(PageType.REGULAR, RO))
            sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RO), PageCtx(PageType.REGULAR, RW))
        elif op == "swap_cycle" and state != "RUNNING":
            m.prv = PRV_S
            stale = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
            sm.swap_in(handle, DATA_VA, stale)
            second = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
            with pytest.raises(SwapAuthFailure):
                sm.swap_in(handle, DATA_VA, stale)
            sm.swap_in(handle, DATA_VA, second)
        elif op == "seal" and state == "RUNNING":
            assert len(sm.egetsealkey()) == 16
    if state != "RUNNING":
        m.prv = PRV_U
        sm.eenter(handle)
    for off, data in shadow.items():
        assert m.access("host", DATA_VA + off, AccessKind.READ, PRV_U, size=16) == data


def test_acceptance_7_lifecycle_properties():
    start = time.perf_counter()
    # EMOD preserves content byte-exactly
    m = Machine(seed=500)
    sm = SecurityMonitor(m)
    handle = spawn_enclave(m, sm)
    sm.eenter(handle)
    payload = random.Random(1).randbytes(PAGE_BYTES)
    for off in range(0, PAGE_BYTES, 64):
        m.access("host", DATA_VA + off, AccessKind.WRITE, PRV_U,
                 data=payload[off:off + 64])
    sm.emod(DATA_VA, PageCtx(PageType.REGULAR, RW), PageCtx(PageType.REGULAR, RO))
    sm.interrupt()
    m.map_page(PRV_S, "host", DATA_VA, 0x101, "ru", 0b01)
    m.prv = PRV_U
    sm.eenter(handle)
    got = b"".join(m.access("host", DATA_VA + off, AccessKind.READ, PRV_U, size=64)
                   for off in range(0, PAGE_BYTES, 64))
    assert got == payload
    sm.interrupt()

    # swap round-trip preserves content; the stale copy is rejected
    m.prv = PRV_S
    m.map_page(PRV_S, "host", DATA_VA, 0x101, "ru", 0b01)
    sealed_one = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    sm.swap_in(handle, DATA_VA, sealed_one)
    sealed_two = sm.swap_out(handle, DATA_VA, temp_ppn=0x400)
    with pytest.raises(SwapAuthFailure):
        sm.swap_in(handle, DATA_VA, sealed_one)
    sm.swap_in(handle, DATA_VA, sealed_two)
    m.prv = PRV_U
    sm.eenter(handle)
    got = b"".join(m.access("host", DATA_VA + off, AccessKind.READ, PRV_U, size=64)
                   for off in range(0, PAGE_BYTES, 64))
    assert got == payload

    # sealing key: deterministic per (image, cpu key), avalanche on both
    k_same_image = sm.egetsealkey()
    sm.eexit()
    h2 = spawn_enclave(m, sm, base=0x5000_0000, ppn_start=0x110,
                       meta_ppn=0x210, thread_ppn=0x211)
    sm.eenter(h2)
    assert sm.egetsealkey() == k_same_image
    sm.eexit()
    h3 = spawn_enclave(m, sm, image=std_image(fill=b"\x14\x00\x00\x00\x93\x08\x00\x00"),
                       base=0x6000_0000, ppn_start=0x120, meta_ppn=0x220,
                       thread_ppn=0x221)
    sm.eenter(h3)
    assert sm.egetsealkey() != k_same_image
    sm.eexit()
    other = Machine(seed=501)
    other_sm = SecurityMonitor(other)
    oh = spawn_enclave(other, other_sm)
    other_sm.eenter(oh)
    assert other_sm.egetsealkey() != k_same_image

    # 500 randomized lifecycle traces
    for trial in range(500):
        _lifecycle_trace(trial)
    elapsed = _budget(start, 120.0, "criterion 7")
    print(f"\nACCEPTANCE 7 PASS: emod/swap byte-exact, stale swap rejected, "
          f"sealing deterministic + avalanche, 500 randomized traces "
          f"[{elapsed:.1f}s]")


def test_acceptance_8_non_reproducible_statement():
    print(
        "\nACCEPTANCE 8 NOTE: cycle-level results of the hardware prototype "
        "(enter/exit at 3.5x a syscall, 16.7-24.5% engine overhead, FPGA "
        "LUT/FF counts) are out of scope for a behavioral simulator and are "
        "substituted by the invariant and oracle-equivalence suites of "
        "criteria 1-7."
    )
