"""Functional tweak-tagged cache plus the storage/eviction analytics."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from servas_sim.cache import (
    CacheCfg,
    EvictionMode,
    TcCfg,
    _eviction_pass,
    break_even_lines,
    eviction_grid,
    inline_overhead_bits,
    overhead_sweep,
    servas_tag_bits,
    simulate_eviction,
    tc_overhead_bits,
)
from servas_sim.machine import AccessKind, AuthenticationException, Machine
from servas_sim.mee import LINE_BYTES, LINES_PER_PAGE, PAGE_BYTES
from servas_sim.monitor import MONITOR_PTE_BITS
from servas_sim.tweak import PRV_M, PRV_S, PRV_U, VOFFSET_SHIFT, RangeReg, SwTweak, voffset_bits

READ, WRITE = AccessKind.READ, AccessKind.WRITE
CACHE = CacheCfg(n_lines=64, ways=4)


def _machine(cache=True, seed=2):
    m = Machine(seed=seed, cache_cfg=CACHE if cache else None)
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu")
    return m


# --- functional cache -----------------------------------------------------------


def test_read_fill_then_hit():
    m = _machine()
    m.access("p", 0x1000, WRITE, PRV_U, data=b"cached")
    m.access("p", 0x1000, READ, PRV_U, size=6)
    hits_before = m.cache.hits
    assert m.access("p", 0x1000, READ, PRV_U, size=6) == b"cached"
    assert m.cache.hits == hits_before + 1


def test_write_through_updates_memory_immediately():
    m = _machine()
    m.access("p", 0x1000, WRITE, PRV_U, data=b"through")
    line = 0x10 * 64
    assert line in m.mee.written_lines()
    sw = m.compose_for_access(0x1000, PRV_U, m.walk("p", 0x1000).bits)
    assert m.mee.read(line, sw)[:7] == b"through"


def test_cross_context_hit_is_a_mismatch_then_denial():
    """A line cached under one enclave's tweak and touched under another's
    forces a refill that dies in the engine -- isolation without TLB flushes."""
    m = _machine()
    m.write_csr(PRV_M, "mrange", RangeReg(0x1000, 0x1000, True))
    m.map_page(PRV_S, "p", 0x1000, 0x10, "rwu", rsw=0b01)
    m.write_csr(PRV_M, "msid0", 111)  # enclave A
    m.access("p", 0x1000, WRITE, PRV_U, data=b"A-data")
    assert m.access("p", 0x1000, READ, PRV_U, size=6) == b"A-data"
    m.write_csr(PRV_M, "msid0", 222)  # context switch to enclave B
    mismatches = m.cache.tweak_mismatches
    with pytest.raises(AuthenticationException):
        m.access("p", 0x1000, READ, PRV_U, size=6)
    assert m.cache.tweak_mismatches == mismatches + 1
    m.write_csr(PRV_M, "msid0", 111)  # back to A: still intact
    assert m.access("p", 0x1000, READ, PRV_U, size=6) == b"A-data"


def test_failed_fill_caches_nothing():
    m = _machine()
    m.access("p", 0x1000, WRITE, PRV_S, data=b"sup")
    with pytest.raises(AuthenticationException):
        m.access("p", 0x1000, READ, PRV_U, size=3)
    # the mismatching entry was dropped and the failed refill cached nothing
    assert not any(0x10 * 64 in ways for ways in m.cache.sets)
    assert m.access("p", 0x1000, READ, PRV_S, size=3) == b"sup"


def _set_entries(ways):
    """A cache set's (line, sw_int, data) entries in replacement order."""
    return [(line, sw_int, data) for line, (sw_int, data) in ways.items()]


def test_cache_replacement_golden():
    """A seeded trace on an 8-line, 2-way cache, so sets evict often: U- and
    S-mode reads and writes, bit flips, snapshot restores and pinned page
    writes.  SHA-256 over the outcomes, the counts, every set's entries in
    order and the machine RNG state, pinned: the replacement order and its
    RNG draws must not move."""
    m = Machine(seed=3, cache_cfg=CacheCfg(8, 2))
    for p in range(3):
        m.map_page(PRV_S, "p", 0x1000 * (p + 1), 0x10 + p, "rwu")
    pinned = [m.compose_for_access(va, PRV_U, m.walk("p", va).bits)
              for va in (0x1000, 0x2000, 0x3000)]
    pool = [0x1000 * (p + 1) + 64 * i for p in range(3) for i in range(8)]
    rng = random.Random("cache-replacement")
    out, snapshots = hashlib.sha256(), []
    for _ in range(800):
        va = rng.choice(pool) + 8 * rng.randrange(8)
        line = m.walk("p", va).ppn * 64 + va % 4096 // 64
        prv = rng.choice((PRV_U, PRV_U, PRV_S))
        roll = rng.random()
        try:
            if roll < 0.01:
                m.phys_flip_bit(line, rng.randrange(512))
            elif roll < 0.05:
                snapshots.append(m.phys_snapshot([line]))
            elif roll < 0.08 and snapshots:
                m.phys_restore(rng.choice(snapshots))
            elif roll < 0.1:
                p = rng.randrange(3)
                m.pinned_page(0x10 + p, pinned[p], WRITE, rng.randbytes(4096))
            elif roll < 0.45:
                out.update(m.access("p", va, WRITE, prv, data=rng.randbytes(8)))
            else:
                out.update(m.access("p", va, READ, prv, size=8))
        except AuthenticationException as trap:
            out.update(repr((trap.kind, trap.line_index)).encode())
    cache = m.cache
    counts = (cache.hits, cache.misses, cache.tweak_mismatches)
    out.update(repr((counts, [_set_entries(ways) for ways in cache.sets],
                     m.rng.getstate())).encode())
    assert counts == (126, 594, 74)
    assert out.hexdigest() == \
        "99a84c0c5827ec069dd5e32afa6bd228d15a94b9dc2538c5c0cecba423ab7e3f"


@pytest.mark.parametrize("geometry, golden", [
    ((8, 2), ((31, 6255, 2),
              "72d7fce6f2a7e90cde8ca1c16aa7a1e6a10de85266138f0fb8d1e3e7bbad9e55")),
    ((512, 4), ((4226, 2060, 26),
                "0cfca898f36dca43f7d3d38afa6b4586bb1c2d11cc7aa493ab30d954a93e12f5")),
], ids=["8x2", "512x4"])
def test_cache_pinned_page_read_golden(geometry, golden):
    """A seeded trace of monitor page I/O through the cache: whole-page
    and ``lines=`` reads of three monitor-bound pages, under their owner's
    sid and (failing) under another's, between whole and partial page
    writes.  On the 8 x 2 cache a page's lines share the four sets; on the
    512 x 4 one a page fits.  Every cached entry is the line's current
    image under the tweak its page is bound to, stepped per line; and the
    outcomes, the counts, every set's entries in order and the machine RNG
    state are pinned by SHA-256."""
    m = Machine(seed=4, cache_cfg=CacheCfg(*geometry))
    ppns = (0x200, 0x201, 0x2c0)
    binding = {}  # ppn -> (rtid, page content) as last written

    def page_sw(ppn, rtid):
        voffset = (ppn * LINES_PER_PAGE) & ((1 << voffset_bits(48)) - 1)
        return SwTweak(0, voffset, PRV_M, MONITOR_PTE_BITS, rtid, 48)

    rng = random.Random("cache-pinned-read")
    out = hashlib.sha256()
    for ppn in ppns:
        binding[ppn] = (1, rng.randbytes(PAGE_BYTES))
        m.pinned_page(ppn, page_sw(ppn, 1), WRITE, binding[ppn][1])
    for _ in range(300):
        ppn = rng.choice(ppns)
        rtid, content = binding[ppn]
        roll = rng.random()
        lines = range(LINES_PER_PAGE) if rng.random() < 0.4 else \
            sorted(rng.sample(range(LINES_PER_PAGE), rng.randrange(1, 9)))
        try:
            if roll < 0.1:
                new_rtid = rng.randrange(1, 4)
                new = bytearray(content)
                for i in lines:
                    new[i * LINE_BYTES:(i + 1) * LINE_BYTES] = rng.randbytes(LINE_BYTES)
                if new_rtid != rtid:  # a new binding seals the whole page
                    lines = range(LINES_PER_PAGE)
                binding[ppn] = (new_rtid, bytes(new))
                m.pinned_page(ppn, page_sw(ppn, new_rtid), WRITE, bytes(new), lines)
            else:
                read_rtid = rtid if roll < 0.85 else rtid % 3 + 1
                got = m.pinned_page(ppn, page_sw(ppn, read_rtid), lines=lines)
                assert got == b"".join(content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
                                       for i in lines)
                out.update(got)
        except AuthenticationException as trap:
            out.update(repr((trap.kind, trap.line_index, trap.sw.value)).encode())
    cache = m.cache
    for ppn in ppns:
        rtid, content = binding[ppn]
        first, base_sw = ppn * LINES_PER_PAGE, page_sw(ppn, rtid).value
        for ways in cache.sets:
            for line, (sw_int, data) in ways.items():
                if first <= line < first + LINES_PER_PAGE:
                    i = line - first
                    assert sw_int == base_sw + (i << VOFFSET_SHIFT)
                    assert data == content[i * LINE_BYTES:(i + 1) * LINE_BYTES]
    counts = (cache.hits, cache.misses, cache.tweak_mismatches)
    out.update(repr((counts, [_set_entries(ways) for ways in cache.sets],
                     m.rng.getstate())).encode())
    assert (counts, out.hexdigest()) == golden


def test_cache_transparency_random_traces():
    """Cache on and cache off give identical access outcomes over random
    tamper-free traces (the cache changes cost, never semantics)."""
    for seed in range(6):
        rng = random.Random(seed)
        ops = []
        for _ in range(120):
            va = 0x1000 + rng.randrange(0, 4096 // 4) * 4  # line-local slices
            if rng.random() < 0.5:
                ops.append(("w", va, rng.randbytes(4)))
            else:
                ops.append(("r", va, None))
        outcomes = []
        for cached in (False, True):
            m = _machine(cache=cached, seed=seed)
            m.map_page(PRV_S, "p", 0x2000, 0x20, "ru")
            trace = []
            for op, va, data in ops:
                try:
                    if op == "w":
                        trace.append(m.access("p", va, WRITE, PRV_U, data=data))
                    else:
                        trace.append(m.access("p", va, READ, PRV_U, size=4))
                except AuthenticationException:
                    trace.append("auth")
            outcomes.append(trace)
        assert outcomes[0] == outcomes[1]


def test_eviction_keeps_correctness():
    """Working set larger than the cache: every line still reads back."""
    m = Machine(seed=5, cache_cfg=CacheCfg(n_lines=8, ways=2))
    for page in range(4):
        m.map_page(PRV_S, "p", 0x10000 + page * 4096, 0x30 + page, "rwu")
    writes = {}
    rng = random.Random(7)
    for i in range(200):
        va = 0x10000 + rng.randrange(4 * 4096 // 64) * 64
        data = i.to_bytes(4, "little")
        m.access("p", va, WRITE, PRV_U, data=data)
        writes[va] = data
    for va, data in writes.items():
        assert m.access("p", va, READ, PRV_U, size=4) == data


# --- storage overhead formulas -----------------------------------------------------


def test_tag_bits_by_va_width():
    assert servas_tag_bits(48) == 134
    assert servas_tag_bits(39) == 125


def test_inline_overhead_named_points():
    assert inline_overhead_bits(CacheCfg(n_lines=512, ways=1, va_bits=48)) == 137216
    assert inline_overhead_bits(CacheCfg(n_lines=512, ways=1, va_bits=39)) == 2 * 125 * 512


def test_tc_overhead_formula_oracle():
    """Plug-in arithmetic cross-check, written out long-hand."""
    cfg = CacheCfg(n_lines=1024, ways=1, va_bits=48)
    tc = TcCfg(n_tweak=128, voffset_low_bits=20)
    per_line = 20 + 7            # low voffset bits + log2(128) index bits
    tc_entry = 1 + 134 - 20      # valid bit + the rest of the tweak
    assert tc_overhead_bits(cfg, tc) == 2 * per_line * 1024 + tc_entry * 128


def test_tc_degenerate_single_entry():
    cfg = CacheCfg(n_lines=256, ways=1)
    tc = TcCfg(n_tweak=1, voffset_low_bits=42)
    # index width 0, full voffset inline: inline variant plus one shared entry
    assert tc_overhead_bits(cfg, tc) == 2 * 42 * 256 + (1 + 134 - 42)


@pytest.mark.parametrize("n_tweak", [32, 128, 512])
@pytest.mark.parametrize("voffl", [6, 20, 42])
def test_break_even_at_equal_sizes(n_tweak, voffl):
    """The tweak cache starts paying off exactly when the main cache has as
    many lines as the tweak cache has entries."""
    tc = TcCfg(n_tweak=n_tweak, voffset_low_bits=voffl)
    assert break_even_lines(tc) == n_tweak
    bigger = CacheCfg(n_lines=n_tweak, ways=1)
    half = CacheCfg(n_lines=n_tweak // 2, ways=1)
    assert tc_overhead_bits(bigger, tc) < inline_overhead_bits(bigger)
    assert tc_overhead_bits(half, tc) > inline_overhead_bits(half)


def test_overhead_sweep_rows_monotone_in_lines():
    rows = overhead_sweep([2**e for e in range(6, 15)],
                          [TcCfg(n_tweak=128, voffset_low_bits=6)])
    inline = [r[3] for r in rows]
    tc = [r[4] for r in rows]
    assert inline == sorted(inline) and tc == sorted(tc)
    assert all(r[5] == 128 for r in rows)


def test_tc_cfg_validation():
    with pytest.raises(ValueError):
        TcCfg(n_tweak=100)  # not a power of two
    with pytest.raises(ValueError, match="voffset_low_bits must not be negative"):
        TcCfg(n_tweak=32, voffset_low_bits=-1)
    with pytest.raises(ValueError):
        tc_overhead_bits(CacheCfg(n_lines=64, ways=1, va_bits=39),
                         TcCfg(n_tweak=32, voffset_low_bits=42))  # exceeds width


@pytest.mark.parametrize("n_lines, ways, name", [(8, 0, "ways"), (0, 4, "n_lines"),
                                                  (-64, 1, "n_lines"), (4, -2, "ways")])
def test_cache_cfg_refuses_an_empty_geometry(n_lines, ways, name):
    """A cache needs at least one line and one way: the error names the
    field, where ``CacheCfg(8, 0)`` used to divide by zero."""
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        CacheCfg(n_lines=n_lines, ways=ways)


# --- eviction Monte Carlo -------------------------------------------------------------


def test_no_eviction_when_tweaks_fit_one_set():
    for mode in EvictionMode:
        assert simulate_eviction(32, 4, 4, trials=500, mode=mode) == 0.0
        assert simulate_eviction(32, 8, 8, trials=500, mode=mode) == 0.0


def test_two_enclaves_fit_small_cache():
    """32 entries, 2 ways carries 2 enclaves x 6 tweaks at <= 5% (+2pp MC)."""
    total = simulate_eviction(32, 2, 12, trials=10000, seed=0)
    assert total <= 0.05 + 0.02


def test_eleven_enclaves_fit_large_cache():
    """128 entries, 4 ways carries 11 enclaves x 6 tweaks at ~5% +- 2pp."""
    total = simulate_eviction(128, 4, 66, trials=10000, seed=0)
    assert 0.05 - 0.02 <= total <= 0.05 + 0.02


def test_seeded_runs_reproduce():
    a = simulate_eviction(32, 2, 12, trials=2000, seed=3)
    b = simulate_eviction(32, 2, 12, trials=2000, seed=3)
    assert a == b
    assert a != simulate_eviction(32, 2, 12, trials=2000, seed=4)


def test_monotonicity_across_grid():
    """Non-decreasing in tweak count; non-increasing in entries and ways.
    Exact (not statistical) thanks to coupled draws under one seed, except
    the TOTAL fraction along the tweak axis where only the underlying
    eviction count is pointwise monotone (the denominator grows)."""
    tweak_counts = list(range(2, 73, 4))
    for mode in EvictionMode:
        for entries, ways in [(32, 1), (32, 2), (32, 4), (32, 8),
                              (128, 1), (128, 2), (128, 4), (128, 8)]:
            probs = [simulate_eviction(entries, ways, k, 3000, mode, seed=1)
                     for k in tweak_counts]
            if mode is EvictionMode.AT_LEAST_ONE:
                assert probs == sorted(probs)
            else:
                counts = [p * k for p, k in zip(probs, tweak_counts)]
                assert all(b >= a - 1e-9 for a, b in zip(counts, counts[1:]))
                assert all(b >= a - 1e-3 for a, b in zip(probs, probs[1:]))
        for k in (12, 40, 66):
            by_entries = [simulate_eviction(n, 4, k, 3000, mode, seed=1)
                          for n in (32, 64, 128, 256)]
            assert by_entries == sorted(by_entries, reverse=True)
            by_ways = [simulate_eviction(128, w, k, 3000, mode, seed=1)
                       for w in (1, 2, 4, 8)]
            assert by_ways == sorted(by_ways, reverse=True)


def test_at_least_one_dominates_total():
    for k in (6, 12, 30, 66):
        alo = simulate_eviction(32, 2, k, 4000, EvictionMode.AT_LEAST_ONE, seed=2)
        total = simulate_eviction(32, 2, k, 4000, EvictionMode.TOTAL, seed=2)
        assert alo >= total


def test_eviction_grid_rows():
    rows = eviction_grid([32], [2], [6, 12], trials=100, seed=0)
    assert len(rows) == 4  # two counts x two modes
    assert {r[3] for r in rows} == {"at_least_one", "total"}
    assert all(r[5] == 100 and r[6] == 0 for r in rows)


def test_simulate_eviction_validation():
    with pytest.raises(ValueError):
        simulate_eviction(32, 3, 5)  # entries not divisible by ways
    with pytest.raises(ValueError):
        simulate_eviction(32, 2, 5, trials=0)


@pytest.mark.parametrize("n_entries, ways, n_tweaks, trials, name", [
    (32, 0, 5, 100, "ways"),
    (32, -4, 5, 100, "ways"),
    (0, 2, 5, 100, "n_entries"),
    (2, 4, 5, 100, "n_entries"),
    (30, 4, 5, 100, "n_entries"),
    (32, 2, 5, 0, "trials"),
    (32, 2, 0, 100, "n_tweaks"),
    (32, 2, -3, 100, "n_tweaks"),
])
def test_eviction_input_check_names_the_argument(n_entries, ways, n_tweaks, trials, name):
    """simulate_eviction and eviction_grid share one check, which names the
    offending argument instead of failing inside numpy or returning nan."""
    with pytest.raises(ValueError, match=name):
        simulate_eviction(n_entries, ways, n_tweaks, trials)
    with pytest.raises(ValueError, match=name):
        eviction_grid([n_entries], [ways], [4, n_tweaks], trials)


def test_eviction_input_check_refuses_a_negative_seed(monkeypatch):
    """The shared check refuses a negative seed, naming it, before
    anything is drawn, instead of numpy's seeding failing on it."""
    import servas_sim.cache as cache

    monkeypatch.setattr(cache, "_eviction_pass", None)  # nothing may be drawn
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        simulate_eviction(32, 2, 5, 100, seed=-1)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        eviction_grid([32], [2], [4, 5], 100, seed=-1)


def test_empty_tweak_list_gives_no_rows():
    assert eviction_grid([32, 128], [1, 2], [], trials=100) == []


# --- the one-pass grid against the per-point reference -----------------------------


def _reference_eviction(n_entries, ways, n_tweaks, trials, mode, seed):
    """The per-point Monte Carlo: one draw and one bincount per (geometry,
    tweak count, mode).  eviction_grid must reproduce it exactly."""
    n_sets = n_entries // ways
    rng = np.random.default_rng(seed)
    us = rng.random((n_tweaks, trials))
    sets = (us * n_sets).astype(np.int64)
    flat = sets + np.arange(trials, dtype=np.int64)[None, :] * n_sets
    counts = np.bincount(flat.ravel(), minlength=trials * n_sets).reshape(trials, n_sets)
    evicted = np.maximum(counts - ways, 0).sum(axis=1)
    if mode is EvictionMode.AT_LEAST_ONE:
        return float((evicted > 0).mean())
    return float((evicted / n_tweaks).mean())


@pytest.mark.parametrize("trials", [1, 37])
@pytest.mark.parametrize("seed", [0, 5])
def test_eviction_grid_matches_per_point_reference(trials, seed):
    entries, ways_list = [8, 32], [1, 2, 4, 8]
    tweak_counts = [9, 1, 24, 9, 3, 16, 2]  # unsorted, with a repeat
    rows = eviction_grid(entries, ways_list, tweak_counts, trials=trials, seed=seed)
    expected = [(n, w, k, mode.value,
                 _reference_eviction(n, w, k, trials, mode, seed), trials, seed)
                for n in entries for w in ways_list for k in tweak_counts
                for mode in (EvictionMode.AT_LEAST_ONE, EvictionMode.TOTAL)]
    assert rows == expected
    for n, w, k, mode_value, p, _, _ in rows[::5]:
        assert simulate_eviction(n, w, k, trials, EvictionMode(mode_value), seed) == p


@pytest.mark.parametrize("n_entries, ways, tweak_counts, trials", [
    (32, 4, [300, 7, 256], 37),  # uint16 counts: evicted counts pass 255
    (1, 1, [65_537], 1),  # uint32 counts: one set, so every count passes 65,535
    (512, 256, [9, 3], 20),  # ways above what the uint8 counts can hold
], ids=["uint16", "uint32", "ways-past-uint8"])
def test_eviction_grid_with_wide_counts_matches_reference(n_entries, ways, tweak_counts, trials):
    """The counts are stored in the narrowest unsigned type that holds the
    largest tweak count; grids past 255 and 65,535 tweaks still reproduce
    the per-point reference exactly."""
    rows = eviction_grid([n_entries], [ways], tweak_counts, trials=trials, seed=3)
    assert rows == [(n_entries, ways, k, mode.value,
                     _reference_eviction(n_entries, ways, k, trials, mode, 3), trials, 3)
                    for k in tweak_counts
                    for mode in (EvictionMode.AT_LEAST_ONE, EvictionMode.TOTAL)]


def test_an_eviction_pass_holds_one_row_of_draws_at_a_time():
    """A pass's memory is O(trials x sets), not O(max tweaks x trials): 2,048
    tweaks over 1,000 trials would be 16 MB of float64 draws held at once
    (and as much again as indices), while 8 sets of counts are 32 KB."""
    tracemalloc.start()
    try:
        _eviction_pass(32, 4, [2048], 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"traced peak {peak:,} bytes"


def test_an_eviction_pass_keeps_narrow_counts():
    """The default grid's widest geometry (128 sets over 10,000 trials)
    holds its counts in one byte each: 1.3 MB, where 4-byte counts would
    be 5.1 MB and take the traced peak past 6 MB."""
    tracemalloc.start()
    try:
        _eviction_pass(128, 1, range(2, 73, 2), 10000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"traced peak {peak:,} bytes"


# --- the Monte Carlo against the exact model -------------------------------------


def _exact_total(n_entries, ways, n_tweaks):
    """Expected evicted fraction: n_sets * E[max(X - ways, 0)] / n_tweaks,
    X ~ Binomial(n_tweaks, 1/n_sets), in integer arithmetic."""
    n_sets = n_entries // ways
    excess = sum((k - ways) * comb(n_tweaks, k) * (n_sets - 1) ** (n_tweaks - k)
                 for k in range(ways + 1, n_tweaks + 1))
    return Fraction(n_sets * excess, n_sets ** n_tweaks * n_tweaks)


def _exact_at_least_one(n_entries, ways, max_tweaks):
    """P(some set overflows) for every n in 0..max_tweaks: 1 - f(n)/n_sets^n,
    where f(n) counts the assignments of n labelled tweaks to the sets that
    put at most ``ways`` tweaks in each set.  One DP over the sets."""
    n_sets = n_entries // ways
    fits = [1] + [0] * max_tweaks  # no sets yet: only the empty assignment
    for _ in range(n_sets):
        fits = [sum(comb(m, i) * fits[m - i] for i in range(min(ways, m) + 1))
                for m in range(max_tweaks + 1)]
    return [1 - Fraction(fits[n], n_sets ** n) for n in range(max_tweaks + 1)]


def test_exact_model_named_points():
    assert round(float(_exact_total(32, 2, 12)), 6) == 0.054219
    assert round(float(_exact_total(128, 4, 66)), 6) == 0.038034
    assert round(float(_exact_at_least_one(32, 2, 12)[12]), 6) == 0.489485
    assert round(float(_exact_at_least_one(128, 4, 66)[66]), 6) == 0.894011


def test_exact_model_small_case_by_enumeration():
    """Both closed forms against brute force over all 4^5 assignments of 5
    tweaks to the 4 sets of an 8-entry, 2-way store."""
    n_sets, ways, n = 4, 2, 5
    overflow = evicted = 0
    for code in range(n_sets ** n):
        counts = [0] * n_sets
        for _ in range(n):
            counts[code % n_sets] += 1
            code //= n_sets
        excess = sum(max(c - ways, 0) for c in counts)
        overflow += excess > 0
        evicted += excess
    assert _exact_at_least_one(8, ways, n)[n] == Fraction(overflow, n_sets ** n)
    assert _exact_total(8, ways, n) == Fraction(evicted, n_sets ** n * n)


@pytest.mark.parametrize("seed", [0, 1])
def test_default_grid_within_four_sigma_of_exact(seed):
    """Every point of the CLI's default grid lies within 4 sigma of the
    exact value, sigma = sqrt(p(1 - p) / trials); a per-trial evicted
    fraction lies in [0, 1], so p(1 - p) bounds its variance in both modes."""
    trials, tweak_counts = 10000, list(range(2, 73, 2))
    rows = eviction_grid([32, 128], [1, 2, 4, 8], tweak_counts, trials=trials, seed=seed)
    assert len(rows) == 576
    at_least_one = {(n, w): _exact_at_least_one(n, w, max(tweak_counts))
                    for n in (32, 128) for w in (1, 2, 4, 8)}
    for n, w, k, mode, prob, _, _ in rows:
        exact = float(at_least_one[n, w][k] if mode == "at_least_one"
                      else _exact_total(n, w, k))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(prob - exact) <= 4 * sigma, (n, w, k, mode, prob, exact)


def test_single_trial_runs():
    p = simulate_eviction(32, 2, 12, trials=1, seed=5)
    assert 0.0 <= p <= 1.0
