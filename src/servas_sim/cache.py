"""Tweak-tagged caching: the functional in-path cache and offline analytics.

The functional cache is the inline-tag variant: every line carries the full
software tweak next to the data, a hit requires both the address and the
tweak to match, and the cache is write-through so physical memory always
holds current ciphertext.  An address hit with a different tweak drops the
entry (nothing to flush under write-through) and refills through the
engine, which is exactly where cross-context accesses die with an
authentication error instead of a TLB shootdown.

The analytics half is independent of any machine: exact integer formulas
for the extra tag storage of the inline variant versus a deduplicating
tweak cache, and a Monte Carlo for the eviction probability of a
set-associative tweak cache under random (hash-distributed) set indices.
The Monte Carlo (``simulate_eviction``, ``eviction_grid`` and the CLI's
``evictions``) is the only numpy code: ``_eviction_pass`` imports numpy on
its first call, so the functional cache, a machine built with it, the
monitor and the other CLI commands never load numpy.

Monte Carlo method notes: each trial inserts every distinct tweak exactly
once; set indices are uniform draws standing in for the cryptographic index
derivation.  A geometry's pass draws one row of ``trials`` uniforms per
tweak from one generator, and row ``j`` holds the set of tweak ``j`` in
every trial.  The rows come in order, so row ``j`` is the same for every
tweak count above ``j`` (and equals row ``j`` of a ``(max_tweaks, trials)``
draw, which ``default_rng`` fills in C order): the draws are
prefix-coupled across tweak counts.  A set index is the draw scaled by the
set count and truncated, so they are also refinement-coupled across set
counts.  Both couplings make the monotonicity properties exact for a fixed
seed rather than statistical.

The pass walks the rows in order, drawing each into the same buffers, so
it holds O(trials x sets) memory whatever the tweak count.  A per-trial,
per-set count gives each tweak its occurrence rank within its set (one
gather, one scatter per row), and the tweak is evicted when that rank
passes ``ways``.  No count, rank or evicted count can exceed the largest
tweak count, so all three are stored in the narrowest unsigned type that
holds it (one byte for the CLI's default grid).  The running sum of
evictions is the per-trial evicted count after every tweak count at once,
so one pass serves a whole column of the grid and both modes read their
probability from the same integer row.  ``simulate_eviction`` is one point
of this pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# the inline variant stores the whole software tweak next to each line
from .tweak import sw_tweak_bits as servas_tag_bits, voffset_bits


@dataclass(frozen=True)
class CacheCfg:
    """Geometry of one main cache (data and instruction caches are twins)."""

    n_lines: int = 512
    ways: int = 4
    va_bits: int = 48

    def __post_init__(self) -> None:
        for name in ("n_lines", "ways"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")
        if self.n_lines % self.ways:
            raise ValueError("n_lines must divide evenly into ways")


@dataclass(frozen=True)
class TcCfg:
    """A tweak-cache sizing point."""

    n_tweak: int
    voffset_low_bits: int = 6  # voffset bits kept inline in the main cache

    def __post_init__(self) -> None:
        if self.n_tweak < 1 or self.n_tweak & (self.n_tweak - 1):
            raise ValueError("n_tweak must be a power of two")
        if self.voffset_low_bits < 0:
            raise ValueError(f"voffset_low_bits must not be negative, not {self.voffset_low_bits}")


def inline_overhead_bits(cfg: CacheCfg) -> int:
    """Total extra tag bits across the data + instruction caches."""
    return 2 * servas_tag_bits(cfg.va_bits) * cfg.n_lines


def tc_overhead_bits(cfg: CacheCfg, tc: TcCfg) -> int:
    """Total extra bits with a deduplicating tweak cache.

    Each main-cache line keeps the low voffset bits plus an index into the
    tweak cache; each tweak-cache entry stores a valid bit and the rest of
    the tweak.
    """
    b_total = servas_tag_bits(cfg.va_bits)
    if tc.voffset_low_bits > voffset_bits(cfg.va_bits):
        raise ValueError("voffset split exceeds the voffset width")
    b_tweakidx = tc.n_tweak.bit_length() - 1  # log2 of a power of two
    per_line = tc.voffset_low_bits + b_tweakidx
    tc_store = (1 + b_total - tc.voffset_low_bits) * tc.n_tweak
    return 2 * per_line * cfg.n_lines + tc_store


def break_even_lines(tc: TcCfg, va_bits: int = 48, max_exp: int = 24) -> int:
    """Smallest power-of-two main-cache size where the tweak cache beats
    the inline variant."""
    for exp in range(max_exp + 1):
        n = 1 << exp
        cfg = CacheCfg(n_lines=n, ways=1, va_bits=va_bits)
        if tc_overhead_bits(cfg, tc) < inline_overhead_bits(cfg):
            return n
    raise ValueError("no break-even point in range")


class EvictionMode(enum.Enum):
    AT_LEAST_ONE = "at_least_one"
    TOTAL = "total"


# The bound on an eviction grid's size: a pass draws max(tweak counts) x
# trials set indices, one row of trials at a time, and holds trials x sets
# counts of at most four bytes (uint32, past 65,535 tweaks), so the first
# product bounds its work and the second its memory (64 MB of counts at
# most); neither may exceed it, and a count range may list no more points.
GRID_LIMIT = 1 << 24

# The bound on the rows a grid command builds, and so on the points of a
# range: 1,048,576 rows are a few hundred MB at most, where an unbounded
# product of ranges could ask for tens of GB.
ROW_LIMIT = 1 << 20


def _check_rows(name: str, rows: int) -> None:
    if rows > ROW_LIMIT:
        raise ValueError(f"{name} is {rows:,} rows, above the row bound of {ROW_LIMIT:,}")


def _check_eviction_args(n_entries: int, ways: int, trials: int, tweak_counts,
                         seed: int) -> None:
    """The one input check of the eviction Monte Carlo, made before any
    allocation (and before numpy is loaded)."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if ways < 1:
        raise ValueError(f"ways must be at least 1, got {ways}")
    if n_entries < ways:
        raise ValueError(f"n_entries must be at least ways ({ways}), got {n_entries}")
    if n_entries % ways:
        raise ValueError(f"n_entries ({n_entries}) must divide evenly into ways ({ways})")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for n_tweaks in tweak_counts:
        if n_tweaks < 1:
            raise ValueError(f"n_tweaks must be at least 1, got {n_tweaks}")
    for name, size in (("max(n_tweaks) x trials", max(tweak_counts, default=0) * trials),
                       ("trials x sets", trials * (n_entries // ways))):
        if size > GRID_LIMIT:
            raise ValueError(f"{name} is {size:,}, above the grid bound of {GRID_LIMIT:,}")


def _eviction_pass(n_entries: int, ways: int, tweak_counts, trials: int,
                   seed: int) -> dict[int, tuple[float, float]]:
    """(at_least_one, total) for every count in ``tweak_counts`` from one
    coupled pass (see the module docstring)."""
    import numpy as np  # the simulator's only numpy user (see the module docstring)

    wanted, n_sets = set(tweak_counts), n_entries // ways
    max_tweaks = max(wanted, default=0)
    count_type = np.min_scalar_type(max_tweaks)  # no rank or evicted count exceeds it
    rng = np.random.default_rng(seed)
    row, idx = np.empty(trials), np.empty(trials, dtype=np.intp)  # a tweak's draws, count indices
    rank, over = np.empty(trials, dtype=count_type), np.empty(trials, dtype=bool)
    offsets = np.arange(0, trials * n_sets, n_sets)  # trial t's counts start at t * n_sets
    counts = np.zeros(trials * n_sets, dtype=count_type)
    evicted = np.zeros(trials, dtype=count_type)
    probs = {}
    for n_tweaks in range(1, max_tweaks + 1):
        rng.random(out=row)
        np.multiply(row, n_sets, out=idx, casting="unsafe")  # truncates, as astype does
        idx += offsets
        counts.take(idx, out=rank, mode="clip")  # every index is in range
        rank += 1
        counts[idx] = rank
        np.greater(rank, ways, out=over)
        evicted += over
        if n_tweaks in wanted:  # a count over trials is exactly the mean of 0/1 values
            probs[n_tweaks] = (np.count_nonzero(evicted) / trials, float((evicted / n_tweaks).mean()))
    return probs


def simulate_eviction(
    n_entries: int,
    ways: int,
    n_tweaks: int,
    trials: int = 10000,
    mode: EvictionMode = EvictionMode.TOTAL,
    seed: int = 0,
) -> float:
    """Probability of tweak eviction when ``n_tweaks`` random tweaks land in
    an ``n_entries``-entry, ``ways``-way store.

    AT_LEAST_ONE: fraction of trials where any entry was evicted.
    TOTAL: expected fraction of the inserted tweaks that got evicted.
    """
    _check_eviction_args(n_entries, ways, trials, [n_tweaks], seed)
    at_least_one, total = _eviction_pass(n_entries, ways, [n_tweaks], trials, seed)[n_tweaks]
    return at_least_one if mode is EvictionMode.AT_LEAST_ONE else total


def eviction_grid(entries_list, ways_list, tweak_counts, trials=10000, seed=0):
    """Rows of (n_entries, ways, n_tweaks, mode, probability, trials, seed)
    for both modes across the full parameter grid, one coupled pass per
    (n_entries, ways) geometry."""
    tweak_counts = list(tweak_counts)
    geometries = [(n_entries, ways) for n_entries in entries_list for ways in ways_list]
    _check_rows("geometries x n_tweaks x 2 modes", len(geometries) * len(tweak_counts) * 2)
    for n_entries, ways in geometries:
        _check_eviction_args(n_entries, ways, trials, tweak_counts, seed)
    # the mode strings bound once: EvictionMode.value is a property, read
    # here once per grid rather than once per row
    at_least_one, total = EvictionMode.AT_LEAST_ONE.value, EvictionMode.TOTAL.value
    rows = []
    for n_entries, ways in geometries:
        probs = _eviction_pass(n_entries, ways, tweak_counts, trials, seed)
        for n_tweaks in tweak_counts:
            p_any, p_total = probs[n_tweaks]
            rows.append((n_entries, ways, n_tweaks, at_least_one, p_any, trials, seed))
            rows.append((n_entries, ways, n_tweaks, total, p_total, trials, seed))
    return rows


def overhead_sweep(n_lines_list, tc_cfgs, va_bits=48):
    """Rows of (n_lines, n_tweak, b_voffsetL, inline_bits, tc_bits, break_even).
    A tweak cache's break-even does not depend on the main cache, so it is
    computed once per tweak cache."""
    n_lines_list, tc_cfgs = list(n_lines_list), list(tc_cfgs)
    _check_rows("n_lines x tweak caches", len(n_lines_list) * len(tc_cfgs))
    break_evens = [break_even_lines(tc, va_bits) for tc in tc_cfgs]
    rows = []
    for n_lines in n_lines_list:
        cfg = CacheCfg(n_lines=n_lines, ways=1, va_bits=va_bits)
        inline = inline_overhead_bits(cfg)
        for tc, break_even in zip(tc_cfgs, break_evens):
            rows.append((n_lines, tc.n_tweak, tc.voffset_low_bits,
                         inline, tc_overhead_bits(cfg, tc), break_even))
    return rows


# --- the functional in-path cache -------------------------------------------


class TweakTaggedCache:
    """Set-associative, write-through, inline tweak tags.

    Each set is a dict from line index to ``(sw_int, data)``, and its
    insertion order is the replacement order: a fill, or an install after a
    tweak mismatch, goes to the end; an update under the cached tweak keeps
    the entry's place; a full set drops the entry at a uniform random
    position, drawn from the machine RNG.

    The machine supplies a fill callback so authentication failures
    propagate from the refill path untouched; a failed fill caches nothing.
    """

    def __init__(self, cfg: CacheCfg, rng):
        self.cfg = cfg
        self.rng = rng
        self.n_sets = cfg.n_lines // cfg.ways
        self.sets: list[dict[int, tuple[int, bytes]]] = [{} for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.tweak_mismatches = 0

    def read(self, line_index: int, sw, fill) -> bytes:
        """The line under ``sw``: the cached copy if its tag is ``sw``, else
        what ``fill`` reads, installed.  An entry under another tweak is a
        mismatch: under write-through the memory copy is already current,
        so the stale tag is just dropped."""
        ways = self.sets[line_index % self.n_sets]
        entry = ways.get(line_index)
        if entry is not None:
            if entry[0] == sw.value:
                self.hits += 1
                return entry[1]
            self.tweak_mismatches += 1
            del ways[line_index]
        self.misses += 1
        data = fill(line_index, sw)  # may raise AuthenticationError
        self._install(ways, line_index, sw.value, data)
        return data

    def update(self, line_index: int, sw, data: bytes) -> None:
        """Install the post-write line image (the write itself already went
        through to the engine): in place under the cached tag, else as
        :meth:`read` installs a fill, after dropping a mismatched entry."""
        ways = self.sets[line_index % self.n_sets]
        entry = ways.get(line_index)
        if entry is not None:
            if entry[0] == sw.value:
                ways[line_index] = entry[0], data
                return
            self.tweak_mismatches += 1
            del ways[line_index]
        self._install(ways, line_index, sw.value, data)

    def _install(self, ways: dict, line_index: int, sw_int: int, data: bytes) -> None:
        """Put a line the set does not hold at the end of its set, after
        dropping a random entry of a full set."""
        if len(ways) >= self.cfg.ways:
            del ways[list(ways)[self.rng.randrange(len(ways))]]
        ways[line_index] = sw_int, data

    def invalidate(self, line_index: int) -> None:
        self.sets[line_index % self.n_sets].pop(line_index, None)

    def invalidate_all(self) -> None:
        self.sets = [{} for _ in range(self.n_sets)]
