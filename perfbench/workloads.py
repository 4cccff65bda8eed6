"""The three benchmark workloads.

Each workload builds its inputs from the seed, drives servas_sim through
public calls only, one call at a time (closed loop), and checks every
output.  ``setup`` is what ``setup_s`` times; ``measure`` runs timed
intervals until the time is up; ``unit`` is the fixed amount of work one
traced round repeats, so its operation counts are exact for a seed.

``servas_sim`` is imported inside the functions, not at module level, so a
cold set-up (run.py ``--setup-probe``) times the package import too.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

SESSION_BLOCK = 5000  # enclave accesses between two monitor events


@dataclass
class Interval:
    """One timed stretch of work: ``ops`` operations in ``wall`` seconds
    (``scaled`` seconds at nominal host speed, see hostspeed.py), with the
    per-operation median and tail latency (wall seconds) inside it."""

    ops: int
    wall: float
    scaled: float
    p50: float
    tail: float

    @property
    def factor(self) -> float:
        return self.scaled / self.wall


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    intervals: list[Interval] = field(default_factory=list)

    def add(self, attempted: int, errors: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(errors) if failed is None else failed
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])  # keep the first 20


def _deadline(seconds: float):
    end = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= end


def _scale(clock, wall: float) -> float:
    """``wall`` at nominal host speed, or as is when no clock is given
    (traced units report raw time)."""
    return clock.scale(wall) if clock is not None else wall


# --- builtin_suite -------------------------------------------------------------


class BuiltinSuite:
    """Repeated passes of the builtin scenario suite; pass i runs at seed
    S + i.  Operation: one scenario run."""

    name = "builtin_suite"

    def setup(self, seed: int):
        from servas_sim import scenarios

        return scenarios.builtin_suite()

    def _pass(self, suite, seed: int, out: Outcome, clock=None) -> Interval:
        from servas_sim import scenarios

        lat = []
        scaled = 0.0
        errors = []
        for scenario in suite:
            t = time.perf_counter()
            got = scenarios.run_scenario(scenario, seed=seed)
            lat.append(time.perf_counter() - t)
            scaled += _scale(clock, lat[-1])
            errors += checks.check_verdict(scenario.name, scenario.expected, got)
        out.add(len(suite), errors)
        return Interval(len(lat), sum(lat), scaled, statistics.median(lat),
                        statistics.quantiles(lat, n=20)[18])

    def measure(self, suite, seed: int, seconds: float, clock) -> Outcome:
        out = Outcome()
        done = _deadline(seconds)
        i = 0
        while not done():
            out.intervals.append(self._pass(suite, seed + i, out, clock))
            i += 1
        return out

    def unit(self, seed: int) -> Outcome:
        out = Outcome()
        self._pass(self.setup(seed), seed, out)
        return out


# --- enclave_session -------------------------------------------------------------

_PAGE = 4096
_BASE = 0x4000_0000
_DATA_PAGES = 32
_PPN_START = 0x100
_META_PPN, _THREAD_PPN = 0x200, 0x201
_SHM_VA, _SHM_PPN = 0x6000_0000, 0x180
_TEMP_PPN = 0x400
_SPACE = "host"
_HOT_LINES = 256
_RW = {"r": True, "w": True, "x": False, "u": True, "g": False}
_RO = {"r": True, "w": False, "x": False, "u": True, "g": False}


class Session:
    """One long-lived enclave on a machine with a 512-line, 4-way tweak
    cache: a code page, 32 data pages (2,048 lines, 4x the cache) and a
    shared-memory page, fed a seeded stream of user-mode 8-byte accesses
    with a monitor event every SESSION_BLOCK accesses."""

    def __init__(self, seed: int):
        from servas_sim.cache import CacheCfg
        from servas_sim.image import ImagePageType, build_image
        from servas_sim.machine import Machine
        from servas_sim.monitor import SecurityMonitor
        from servas_sim.tweak import PRV_S, PRV_U, PageType, RangeReg

        self.rng = random.Random(f"perfbench-session-{seed}")
        m = self.machine = Machine(seed=seed, cache_cfg=CacheCfg(512, 4))
        sm = self.sm = SecurityMonitor(m)
        code = bytes.fromhex("1300000093080000") * (_PAGE // 8)
        image = build_image(
            [(0, "rx", ImagePageType.SHENCLAVE, code)]
            + [(1 + j, "rw", ImagePageType.REGULAR, b"") for j in range(_DATA_PAGES)],
            developer_id=b"perfbnch")
        for page in image.pages:
            letters = "".join(f for f in "rwxug" if page.perms[f])
            m.map_page(PRV_S, _SPACE, _BASE + page.index * _PAGE,
                       _PPN_START + page.index, letters, page.rsw)
        stack = image.n_region_pages
        m.map_page(PRV_S, _SPACE, _BASE + stack * _PAGE, _PPN_START + stack, "rwu", 0b01)
        m.map_page(PRV_S, _SPACE, _SHM_VA, _SHM_PPN, "rwu", 0b11)
        m.prv = PRV_U
        self.handle = sm.ecreate(_SPACE, image, _BASE, 1, _META_PPN, _THREAD_PPN)
        self.shm_csrs = [("urange", RangeReg(_SHM_VA, _PAGE, True)),
                         ("usid0", self.rng.getrandbits(64)),
                         ("usid1", self.rng.getrandbits(16))]
        sm.eenter(self.handle)
        self._set_shm_csrs()
        sm.eprepare(_SHM_VA, PageType.SHM, _RW)

        data_lines = [_BASE + _PAGE + i * 64 for i in range(_DATA_PAGES * 64)]
        self.lines = data_lines + [_SHM_VA + i * 64 for i in range(64)]
        self.hot = data_lines[:_HOT_LINES]
        self.shadow = {va: bytearray(64) for va in self.lines}
        self.n_events = 0

    def _set_shm_csrs(self) -> None:
        """The enclave points its user range and session id at the shared
        page; entering afresh starts with shared memory disabled."""
        from servas_sim.tweak import PRV_U

        for name, value in self.shm_csrs:
            self.machine.write_csr(PRV_U, name, value)

    def block(self, n: int) -> list[tuple[int, bytes | None]]:
        """The next ``n`` accesses: (va, data) with data None for a read.
        Three reads to one write; about 80% of them hit a 256-line hot set
        that fits in the cache."""
        rng = self.rng
        out = []
        for _ in range(n):
            pool = self.hot if rng.random() < 0.8 else self.lines
            va = pool[rng.randrange(len(pool))] + 8 * rng.randrange(8)
            out.append((va, rng.randbytes(8) if rng.random() < 0.25 else None))
        return out

    def run_block(self, block) -> tuple[list[float], list[str]]:
        """Run the accesses, timing each ``Machine.access`` call, and check
        every read against the shadow copy."""
        from servas_sim.machine import AccessKind, Trap
        from servas_sim.tweak import PRV_U

        access = self.machine.access
        read, write, prv = AccessKind.READ, AccessKind.WRITE, PRV_U
        shadow = self.shadow
        clock = time.perf_counter
        lat = []
        errors = []
        for va, data in block:
            line, off = va & ~63, va & 63
            t = clock()
            try:
                if data is None:
                    got = access(_SPACE, va, read, prv, None, 8)
                else:
                    access(_SPACE, va, write, prv, data)
            except Trap as exc:
                lat.append(clock() - t)
                errors.append(f"access at {va:#x} trapped: {exc}")
                continue
            lat.append(clock() - t)
            if data is None:
                want = shadow[line][off:off + 8]
                if got != want:
                    errors.append(f"read at {va:#x} returned {got.hex()}, "
                                  f"shadow holds {want.hex()}")
            else:
                shadow[line][off:off + 8] = data
        return lat, errors

    def monitor_event(self) -> list[str]:
        """The next monitor event of the fixed rotation."""
        from servas_sim.machine import Trap
        from servas_sim.monitor import MonitorError, PageCtx
        from servas_sim.tweak import PageType

        sm, kind = self.sm, self.n_events % 5
        self.n_events += 1
        va = _BASE + (1 + self.rng.randrange(_DATA_PAGES)) * _PAGE
        regular = PageType.REGULAR
        try:
            if kind == 0:
                sm.eexit()
                sm.eenter(self.handle)
                self._set_shm_csrs()
            elif kind == 1:
                sm.interrupt()
                sm.eenter(self.handle)
            elif kind == 2:
                rw, ro = PageCtx(regular, _RW), PageCtx(regular, _RO)
                sm.emod(va, rw, ro)
                sm.emod(va, ro, rw)
            elif kind == 3:
                sm.edestroy(va)
                sm.eprepare(va, regular, _RW)
                for line in range(va, va + _PAGE, 64):
                    self.shadow[line][:] = bytes(64)
            else:
                sm.eexit()
                sealed = sm.swap_out(self.handle, va, _TEMP_PPN)
                sm.swap_in(self.handle, va, sealed)
                sm.eenter(self.handle)
                self._set_shm_csrs()
        except (Trap, MonitorError) as exc:
            return [f"monitor event {kind} on page {va:#x} failed: {exc!r}"]
        return []


class EnclaveSession:
    """Operation: one enclave access; monitor events count as operations
    for failures and their time counts in the session time."""

    name = "enclave_session"

    def setup(self, seed: int) -> Session:
        return Session(seed)

    def _block(self, session: Session, out: Outcome, clock=None) -> Interval:
        block = session.block(SESSION_BLOCK)
        t = time.perf_counter()
        lat, errors = session.run_block(block)
        errors += session.monitor_event()
        wall = time.perf_counter() - t
        out.add(len(block) + 1, errors)
        q = statistics.quantiles(lat, n=100)
        return Interval(len(lat), wall, _scale(clock, wall), q[49], q[98])

    def measure(self, session: Session, seed: int, seconds: float, clock) -> Outcome:
        out = Outcome()
        done = _deadline(seconds)
        while not done():
            out.intervals.append(self._block(session, out, clock))
        return out

    def unit(self, seed: int) -> Outcome:
        """Set-up plus five blocks: each monitor event of the rotation once."""
        out = Outcome()
        session = self.setup(seed)
        for _ in range(5):
            self._block(session, out)
        return out


# --- eviction_grid ---------------------------------------------------------------


class EvictionGrid:
    """``servas-sim evictions`` over the CLI's default grid (entries 32,128 x
    ways 1,2,4,8 x tweaks 2:72:2 x both modes, 10,000 trials).  Pass i runs
    at seed S + i as one CLI call per (entries, ways) geometry, in the
    order the full grid lists them, so the concatenated CSV is byte for byte
    the single-call CSV and the host-speed probes can sit between calls.
    Operation: one grid point (576 per pass)."""

    name = "eviction_grid"
    geometries = [(entries, ways) for entries in (32, 128) for ways in (1, 2, 4, 8)]

    def __init__(self, workdir: Path, digests: dict[str, str]):
        self.workdir = workdir
        self.digests = digests

    def setup(self, seed: int):
        from servas_sim import cli

        return cli

    def grid_csv(self, seed: int, clock=None) -> tuple[int, float, float, bytes]:
        """The default grid's CSV at ``seed``: exit code of the first failing
        call (0 if none), wall time, host-scaled time, CSV bytes."""
        from servas_sim import cli

        wall = scaled = 0.0
        parts = []
        with tempfile.TemporaryDirectory(dir=self.workdir, prefix=".perfbench-") as tmp:
            path = Path(tmp) / "grid.csv"
            for entries, ways in self.geometries:
                t = time.perf_counter()
                code = cli.main(["evictions", "--entries", str(entries), "--ways", str(ways),
                                 "--seed", str(seed), "--out", str(path)])
                dt = time.perf_counter() - t
                wall += dt
                scaled += _scale(clock, dt)
                if code != 0:
                    return code, wall, scaled, b""
                data = path.read_bytes()
                parts.append(data if not parts else data.split(b"\r\n", 2)[2])
        return 0, wall, scaled, b"".join(parts)

    def _pass(self, seed: int, out: Outcome, clock=None) -> Interval | None:
        code, wall, scaled, data = self.grid_csv(seed, clock)
        if code != 0:
            out.add(1, [f"evictions exited {code} at seed {seed}"])
            return None
        n_points, n_bad, errors = checks.check_eviction_csv(data, seed, self.digests)
        out.add(n_points, errors, failed=n_bad)
        return Interval(n_points, wall, scaled, wall / n_points, wall / n_points)

    def measure(self, cli, seed: int, seconds: float, clock) -> Outcome:
        out = Outcome()
        done = _deadline(seconds)
        i = 0
        while not done():
            interval = self._pass(seed + i, out, clock)
            if interval is not None:
                out.intervals.append(interval)
            i += 1
        return out

    def unit(self, seed: int) -> Outcome:
        out = Outcome()
        self._pass(seed, out)
        return out
