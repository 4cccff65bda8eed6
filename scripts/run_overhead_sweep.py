#!/usr/bin/env python3
"""Reproduce the cache tag-storage comparison.

Sweeps main-cache sizes 2^6..2^14 lines against tweak caches of 32/128/512
entries with 6, 20 or all of the voffset bits (42 for 48-bit virtual
addresses, 33 for 39-bit) kept inline, and prints the break-even sizes.

Usage: python scripts/run_overhead_sweep.py [--out overhead.csv] [--va-bits 48|39]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from servas_sim.cache import TcCfg, break_even_lines, servas_tag_bits  # noqa: E402
from servas_sim.cli import main as cli_main  # noqa: E402
from servas_sim.tweak import voffset_bits  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="overhead.csv")
    parser.add_argument("--va-bits", type=int, choices=(39, 48), default=48)
    args = parser.parse_args()
    print(f"inline tag: {servas_tag_bits(args.va_bits)} bits per cache line "
          f"({args.va_bits}-bit virtual addresses)")
    for n_tweak in (32, 128, 512):
        for voffl in (6, 20, voffset_bits(args.va_bits)):
            be = break_even_lines(TcCfg(n_tweak=n_tweak, voffset_low_bits=voffl),
                                  args.va_bits)
            print(f"  tweak cache {n_tweak:4d} entries, {voffl:2d} inline voffset "
                  f"bits: pays off from {be} main-cache lines")
    lines = ",".join(str(1 << e) for e in range(6, 15))
    rc = cli_main(["overhead", "--va-bits", str(args.va_bits), "--lines", lines,
                   "--out", args.out])
    print(f"sweep written to {args.out}")
    sys.exit(rc)
