#!/usr/bin/env python3
"""Reproduce the cache tag-storage comparison.

Sweeps main-cache sizes 2^6..2^14 lines against the CLI's default tweak
caches (32/128/512 entries with 6, 20 or all of the voffset bits kept
inline: 42 for 48-bit virtual addresses, 33 for 39-bit), and prints the
break-even sizes read back from the CSV it writes.

Usage: python scripts/run_overhead_sweep.py [--out overhead.csv] [--va-bits 48|39]
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from servas_sim.cache import servas_tag_bits  # noqa: E402
from servas_sim.cli import main as cli_main  # noqa: E402


def break_evens(csv_path: str) -> dict[tuple[int, int], int]:
    """Each tweak-cache point's break-even size, from the sweep's CSV (a
    schema row, a header row, then one row per main-cache size and point)."""
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))[2:]
    return {(int(n_tweak), int(voffl)): int(be)
            for _, n_tweak, voffl, _, _, be in rows}


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="overhead.csv", help="CSV file (not stdout)")
    parser.add_argument("--va-bits", type=int, choices=(39, 48), default=48)
    args = parser.parse_args()
    if args.out == "-":
        parser.error("--out must name a file: the break-evens are read back from it")
    lines = ",".join(str(1 << e) for e in range(6, 15))
    rc = cli_main(["overhead", "--va-bits", str(args.va_bits), "--lines", lines,
                   "--out", args.out])
    if rc:
        sys.exit(rc)
    print(f"inline tag: {servas_tag_bits(args.va_bits)} bits per cache line "
          f"({args.va_bits}-bit virtual addresses)")
    for (n_tweak, voffl), be in break_evens(args.out).items():
        print(f"  tweak cache {n_tweak:4d} entries, {voffl:2d} inline voffset "
              f"bits: pays off from {be} main-cache lines")
    print(f"sweep written to {args.out}")
