#!/usr/bin/env python3
"""Reproduce the tweak-cache eviction experiments.

Sweeps stores of 32 and 128 entries with 1/2/4/8 ways over 1..96 inserted
tweaks, ``--trials`` (10,000 by default) trials per point, both probability
modes, and prints the headline operating points at the same trial count
(2 enclaves x 6 tweaks on the small store, 11 enclaves x 6 tweaks on the
large one).

Usage: python scripts/run_eviction_sweep.py [--out evictions.csv] [--seed N] [--trials N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from servas_sim.cache import EvictionMode, simulate_eviction  # noqa: E402
from servas_sim.cli import main as cli_main  # noqa: E402


def headline(seed: int, trials: int) -> None:
    small = simulate_eviction(32, 2, 12, trials, EvictionMode.TOTAL, seed)
    large = simulate_eviction(128, 4, 66, trials, EvictionMode.TOTAL, seed)
    print(f"32 entries, 2 ways, 2 enclaves x 6 tweaks : total eviction {small:.4f}")
    print(f"128 entries, 4 ways, 11 enclaves x 6 tweaks: total eviction {large:.4f}")
    print("both at or around the 5% operating point")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="evictions.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10000)
    args = parser.parse_args()
    headline(args.seed, args.trials)
    rc = cli_main([
        "evictions", "--entries", "32,128", "--ways", "1,2,4,8",
        "--tweaks", "1:96:1", "--trials", str(args.trials),
        "--seed", str(args.seed), "--out", args.out,
        "--gnuplot", str(Path(args.out).with_suffix(".gp")),
    ])
    print(f"grid written to {args.out}")
    sys.exit(rc)
