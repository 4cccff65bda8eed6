"""Paired benchmark runs of two checkouts, for a claim by the benchmark's rule.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W [W ...]
                                   --pairs N --seconds S --seed-base K --out BENCH_<n>.json

For each workload, pair ``i`` runs ``python3 perfbench/run.py --workload W
--seed K+i --seconds S`` once in each checkout, one after the other, the
parent first in even pairs and the change first in odd ones.  Every JSON
result line is kept, with the stamp (source digest, git revision, versions)
of the run's ``record`` line.  For each end-to-end metric of the parent's
BENCHMARK.json, the summary gives both sides' medians and quartiles, the
change's win count (ties count for neither side), the parent's spread
(upper minus lower quartile) and whether the gain rule holds: the change
wins at least nine pairs in ten and the medians differ by more than the
parent's spread.  It also flags a metric whose change median is worse
than the parent's by more than the metric's ``bound`` in BENCHMARK.json
(a fraction of the parent's median), the regression the benchmark
refuses.  Failed operations are summed per side.

Once per workload and side, at the first seed, it also runs
``perfbench/run.py --trace 1 --seconds 1``, whose per-layer counts (units
``count`` and ``count/call``) are deterministic, and records and prints
the counts that differ between the sides.  Wall time that moves while
every count is identical moved for no reason in the code's work.

Run it on an otherwise idle host; the runs themselves are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COUNT_UNITS = ("count", "count/call")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} at seed {seed} failed in {checkout}:\n{proc.stderr}")
    stamp = next((json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record ")), {})
    return {"result": json.loads(lines[-1]),
            "stamp": {k: stamp.get(k) for k in ("git_rev", "src_sha256", "python", "nproc")}}


def counts_of(result: dict) -> dict:
    """The count metrics of one run's result line."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def count_diff(parent: dict, change: dict) -> dict:
    """The counts that differ between the sides, with both values (None
    where a side does not report the count)."""
    return {name: {"parent": parent.get(name), "change": change.get(name)}
            for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_than_bound(parent: float, change: float, bound: float, higher: bool) -> bool:
    """Whether ``change`` is worse than ``parent`` by more than ``bound``
    times the parent's magnitude."""
    worse_by = parent - change if higher else change - parent
    return worse_by > bound * abs(parent)


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs]
                  for side in SIDES}
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c > p if higher else c < p))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s]) for s in SIDES)
        spread = pq3 - pq1
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": values["parent"]},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": values["change"]},
            "change_over_parent": cmed / pmed if pmed else None,
            "change_wins": wins, "pairs": len(runs),
            "parent_iqr": spread,
            "gain_holds": wins >= 0.9 * len(runs) and abs(cmed - pmed) > spread
            and (cmed > pmed if higher else cmed < pmed),
            "bound": metric["bound"],
            "worse_than_bound": worse_than_bound(pmed, cmed, metric["bound"], higher),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = {"parent": args.parent, "change": args.change}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    report = {"pairs": args.pairs, "seconds": args.seconds, "seed_base": args.seed_base,
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} ops_per_s {pair[side]['result']['metrics']['ops_per_s']['value']:.6g}"
                for side in SIDES), flush=True)
        counts = {side: counts_of(run_once(checkouts[side], workload, args.seed_base, 1.0,
                                           trace=1)["result"]) for side in SIDES}
        report["workloads"][workload] = {
            "traced_counts": {"seed": args.seed_base,
                              "differ": count_diff(counts["parent"], counts["change"])},
            "failed": {side: sum(r[side]["result"]["failed"] for r in runs) for side in SIDES},
            "attempted": {side: sum(r[side]["result"]["attempted"] for r in runs)
                          for side in SIDES},
            "summary": summarize(runs, metrics),
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        differ = entry["traced_counts"]["differ"]
        print(f"{workload} traced counts at seed {args.seed_base}: "
              + ("identical" if not differ else f"{len(differ)} differ"))
        for name, d in differ.items():
            print(f"{workload} {name}: parent {d['parent']} change {d['change']}")
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                  f"change {s['change']['median']:.6g} ({s['change_over_parent']:.3f}x), "
                  f"change wins {s['change_wins']}/{s['pairs']}, parent IQR "
                  f"{s['parent_iqr']:.3g}, gain holds: {s['gain_holds']}, "
                  f"worse than bound {s['bound']:g}: {s['worse_than_bound']}")


if __name__ == "__main__":
    main()
