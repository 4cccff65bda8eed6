"""Paired benchmark runs of two checkouts, for a claim by the benchmark's rule.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W [W ...]
                                   --pairs N --seconds S --seed-base K --out BENCH_<n>.json
                                   [--in-process]

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

With ``--in-process`` both checkouts are loaded into this one interpreter:
each one's ``servas_sim`` package and perfbench modules are imported under
their usual names and swapped into ``sys.modules`` while that checkout
runs (perfbench's workloads import ``servas_sim`` inside their functions,
so the swap reaches them).  Pair ``i`` builds each side's workload at
seed K+i, then runs ``UNITS`` timed units of S / ``UNITS`` seconds per
side (the workload's ``measure``, untraced, each unit timed by a fresh
``ScaledClock`` of the side's own ``hostspeed``) in ABBA order -- the
parent first in even pairs, the change in odd ones.  A side's
``ops_per_s`` and ``op_ms_p50`` are the medians over its units' intervals
scaled to nominal host speed, as ``perfbench/run.py`` computes them, with
the unscaled figures beside them under ``raw_wall_clock``; the summary has
the same shape and reads the scaled ones.  Host drift that lasts longer
than a unit hits both sides alike, which separate processes cannot
promise, and scaling keeps drift between pairs out of the parent's spread.
``setup_s`` and ``peak_rss_mb`` are properties of a fresh process, and the
traced counts need the tracer's own process, so both stay with the
separate-process mode.

Run it on an otherwise idle host; the runs themselves are sequential.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COUNT_UNITS = ("count", "count/call")
# the end-to-end metrics one interpreter can measure for both sides
IN_PROCESS_METRICS = ("ops_per_s", "op_ms_p50")
# the top-level module names a checkout's in-process load owns
TREE_MODULES = ("servas_sim", "run", "workloads", "checks", "hostspeed")
# the timed units each side runs per in-process pair, in ABBA order
UNITS = 12


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


def _tree_owned(name: str) -> bool:
    return name.partition(".")[0] in TREE_MODULES


class Tree:
    """One checkout's ``servas_sim`` package and perfbench modules, loaded
    under their usual names.  ``with tree:`` puts them in ``sys.modules``
    in place of whatever the interpreter held under those names, and
    puts that back on leaving, keeping any module the checkout loaded
    meanwhile (``servas_sim`` loads its layers on first use)."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.modules: dict[str, object] = {}
        self._outside: dict[str, object] = {}
        saved = sys.path[:]
        sys.path[:0] = [str(self.root / "perfbench"), str(self.root / "src")]
        try:
            with self:
                self.run = importlib.import_module("run")
                package = importlib.import_module("servas_sim")
                where = Path(package.__file__).resolve().parent
                if where != self.root / "src" / "servas_sim":
                    sys.exit(f"error: servas_sim loaded from {where}, not {self.root}")
        finally:
            sys.path[:] = saved

    def __enter__(self) -> "Tree":
        self._outside = {n: m for n, m in sys.modules.items() if _tree_owned(n)}
        for name in self._outside:
            del sys.modules[name]
        sys.modules.update(self.modules)
        return self

    def __exit__(self, *exc) -> None:
        self.modules = {n: m for n, m in sys.modules.items() if _tree_owned(n)}
        for name in self.modules:
            del sys.modules[name]
        sys.modules.update(self._outside)


def abba(units: int, first: int) -> list[int]:
    """The side index (0 parent, 1 change) of each of ``2 * units`` units in
    ABBA order, side ``first`` leading: each side runs ``units`` of them."""
    return [first ^ (j % 4 in (1, 2)) for j in range(2 * units)]


def in_process_pair(trees: list[Tree], workload: str, seed: int, unit_seconds: float,
                    first: int) -> dict:
    """One pair in one interpreter: each side's workload built at ``seed``,
    then ``UNITS`` timed units per side in ABBA order."""
    built = []
    for tree in trees:
        with tree:
            wl = tree.run.make_workload(workload)
            built.append((wl, wl.setup(seed), tree.run.workloads.Outcome()))
    for side in abba(UNITS, first):
        wl, state, total = built[side]
        with trees[side]:
            out = wl.measure(state, seed, unit_seconds, trees[side].run.hostspeed.ScaledClock())
        total.intervals += out.intervals
        total.add(out.attempted, out.errors, failed=out.failed)
    pair = {"seed": seed, "first": SIDES[first]}
    for side, tree, (wl, _, total) in zip(SIDES, trees, built):
        if not total.intervals:
            sys.exit(f"error: {workload} at seed {seed} completed no interval in {tree.root}")
        scaled, raw = (tree.run.end_to_end(wl, total.intervals, scaled=flag)
                       for flag in (True, False))
        pair[side] = {"result": {
            "attempted": total.attempted, "failed": total.failed,
            "intervals": len(total.intervals), "errors": total.errors,
            "metrics": {name: {"value": scaled[name], "unit": unit}
                        for name, unit in tree.run.END_TO_END if name in IN_PROCESS_METRICS},
            "raw_wall_clock": {name: raw[name] for name in IN_PROCESS_METRICS}}}
    return pair


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--in-process", action="store_true",
                        help="load both checkouts into this interpreter and alternate units")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = {"parent": args.parent, "change": args.change}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    trees = None
    if args.in_process:
        metrics = [m for m in metrics if m["name"] in IN_PROCESS_METRICS]
        trees = [Tree(checkouts[side]) for side in SIDES]

    report = {"mode": "in-process" if args.in_process else "separate-process",
              "pairs": args.pairs, "seconds": args.seconds, "seed_base": args.seed_base,
              "workloads": {}}
    if args.in_process:
        report["units"] = UNITS
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            if trees is not None:
                pair = in_process_pair(trees, workload, seed, args.seconds / UNITS, i % 2)
            else:
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} ops_per_s {pair[side]['result']['metrics']['ops_per_s']['value']:.6g}"
                for side in SIDES), flush=True)
        entry = report["workloads"][workload] = {}
        if trees is None:
            counts = {side: counts_of(run_once(checkouts[side], workload, args.seed_base, 1.0,
                                               trace=1)["result"]) for side in SIDES}
            entry["traced_counts"] = {"seed": args.seed_base,
                                      "differ": count_diff(counts["parent"], counts["change"])}
        entry.update({
            "failed": {side: sum(r[side]["result"]["failed"] for r in runs) for side in SIDES},
            "attempted": {side: sum(r[side]["result"]["attempted"] for r in runs)
                          for side in SIDES},
            "summary": summarize(runs, metrics),
            "runs": runs,
        })
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        if "traced_counts" in entry:
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
