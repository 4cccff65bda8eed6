"""servas-sim benchmark runner.

    python3 perfbench/run.py --workload builtin_suite|enclave_session|eviction_grid|all
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root.  It imports ``servas_sim`` from ``src/``
(the package need not be installed), runs one workload in this process on
one thread, checks every output, and prints each metric by name and unit,
then a stamped ``record`` line, then one JSON result line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats a fixed unit of the workload, alternately untraced
and traced, and reports the per-layer metrics of spans.py plus the
tracing overhead; counts must repeat exactly across traced rounds, and the
wrappers must come off cleanly.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("builtin_suite", "enclave_session", "eviction_grid")
SETUP_REPEATS = 9
# Seeds used while the benchmark was written and tuned; any other is held out.
TUNING_SEEDS = frozenset(range(5))
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("op_ms_p50", "ms")]
# The same figures under their per-workload names, plus unbounded extras.
REPORTED = {"scenarios_per_s": "1/s", "scenario_ms_p50": "ms", "scenario_ms_p95": "ms",
            "accesses_per_s": "1/s", "access_us_p50": "us", "access_us_p99": "us",
            "eviction_points_per_s": "1/s", "fail_frac": "failed/attempted"}


def make_workload(name: str):
    if name == "builtin_suite":
        return workloads.BuiltinSuite()
    if name == "enclave_session":
        return workloads.EnclaveSession()
    digests = json.loads((HERE / "eviction_digests.json").read_text())["digests"]
    return workloads.EvictionGrid(ROOT, digests)


def import_servas_sim():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "servas_sim" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'servas_sim'} not found; run from a servas-sim checkout")
    sys.path.insert(0, str(SRC))
    import servas_sim

    if Path(servas_sim.__file__).resolve().parent != SRC / "servas_sim":
        sys.exit(f"error: servas_sim imported from {servas_sim.__file__}, not {SRC}")
    return servas_sim


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def stamp(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "servas_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "held_out": seed not in TUNING_SEEDS,
        "trace": trace, "git_rev": git_rev(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
    }


def setup_probe(name: str, seed: int) -> None:
    """One cold set-up in this fresh process: import the package and build
    the workload, timed and scaled like every other interval.  The first
    probe of a fresh interpreter runs cold, so one is spent first."""
    hostspeed.probe()
    clock = hostspeed.ScaledClock()
    t = time.perf_counter()
    import_servas_sim()
    make_workload(name).setup(seed)
    wall = time.perf_counter() - t
    print(json.dumps({"wall": wall, "scaled": clock.scale(wall)}))


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["wall"])
        scaled.append(probe["scaled"])
    return scaled, raw


def end_to_end(wl, intervals, scaled: bool) -> dict[str, float]:
    """Throughput and latency from the timed intervals: medians over
    intervals, each rescaled to nominal host speed if ``scaled``."""
    def f(iv):
        return iv.factor if scaled else 1.0

    ops_per_s = statistics.median(iv.ops / (iv.wall * f(iv)) for iv in intervals)
    p50 = statistics.median(iv.p50 * f(iv) for iv in intervals)
    tail = statistics.median(iv.tail * f(iv) for iv in intervals)
    out = {"ops_per_s": ops_per_s, "op_ms_p50": p50 * 1e3}
    if wl.name == "builtin_suite":
        out.update(scenarios_per_s=ops_per_s, scenario_ms_p50=p50 * 1e3,
                   scenario_ms_p95=tail * 1e3)
    elif wl.name == "enclave_session":
        out.update(accesses_per_s=ops_per_s, access_us_p50=p50 * 1e6,
                   access_us_p99=tail * 1e6)
    else:
        out.update(eviction_points_per_s=ops_per_s)
    return out


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    wl = make_workload(name)
    import_servas_sim()
    state = wl.setup(seed)
    clock = hostspeed.ScaledClock()
    out = wl.measure(state, seed, seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_scaled, setup_raw = measure_setup(name, seed)
    if not out.intervals:
        sys.exit("error: no interval completed; nothing was measured")

    metrics = {"setup_s": statistics.median(setup_scaled), "peak_rss_mb": peak_rss_mb}
    metrics.update(end_to_end(wl, out.intervals, scaled=True))
    metrics["fail_frac"] = out.failed / out.attempted
    raw = {"setup_s": statistics.median(setup_raw)}
    raw.update(end_to_end(wl, out.intervals, scaled=False))
    extra = {"intervals": len(out.intervals),
             "host_factor_median": statistics.median(iv.factor for iv in out.intervals),
             "raw_wall_clock": raw}
    return finish(name, seed, 0, out, metrics, dict(END_TO_END), REPORTED, extra)


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import spans

    wl = make_workload(name)
    import_servas_sim()
    total = workloads.Outcome()
    rounds, untraced_s, traced_s = [], [], []
    restored = True
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        t = time.perf_counter()
        out = wl.unit(seed)
        untraced_s.append(time.perf_counter() - t)
        total.add(out.attempted, out.errors, failed=out.failed)

        tracer = spans.Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            out = wl.unit(seed)
            traced_s.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        restored = restored and tracer.restored()
        total.add(out.attempted, out.errors, failed=out.failed)
        rounds.append(tracer.layer_metrics())

    first = rounds[0]
    drift = [m for m in spans.COUNT_METRICS if any(r[m] != first[m] for r in rounds[1:])]
    errors = []
    if drift:
        errors.append(f"counts differ between traced rounds of one seed: {drift}")
    if not restored:
        errors.append("tracing wrappers were not removed")
    total.add(0, errors)

    metrics = {}
    for metric, unit in spans.PER_LAYER:
        if metric in first:
            values = [r[metric] for r in rounds]
            metrics[metric] = first[metric] if metric in spans.COUNT_METRICS \
                else statistics.median(values)
    u, tr = statistics.median(untraced_s), statistics.median(traced_s)
    metrics.update({"trace.untraced_unit_s": u, "trace.traced_unit_s": tr,
                    "trace.overhead_s": tr - u, "trace.overhead_ratio": tr / u - 1})
    extra = {"rounds": len(rounds), "deterministic": not drift, "restored": restored}
    return finish(name, seed, 1, total, metrics, dict(spans.PER_LAYER), {}, extra)


def finish(name, seed, trace, out, metrics, units, extra_units, extra) -> dict:
    """Print every metric and the stamped record; return the result line."""
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value:.6g} {units.get(metric) or extra_units[metric]}")
    for msg in out.errors:
        print(f"{name} FAIL {msg}")
    print("record " + json.dumps({**stamp(name, seed, trace), **extra,
                                  "attempted": out.attempted, "failed": out.failed,
                                  "metrics": metrics}))
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so each peak RSS is its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: {name} failed:\n{proc.stderr}")
        part = json.loads(lines[-1])
        result["correct"] &= part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update({f"{name}.{m}": v for m, v in part["metrics"].items()})
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every output check fires on bad output")
    args = parser.parse_args()
    if args.self_test:
        import selftest

        sys.exit(selftest.main())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
