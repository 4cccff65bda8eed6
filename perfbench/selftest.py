"""Self-test of the benchmark's own checks: each must fire on bad output.

    python3 perfbench/run.py --self-test

Feeds the real workload code a wrong expected verdict, a corrupted shadow
byte and an altered CSV digest (plus a broken monotone row and an
out-of-bound exact-point row), checks that BENCHMARK.json lists exactly
the metrics the benchmark prints, and that the tracer restores every
original it replaced.  Exit status 0 when every check fires.
"""

from __future__ import annotations

import dataclasses
import json

import checks
import run
import spans
import workloads


def _verdict_check() -> bool:
    from servas_sim.scenarios import Verdict, builtin_suite

    good = builtin_suite()[0]
    bad = dataclasses.replace(good, expected=Verdict("ALLOWED", None, 0))
    out = workloads.Outcome()
    workloads.BuiltinSuite()._pass([good, bad], 0, out)
    return out.failed == 1


def _shadow_check() -> bool:
    session = workloads.Session(0)
    va = session.hot[3] + 8
    _, errors = session.run_block([(va, b"12345678")])
    if errors:
        return False
    _, errors = session.run_block([(va, None)])
    if errors:
        return False
    session.shadow[va & ~63][8] ^= 0x01
    _, errors = session.run_block([(va, None)])
    return len(errors) == 1


def _eviction_checks() -> bool:
    grid = run.make_workload("eviction_grid")
    code, _, _, data = grid.grid_csv(0)
    # the recorded digest passes
    n_points, n_bad, _ = checks.check_eviction_csv(data, 0, grid.digests)
    if code != 0 or n_bad or "0" not in grid.digests:
        return False
    # altered digest: every point of the pass fails
    _, n_bad, _ = checks.check_eviction_csv(data, 0, {"0": "0" * 64})
    ok = n_bad == n_points

    lines = data.decode().split("\r\n")
    # an at_least_one row that falls below its predecessor
    i = next(k for k, ln in enumerate(lines) if ln.startswith("32,2,40,at_least_one,"))
    row = lines[i].split(",")
    row[4] = "0.0"
    broken = "\r\n".join(lines[:i] + [",".join(row)] + lines[i + 1:]).encode()
    _, n_bad, _ = checks.check_eviction_csv(broken, 0, {})
    ok &= n_bad == 1
    # an exact-point row far from the closed form
    i = next(k for k, ln in enumerate(lines) if ln.startswith("32,2,12,total,"))
    row = lines[i].split(",")
    row[4] = "0.08"
    broken = "\r\n".join(lines[:i] + [",".join(row)] + lines[i + 1:]).encode()
    _, n_bad, _ = checks.check_eviction_csv(broken, 0, {})
    ok &= n_bad == 1
    return ok


def _benchmark_json_check() -> bool:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    workload_names = tuple(w["name"] for w in bench["workloads"])
    return (per_layer == spans.PER_LAYER and end_to_end == run.END_TO_END
            and workload_names == run.WORKLOADS)


def _restore_check() -> bool:
    from servas_sim import cli, machine, scenarios

    before = (machine.Machine.access, machine.classify_tweak, scenarios.run_scenario,
              cli.run_scenario, cli.main)
    tracer = spans.Tracer()
    tracer.install()
    swapped = machine.Machine.access is not before[0] and cli.run_scenario is not before[3]
    tracer.uninstall()
    after = (machine.Machine.access, machine.classify_tweak, scenarios.run_scenario,
             cli.run_scenario, cli.main)
    return swapped and tracer.restored() and all(a is b for a, b in zip(before, after))


def main() -> int:
    run.import_servas_sim()
    results = {
        "wrong expected verdict is caught": _verdict_check(),
        "corrupted shadow byte is caught": _shadow_check(),
        "altered digest, falling row and off-bound row are caught": _eviction_checks(),
        "BENCHMARK.json lists the reported metrics": _benchmark_json_check(),
        "tracer restores the originals": _restore_check(),
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1
