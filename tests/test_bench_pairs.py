"""``scripts/bench_pairs.py``'s summary on synthetic pairs: the gain rule,
the bound flag and the traced-count comparison, with no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]


def _runs(parent: list[dict], change: list[dict]) -> list[dict]:
    """Pairs whose sides report the given metric values."""
    def side(values):
        return {"result": {"metrics": {k: {"value": v} for k, v in values.items()}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


def _pairs(parent_ops, change_ops, parent_ms, change_ms):
    return _runs([{"ops_per_s": o, "op_ms_p50": m} for o, m in zip(parent_ops, parent_ms)],
                 [{"ops_per_s": o, "op_ms_p50": m} for o, m in zip(change_ops, change_ms)])


def test_a_clear_gain_holds_and_is_not_flagged():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    runs = _pairs(parent, [p * 1.3 for p in parent], [10.0] * 10, [7.0] * 10)
    summary = bench_pairs.summarize(runs, METRICS)
    ops, ms = summary["ops_per_s"], summary["op_ms_p50"]
    assert (ops["change_wins"], ops["gain_holds"], ops["worse_than_bound"]) == (10, True, False)
    assert (ms["change_wins"], ms["gain_holds"], ms["worse_than_bound"]) == (10, True, False)
    assert ops["bound"] == 0.25


@pytest.mark.parametrize("factor, flagged", [(0.76, False), (0.74, True), (1.5, False)])
def test_a_higher_is_better_metric_is_flagged_past_its_bound(factor, flagged):
    runs = _pairs([100] * 4, [100 * factor] * 4, [1.0] * 4, [1.0] * 4)
    assert bench_pairs.summarize(runs, METRICS)["ops_per_s"]["worse_than_bound"] is flagged


@pytest.mark.parametrize("factor, flagged", [(1.24, False), (1.26, True), (0.5, False)])
def test_a_lower_is_better_metric_is_flagged_past_its_bound(factor, flagged):
    runs = _pairs([100] * 4, [100] * 4, [2.0] * 4, [2.0 * factor] * 4)
    assert bench_pairs.summarize(runs, METRICS)["op_ms_p50"]["worse_than_bound"] is flagged


def test_the_flag_reads_the_medians_not_single_runs():
    """One slow change run among fast ones moves no median past the bound,
    and a gain inside the parent's spread does not hold."""
    parent = [100, 80, 120, 100, 100]
    change = [101, 50, 121, 101, 101]
    summary = bench_pairs.summarize(_pairs(parent, change, [1.0] * 5, [1.0] * 5), METRICS)
    ops = summary["ops_per_s"]
    assert ops["worse_than_bound"] is False
    assert ops["change_wins"] == 4 and ops["gain_holds"] is False


def test_worse_than_bound_on_a_zero_parent():
    assert bench_pairs.worse_than_bound(0.0, 0.0, 0.25, higher=False) is False
    assert bench_pairs.worse_than_bound(0.0, 0.1, 0.25, higher=False) is True


def test_only_count_metrics_are_compared():
    result = {"metrics": {"aead.seal.calls": {"value": 79, "unit": "count"},
                          "monitor.eenter.mee_reads": {"value": 2.0, "unit": "count/call"},
                          "aead.busy_s": {"value": 0.001, "unit": "s"},
                          "cache.hit_ratio": {"value": 0.5, "unit": "ratio"}}}
    assert bench_pairs.counts_of(result) == {"aead.seal.calls": 79,
                                             "monitor.eenter.mee_reads": 2.0}


def test_count_diff_lists_only_the_counts_that_moved():
    parent = {"aead.seal.calls": 79, "mee.read.calls": 122, "monitor.eenter.mee_reads": 0.0}
    change = {"aead.seal.calls": 79, "mee.read.calls": 93, "monitor.eenter.mee_reads": 2.0,
              "new.calls": 1}
    assert bench_pairs.count_diff(parent, change) == {
        "mee.read.calls": {"parent": 122, "change": 93},
        "monitor.eenter.mee_reads": {"parent": 0.0, "change": 2.0},
        "new.calls": {"parent": None, "change": 1},
    }
    assert bench_pairs.count_diff(parent, dict(parent)) == {}


@pytest.mark.parametrize("first", [0, 1])
def test_abba_alternates_in_pairs_of_units(first):
    order = bench_pairs.abba(4, first)
    assert order == [first, 1 - first, 1 - first, first] * 2
    assert order.count(0) == order.count(1) == 4
    assert bench_pairs.abba(3, first) == [first, 1 - first, 1 - first, first, first, 1 - first]


def test_a_tree_is_loaded_apart_and_swapped_in_and_out():
    """Two loads of this checkout are two sets of module objects; entering
    one puts its package in ``sys.modules`` and leaving it puts back what
    the interpreter held, keeping a layer the tree loaded meanwhile."""
    import sys

    import servas_sim

    root = _SCRIPT.parents[1]
    held = sys.modules.get("servas_sim.cache")
    trees = [bench_pairs.Tree(root) for _ in range(2)]
    assert sys.modules["servas_sim"] is servas_sim
    assert sys.modules.get("servas_sim.cache") is held
    packages = [tree.modules["servas_sim"] for tree in trees]
    assert packages[0] is not packages[1] and servas_sim not in packages
    with trees[0]:
        from servas_sim import cache

        assert sys.modules["servas_sim"] is packages[0]
    assert sys.modules["servas_sim"] is servas_sim
    assert trees[0].modules["servas_sim.cache"] is cache is not held
    assert "servas_sim.cache" not in trees[1].modules


def test_the_in_process_mode_on_the_checkout_against_itself(tmp_path):
    """Both sides of a short in-process run of this checkout measure every
    operation without a failure, and the summary has the separate-process
    shape for the two metrics one interpreter can measure: host-scaled, as
    the summary reads them, with the unscaled figures beside them."""
    import json
    import subprocess
    import sys

    root = _SCRIPT.parents[1]
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), "--in-process", "--parent", str(root), "--change",
         str(root), "--workload", "enclave_session", "builtin_suite", "--pairs", "2",
         "--seconds", "0.2", "--seed-base", "7", "--out", str(out)],
        capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["mode"], report["pairs"], report["units"]) == ("in-process", 2, 12)
    for workload in ("enclave_session", "builtin_suite"):
        entry = report["workloads"][workload]
        assert entry["failed"] == {"parent": 0, "change": 0}
        assert entry["attempted"]["parent"] > 0
        assert sorted(entry["summary"]) == ["op_ms_p50", "ops_per_s"]
        assert [run["first"] for run in entry["runs"]] == ["parent", "change"]
        for run in entry["runs"]:
            for side in bench_pairs.SIDES:
                result = run[side]["result"]
                scaled = {name: m["value"] for name, m in result["metrics"].items()}
                raw = result["raw_wall_clock"]
                assert sorted(scaled) == sorted(raw) == ["op_ms_p50", "ops_per_s"]
                assert all(value > 0 for value in (*scaled.values(), *raw.values()))
                assert scaled != raw  # each interval is rescaled by its own probes
            assert entry["summary"]["ops_per_s"]["parent"]["runs"] == [
                run["parent"]["result"]["metrics"]["ops_per_s"]["value"]
                for run in entry["runs"]]
        assert "traced_counts" not in entry
