"""CLI contract: exit codes, seeded determinism, CSV schemas, reports,
image tooling round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from servas_sim.cli import build_parser, main
from servas_sim.scenarios import builtin_suite, dump_scenarios


def run_cli(*argv):
    return main(list(argv))


def test_builtin_suite_exits_zero(tmp_path, capsys):
    assert run_cli("scenarios", "--seed", "4") == 0
    out = capsys.readouterr().out
    assert "14/14 scenarios matched" in out


def test_single_scenario_filter(capsys):
    assert run_cli("scenarios", "--filter", "downgrade", "--seed", "1") == 0
    assert "1/1 scenarios matched" in capsys.readouterr().out


def test_unknown_filter_is_usage_error():
    assert run_cli("scenarios", "--filter", "no-such-thing") == 2


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_a_fault_threshold_below_one_exits_two(capsys, threshold):
    """A threshold below one is refused before any scenario runs, not
    treated as one."""
    assert run_cli("scenarios", "--fault-threshold", threshold) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --fault-threshold must be at least 1, got {threshold}\n"
    assert captured.out == ""


def test_scenario_file_and_junit_report(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(dump_scenarios(builtin_suite()[:3]))
    report = tmp_path / "report.xml"
    assert run_cli("scenarios", str(path), "--report", "junit",
                   "--out", str(report)) == 0
    xml = report.read_text()
    assert xml.startswith("<testsuite")
    assert 'failures="0"' in xml


def test_verdict_mismatch_exits_one(tmp_path):
    doc = json.loads(dump_scenarios(builtin_suite()[:1]))
    doc["scenarios"][0]["expected"]["outcome"] = "ALLOWED"
    path = tmp_path / "broken-expectation.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 1


def test_malformed_scenario_file_exits_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{]")
    assert run_cli("scenarios", str(path)) == 2


@pytest.mark.parametrize("step", [
    {"actor": "phys", "action": "flip_bit", "args": {"line": 0x101 * 64, "bit": 4096}},
    {"actor": "phys", "action": "flip_bit",
     "args": {"line": 0x101 * 64, "bit": 3, "target": "nonce"}},
    {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "hA"}},
], ids=["bit-past-line", "unknown-target", "restore-non-snapshot"])
def test_malformed_physical_step_exits_two(tmp_path, step):
    doc = json.loads(dump_scenarios(builtin_suite()[:1]))
    scenario = doc["scenarios"][0]
    scenario["actors"].append({"name": "phys", "kind": "PHYSICAL"})
    scenario["steps"] = [scenario["steps"][0], step]  # spawn enclave A, then tamper
    scenario["expected"] = {"outcome": "ALLOWED", "detail": None, "at_step": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2


@pytest.mark.parametrize("space", ["host-space-long-x", "host\x00"], ids=["17-bytes", "nul"])
def test_a_host_space_the_monitor_cannot_store_exits_two(tmp_path, capsys, space):
    doc = json.loads(dump_scenarios(builtin_suite()[:1]))
    spawn = doc["scenarios"][0]["steps"][0]
    assert spawn["action"] == "spawn_enclave"
    spawn["args"]["space"] = space
    path = tmp_path / "long-space.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2
    assert "host space" in capsys.readouterr().err


def test_a_host_actor_with_no_space_exits_two(tmp_path, capsys):
    """A HOST actor whose space is null spawns an enclave without naming a
    space: the spawn is refused as a bad argument, with no traceback."""
    doc = json.loads(dump_scenarios(builtin_suite()[:1]))
    scenario = doc["scenarios"][0]
    host = next(actor for actor in scenario["actors"] if actor["kind"] == "HOST")
    host["space"] = None
    spawn = scenario["steps"][0]
    assert (spawn["actor"], spawn["action"]) == (host["name"], "spawn_enclave")
    assert "space" not in spawn["args"]
    path = tmp_path / "null-space.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2
    err = capsys.readouterr().err
    assert "host space None" in err
    assert "Traceback" not in err


def test_eviction_csv_deterministic_under_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("evictions", "--entries", "32", "--ways", "2,4", "--tweaks", "4:12:4",
            "--trials", "500", "--seed", "7")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "servas-sim eviction-csv v1"
    assert lines[1] == "n_entries,ways,n_tweaks,mode,probability,trials,seed"
    assert len(lines) == 2 + 2 * 3 * 2  # ways x tweak counts x modes


def test_eviction_default_grid_golden_digest(tmp_path):
    """The default grid's CSV at seed 0 is pinned byte for byte (the digest
    perfbench/eviction_digests.json records for seed 0)."""
    out = tmp_path / "grid.csv"
    assert run_cli("evictions", "--seed", "0", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "2ea4e743c20fd70a2a3efb457f5d42c37b554b4407aa31074f7e9401970940e9"


@pytest.mark.parametrize("argv, name", [
    (("--ways", "0"), "ways"),
    (("--ways", "-4"), "ways"),
    (("--entries", "0"), "n_entries"),
    (("--entries", "30", "--ways", "4"), "n_entries"),
    (("--tweaks", "0:4:2"), "n_tweaks"),
    (("--trials", "0"), "trials"),
    (("--seed", "-5"), "seed must be at least 0, got -5"),
], ids=["ways-0", "ways-negative", "entries-0", "entries-not-divisible", "tweaks-0",
        "trials-0", "seed-negative"])
def test_eviction_bad_input_exits_two(tmp_path, capsys, argv, name):
    out = tmp_path / "e.csv"
    assert run_cli("evictions", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (("--tweaks", "1:4:1", "--trials", "251"), "max(n_tweaks) x trials is 1,004"),
    (("--tweaks", "1:1001:1000", "--trials", "1"), "max(n_tweaks) x trials is 1,001"),
    (("--entries", "1004", "--ways", "2", "--tweaks", "1:2", "--trials", "2"),
     "trials x sets is 1,004"),
    (("--tweaks", "1:1001:1",), "range 1:1001:1 lists more than"),
], ids=["trials", "largest-tweak-count", "sets", "range-points"])
def test_eviction_grid_past_its_bound_exits_two(tmp_path, capsys, monkeypatch, argv, name):
    """With the grid and row bounds lowered to 1,000, a grid one step past
    them is refused, naming the bound, before anything is drawn or listed;
    the same grid one step smaller runs."""
    from servas_sim import cache

    monkeypatch.setattr(cache, "GRID_LIMIT", 1000)
    monkeypatch.setattr(cache, "ROW_LIMIT", 1000)
    monkeypatch.setattr(cache, "_eviction_pass", None)  # nothing may be drawn
    out = tmp_path / "e.csv"
    assert run_cli("evictions", "--entries", "32", "--ways", "2", *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "bound of 1,000" in err
    assert not out.exists()


def test_an_eviction_grid_at_its_bound_runs(tmp_path, monkeypatch):
    from servas_sim import cache

    monkeypatch.setattr(cache, "GRID_LIMIT", 1000)
    out = tmp_path / "e.csv"
    assert run_cli("evictions", "--entries", "8", "--ways", "2", "--tweaks", "1:4:1",
                   "--trials", "250", "--out", str(out)) == 0  # 4 x 250 draws, 250 x 4 sets
    assert len(out.read_text().splitlines()) == 2 + 2 * 4


@pytest.mark.parametrize("argv, bound", [
    (("--trials", "100000000000"), 1 << 24),
    (("--tweaks", "1:100000000000:50000000000", "--trials", "10"), 1 << 24),
    (("--tweaks", "1:1000000000000000000000000000000"), 1 << 20),
], ids=["trials", "largest-tweak-count", "range-points"])
def test_a_huge_eviction_grid_is_refused_at_once(tmp_path, capsys, argv, bound):
    """The sizes that once ran out of memory are refused by the real
    bounds: the grid bound on the draws, the row bound on a range."""
    assert run_cli("evictions", "--entries", "32", "--ways", "2", *argv) == 2
    assert f"bound of {bound:,}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (("overhead", "--lines", "1:200000"), "n_lines x tweak caches is 1,800,000 rows"),
    (("evictions", "--entries", "32,64", "--ways", "1", "--trials", "1", "--tweaks", "1:600000"),
     "geometries x n_tweaks x 2 modes is 2,400,000 rows"),
    (("overhead", "--lines", "1:16777216"), "range 1:16777216 lists more than"),
    (("evictions", "--entries", "32", "--ways", "1", "--trials", "1", "--tweaks", "1:16777216"),
     "range 1:16777216 lists more than"),
], ids=["overhead-rows", "eviction-rows", "overhead-range", "eviction-range"])
def test_a_grid_past_the_row_bound_exits_two(tmp_path, capsys, monkeypatch, argv, name):
    """Ranges that each pass, whose product of rows does not, and a range
    past the row bound: refused at once, naming the product, with nothing
    drawn, no break-even computed and no file written."""
    from servas_sim import cache

    monkeypatch.setattr(cache, "_eviction_pass", None)
    monkeypatch.setattr(cache, "break_even_lines", None)
    out = tmp_path / "g.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and f"row bound of {1 << 20:,}" in err
    assert not out.exists()


def test_an_overhead_grid_at_the_row_bound_runs(tmp_path, capsys, monkeypatch):
    """With the row bound lowered to 18, two main-cache sizes by the nine
    default tweak caches run, and three are refused."""
    from servas_sim import cache

    monkeypatch.setattr(cache, "ROW_LIMIT", 18)
    out = tmp_path / "o.csv"
    assert run_cli("overhead", "--lines", "64,128", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2 + 18
    assert run_cli("overhead", "--lines", "64,128,256", "--out", str(tmp_path / "p.csv")) == 2
    assert "is 27 rows" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("evictions", "--tweaks"), ("overhead", "--lines")])
def test_a_range_of_more_than_three_fields_exits_two(tmp_path, capsys, command, flag):
    """A range is ``a:b`` or ``a:b:step``; a fourth field is refused, not
    dropped."""
    out = tmp_path / "r.csv"
    assert run_cli(command, flag, "2:8:2:9", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: range 2:8:2:9 has 4 fields")
    assert not out.exists()


def test_deeply_nested_scenario_file_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run_cli("scenarios", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: malformed scenario file: maximum recursion")


def test_deeply_nested_manifest_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run_cli("image", "pack", "--manifest", str(path), "--out", str(tmp_path / "x.img")) == 2
    assert capsys.readouterr().err.startswith("error: malformed manifest: maximum recursion")
    assert not (tmp_path / "x.img").exists()


def test_eviction_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("SERVAS_SIM_SEED", "123")
    run_cli("evictions", "--entries", "32", "--ways", "2", "--tweaks", "8",
            "--trials", "200", "--out", str(a))
    run_cli("evictions", "--entries", "32", "--ways", "2", "--tweaks", "8",
            "--trials", "200", "--seed", "123", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_a_negative_environment_seed_is_refused_before_any_draw(tmp_path, capsys,
                                                                monkeypatch):
    """A negative ``SERVAS_SIM_SEED`` is refused by the Monte Carlo's input
    check, naming the seed, before anything is drawn (so before numpy is
    loaded), not by numpy's own seeding."""
    from servas_sim import cache

    monkeypatch.setenv("SERVAS_SIM_SEED", "-3")
    monkeypatch.setattr(cache, "_eviction_pass", None)  # nothing may be drawn
    out = tmp_path / "e.csv"
    assert run_cli("evictions", "--entries", "32", "--ways", "2", "--tweaks", "2:4:2",
                   "--trials", "10", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [("scenarios", "--filter", "downgrade"),
                                     ("evictions", "--entries", "32", "--ways", "2",
                                      "--tweaks", "4", "--trials", "10")])
@pytest.mark.parametrize("value", ["abc", "0x10"])
def test_a_malformed_environment_seed_exits_two_naming_it(tmp_path, capsys, monkeypatch,
                                                          command, value):
    monkeypatch.setenv("SERVAS_SIM_SEED", value)
    assert run_cli(*command, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        f"error: SERVAS_SIM_SEED takes an integer, not {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_the_cached_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; an option given in one call
    (``--seed 5``) does not leak into the next, so the environment seed
    still wins there, and another subcommand parses as if first."""
    grid = ("evictions", "--entries", "32", "--ways", "2", "--tweaks", "8", "--trials", "200")
    seed5, env, seed123 = (tmp_path / f"{name}.csv" for name in ("seed5", "env", "seed123"))
    assert run_cli(*grid, "--seed", "5", "--out", str(seed5)) == 0
    monkeypatch.setenv("SERVAS_SIM_SEED", "123")
    assert run_cli(*grid, "--out", str(env)) == 0
    assert run_cli("scenarios", "--filter", "downgrade") == 0
    assert "1/1 scenarios matched" in capsys.readouterr().out
    monkeypatch.delenv("SERVAS_SIM_SEED")
    assert run_cli(*grid, "--seed", "123", "--out", str(seed123)) == 0
    assert env.read_bytes() == seed123.read_bytes() != seed5.read_bytes()
    assert build_parser() is build_parser()


def test_eviction_gnuplot_script(tmp_path):
    out = tmp_path / "e.csv"
    gp = tmp_path / "e.gp"
    run_cli("evictions", "--entries", "32", "--ways", "2", "--tweaks", "4",
            "--trials", "100", "--out", str(out), "--gnuplot", str(gp))
    assert "plot" in gp.read_text()


def test_overhead_csv_named_values(tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli("overhead", "--lines", "512", "--tc", "512:6",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "servas-sim overhead-csv v1"
    row = lines[2].split(",")
    assert row == ["512", "512", "6", "137216", "81408", "512"]


def test_overhead_39_bit_variant(tmp_path):
    out = tmp_path / "o39.csv"
    run_cli("overhead", "--va-bits", "39", "--lines", "512", "--tc", "128:6",
            "--out", str(out))
    inline_bits = int(out.read_text().splitlines()[2].split(",")[3])
    assert inline_bits == 2 * 125 * 512


@pytest.mark.parametrize("lines", ["-64,0", "0", "64,-1"])
def test_overhead_refuses_a_cache_with_no_lines(tmp_path, capsys, lines):
    """A non-positive cache size is a usage error naming the field, and no
    CSV row is written for it."""
    out = tmp_path / "o.csv"
    assert run_cli("overhead", f"--lines={lines}", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: n_lines must be at least 1")
    assert not out.exists()


def test_overhead_default_points_follow_the_address_width(tmp_path):
    """The default grid's full-width point keeps all the voffset bits
    inline: 42 at 48 bits, where the CSV is pinned byte for byte, and 33 at
    39 bits, which both the CLI and the reproduction script accept."""
    out48, out39 = tmp_path / "o48.csv", tmp_path / "o39.csv"
    assert run_cli("overhead", "--out", str(out48)) == 0
    assert hashlib.sha256(out48.read_bytes()).hexdigest() == (
        "75b51ec064568042fbe2fa2ad48164e2464f402150a9d9a52f814b78f5296bc5")
    assert run_cli("overhead", "--va-bits", "39", "--out", str(out39)) == 0
    rows = out39.read_text().splitlines()[2:]
    assert len(rows) == 81 and {row.split(",")[2] for row in rows} == {"6", "20", "33"}
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_overhead_sweep.py"
    proc = subprocess.run([sys.executable, str(script), "--va-bits", "39",
                           "--out", str(tmp_path / "s39.csv")],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s39.csv").read_bytes() == out39.read_bytes()


def test_overhead_takes_no_seed(capsys):
    """``overhead`` draws nothing, so a ``--seed`` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli("overhead", "--seed", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("evictions", "--entries", "8,x"), "--entries takes a comma list of integers, not '8,x'"),
    (("evictions", "--ways", "1:4"), "--ways takes a comma list of integers, not '1:4'"),
    (("evictions", "--tweaks", "2:"), "--tweaks takes a:b, a:b:step or a comma list, not '2:'"),
    (("evictions", "--tweaks", "2:8:0"), "range 2:8:0 has a step of 0"),
    (("overhead", "--lines", "64:x"), "--lines takes a:b, a:b:step or a comma list, not '64:x'"),
    (("overhead", "--tc", "32"), "--tc point '32' is not n_tweak:b_voffsetL"),
    (("overhead", "--tc", "32:6,128:6:1"), "--tc point '128:6:1' is not n_tweak:b_voffsetL"),
], ids=["entries", "ways", "tweaks", "tweaks-step", "lines", "tc-no-split", "tc-three-fields"])
def test_a_malformed_grid_value_exits_two_naming_it(tmp_path, capsys, argv, message):
    """A grid value that is not the integers its option takes is refused
    with a message that names the option, before anything is written."""
    out = tmp_path / "grid.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_overhead_refuses_a_negative_inline_voffset_split(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run_cli("overhead", "--tc", "32:-1", "--lines", "64", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: voffset_low_bits must not be negative")
    assert not out.exists()


IMAGE_MANIFEST = {
    "entry_offset": 0,
    "developer_id": "acme-dev",
    "pages": [
        {"index": 0, "perms": "rx", "type": "shenclave", "fill": "13000000"},
        {"index": 1, "perms": "rw", "type": "regular", "file": "data.bin"},
    ],
}


def _pack_image(tmp_path):
    (tmp_path / "data.bin").write_bytes(b"\xaa" * 4096)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(IMAGE_MANIFEST))
    img = tmp_path / "app.img"
    assert run_cli("image", "pack", "--manifest", str(manifest),
                   "--out", str(img)) == 0
    return img


def test_image_pack_golden_bytes(tmp_path):
    """Pinned container bytes for a manifest with a fill that does not
    divide the page and a file body shorter than a page."""
    (tmp_path / "code.bin").write_bytes(bytes(range(256)) * 3)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entry_offset": 0, "developer_id": "golden-1",
        "pages": [{"index": 0, "perms": "rx", "type": "shenclave", "file": "code.bin"},
                  {"index": 1, "perms": "rw", "type": "regular", "fill": "deadbeef01"}],
    }))
    img = tmp_path / "golden.img"
    assert run_cli("image", "pack", "--manifest", str(manifest), "--out", str(img)) == 0
    assert hashlib.sha256(img.read_bytes()).hexdigest() == \
        "78a9b5f166caf43aa076e58b3081db2ec06f744ddd9ee9c488de5434c7adb45e"


def test_image_pack_unpack_roundtrip(tmp_path):
    img = _pack_image(tmp_path)
    out_dir = tmp_path / "unpacked"
    assert run_cli("image", "unpack", "--image", str(img),
                   "--out", str(out_dir)) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["developer_id"] == "acme-dev"
    assert (out_dir / "page01.bin").read_bytes() == b"\xaa" * 4096
    # repack reproduces the identical container
    manifest_path = out_dir / "manifest.json"
    img2 = tmp_path / "app2.img"
    assert run_cli("image", "pack", "--manifest", str(manifest_path),
                   "--out", str(img2)) == 0
    assert img2.read_bytes() == img.read_bytes()


def test_image_wrap_then_create(tmp_path):
    """A wrapped image is accepted by the monitor on the machine whose CPU
    key wrapped it."""
    from servas_sim.machine import Machine, PAGE_BYTES
    from servas_sim.monitor import SecurityMonitor
    from servas_sim.image import load_enclave_image
    from servas_sim.tweak import PRV_S, PRV_U

    img = _pack_image(tmp_path)
    machine = Machine(seed=12)
    wrapped = tmp_path / "app.wrapped"
    assert run_cli("image", "wrap", "--image", str(img),
                   "--cpu-key", machine.cpu_key.hex(),
                   "--developer-id", "acme-dev",
                   "--out", str(wrapped), "--seed", "5") == 0

    sm = SecurityMonitor(machine)
    base = 0x4000_0000
    for i, perms, rsw in [(0, "rxu", 2), (1, "rwu", 1), (2, "rwu", 1)]:
        machine.map_page(PRV_S, "host", base + i * PAGE_BYTES, 0x100 + i, perms, rsw)
    machine.prv = PRV_U
    handle = sm.ecreate("host", wrapped.read_bytes(), base, 1, 0x200, 0x201)
    assert sm.peek_meta(handle).encid_full == \
        load_enclave_image(img.read_bytes()).encid()


def test_image_wrap_wrong_developer_rejected(tmp_path):
    from servas_sim.image import ImageAuthFailure, load_enclave_image
    from servas_sim.machine import Machine
    from servas_sim.monitor import derive_developer_key

    img = _pack_image(tmp_path)
    machine = Machine(seed=12)
    wrapped = tmp_path / "app.wrapped"
    run_cli("image", "wrap", "--image", str(img),
            "--cpu-key", machine.cpu_key.hex(),
            "--developer-id", "evil-dev",  # key for a different developer id
            "--out", str(wrapped), "--seed", "5")
    dev_key = derive_developer_key(machine.cpu_key,
                                   b"acme-dev")  # the id the header claims
    with pytest.raises(ImageAuthFailure):
        load_enclave_image(wrapped.read_bytes(), developer_key=dev_key)


def _without_pages(m):
    del m["pages"]


def _page_type(value):
    def mutate(m):
        m["pages"][0]["type"] = value
    return mutate


@pytest.mark.parametrize("mutate, body_len", [
    (_without_pages, 4096),
    (lambda m: m.update(pages=5), 4096),
    (_page_type("secret"), 4096),
    (_page_type(2), 4096),
    (lambda m: None, 4097),  # a file longer than a page
    (lambda m: m.update(developer_id=5), 4096),
    (lambda m: m.update(pages="abc"), 4096),
    (lambda m: m["pages"][0].update(index=-1), 4096),
    (lambda m: m.update(developer_id="acme-developer-one"), 4096),
], ids=["no-pages", "pages-not-a-list", "unknown-type", "type-not-text", "oversized-file",
        "developer-id-not-text", "pages-text", "negative-index", "developer-id-too-long"])
def test_malformed_manifest_exits_two(tmp_path, capsys, mutate, body_len):
    manifest = {"entry_offset": 0, "developer_id": "acme-dev",
                "pages": [{"index": 0, "perms": "rx", "type": "shenclave", "file": "code.bin"}]}
    mutate(manifest)
    (tmp_path / "code.bin").write_bytes(b"\x13" * body_len)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("image", "pack", "--manifest", str(path), "--out", str(tmp_path / "x.img")) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["wrap", "unpack"])
def test_a_developer_id_option_longer_than_eight_bytes_exits_two(tmp_path, capsys, mode):
    """``--developer-id`` derives the wrapping key; an id the header cannot
    hold is refused, not truncated to the id of another developer."""
    img = _pack_image(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("image", mode, "--image", str(img), "--cpu-key", "00" * 16,
                   "--developer-id", "acme-developer-one", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: --developer-id is longer than 8 bytes")
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["pack", "--out", "x.img"], "--manifest"),
    (["unpack", "--out", "d"], "--image"),
    (["wrap", "--out", "w", "--cpu-key", "00"], "--image"),
], ids=["pack", "unpack", "wrap"])
def test_an_image_mode_without_its_input_exits_two(tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    assert run_cli("image", *argv) == 2
    assert capsys.readouterr().err == f"error: image {argv[0]} needs {option}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("wrapped", [False, True], ids=["non-image", "wrapped-without-key"])
def test_unpack_of_unreadable_image_exits_two(tmp_path, capsys, wrapped):
    img = tmp_path / "in.img"
    if wrapped:
        assert run_cli("image", "wrap", "--image", str(_pack_image(tmp_path)),
                       "--cpu-key", "00" * 16, "--out", str(img)) == 0
    else:
        img.write_bytes(b"not an enclave image")
    capsys.readouterr()
    assert run_cli("image", "unpack", "--image", str(img), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _shm_wrong_key_doc():
    doc = json.loads(dump_scenarios([s for s in builtin_suite() if s.name == "shm-wrong-key"]))
    scenario = doc["scenarios"][0]
    # keep the steps up to enclave A's session id writes, before eprepare
    scenario["steps"] = scenario["steps"][:8]
    assert scenario["steps"][-1]["args"]["name"] == "usid1"
    scenario["expected"] = {"outcome": "ALLOWED", "detail": None, "at_step": 9}
    return doc


@pytest.mark.parametrize("base, size, error", [
    (-4096, 8192, "negative"), (4096, -4096, "negative"), (4096.0, 4096, "integers"),
], ids=["negative-base", "negative-size", "float-base"])
def test_bad_range_register_exits_two(tmp_path, capsys, base, size, error):
    """A range base or size the thread page cannot hold is refused at the
    CSR write, not when the interrupt that follows packs it."""
    doc = _shm_wrong_key_doc()
    doc["scenarios"][0]["steps"] += [
        {"actor": "A", "action": "write_csr",
         "args": {"name": "urange", "value": [base, size, 1]}},
        {"actor": "os", "action": "interrupt", "args": {}},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("kind, size", [("READ", 0), ("READ", -5), ("FETCH", 0)])
def test_non_positive_read_size_exits_two(tmp_path, capsys, kind, size):
    doc = _shm_wrong_key_doc()
    doc["scenarios"][0]["steps"].append(
        {"actor": "A", "action": "access",
         "args": {"va": 0x4000_0000, "kind": kind, "size": size}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("step, error", [
    ({"actor": "A", "action": "set_reg", "args": {"reg": 40, "value": 1}}, "register index"),
    ({"actor": "A", "action": "set_reg", "args": {"reg": -1, "value": 1}}, "register index"),
    ({"actor": "A", "action": "check_reg", "args": {"reg": 99, "equals": 0}},
     "register index"),
    ({"actor": "A", "action": "eexit", "args": {"returns": {"999": 1}}}, "register index"),
    ({"actor": "A", "action": "eexit", "args": [1]}, "must be an object"),
    ({"actor": "A", "action": "eprepare",
      "args": {"va": 0x6000_0000, "page_type": 3, "perms": "rwu"}}, "page_type"),
    ({"actor": "A", "action": "emod",
      "args": {"va": 0x4000_1000, "old": {"page_type": 3, "perms": "rwu"},
               "new": {"page_type": "regular", "perms": "rwu"}}}, "page_type"),
], ids=["set-reg-past-31", "set-reg-negative", "check-reg-past-31", "eexit-return-past-31",
        "args-not-an-object", "eprepare-page-type-not-text", "emod-page-type-not-text"])
def test_malformed_step_shape_exits_two(tmp_path, capsys, step, error):
    """Register indices outside x0..x31, step args that are not an object and
    page types that are not text are script errors, not tracebacks or
    silent writes."""
    doc = _shm_wrong_key_doc()
    doc["scenarios"][0]["steps"].append(step)
    doc["scenarios"][0]["expected"]["at_step"] = 8
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 2
    assert error in capsys.readouterr().err


def test_negative_enclave_base_is_a_verdict(tmp_path, capsys):
    """A negative enclave base is refused by ecreate as an invalid image,
    a verdict, before anything is sealed."""
    doc = _shm_wrong_key_doc()
    scenario = doc["scenarios"][0]
    scenario["steps"] = scenario["steps"][:1]
    scenario["steps"][0]["args"]["base"] = -0x10_0000
    scenario["expected"] = {"outcome": "DETECTED", "detail": "InvalidImage", "at_step": 0}
    path = tmp_path / "negative-base.json"
    path.write_text(json.dumps(doc))
    assert run_cli("scenarios", str(path)) == 0
    assert "1/1 scenarios matched" in capsys.readouterr().out


def _with_step(step, keep):
    doc = _shm_wrong_key_doc()
    del doc["scenarios"][0]["steps"][keep:]
    doc["scenarios"][0]["steps"].append(step)
    return doc


def _edited(edit):
    doc = _shm_wrong_key_doc()
    edit(doc["scenarios"][0])
    return doc


@pytest.mark.parametrize("doc", [
    # eenter before enclave A runs (after the world's four setup steps)
    _with_step({"actor": "host", "action": "eenter", "args": {"args": [1]}}, 4),
    _with_step({"actor": "host", "action": "eenter", "args": {"args": "x"}}, 4),
    _with_step({"actor": "A", "action": "eexit", "args": {"returns": [1]}}, 8),
    _edited(lambda s: s["steps"][0]["args"].update(page_ppn_overrides=[1])),
    _edited(lambda s: s.update(steps=["x"])),
    _edited(lambda s: s["steps"][0].update(actor=["host"])),
    _edited(lambda s: s["steps"][0].update(save_as=["hA"])),
    _edited(lambda s: s["actors"][0].update(kind="ROOT")),
    _edited(lambda s: s.update(name=5)),
    _edited(lambda s: s["steps"][0]["args"]["image"].update(developer_id=5)),
    _edited(lambda s: s["steps"][0]["args"]["image"].update(pages="abc")),
    _edited(lambda s: s["steps"][0].update(arg={})),
], ids=["eenter-args-list", "eenter-args-text", "eexit-returns-list", "overrides-list",
        "step-not-an-object", "actor-list", "save-as-list", "unknown-actor-kind",
        "scenario-name-not-text", "manifest-developer-id-not-text", "manifest-pages-text",
        "unknown-step-key"])
def test_malformed_scenario_input_is_an_error_not_a_traceback(tmp_path, doc):
    """Each malformed input makes the CLI process exit 2 with an ``error:``
    line, never a traceback or a run under a made-up actor kind."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "servas_sim.cli", "scenarios", str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
