"""Scenario harness: builtin suite verdicts, determinism, the JSON format,
actor discipline, and malformed or random step scripts."""

import enum
import functools
import gc
import hashlib
import inspect
import json
import re
import time
import types
import typing
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from servas_sim import scenarios
from servas_sim.cache import CacheCfg
from servas_sim.machine import LINES_PER_PAGE, PAGE_BYTES, Machine
from servas_sim.monitor import EnclaveHandle
from servas_sim.tweak import PageType
from servas_sim.scenarios import (
    Scenario,
    ScenarioRunner,
    ScriptError,
    Verdict,
    builtin_suite,
    dump_scenarios,
    load_scenarios,
    run_scenario,
)

EXPECTED_NAMES = {
    "os-read-enclave", "downgrade", "remap", "perm-flip", "physical-replay",
    "dram-duplicate-toggle", "swap-replay", "swap-double-copy", "shm-wrong-key",
    "shm-brute-force", "encid-brute-force", "privilege-separation",
    "shm-happy-path", "code-dedup",
}


def test_suite_covers_every_attack_family():
    suite = builtin_suite()
    assert len(suite) >= 12
    assert {s.name for s in suite} == EXPECTED_NAMES
    allowed = {s.name for s in suite if s.expected.outcome == "ALLOWED"}
    assert allowed == {"shm-happy-path", "code-dedup"}


@pytest.mark.parametrize("scenario", builtin_suite(), ids=lambda s: s.name)
def test_builtin_verdicts(scenario):
    assert run_scenario(scenario, seed=0) == scenario.expected


def test_determinism_same_seed_same_verdict():
    scenario = next(s for s in builtin_suite() if s.name == "physical-replay")
    runs = {run_scenario(scenario, seed=11) for _ in range(3)}
    assert len(runs) == 1


def test_verdicts_stable_across_seeds():
    suite = builtin_suite()
    for seed in (0, 1, 17, 9999):
        for scenario in suite:
            assert run_scenario(scenario, seed=seed) == scenario.expected, \
                f"{scenario.name} flaked at seed {seed}"


def test_json_roundtrip_preserves_verdicts():
    suite = builtin_suite()
    reloaded = load_scenarios(dump_scenarios(suite))
    assert [s.name for s in reloaded] == [s.name for s in suite]
    for scenario in reloaded:
        assert scenario == next(s for s in suite if s.name == scenario.name)
        assert run_scenario(scenario, seed=5) == scenario.expected


def test_malformed_scenario_file():
    with pytest.raises(ScriptError):
        load_scenarios("{not json")
    with pytest.raises(ScriptError):
        load_scenarios('{"scenarios": [{"name": "x"}]}')


def _one_step_scenario(step, actors=None, expected=None):
    return Scenario.from_dict({
        "name": "t",
        "actors": actors or [{"name": "os", "kind": "OS", "space": "os"},
                             {"name": "phys", "kind": "PHYSICAL"}],
        "steps": [step],
        "expected": (expected or Verdict("ALLOWED", None, 0)).to_dict(),
    })


def test_unknown_action_is_script_error():
    scenario = _one_step_scenario({"actor": "os", "action": "frobnicate", "args": {}})
    with pytest.raises(ScriptError):
        run_scenario(scenario)


def test_undeclared_actor_is_script_error():
    with pytest.raises(ScriptError):
        run_scenario(_one_step_scenario({"actor": "ghost", "action": "access",
                                         "args": {"va": 0}}))


def test_physical_actor_cannot_touch_software_surfaces():
    scenario = _one_step_scenario(
        {"actor": "phys", "action": "map_page", "args": {"va": 0, "ppn": 1}})
    with pytest.raises(ScriptError):
        run_scenario(scenario)


def test_software_actor_cannot_tamper_raw_dram():
    scenario = _one_step_scenario(
        {"actor": "os", "action": "flip_bit", "args": {"line": 0, "bit": 0}})
    with pytest.raises(ScriptError):
        run_scenario(scenario)


def test_missing_args_are_script_errors():
    scenario = _one_step_scenario({"actor": "os", "action": "map_page", "args": {}})
    with pytest.raises(ScriptError):
        run_scenario(scenario)


def test_benign_scenario_runs_allowed():
    scenario = Scenario.from_dict({
        "name": "write-read",
        "actors": [{"name": "os", "kind": "OS", "space": "os"}],
        "steps": [
            {"actor": "os", "action": "map_page",
             "args": {"va": 0x1000, "ppn": 0x10, "perms": "rw"}},
            {"actor": "os", "action": "access", "args": {"va": 0x1000, "data": "abc"}},
            {"actor": "os", "action": "access",
             "args": {"va": 0x1000, "kind": "READ", "size": 3, "check": "abc"}},
        ],
        "expected": {"outcome": "ALLOWED", "detail": None, "at_step": 2},
    })
    assert run_scenario(scenario, seed=0) == scenario.expected


def test_failed_check_is_data_mismatch():
    scenario = Scenario.from_dict({
        "name": "bad-check",
        "actors": [{"name": "os", "kind": "OS", "space": "os"}],
        "steps": [
            {"actor": "os", "action": "map_page",
             "args": {"va": 0x1000, "ppn": 0x10, "perms": "rw"}},
            {"actor": "os", "action": "access",
             "args": {"va": 0x1000, "kind": "READ", "size": 3, "check": "abc"}},
        ],
        "expected": {"outcome": "ALLOWED", "detail": None, "at_step": 1},
    })
    got = run_scenario(scenario, seed=0)
    assert got.outcome == "DATA_MISMATCH" and got.at_step == 1


# A whole enclave lifecycle in the scenario file format, through six actions
# no builtin scenario runs: build_image, ecreate, egetsealkey, check_data,
# edestroy and unmap_page.  The OS maps the two image pages and two stack
# pages, the enclave derives its sealing key twice and compares the two,
# reads its code, frees its last stack page and leaves; once the OS unmaps
# that page, the host's access to it page-faults.
LIFECYCLE_JSON = """{"version": 1, "scenarios": [{
  "name": "lifecycle",
  "actors": [{"name": "os", "kind": "OS", "space": "os"},
             {"name": "host", "kind": "HOST", "space": "host"},
             {"name": "A", "kind": "ENCLAVE", "space": "host", "handle_var": "hA"}],
  "steps": [
    {"actor": "host", "action": "build_image", "save_as": "img",
     "args": {"image": {"entry_offset": 0, "pages": [
       {"index": 0, "perms": "rx", "type": "shenclave", "fill": "1300000093080000"},
       {"index": 1, "perms": "rw", "type": "regular"}]}}},
    {"actor": "os", "action": "map_page",
     "args": {"space": "host", "va": 1073741824, "ppn": 256, "perms": "rxu", "rsw": 2}},
    {"actor": "os", "action": "map_page",
     "args": {"space": "host", "va": 1073745920, "ppn": 257, "perms": "rwu", "rsw": 1}},
    {"actor": "os", "action": "map_page",
     "args": {"space": "host", "va": 1073750016, "ppn": 258, "perms": "rwu", "rsw": 1}},
    {"actor": "os", "action": "map_page",
     "args": {"space": "host", "va": 1073754112, "ppn": 259, "perms": "rwu", "rsw": 1}},
    {"actor": "host", "action": "ecreate", "save_as": "hA",
     "args": {"image_var": "img", "base": 1073741824, "stack_pages": 2,
              "meta_ppn": 512, "thread_ppn": 513}},
    {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
    {"actor": "A", "action": "egetsealkey", "save_as": "k1", "args": {}},
    {"actor": "A", "action": "egetsealkey", "save_as": "k2", "args": {}},
    {"actor": "A", "action": "check_data", "args": {"var": "k1", "equals_var": "k2"}},
    {"actor": "A", "action": "access",
     "args": {"va": 1073741824, "size": 8, "check_hex": "1300000093080000"}},
    {"actor": "A", "action": "edestroy", "args": {"va": 1073754112}},
    {"actor": "A", "action": "eexit", "args": {}},
    {"actor": "os", "action": "unmap_page", "args": {"space": "host", "va": 1073754112}},
    {"actor": "host", "action": "access", "expect_trap": "PAGE_FAULT",
     "args": {"va": 1073754112, "size": 1}}
  ],
  "expected": {"outcome": "ALLOWED", "detail": null, "at_step": 14}
}]}"""


def test_lifecycle_scenario_file_runs_allowed():
    (scenario,) = load_scenarios(LIFECYCLE_JSON)
    assert run_scenario(scenario, seed=0) == scenario.expected


def test_unequal_sealing_key_check_is_data_mismatch():
    """``check_data`` of a saved sealing key against other bytes."""
    scenario = load_scenarios(LIFECYCLE_JSON)[0].to_dict()
    scenario["steps"][9]["args"] = {"var": "k1", "equals": "not the key"}
    got = run_scenario(Scenario.from_dict(scenario), seed=0)
    assert (got.outcome, got.at_step) == ("DATA_MISMATCH", 9)


@pytest.mark.parametrize("args", [{"meta_ppn": -1}, {"thread_ppn": 1 << 58}],
                         ids=["negative-meta", "thread-past-line-range"])
def test_unaddressable_monitor_page_is_a_bad_handle_verdict(args):
    scenario = load_scenarios(LIFECYCLE_JSON)[0].to_dict()
    scenario["steps"][5]["args"].update(args)  # the ecreate
    assert run_scenario(Scenario.from_dict(scenario), seed=0) == \
        Verdict("DETECTED", "BadHandle", 5)


def test_unaddressable_swap_temp_page_is_a_bad_handle_verdict():
    scenario = load_scenarios(LIFECYCLE_JSON)[0].to_dict()
    scenario["steps"][6:] = [{"actor": "os", "action": "swap_out", "save_as": "sealed",
                              "args": {"handle_var": "hA", "va": 1073745920,
                                       "temp_ppn": -1}}]
    assert run_scenario(Scenario.from_dict(scenario), seed=0) == \
        Verdict("DETECTED", "BadHandle", 6)


def test_expected_trap_that_does_not_fire_is_no_trap():
    scenario = Scenario.from_dict({
        "name": "phantom-trap",
        "actors": [{"name": "os", "kind": "OS", "space": "os"}],
        "steps": [
            {"actor": "os", "action": "map_page",
             "args": {"va": 0x1000, "ppn": 0x10, "perms": "rw"}},
            {"actor": "os", "action": "access", "expect_trap": "AUTH",
             "args": {"va": 0x1000, "kind": "READ", "size": 1}},
        ],
        "expected": {"outcome": "ALLOWED", "detail": None, "at_step": 1},
    })
    got = run_scenario(scenario, seed=0)
    assert got == Verdict("NO_TRAP", "AUTH", 1)


def test_runner_exposes_machine_for_inspection():
    scenario = next(s for s in builtin_suite() if s.name == "code-dedup")
    runner = ScenarioRunner(scenario, seed=2)
    verdict = runner.run()
    assert verdict.outcome == "ALLOWED"
    h1, h2 = runner.vars["hA"], runner.vars["hA2"]
    assert runner.sm.peek_meta(h1).rtid != runner.sm.peek_meta(h2).rtid
    assert runner.sm.peek_meta(h1).encid_full == runner.sm.peek_meta(h2).encid_full


def test_brute_force_after_a_metadata_tamper_is_terminated():
    """``encid-brute-force``'s prober, entered, has a bit of its metadata
    page flipped in DRAM.  Its fault count can no longer be read, so its
    first probe terminates it: a tamper does not switch the threshold
    off."""
    world = next(s for s in builtin_suite() if s.name == "encid-brute-force").to_dict()
    scenario = Scenario.from_dict({
        "name": "encid-brute-force-after-metadata-tamper",
        "actors": [*world["actors"], {"name": "phys", "kind": "PHYSICAL"}],
        "steps": [
            *world["steps"][:4],  # victim, prober, the mapped code page, eenter hX
            {"actor": "phys", "action": "flip_bit", "args": {"line": 0x210 * 64 + 1, "bit": 5}},
            {"actor": "X", "action": "access",
             "args": {"va": 0x5000_0000, "kind": "READ", "size": 8}},
        ],
        "expected": {"outcome": "TERMINATED", "detail": None, "at_step": 5},
    })
    assert run_scenario(scenario, seed=0) == scenario.expected


@pytest.mark.parametrize("n_lines,ways", [(1, 1), (8, 2), (512, 4)])
def test_cache_geometry_changes_no_builtin_verdict(monkeypatch, n_lines, ways):
    monkeypatch.setattr(scenarios, "Machine",
                        functools.partial(Machine, cache_cfg=CacheCfg(n_lines, ways)))
    for seed in (0, 1, 17):
        for scenario in builtin_suite():
            runner = ScenarioRunner(scenario, seed=seed)
            assert runner.machine.cache is not None
            assert runner.run() == scenario.expected, f"{scenario.name} at seed {seed}"


def test_builtin_pass_engine_digest():
    """SHA-256 over (line, ciphertext, tag, counter) of every engine after
    each builtin scenario at seed 0, pinned in two parts, the lines of the
    enclaves' monitor pages and all other lines: the engine's page path must
    leave every line bit-identical to the line-by-line path it replaced."""
    enclave_pages, monitor_pages = hashlib.sha256(), hashlib.sha256()
    for scenario in builtin_suite():
        runner = ScenarioRunner(scenario, seed=0)
        assert runner.run() == scenario.expected
        monitor = {ppn for v in runner.vars.values() if isinstance(v, EnclaveHandle)
                   for ppn in (v.meta_ppn, v.thread_ppn)}
        mee = runner.machine.mee
        for out in (enclave_pages, monitor_pages):
            out.update(scenario.name.encode() + b"\0")
        for line in mee.written_lines():
            ciphertext, tag = mee.snapshot_line(line)
            out = monitor_pages if line // LINES_PER_PAGE in monitor else enclave_pages
            out.update(line.to_bytes(8, "little") + ciphertext + tag
                       + mee.counter_of(line).to_bytes(8, "little"))
    assert enclave_pages.hexdigest() == \
        "26108a6e2ddcad5b7d332caa25b01983e42848f738693181b4306819e17c2ba6"
    assert monitor_pages.hexdigest() == \
        "4677bf13b3f48debb7114bb4a2524e42ccb257eabf3f28946ed1bbccb766b2ea"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_builtin_pass_engine_op_counts(seed):
    """Lines sealed and opened by one builtin pass: noise-free, and the same
    at every seed."""
    seals = opens = 0
    for scenario in builtin_suite():
        runner = ScenarioRunner(scenario, seed=seed)
        runner.run()
        seals, opens = seals + runner.machine.mee.seals, opens + runner.machine.mee.opens
    assert (seals, opens) == (6552, 4707)


def test_builtin_pass_builds_few_per_line_entries():
    """Of the 6,552 lines one builtin pass at seed 0 writes, the engine
    builds a per-line entry for 76: the lines written one at a time and
    the record lines later addressed alone.  Each page written whole is one
    record, so a change that builds an entry per line of such a page again
    fails here."""
    entries = 0
    for scenario in builtin_suite():
        runner = ScenarioRunner(scenario, seed=0)
        assert runner.run() == scenario.expected
        entries += runner.machine.mee.line_entries
    assert entries == 76


def test_builtin_pass_real_aead_opens(monkeypatch):
    """One builtin pass at seed 0 makes 18 real AEAD opens: the monitor's
    two swap-record opens and the 16 engine opens that fail (the attacks
    it detects).  The engine's memo serves every line verification that
    succeeds, 4,691 of the 4,707, nearly all of them monitor-page lines."""
    from servas_sim.aead import AesGcmAead

    calls = []
    real_open = AesGcmAead.open

    def open_(self, *args):
        calls.append(args)
        return real_open(self, *args)

    monkeypatch.setattr(AesGcmAead, "open", open_)
    for scenario in builtin_suite():
        assert run_scenario(scenario, seed=0) == scenario.expected
    assert len(calls) == 18


def test_builtin_pass_real_aead_seals(monkeypatch):
    """One builtin pass at seed 0 makes 79 real AEAD seals: the monitor's
    three swap-out seals and the 76 engine lines whose raw bytes something
    looked at (66 snapshots, 9 failing reads, one restore over a line).
    The rest of the 6,552 lines the engine counts as sealed are never
    observed, so their ciphertext is never computed."""
    from servas_sim.aead import AesGcmAead

    calls = []
    real_seal = AesGcmAead.seal

    def seal(self, *args):
        calls.append(args)
        return real_seal(self, *args)

    monkeypatch.setattr(AesGcmAead, "seal", seal)
    for scenario in builtin_suite():
        assert run_scenario(scenario, seed=0) == scenario.expected
    assert len(calls) == 79


def test_builtin_pass_engine_digest_on_ascon(monkeypatch):
    """:func:`test_builtin_pass_engine_digest` on the Ascon-128 engine.  The
    digest snapshots every line, which seals every line the pass wrote, so
    Ascon still seals and verifies every one; the digests are the ones the
    engine gave when it sealed each line at write time."""
    monkeypatch.setattr(scenarios, "Machine", functools.partial(Machine, aead="ascon128"))
    enclave_pages, monitor_pages = hashlib.sha256(), hashlib.sha256()
    for scenario in builtin_suite():
        runner = ScenarioRunner(scenario, seed=0)
        assert runner.machine.mee.aead.name == "ascon128"
        assert runner.run() == scenario.expected
        monitor = {ppn for v in runner.vars.values() if isinstance(v, EnclaveHandle)
                   for ppn in (v.meta_ppn, v.thread_ppn)}
        mee = runner.machine.mee
        for out in (enclave_pages, monitor_pages):
            out.update(scenario.name.encode() + b"\0")
        for line in mee.written_lines():
            ciphertext, tag = mee.snapshot_line(line)
            out = monitor_pages if line // LINES_PER_PAGE in monitor else enclave_pages
            out.update(line.to_bytes(8, "little") + ciphertext + tag
                       + mee.counter_of(line).to_bytes(8, "little"))
    assert enclave_pages.hexdigest() == \
        "cb488b2867ea4fd20747a85f6580b84833cc162c1fe56b4da77cebb43b7c96a2"
    assert monitor_pages.hexdigest() == \
        "ccbe938b9bb129829fd2ae7b4b64ad9e021741d008617db5001e9081f8087016"


def test_finished_scenario_machine_is_freed_without_the_gc():
    """No reference cycle holds a finished machine: with the cyclic GC off,
    dropping the runner frees its machine, engine lines and all."""
    gc.collect()
    gc.disable()
    try:
        for scenario in builtin_suite():
            runner = ScenarioRunner(scenario, seed=0)
            assert runner.run() == scenario.expected
            machine = weakref.ref(runner.machine)
            del runner
            assert machine() is None, scenario.name
    finally:
        gc.enable()


def test_ascon_backend_gives_the_aes_gcm_verdicts(monkeypatch):
    """The builtin suite at seed 0 reaches the same verdicts on the Ascon-128
    engine as on AES-GCM."""
    aes_gcm = [run_scenario(scenario, seed=0) for scenario in builtin_suite()]
    monkeypatch.setattr(scenarios, "Machine", functools.partial(Machine, aead="ascon128"))
    suite = builtin_suite()
    assert ScenarioRunner(suite[0]).machine.mee.aead.name == "ascon128"
    assert [run_scenario(scenario, seed=0) for scenario in suite] == aes_gcm


# --- malformed and random physical/OS steps ---------------------------------------

_ENCLAVE_LINE = 0x101 * 64  # first line of enclave A's data page
_A_BASE = 0x4000_0000  # enclave A's region
_A_DATA = _A_BASE + PAGE_BYTES
_SPAWN = builtin_suite()[0].steps[0].to_dict()  # enclave A at ppn 0x100.., saved as hA
_ACTORS = [{"name": "os", "kind": "OS", "space": "os"},
           {"name": "host", "kind": "HOST", "space": "host"},
           {"name": "phys", "kind": "PHYSICAL"}]


def _after_spawn(*steps):
    return Scenario.from_dict({
        "name": "after-spawn", "actors": _ACTORS, "steps": [_SPAWN, *steps],
        "expected": {"outcome": "ALLOWED", "detail": None, "at_step": len(steps)},
    })


_ENCLAVE_A = {"name": "A", "kind": "ENCLAVE", "space": "host", "handle_var": "hA"}
_STEP_IN_A = [{"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}}]
_CTX_RW = {"page_type": "regular", "perms": "rwu"}


def _in_a(action, **args):
    """Enclave A, entered, runs one step."""
    return [*_STEP_IN_A, {"actor": "A", "action": action, "args": args}]


def _os_map_then_write(**map_args):
    return [{"actor": "os", "action": "map_page",
             "args": {"va": 0x1000, "ppn": 0x300, **map_args}},
            {"actor": "os", "action": "access", "args": {"va": 0x1000, "data": "x"}}]


@pytest.mark.parametrize("steps", [
    [{"actor": "phys", "action": "flip_bit", "args": {"line": _ENCLAVE_LINE, "bit": 512}}],
    [{"actor": "phys", "action": "flip_bit", "args": {"line": _ENCLAVE_LINE, "bit": -1}}],
    [{"actor": "phys", "action": "flip_bit",
      "args": {"line": _ENCLAVE_LINE, "bit": 128, "target": "tag"}}],
    [{"actor": "phys", "action": "flip_bit",
      "args": {"line": _ENCLAVE_LINE, "bit": 3, "target": "nonce"}}],
    [{"actor": "phys", "action": "flip_bit", "args": {"line": -1, "bit": 0}}],
    [{"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "hA"}}],
    [{"actor": "os", "action": "map_page", "args": {"va": 0x1000, "ppn": 0x10, "perms": "rwq"}}],
    [{"actor": "os", "action": "write_csr", "args": {"name": "srange", "value": [0x1000]}}],
    _os_map_then_write(rsw=4),
    _os_map_then_write(ppn=-1),
    _os_map_then_write(ppn=1 << 60),
    _in_a("emod", va=_A_DATA, old={**_CTX_RW, "rsw": 7}, new=_CTX_RW),
    _in_a("emod", va=_A_DATA, old=_CTX_RW, new={**_CTX_RW, "rsw": 4}),
    _in_a("eprepare", va=_A_BASE + 2 * PAGE_BYTES, **_CTX_RW, rsw=1),
], ids=["bit-past-line", "negative-bit", "bit-past-tag", "unknown-target", "negative-line",
        "restore-non-snapshot", "bad-perm-letter", "short-range-list", "rsw-past-2-bits", "negative-ppn",
        "ppn-past-physical-memory", "emod-old-rsw", "emod-new-rsw", "eprepare-rsw"])
def test_malformed_step_is_script_error(steps):
    """Each step is a script error (an ``rsw`` is the OS's mapping choice,
    no argument of a page context), whoever runs it."""
    scenario = _after_spawn(*steps)
    scenario = Scenario.from_dict({**scenario.to_dict(), "actors": [*_ACTORS, _ENCLAVE_A]})
    with pytest.raises(ScriptError):
        run_scenario(scenario)


def test_never_written_page_snapshots_as_zero_and_restores_to_auth():
    """Raw DRAM is readable whatever its history, and putting its zero
    image back never makes a line read as zeros again: neither the line
    written since nor a line that was never written."""
    steps = [
        {"actor": "phys", "action": "snapshot_lines", "args": {"page_ppn": 0x300},
         "save_as": "blank"},
        {"actor": "os", "action": "map_page", "args": {"va": 0x300000, "ppn": 0x300}},
        {"actor": "os", "action": "access",
         "args": {"va": 0x300000, "kind": "READ", "size": 8, "check_hex": "00" * 8}},
        {"actor": "os", "action": "access", "args": {"va": 0x300000, "data": "written"}},
        {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "blank"}},
        {"actor": "os", "action": "access", "expect_trap": "AUTH",
         "args": {"va": 0x300000, "kind": "READ", "size": 8}},
        {"actor": "os", "action": "access", "expect_trap": "AUTH",
         "args": {"va": 0x300040, "kind": "READ", "size": 8}},
    ]
    runner = ScenarioRunner(_after_spawn(*steps))
    assert runner.run() == Verdict("ALLOWED", None, len(steps))
    blank = runner.vars["blank"]
    assert sorted(blank) == list(range(0x300 * 64, 0x301 * 64))
    assert set(blank.values()) == {(bytes(64), bytes(16))}


@pytest.mark.parametrize("steps, named", [
    (_os_map_then_write(prems="rw"), "map_page: unknown argument 'prems'"),
    ([{"actor": "os", "action": "map_page", "args": {"va": True, "ppn": 0x300}}],
     "map_page va must be an integer, got True"),
    (_os_map_then_write(ppn=2.0), "map_page ppn must be an integer, got 2.0"),
    ([{"actor": "os", "action": "access", "args": {"va": 0x1000, "size": 2.5}}],
     "access size must be an integer, got 2.5"),
    ([{"actor": "os", "action": "swap_out",
       "args": {"handle_var": "hA", "va": _A_DATA, "temp_ppn": "x"}}],
     "swap_out temp_ppn must be an integer, got 'x'"),
    ([{"actor": "os", "action": "access", "args": {"va": 0x1000, "data": "x", "data_hex": "78"}}],
     "access: argument 'data' given twice"),
    ([{"actor": "phys", "action": "restore_lines", "args": {"snapshot": {"1": ["a", "b"]}}}],
     "restore_lines snapshot must be a saved Snapshot"),
    ([{"actor": "os", "action": "swap_in", "args": {"va": _A_DATA, "sealed_var": "hA"}}],
     "swap_in sealed_var must be bytes, got EnclaveHandle"),
    ([{"actor": "os", "action": "access", "args": {"va": 0x1000, "data_hex": "zz"}}],
     "access data_hex must be hex text"),
    ([{"actor": "os", "action": "eenter", "args": {"args": {"x": 1}}}],
     "eenter args must be an object"),
], ids=["unknown-key", "va-true", "float-ppn", "float-size", "text-temp-ppn", "given-twice",
        "literal-snapshot", "var-of-another-type", "bad-hex", "non-integer-register-key"])
def test_a_bad_argument_is_named_at_its_own_step(steps, named):
    """Each bad value is a script error that names its action and argument,
    raised by the step that holds it (a float ppn by the map_page, not the
    access that would use the mapping)."""
    with pytest.raises(ScriptError, match=re.escape(named)):
        run_scenario(_after_spawn(*steps))


def test_text_and_hex_spell_bytes_and_var_spells_a_saved_value():
    steps = [*_OS_VIEW[:1],
             {"actor": "os", "action": "access", "args": {"va": 0, "data_hex": "6869"}},
             {"actor": "os", "action": "access", "save_as": "got",
              "args": {"va": 0, "size": 2, "check": "hi"}},
             {"actor": "os", "action": "access", "args": {"va": 0, "size": 2, "check_var": "got"}},
             {"actor": "os", "action": "access", "args": {"va": 0, "kind": "read", "size": 2,
                                                          "check_hex": "6869"}}]
    assert run_scenario(_after_spawn(*steps)) == Verdict("ALLOWED", None, len(steps))


@pytest.mark.parametrize("old, new, detail", [
    ({"page_type": "monitor"}, {}, "MonitorTypeForbidden"),
    ({}, {"page_type": "unprotected"}, "INVALID_COMBINATION"),
], ids=["old-monitor", "new-unprotected"])
def test_an_emod_context_no_enclave_page_can_have_is_a_verdict(old, new, detail):
    steps = _in_a("emod", va=_A_DATA, old={**_CTX_RW, **old}, new={**_CTX_RW, **new})
    scenario = _after_spawn(*steps)
    scenario = Scenario.from_dict({**scenario.to_dict(), "actors": [*_ACTORS, _ENCLAVE_A]})
    assert run_scenario(scenario) == Verdict("DETECTED", detail, 2)


def test_too_many_stack_pages_are_refused_before_any_mapping():
    spawn = {**_SPAWN, "args": {**_SPAWN["args"], "stack_pages": 10 ** 8}}
    scenario = _after_spawn()
    scenario = Scenario.from_dict({**scenario.to_dict(), "steps": [spawn]})
    runner = ScenarioRunner(scenario)
    start = time.perf_counter()
    assert runner.run() == Verdict("DETECTED", "MonitorCapacity", 0)
    assert time.perf_counter() - start < 1.0
    assert runner.machine.spaces == {}


@pytest.mark.parametrize("stack_pages", [-1, -2, -3])
def test_a_negative_stack_page_count_is_refused_before_any_mapping(stack_pages):
    """A negative count is a script error, not a shrunken region that ends
    in a range or image verdict."""
    spawn = {**_SPAWN, "args": {**_SPAWN["args"], "stack_pages": stack_pages}}
    runner = ScenarioRunner(Scenario.from_dict({**_after_spawn().to_dict(), "steps": [spawn]}))
    with pytest.raises(ScriptError, match=f"stack_pages {stack_pages} is negative"):
        runner.run()
    assert runner.machine.spaces == {}


@pytest.mark.parametrize("edit, named", [
    (lambda image: image.update(developer_id=5), "manifest developer_id must be str"),
    (lambda image: image.update(pages="abc"), "manifest pages must be list"),
    (lambda image: image["pages"].append(7), "a manifest page must be dict"),
])
def test_a_mistyped_manifest_field_is_named(edit, named):
    image = json.loads(json.dumps(_SPAWN["args"]["image"]))
    edit(image)
    build = {"actor": "host", "action": "build_image", "args": {"image": image}}
    for step in (build, {**_SPAWN, "args": {**_SPAWN["args"], "image": image}}):
        scenario = Scenario.from_dict({**_after_spawn().to_dict(), "steps": [step]})
        with pytest.raises(ScriptError, match=named):
            run_scenario(scenario)


def test_a_page_index_the_image_cannot_hold_is_an_invalid_image_verdict():
    image = json.loads(json.dumps(_SPAWN["args"]["image"]))
    image["pages"].append({"index": -5, "perms": "rw", "type": "regular"})
    spawn = {**_SPAWN, "args": {**_SPAWN["args"], "image": image}}
    scenario = Scenario.from_dict({**_after_spawn().to_dict(), "steps": [spawn]})
    assert run_scenario(scenario) == Verdict("DETECTED", "InvalidImage", 0)


# --- every action, drawn from its declaration -------------------------------------

_OS_PAGES = (0, 0x1000)
_OS_VIEW = [{"actor": "os", "action": "map_page", "args": {"va": va, "ppn": ppn}}
            for va, ppn in zip(_OS_PAGES, (0x300, 0x101))]  # a free page, A's data
_SAVED = ["s0", "s1", "hA", "img"]
_PPN = st.sampled_from([0x100, 0x101, 0x102, 0x300, 0x301])  # enclave A's, and free
_LINE = _PPN.flatmap(lambda ppn: st.integers(ppn * 64, ppn * 64 + 63))
_CTX = st.fixed_dictionaries(
    {"page_type": st.sampled_from([t.value for t in PageType]),
     "perms": st.sampled_from(["rwu", "ru", "rxu"])},
    optional={"sid": st.integers(0, 1 << 80)})
# Well-typed values that reach past the argument checks, by argument name.
_PLAUSIBLE = {
    "va": st.sampled_from([*_OS_PAGES, _A_BASE, _A_DATA, _A_DATA + 0x3F, 0x6000_0000]),
    "ppn": _PPN, "temp_ppn": _PPN, "page_ppn": _PPN, "ppn_start": _PPN,
    "meta_ppn": st.sampled_from([0x200, 0x210]), "thread_ppn": st.sampled_from([0x201, 0x211]),
    "base": st.sampled_from([_A_BASE, 0x5000_0000]), "stack_pages": st.integers(0, 2),
    "line": _LINE, "lines": st.lists(_LINE, max_size=3), "bit": st.integers(0, 700),
    "size": st.integers(1, 64), "rsw": st.integers(0, 3), "reg": st.integers(0, 31),
    "perms": st.sampled_from(["rw", "rwu", "rxu", "ru"]),
    "kind": st.sampled_from(["READ", "WRITE", "FETCH", "fetch"]),
    "page_type": st.sampled_from([t.value for t in PageType]),
    "name": st.sampled_from(["urange", "srange", "mrange", "usid0", "ssid1", "msid0"]),
    "value": st.one_of(st.integers(0, 1 << 64),
                       st.tuples(st.sampled_from([0x6000_0000, 64]), st.just(PAGE_BYTES),
                                 st.booleans()).map(list)),
    "target": st.sampled_from(["ciphertext", "tag"]), "space": st.sampled_from(["os", "host"]),
    "var": st.sampled_from(_SAVED), "old": _CTX, "new": _CTX,
    "image": st.just(_SPAWN["args"]["image"]),
}
_OUT_OF_RANGE = st.sampled_from([-1, -PAGE_BYTES, 1 << 64, 1 << 70])
_WRONG_TYPE = st.sampled_from([2.5, True, None, [1], {"x": 1}, "x", ""])
_ACTOR_OF = {"snapshot_lines": "phys", "restore_lines": "phys", "flip_bit": "phys",
             "map_page": "os", "unmap_page": "os", "swap_out": "os", "swap_in": "os",
             "interrupt": "os", "eenter": "host", "spawn_enclave": "host", "ecreate": "host",
             "build_image": "host"}  # the rest run in the enclave, or call it from the OS


def _well_typed(ann):
    origin, args = typing.get_origin(ann), typing.get_args(ann)
    if origin is types.UnionType:
        return st.one_of([_well_typed(a) for a in args])
    if origin is list:
        return st.lists(_well_typed(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(st.integers(0, 40).map(str), _well_typed(args[1]), max_size=2)
    if isinstance(ann, enum.EnumMeta):
        return st.sampled_from(list(ann.__members__))
    return {int: st.integers(0, 1 << 13), str: st.text(max_size=4), type(None): st.none(),
            bytes: st.text(min_size=1, max_size=8), dict: st.just({}),
            list: st.lists(st.integers(0, 1 << 13), max_size=4)}.get(ann, st.nothing())


@st.composite
def _any_step(draw, entered: bool):
    """A step of any action, its arguments drawn from the handler's signature:
    mostly well-typed, sometimes out of range, of the wrong type, a saved
    value, missing, or joined by an unknown key."""
    action = draw(st.sampled_from(sorted(scenarios.ACTIONS)))
    if entered and action in _ACTOR_OF and action != "interrupt" and _ACTOR_OF[action] != "phys":
        action = "eexit"  # software outside the enclave cannot run while it does
    handler = scenarios.ACTIONS[action]
    hints = typing.get_type_hints(handler)
    args = {}
    for p in inspect.signature(handler).parameters.values():
        if p.kind is p.POSITIONAL_ONLY or draw(st.integers(0, 11)) == 0:
            continue
        if p.default is not p.empty and draw(st.booleans()):
            continue
        how = draw(st.integers(0, 11))
        if how == 0:
            args[p.name + "_var"] = draw(st.sampled_from(_SAVED))
        elif how == 1:
            args[p.name] = draw(_OUT_OF_RANGE)
        elif how == 2:
            args[p.name] = draw(_WRONG_TYPE)
        else:
            args[p.name] = draw(_PLAUSIBLE.get(p.name, _well_typed(hints[p.name])))
    if draw(st.integers(0, 11)) == 0:
        args["bogus"] = 1
    actor = _ACTOR_OF.get(action, "A" if entered else "os") if draw(st.integers(0, 5)) else \
        draw(st.sampled_from(["os", "host", "A", "phys"]))
    return {"actor": actor, "action": action, "args": args,
            "save_as": draw(st.sampled_from(["s0", "s1", None]))}


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda entered: st.tuples(
    st.just(entered), st.lists(_any_step(entered), min_size=1, max_size=8))), st.integers(0, 3))
def test_random_steps_end_in_verdict_or_script_error(script, seed):
    entered, steps = script
    world = [{"actor": "host", "action": "build_image", "save_as": "img",
              "args": {"image": _SPAWN["args"]["image"]}}, *_OS_VIEW]
    scenario = Scenario.from_dict({
        "name": "random", "actors": [*_ACTORS, _ENCLAVE_A],
        "steps": [_SPAWN, *world, *(_STEP_IN_A if entered else []), *steps],
        "expected": {"outcome": "ALLOWED", "detail": None, "at_step": 0}})
    try:
        verdict = run_scenario(scenario, seed=seed)
    except ScriptError:
        return
    assert isinstance(verdict, Verdict)


# --- the README lists every action's arguments ------------------------------------


def _readme_arguments() -> dict[str, list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)`[^:\n]*:(.*?)(?=^- |^$|\Z)", section, re.M | re.S)
    return {name: [" ".join(item.split()) for item in re.findall(r"`([^`]+)`", body)]
            for name, body in bullets}


def test_readme_lists_every_action_with_its_declared_arguments():
    declared = {**scenarios.ACTIONS, "page_ctx": scenarios._page_ctx}
    want = {name: [f"{p.name}: {p.annotation}" + ("" if p.default is p.empty else f" = {p.default!r}")
                   for p in inspect.signature(fn).parameters.values()
                   if p.kind is not p.POSITIONAL_ONLY]
            for name, fn in declared.items()}
    got = _readme_arguments()
    assert {name: got.get(name) for name in want} == want
