"""Data-driven attack and interaction scenarios with expected verdicts.

A scenario declares actors (OS, HOST, ENCLAVE, PHYSICAL), an ordered step
script, and the verdict it must produce.  Scenarios are plain data: the
JSON form and the builtin suite use the same dictionary schema, documented
here and in the README.

Actor rules, enforced as script errors rather than verdicts:

* ``PHYSICAL`` may only tamper with raw DRAM (snapshot/restore/flip) and
  may act at any time -- it is a different attacker than software.
* ``OS`` acts at S-mode, ``HOST`` and ``ENCLAVE`` at U-mode.
* Software actors other than the running enclave cannot act while an
  enclave executes, except the OS ``interrupt`` action (single hart).
* Monitor calls are only reachable through their trap path, so enclave
  actions require that enclave to actually be the one executing.

Verdict semantics: the run short-circuits at the first terminal event.
``DETECTED(kind)`` means a step trapped that did not declare
``expect_trap`` for that kind; ``TERMINATED`` means the monitor killed the
active enclave (fault threshold); ``ALLOWED`` means every step ran and
every data check passed.  Comparison against the expectation is exact on
outcome, detail and step index.

Step schema (JSON-compatible)::

    {"actor": "os", "action": "map_page", "args": {...},
     "expect_trap": "AUTH" | null, "save_as": "name" | null}

Data arguments: ``data`` (utf-8 text) or ``data_hex``; checks:
``check`` / ``check_hex`` / ``check_var``.  Integers are plain JSON
numbers.  Variables (``*_var``) refer to values saved by earlier steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .image import (
    EnclaveImage,
    FormatError,
    ImageAuthFailure,
    InvalidImage,
    image_from_manifest,
)
from .machine import AccessKind, AuthenticationException, Machine, Trap, perms_from_str
from .monitor import (
    DispositionKind,
    EnclaveHandle,
    MonitorError,
    PageCtx,
    SecurityMonitor,
)
from .tweak import (
    PRV_S,
    PRV_U,
    InvalidCombination,
    PageType,
    RangeReg,
)

PAGE = 4096


class ScriptError(Exception):
    """The scenario itself is malformed (unknown action, bad args, actor
    breaking the single-hart rules)."""


ACTOR_KINDS = ("OS", "HOST", "ENCLAVE", "PHYSICAL")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScriptError(f"{what} must be an object, got {value!r}")
    return value


def _text(d: dict, key: str, what: str, required: bool = True) -> str | None:
    """``d[key]``, which must be text; when not ``required`` it may be
    absent or null."""
    value = d[key] if required else d.get(key)
    if not isinstance(value, str) and (required or value is not None):
        raise ScriptError(f"{what} {key} must be text, got {value!r}")
    return value


def _int_keyed(args: dict, key: str) -> dict[int, object]:
    """The optional map ``args[key]`` with its keys read as integers."""
    return {int(k): v for k, v in _object(args.get(key, {}), key).items()}


@dataclass(frozen=True)
class Verdict:
    outcome: str  # ALLOWED | DETECTED | TERMINATED | DATA_MISMATCH | NO_TRAP
    detail: str | None = None
    at_step: int | None = None

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, "detail": self.detail, "at_step": self.at_step}

    @classmethod
    def from_dict(cls, d: dict) -> "Verdict":
        return cls(d["outcome"], d.get("detail"), d.get("at_step"))


@dataclass(frozen=True)
class Actor:
    name: str
    kind: str  # one of ACTOR_KINDS
    space: str | None = None
    handle_var: str | None = None

    @property
    def prv(self) -> int:
        """The privilege the actor's software runs at."""
        return PRV_S if self.kind == "OS" else PRV_U

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "space": self.space,
                "handle_var": self.handle_var}

    @classmethod
    def from_dict(cls, d: dict) -> "Actor":
        d = _object(d, "an actor")
        if d["kind"] not in ACTOR_KINDS:
            raise ScriptError(f"actor kind must be one of {ACTOR_KINDS}, got {d['kind']!r}")
        return cls(_text(d, "name", "actor"), d["kind"], _text(d, "space", "actor", False),
                   _text(d, "handle_var", "actor", False))


@dataclass(frozen=True)
class Step:
    actor: str
    action: str
    args: dict = field(default_factory=dict)
    expect_trap: str | None = None
    save_as: str | None = None

    def to_dict(self) -> dict:
        return {"actor": self.actor, "action": self.action, "args": self.args,
                "expect_trap": self.expect_trap, "save_as": self.save_as}

    @classmethod
    def from_dict(cls, d: dict) -> "Step":
        d = _object(d, "a step")
        return cls(_text(d, "actor", "step"), _text(d, "action", "step"),
                   _object(d.get("args", {}), "step args"),
                   _text(d, "expect_trap", "step", False), _text(d, "save_as", "step", False))


@dataclass(frozen=True)
class Scenario:
    name: str
    actors: tuple[Actor, ...]
    steps: tuple[Step, ...]
    expected: Verdict
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "actors": [a.to_dict() for a in self.actors],
            "steps": [s.to_dict() for s in self.steps],
            "expected": self.expected.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            name=_text(d, "name", "scenario"),
            actors=tuple(Actor.from_dict(a) for a in d["actors"]),
            steps=tuple(Step.from_dict(s) for s in d["steps"]),
            expected=Verdict.from_dict(d["expected"]),
            description=d.get("description", ""),
        )


def load_scenarios(text: str) -> list[Scenario]:
    """Parse a scenario file: a JSON object with a ``scenarios`` list."""
    try:
        doc = json.loads(text)
        items = doc["scenarios"] if isinstance(doc, dict) else doc
        return [Scenario.from_dict(item) for item in items]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ScriptError(f"malformed scenario file: {exc}") from exc


def dump_scenarios(scenarios: list[Scenario]) -> str:
    return json.dumps({"version": 1, "scenarios": [s.to_dict() for s in scenarios]},
                      indent=2)


def _page_type(d: dict) -> PageType:
    """The page type ``d`` names (``"regular"``, ``"shm"``, ...)."""
    return PageType[_text(d, "page_type", "step").upper()]


def spawn_enclave(sm: SecurityMonitor, image: EnclaveImage, space: str, base: int,
                  ppn_start: int, stack_pages: int, meta_ppn: int, thread_ppn: int,
                  ppn_overrides: dict[int, int] | None = None) -> EnclaveHandle:
    """The OS maps the enclave region per the image descriptors, then the
    host creates the enclave.  Region page j (image pages, then the stack
    pages) maps to ``ppn_start + j`` unless ``ppn_overrides`` names j.  A
    negative base is the invalid image :meth:`SecurityMonitor.ecreate`
    would call it, refused before the OS maps anything."""
    if base < 0:
        raise InvalidImage(f"enclave region: base {base:#x} is negative")
    machine = sm.machine
    overrides = ppn_overrides or {}
    for page in image.pages:
        letters = "".join(f for f in "rwxug" if page.perms[f])
        ppn = overrides.get(page.index, ppn_start + page.index)
        machine.map_page(PRV_S, space, base + page.index * PAGE, ppn, letters, page.rsw)
    for idx in range(image.n_region_pages, image.n_region_pages + stack_pages):
        ppn = overrides.get(idx, ppn_start + idx)
        machine.map_page(PRV_S, space, base + idx * PAGE, ppn, "rwu", 0b01)
    machine.prv = PRV_U
    return sm.ecreate(space, image, base, stack_pages, meta_ppn, thread_ppn)


_TRAPLIKE = (Trap, MonitorError, ImageAuthFailure, InvalidImage, FormatError,
             InvalidCombination)


def _trap_kind(exc: Exception) -> str:
    if isinstance(exc, Trap):
        return exc.kind
    if isinstance(exc, InvalidCombination):
        return "INVALID_COMBINATION"
    return type(exc).__name__


class _DataMismatch(Exception):
    pass


class ScenarioRunner:
    """Executes one scenario on a fresh machine."""

    def __init__(self, scenario: Scenario, seed: int = 0, fault_threshold: int = 3):
        self.scenario = scenario
        self.machine = Machine(seed=seed)
        self.sm = SecurityMonitor(self.machine, fault_threshold=fault_threshold)
        self.vars: dict[str, object] = {}
        self.actors = {a.name: a for a in scenario.actors}
        for step in scenario.steps:
            if step.actor not in self.actors:
                raise ScriptError(f"step references undeclared actor {step.actor!r}")

    # -- helpers --------------------------------------------------------------

    def _var(self, name: str):
        if name not in self.vars:
            raise ScriptError(f"undefined variable {name!r}")
        return self.vars[name]

    def _data_arg(self, args: dict) -> bytes | None:
        if "data" in args:
            return str.encode(args["data"])  # a TypeError (script error) unless text
        if "data_hex" in args:
            return bytes.fromhex(args["data_hex"])
        if "data_var" in args:
            return self._var(args["data_var"])
        return None

    def _handle(self, args: dict, actor: Actor):
        var = args.get("handle_var") or actor.handle_var
        if var is None:
            raise ScriptError("no enclave handle in scope")
        return self._var(var)

    def _check(self, args: dict, result: bytes) -> None:
        expected = None
        if "check" in args:
            expected = str.encode(args["check"])
        elif "check_hex" in args:
            expected = bytes.fromhex(args["check_hex"])
        elif "check_var" in args:
            expected = self._var(args["check_var"])
        if expected is not None and result != expected:
            raise _DataMismatch(f"read {result!r}, expected {expected!r}")

    def _gate_actor(self, actor: Actor, action: str) -> None:
        active = self.machine.active_enclave
        if actor.kind == "PHYSICAL":
            if action not in ("snapshot_lines", "restore_lines", "flip_bit"):
                raise ScriptError("the physical attacker only touches raw DRAM")
            return
        if action in ("snapshot_lines", "restore_lines", "flip_bit"):
            raise ScriptError("raw DRAM tampering is PHYSICAL-only")
        if actor.kind == "ENCLAVE":
            if active is None or active != self._var(actor.handle_var):
                raise ScriptError(f"enclave {actor.name} is not executing")
            return
        if active is not None and action != "interrupt":
            raise ScriptError("software actors cannot run while an enclave executes")
        self.machine.prv = actor.prv

    # -- actions ---------------------------------------------------------------

    def _act_access(self, actor: Actor, args: dict):
        data = self._data_arg(args)
        kind = AccessKind[args.get("kind", "WRITE" if data is not None else "READ")]
        space = args.get("space") or actor.space
        result = self.machine.access(space, args["va"], kind, actor.prv,
                                     data=data, size=args.get("size", 1))
        self._check(args, result)
        return result

    def _act_map_page(self, actor: Actor, args: dict):
        ppn = args["ppn"] if "ppn" in args else self._var(args["ppn_var"])
        self.machine.map_page(actor.prv, args.get("space") or actor.space, args["va"],
                              ppn, args.get("perms", "rw"), args.get("rsw", 0))

    def _act_unmap_page(self, actor: Actor, args: dict):
        self.machine.unmap_page(actor.prv, args.get("space") or actor.space, args["va"])

    def _act_write_csr(self, actor: Actor, args: dict):
        value = args["value"]
        if isinstance(value, list):
            base, size, enabled = value
            value = RangeReg(base, size, bool(enabled))
        self.machine.write_csr(actor.prv, args["name"], value)

    def _act_build_image(self, actor: Actor, args: dict):
        return image_from_manifest(args["image"])

    def _act_spawn_enclave(self, actor: Actor, args: dict):
        image = (self._var(args["image_var"]) if "image_var" in args
                 else image_from_manifest(args["image"]))
        if not isinstance(image, EnclaveImage):
            raise ScriptError("spawn_enclave needs a parsed image; map pages "
                              "and use ecreate for wrapped byte images")
        overrides = _int_keyed(args, "page_ppn_overrides")
        return spawn_enclave(self.sm, image, args.get("space") or actor.space, args["base"],
                             args["ppn_start"], args.get("stack_pages", 1),
                             args["meta_ppn"], args["thread_ppn"], overrides)

    def _act_ecreate(self, actor: Actor, args: dict):
        image = self._var(args["image_var"])
        return self.sm.ecreate(args.get("space") or actor.space, image, args["base"],
                               args.get("stack_pages", 1), args["meta_ppn"],
                               args["thread_ppn"])

    def _act_eenter(self, actor: Actor, args: dict):
        self.sm.eenter(self._handle(args, actor), _int_keyed(args, "args"))

    def _act_eexit(self, actor: Actor, args: dict):
        self.sm.eexit(_int_keyed(args, "returns"))

    def _act_interrupt(self, actor: Actor, args: dict):
        self.sm.interrupt()

    def _act_eprepare(self, actor: Actor, args: dict):
        self.sm.eprepare(args["va"], _page_type(args),
                         perms_from_str(args["perms"]), args.get("rsw"))

    def _act_edestroy(self, actor: Actor, args: dict):
        self.sm.edestroy(args["va"])

    def _act_emod(self, actor: Actor, args: dict):
        def ctx(d: dict) -> PageCtx:
            return PageCtx(_page_type(d), perms_from_str(d["perms"]),
                           d.get("rsw"), d.get("sid"))

        self.sm.emod(args["va"], ctx(args["old"]), ctx(args["new"]))

    def _act_egetsealkey(self, actor: Actor, args: dict):
        return self.sm.egetsealkey()

    def _act_swap_out(self, actor: Actor, args: dict):
        return self.sm.swap_out(self._handle(args, actor), args["va"], args["temp_ppn"])

    def _act_swap_in(self, actor: Actor, args: dict):
        self.sm.swap_in(self._handle(args, actor), args["va"],
                        self._var(args["sealed_var"]))

    def _act_snapshot_lines(self, actor: Actor, args: dict):
        lines = args.get("lines")
        if lines is None:
            base = args["page_ppn"] * PAGE // 64
            lines = range(base, base + 64)
        return self.machine.phys_snapshot(lines)

    def _act_restore_lines(self, actor: Actor, args: dict):
        snapshot = self._var(args["snapshot_var"])
        if not isinstance(snapshot, dict):
            raise ScriptError(f"{args['snapshot_var']!r} is not a snapshot_lines result")
        self.machine.phys_restore(snapshot)

    def _act_flip_bit(self, actor: Actor, args: dict):
        self.machine.phys_flip_bit(args["line"], args["bit"],
                                   args.get("target", "ciphertext"))

    def _act_set_reg(self, actor: Actor, args: dict):
        self.machine.set_reg(args["reg"], args["value"])

    def _act_check_reg(self, actor: Actor, args: dict):
        value = self.machine.get_reg(args["reg"])
        if value != args["equals"]:
            raise _DataMismatch(f"reg x{args['reg']} == {value}, expected {args['equals']}")

    def _act_check_data(self, actor: Actor, args: dict):
        left = self._var(args["var"])
        right = self._var(args["equals_var"]) if "equals_var" in args else \
            str.encode(args["equals"])
        if left != right:
            raise _DataMismatch(f"{left!r} != {right!r}")

    # -- execution ---------------------------------------------------------------

    def _exec(self, step: Step):
        actor = self.actors[step.actor]
        self._gate_actor(actor, step.action)
        method = getattr(self, f"_act_{step.action}", None)
        if method is None:
            raise ScriptError(f"unknown action {step.action!r}")
        try:
            return method(actor, step.args)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScriptError(f"bad args for {step.action}: {exc}") from exc

    def run(self) -> Verdict:
        for i, step in enumerate(self.scenario.steps):
            try:
                result = self._exec(step)
            except _TRAPLIKE as exc:
                if (isinstance(exc, AuthenticationException) and exc.disposition is not None
                        and exc.disposition.kind is DispositionKind.ENCLAVE_TERMINATED):
                    return Verdict("TERMINATED", None, i)
                kind = _trap_kind(exc)
                if step.expect_trap == kind:
                    continue
                return Verdict("DETECTED", kind, i)
            except _DataMismatch as exc:
                return Verdict("DATA_MISMATCH", str(exc), i)
            if step.expect_trap is not None:
                return Verdict("NO_TRAP", step.expect_trap, i)
            if step.save_as is not None:
                self.vars[step.save_as] = result
        return Verdict("ALLOWED", None, len(self.scenario.steps) - 1)


def run_scenario(scenario: Scenario, seed: int = 0, fault_threshold: int = 3) -> Verdict:
    """Execute one scenario on a fresh machine and return what happened."""
    return ScenarioRunner(scenario, seed, fault_threshold).run()


# --- builtin suite ------------------------------------------------------------
#
# Addresses and physical pages used by the standard world:
#   enclave A: region at 0x4000_0000, pages at ppn 0x100.., monitor 0x200/0x201
#   enclave B: region at 0x5000_0000, pages at ppn 0x110.., monitor 0x210/0x211
#   shared page: ppn 0x180; A maps it at 0x6000_0000, B at 0x7000_0000
#   rogue/temp pages: 0x300, 0x400

_A_BASE = 0x4000_0000
_B_BASE = 0x5000_0000
_A_DATA = _A_BASE + PAGE
_CODE_FILL = "1300000093080000"  # recognizable instruction-ish pattern


def _std_image(n_data: int = 1, fill: str = _CODE_FILL) -> dict:
    pages = [{"index": 0, "perms": "rx", "type": "shenclave", "fill": fill}]
    for j in range(n_data):
        pages.append({"index": 1 + j, "perms": "rw", "type": "regular", "fill": ""})
    return {"entry_offset": 0, "pages": pages}


def _spawn(actor: str, save_as: str, base: int = _A_BASE, ppn_start: int = 0x100,
           meta_ppn: int = 0x200, thread_ppn: int = 0x201, image: dict | None = None,
           **extra) -> dict:
    return {
        "actor": actor, "action": "spawn_enclave", "save_as": save_as,
        "args": {"image": image or _std_image(), "base": base, "ppn_start": ppn_start,
                 "stack_pages": 1, "meta_ppn": meta_ppn, "thread_ppn": thread_ppn,
                 **extra},
    }


def _scenario(name: str, description: str, actors: list[dict], steps: list[dict],
              outcome: str, detail: str | None = None) -> Scenario:
    """Builtin scenarios always terminate (or finish) on their last step."""
    return Scenario.from_dict({
        "name": name,
        "description": description,
        "actors": actors,
        "steps": steps,
        "expected": {"outcome": outcome, "detail": detail, "at_step": len(steps) - 1},
    })


_HOST_A = {"name": "host", "kind": "HOST", "space": "host"}
_ENCLAVE_A = {"name": "A", "kind": "ENCLAVE", "space": "host", "handle_var": "hA"}
_ENCLAVE_B = {"name": "B", "kind": "ENCLAVE", "space": "host", "handle_var": "hB"}
_OS = {"name": "os", "kind": "OS", "space": "os"}
_PHYS = {"name": "phys", "kind": "PHYSICAL"}


def _scn_os_read_enclave() -> Scenario:
    secret = "top-secret-bytes"
    return _scenario(
        "os-read-enclave",
        "The OS maps an initialized enclave data page one-to-one into its own "
        "address space and reads it; it cannot supply the enclave tweak.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA"),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "data": secret}},
            {"actor": "A", "action": "eexit", "args": {}},
            {"actor": "os", "action": "map_page",
             "args": {"va": 0x101 * PAGE, "ppn": 0x101, "perms": "rw"}},
            {"actor": "os", "action": "access",
             "args": {"va": 0x101 * PAGE, "kind": "READ", "size": len(secret)}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_downgrade() -> Scenario:
    return _scenario(
        "downgrade",
        "The OS swaps an unprotected page under an enclave data address and "
        "waits for the enclave to write secrets into it; the write-side "
        "verification dies on the foreign line.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA"),
            {"actor": "os", "action": "map_page",
             "args": {"va": 0x300 * PAGE, "ppn": 0x300, "perms": "rw"}},
            {"actor": "os", "action": "access",
             "args": {"va": 0x300 * PAGE, "data_hex": "00" * 64}},
            {"actor": "os", "action": "map_page",
             "args": {"space": "host", "va": _A_DATA, "ppn": 0x300,
                      "perms": "rwu", "rsw": 1}},
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "data": "leak-me-please!!"}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_remap() -> Scenario:
    return _scenario(
        "remap",
        "The OS swaps two enclave data pages in the page table; the virtual "
        "offset baked into each line no longer matches.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA", image=_std_image(n_data=2)),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_BASE + PAGE, "data": "AAAA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_BASE + 2 * PAGE, "data": "BBBB"}},
            {"actor": "A", "action": "eexit", "args": {}},
            {"actor": "os", "action": "map_page",
             "args": {"space": "host", "va": _A_BASE + PAGE, "ppn": 0x102,
                      "perms": "rwu", "rsw": 1}},
            {"actor": "os", "action": "map_page",
             "args": {"space": "host", "va": _A_BASE + 2 * PAGE, "ppn": 0x101,
                      "perms": "rwu", "rsw": 1}},
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_BASE + PAGE, "kind": "READ", "size": 4}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_perm_flip() -> Scenario:
    return _scenario(
        "perm-flip",
        "The OS makes an enclave data page executable; the page-table bits "
        "inside the tweak disagree with the initialization and fetch fails.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA"),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "data": "shellcode-bytes="}},
            {"actor": "A", "action": "eexit", "args": {}},
            {"actor": "os", "action": "map_page",
             "args": {"space": "host", "va": _A_DATA, "ppn": 0x101,
                      "perms": "rwxu", "rsw": 1}},
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "kind": "FETCH", "size": 4}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_physical_replay() -> Scenario:
    line = 0x101 * PAGE // 64
    return _scenario(
        "physical-replay",
        "A physical attacker restores an old (ciphertext, tag) image of a "
        "line after the enclave overwrote it; the write counter has moved on.",
        [_OS, _HOST_A, _ENCLAVE_A, _PHYS],
        [
            _spawn("host", "hA"),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "balance=100.00$$"}},
            {"actor": "phys", "action": "snapshot_lines", "save_as": "old",
             "args": {"lines": [line]}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "balance=000.13$$"}},
            {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "old"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "kind": "READ", "size": 16}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_dram_duplicate() -> Scenario:
    return _scenario(
        "dram-duplicate-toggle",
        "A tampered DRAM module holds two copies of an enclave page and "
        "toggles between them: the current copy stays readable, any stale "
        "copy fails on its counter binding.",
        [_OS, _HOST_A, _ENCLAVE_A, _PHYS],
        [
            _spawn("host", "hA"),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "generation-one.."}},
            {"actor": "phys", "action": "snapshot_lines", "save_as": "copyA",
             "args": {"page_ppn": 0x101}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "generation-two.."}},
            {"actor": "phys", "action": "snapshot_lines", "save_as": "copyB",
             "args": {"page_ppn": 0x101}},
            {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "copyA"}},
            {"actor": "A", "action": "access", "expect_trap": "AUTH",
             "args": {"va": _A_DATA, "kind": "READ", "size": 16}},
            {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "copyB"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "kind": "READ", "size": 16, "check": "generation-two.."}},
            {"actor": "phys", "action": "restore_lines", "args": {"snapshot_var": "copyA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "kind": "READ", "size": 16}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_swap_replay() -> Scenario:
    return _scenario(
        "swap-replay",
        "The OS keeps a stale sealed copy from an earlier swap cycle and "
        "replays it; the metadata pins exactly one valid sealed version.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA"),
            {"actor": "os", "action": "swap_out", "save_as": "sealed1",
             "args": {"handle_var": "hA", "va": _A_DATA, "temp_ppn": 0x400}},
            {"actor": "os", "action": "swap_in",
             "args": {"handle_var": "hA", "va": _A_DATA, "sealed_var": "sealed1"}},
            {"actor": "os", "action": "swap_out", "save_as": "sealed2",
             "args": {"handle_var": "hA", "va": _A_DATA, "temp_ppn": 0x400}},
            {"actor": "os", "action": "swap_in",
             "args": {"handle_var": "hA", "va": _A_DATA, "sealed_var": "sealed1"}},
        ],
        "DETECTED", "SwapAuthFailure",
    )


def _scn_swap_double_copy() -> Scenario:
    return _scenario(
        "swap-double-copy",
        "The OS swaps a page out but keeps the original mapping, hoping for "
        "two live copies; the monitor destroyed the original lines.",
        [_OS, _HOST_A, _ENCLAVE_A],
        [
            _spawn("host", "hA"),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "keep-me-resident"}},
            {"actor": "A", "action": "eexit", "args": {}},
            {"actor": "os", "action": "swap_out", "save_as": "sealed",
             "args": {"handle_var": "hA", "va": _A_DATA, "temp_ppn": 0x400}},
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access",
             "args": {"va": _A_DATA, "kind": "READ", "size": 16}},
        ],
        "DETECTED", "AUTH",
    )


_SHM_A_VA = 0x6000_0000
_SHM_B_VA = 0x7000_0000


def _shm_world(secret0: int, secret1: int) -> list[dict]:
    """Two enclaves, one shared physical page, enclave A prepares and fills it."""
    return [
        _spawn("host", "hA"),
        _spawn("host", "hB", base=_B_BASE, ppn_start=0x110,
               meta_ppn=0x210, thread_ppn=0x211,
               image=_std_image(fill="9300000013000000")),
        {"actor": "os", "action": "map_page",
         "args": {"space": "host", "va": _SHM_A_VA, "ppn": 0x180,
                  "perms": "rwu", "rsw": 3}},
        {"actor": "os", "action": "map_page",
         "args": {"space": "host", "va": _SHM_B_VA, "ppn": 0x180,
                  "perms": "rwu", "rsw": 3}},
        {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
        {"actor": "A", "action": "write_csr",
         "args": {"name": "urange", "value": [_SHM_A_VA, PAGE, True]}},
        {"actor": "A", "action": "write_csr", "args": {"name": "usid0", "value": secret0}},
        {"actor": "A", "action": "write_csr", "args": {"name": "usid1", "value": secret1}},
        {"actor": "A", "action": "eprepare",
         "args": {"va": _SHM_A_VA, "page_type": "shm", "perms": "rwu"}},
        {"actor": "A", "action": "access",
         "args": {"va": _SHM_A_VA, "data": "cross-enclave-msg"}},
        {"actor": "A", "action": "eexit", "args": {}},
        {"actor": "host", "action": "eenter", "args": {"handle_var": "hB"}},
        {"actor": "B", "action": "write_csr",
         "args": {"name": "urange", "value": [_SHM_B_VA, PAGE, True]}},
    ]


def _scn_shm_happy_path() -> Scenario:
    steps = _shm_world(0x1111, 0x2222) + [
        {"actor": "B", "action": "write_csr", "args": {"name": "usid0", "value": 0x1111}},
        {"actor": "B", "action": "write_csr", "args": {"name": "usid1", "value": 0x2222}},
        {"actor": "B", "action": "access",
         "args": {"va": _SHM_B_VA, "kind": "READ", "size": 17,
                  "check": "cross-enclave-msg"}},
        {"actor": "B", "action": "eexit", "args": {}},
    ]
    return _scenario(
        "shm-happy-path",
        "Two enclaves agree on an 80-bit secret and exchange data through a "
        "shared page at native speed, each through its own mapping.",
        [_OS, _HOST_A, _ENCLAVE_A, _ENCLAVE_B], steps, "ALLOWED",
    )


def _scn_shm_wrong_key() -> Scenario:
    steps = _shm_world(0x1111, 0x2222) + [
        {"actor": "B", "action": "write_csr", "args": {"name": "usid0", "value": 0xBAD}},
        {"actor": "B", "action": "write_csr", "args": {"name": "usid1", "value": 0x2222}},
        {"actor": "B", "action": "access",
         "args": {"va": _SHM_B_VA, "kind": "READ", "size": 17}},
    ]
    return _scenario(
        "shm-wrong-key",
        "An enclave without the shared secret maps the shared page and reads; "
        "the session id in its tweak is wrong.",
        [_OS, _HOST_A, _ENCLAVE_A, _ENCLAVE_B], steps, "DETECTED", "AUTH",
    )


def _scn_shm_brute_force() -> Scenario:
    steps = _shm_world(0x1111, 0x2222)
    for i, guess in enumerate((0xDEAD0, 0xDEAD1, 0xDEAD2)):
        steps.append({"actor": "B", "action": "write_csr",
                      "args": {"name": "usid0", "value": guess}})
        steps.append({"actor": "B", "action": "access",
                      "expect_trap": "AUTH" if i < 2 else None,
                      "args": {"va": _SHM_B_VA, "kind": "READ", "size": 17}})
    return _scenario(
        "shm-brute-force",
        "A rogue enclave probes shared-memory keys; the monitor's fault "
        "handler terminates it at the configured threshold (3).",
        [_OS, _HOST_A, _ENCLAVE_A, _ENCLAVE_B], steps, "TERMINATED",
    )


def _scn_encid_brute_force() -> Scenario:
    steps = [
        _spawn("host", "hV"),
        _spawn("host", "hX", base=_B_BASE, ppn_start=0x110,
               meta_ppn=0x210, thread_ppn=0x211,
               image=_std_image(fill="ffff0000eeee0000")),
        # map the victim's deduplicated code page into the attacker's range
        # at the same relative offset
        {"actor": "os", "action": "map_page",
         "args": {"space": "host", "va": _B_BASE, "ppn": 0x100,
                  "perms": "rxu", "rsw": 2}},
        {"actor": "host", "action": "eenter", "args": {"handle_var": "hX"}},
        {"actor": "X", "action": "access", "expect_trap": "AUTH",
         "args": {"va": _B_BASE, "kind": "READ", "size": 8}},
        {"actor": "X", "action": "access", "expect_trap": "AUTH",
         "args": {"va": _B_BASE, "kind": "READ", "size": 8}},
        {"actor": "X", "action": "access",
         "args": {"va": _B_BASE, "kind": "READ", "size": 8}},
    ]
    return _scenario(
        "encid-brute-force",
        "An attacker enclave maps a victim's shared code page at the right "
        "offset and probes for an identity collision; every miss is an "
        "authentication fault and the monitor terminates the prober.",
        [_OS, _HOST_A, {"name": "X", "kind": "ENCLAVE", "space": "host",
                        "handle_var": "hX"}],
        steps, "TERMINATED",
    )


def _scn_privilege_separation() -> Scenario:
    va = 0x500 * PAGE
    secret = "kernel-only-data"
    return _scenario(
        "privilege-separation",
        "No ranges, no colors: S-mode writes under its privilege bits and "
        "the identical user-mode mapping cannot read it back -- privilege "
        "separation straight from the tweak.",
        [_OS, _HOST_A],
        [
            {"actor": "os", "action": "map_page",
             "args": {"va": va, "ppn": 0x500, "perms": "rwu"}},
            {"actor": "os", "action": "map_page",
             "args": {"space": "host", "va": va, "ppn": 0x500, "perms": "rwu"}},
            {"actor": "os", "action": "access", "args": {"va": va, "data": secret}},
            {"actor": "os", "action": "access",
             "args": {"va": va, "kind": "READ", "size": 16, "check": secret}},
            {"actor": "host", "action": "access",
             "args": {"va": va, "kind": "READ", "size": 16}},
        ],
        "DETECTED", "AUTH",
    )


def _scn_code_dedup() -> Scenario:
    code_check = {"kind": "READ", "size": 8, "check_hex": _CODE_FILL}
    return _scenario(
        "code-dedup",
        "Two instances of one image share a single physical code page: the "
        "identity-derived color is equal so both can execute it, while their "
        "data stays separated by runtime id.",
        [_OS, _HOST_A, _ENCLAVE_A,
         {"name": "A2", "kind": "ENCLAVE", "space": "host", "handle_var": "hA2"}],
        [
            _spawn("host", "hA"),
            _spawn("host", "hA2", base=_B_BASE, ppn_start=0x110,
                   meta_ppn=0x210, thread_ppn=0x211,
                   page_ppn_overrides={"0": 0x100}),
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA"}},
            {"actor": "A", "action": "access", "args": {"va": _A_BASE, **code_check}},
            {"actor": "A", "action": "access", "args": {"va": _A_DATA, "data": "instance-1-data!"}},
            {"actor": "A", "action": "eexit", "args": {}},
            {"actor": "host", "action": "eenter", "args": {"handle_var": "hA2"}},
            {"actor": "A2", "action": "access", "args": {"va": _B_BASE, **code_check}},
            {"actor": "A2", "action": "access",
             "args": {"va": _B_BASE + PAGE, "kind": "READ", "size": 16,
                      "check_hex": "00" * 16}},
            {"actor": "A2", "action": "eexit", "args": {}},
        ],
        "ALLOWED",
    )


def builtin_suite() -> list[Scenario]:
    """The security-analysis regression suite: every attack family plus the
    two benign interaction scenarios."""
    return [
        _scn_os_read_enclave(),
        _scn_downgrade(),
        _scn_remap(),
        _scn_perm_flip(),
        _scn_physical_replay(),
        _scn_dram_duplicate(),
        _scn_swap_replay(),
        _scn_swap_double_copy(),
        _scn_shm_wrong_key(),
        _scn_shm_brute_force(),
        _scn_encid_brute_force(),
        _scn_privilege_separation(),
        _scn_shm_happy_path(),
        _scn_code_dedup(),
    ]


__all__ = [
    "Actor",
    "Scenario",
    "ScenarioRunner",
    "ScriptError",
    "Step",
    "Verdict",
    "builtin_suite",
    "dump_scenarios",
    "load_scenarios",
    "run_scenario",
    "spawn_enclave",
]
