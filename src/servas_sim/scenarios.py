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

An action's arguments are the keyword-only parameters of its ``_act_*``
handler; :func:`_bind` checks a step's ``args`` against them, as it checks
the scenario, actor, step and verdict objects against their dataclass
fields.  A key that names no argument, an argument given twice, a missing
required one, or a value that is not an instance of the annotation (a
JSON ``true`` is not an integer) is a :class:`ScriptError` naming the
action and the argument.  Three spellings convert a value:

* ``X_var`` names a value saved by an earlier step (``save_as``);
* ``X_hex`` gives the bytes of a ``bytes`` argument in hex;
* text given for a ``bytes`` argument means its UTF-8 bytes.

An enum argument (``kind``, ``page_type``) takes a member name in any case,
and an object whose keys are integers (register numbers, region page
indices) takes them as JSON text.

A step is bound on its first run, inside the error handling of the run,
and the binding is kept on the :class:`Step` (an ``image`` manifest is
built into its image then), so a scenario run again at any seed binds
nothing; a step with an ``X_var`` key is bound on every run, as saved
values are per run.  A binding that raises is not kept.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
import typing
from dataclasses import asdict, dataclass, field
from enum import EnumMeta
from typing import Literal

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
    check_capacity,
)
from .tweak import (
    PRV_S,
    PRV_U,
    InvalidCombination,
    PageType,
    RangeReg,
)

PAGE = 4096

# module globals: an enum attribute load costs several times as much
_READ, _WRITE = AccessKind.READ, AccessKind.WRITE


class ScriptError(Exception):
    """The scenario itself is malformed (unknown action, bad args, actor
    breaking the single-hart rules)."""


# --- the argument binder ----------------------------------------------------------

_NO = object()  # what a converter returns for a value it cannot take


def _take(conv: tuple, value, where: str):
    exact, convert = conv
    return value if type(value) in exact else convert(value, where)


def _converter(ann) -> tuple[frozenset, typing.Callable]:
    """``(exact, convert)`` for one annotation: a value whose type is in
    ``exact`` is taken as it is; ``convert(value, where)`` returns any other
    value converted, or ``_NO``."""
    origin, args = typing.get_origin(ann), typing.get_args(ann)
    if origin is types.UnionType:
        parts = [_converter(a) for a in args]
        return frozenset().union(*(exact for exact, _ in parts)), lambda v, where: next(
            (got for got in (_take(p, v, where) for p in parts) if got is not _NO), _NO)
    if origin is Literal:
        return frozenset(), lambda v, where: v if type(v) is str and v in args else _NO
    if origin in (list, tuple, dict):  # list[X], tuple[X, ...], dict[int, X]
        item = _converter(args[origin is dict])

        def convert(value, where):
            if type(value) is not (dict if origin is dict else list) or origin is dict and not all(
                    str(k).isdecimal() for k in value):  # JSON object keys are text
                return _NO
            pairs = [(int(k), v) for k, v in value.items()] if origin is dict else enumerate(value)
            got = [(k, _take(item, v, f"{where}[{k}]")) for k, v in pairs]
            if any(v is _NO for _, v in got):
                return _NO
            return dict(got) if origin is dict else origin(v for _, v in got)
        return frozenset(), convert
    if isinstance(ann, EnumMeta):
        return frozenset({ann}), lambda v, where: (
            ann.__members__.get(v.upper(), _NO) if type(v) is str else _NO)
    if isinstance(ann, type) and issubclass(ann, _Record):
        return frozenset({ann}), lambda v, where: _build(ann, v, where)
    if ann is bytes:
        return frozenset({bytes}), lambda v, where: v.encode() if type(v) is str else _NO
    return frozenset({ann}), lambda v, where: _NO


_JSON_NAMES = {int: "an integer", str: "text", bytes: "bytes", dict: "an object",
               list: "a list", tuple: "a list", type(None): "null"}


def _describe(ann) -> str:
    """The annotation in the words of the JSON a scenario file holds."""
    origin, args = typing.get_origin(ann), typing.get_args(ann)
    if origin is types.UnionType:
        return " or ".join(map(_describe, args))
    if origin is Literal or isinstance(ann, EnumMeta):
        return "one of " + ", ".join(args or ann.__members__)
    return _JSON_NAMES.get(origin or ann) or (
        "an object" if issubclass(ann, _Record) else f"a saved {ann.__name__}")


@functools.cache
def _spellings(fn) -> tuple[dict, frozenset]:
    """Every key ``fn``'s arguments can be given under, mapped to
    ``(argument, spelling, exact, convert)``, and the required arguments.
    The arguments are the parameters that can be passed by keyword; the
    positional-only ones (a handler's runner and actor) are not bound."""
    hints = typing.get_type_hints(fn)
    keys, required = {}, set()
    for p in inspect.signature(fn).parameters.values():
        if p.kind is not p.POSITIONAL_ONLY:
            conv = _converter(hints[p.name])
            keys[p.name] = (p.name, None, *conv)
            keys[p.name + "_var"] = (p.name, "_var", *conv)
            if bytes in conv[0]:
                keys[p.name + "_hex"] = (p.name, "_hex", *conv)
            if p.default is p.empty:
                required.add(p.name)
    return keys, frozenset(required)


def _bind(fn, args, where: str, variables: dict | None = None) -> dict:
    """The keyword arguments of ``fn`` that the JSON object ``args`` gives,
    checked and converted (see the module docstring).  ``X_var`` keys are
    only known when ``variables`` are."""
    if type(args) is not dict:
        raise ScriptError(f"{where} must be an object, got {args!r:.80}")
    keys, required = _spellings(fn)
    kwargs = {}
    for key, value in args.items():
        spec = keys.get(key)
        if spec is None or variables is None and spec[1] == "_var":
            raise ScriptError(f"{where}: unknown argument {key!r}")
        name, spelling, exact, convert = spec
        if name in kwargs:
            raise ScriptError(f"{where}: argument {name!r} given twice")
        if spelling == "_var":
            if type(value) is not str or value not in variables:
                raise ScriptError(f"{where} {key}: no saved value {value!r:.80}")
            value = variables[value]
        elif spelling == "_hex":
            try:
                value = bytes.fromhex(value)
            except (TypeError, ValueError):
                raise ScriptError(f"{where} {key} must be hex text, got {value!r:.80}") from None
        if type(value) not in exact:
            got = convert(value, f"{where} {key}")
            if got is _NO:
                want = _describe(typing.get_type_hints(fn)[name])
                raise ScriptError(f"{where} {key} must be {want}, got {value!r:.80}")
            value = got
        kwargs[name] = value
    if not required <= kwargs.keys():
        raise ScriptError(f"{where}: missing {', '.join(sorted(required - kwargs.keys()))}")
    return kwargs


def _build(fn, args, where: str):
    """``fn`` called with the arguments the JSON object ``args`` gives."""
    return fn(**_bind(fn, args, where))


class _Record:
    """A scenario-file object: the binder builds it from a JSON object
    whose keys are its fields, and ``to_dict`` gives them back in order."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Verdict(_Record):
    outcome: str  # ALLOWED | DETECTED | TERMINATED | DATA_MISMATCH | NO_TRAP
    detail: str | None = None
    at_step: int | None = None


@dataclass(frozen=True)
class Actor(_Record):
    name: str
    kind: Literal["OS", "HOST", "ENCLAVE", "PHYSICAL"]
    space: str | None = None
    handle_var: str | None = None

    @property
    def prv(self) -> int:
        """The privilege the actor's software runs at."""
        return PRV_S if self.kind == "OS" else PRV_U


@dataclass(frozen=True)
class Step(_Record):
    actor: str
    action: str
    args: dict = field(default_factory=dict)
    expect_trap: str | None = None
    save_as: str | None = None

    @functools.cached_property
    def bound(self) -> dict | None:
        """The action's arguments, bound on the step's first run and kept,
        or None for a step with an ``X_var`` key, bound on every run.  A
        binding that raises is not kept."""
        if type(self.args) is dict and any(key.endswith("_var") for key in self.args):
            return None
        return self.bind({})

    def bind(self, variables: dict) -> dict:
        """The action's arguments (see the module docstring), with a manifest
        given for ``spawn_enclave``'s or ``build_image``'s ``image`` built
        into its image."""
        kwargs = _bind(ACTIONS[self.action], self.args, self.action, variables)
        if type(kwargs.get("image")) is dict:
            kwargs["image"] = image_from_manifest(kwargs["image"])
        return kwargs


@dataclass(frozen=True)
class Scenario(_Record):
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
        return _build(cls, d, "scenario")


def load_scenarios(text: str) -> list[Scenario]:
    """Parse a scenario file: a JSON object with a ``scenarios`` list.  Text
    that is not JSON, or is nested too deeply to parse, is a
    :class:`ScriptError`."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScriptError(f"malformed scenario file: {exc}") from exc
    try:
        items = doc["scenarios"] if isinstance(doc, dict) else doc
        return [Scenario.from_dict(item) for item in items]
    except (KeyError, TypeError) as exc:
        raise ScriptError(f"malformed scenario file: {exc}") from exc


def dump_scenarios(scenarios: list[Scenario]) -> str:
    return json.dumps({"version": 1, "scenarios": [s.to_dict() for s in scenarios]},
                      indent=2)


def spawn_enclave(sm: SecurityMonitor, image: EnclaveImage, space: str, base: int,
                  ppn_start: int, stack_pages: int, meta_ppn: int, thread_ppn: int,
                  ppn_overrides: dict[int, int] | None = None) -> EnclaveHandle:
    """The OS maps the enclave region per the image descriptors, then the
    host creates the enclave.  Region page j (image pages, then the stack
    pages) maps to ``ppn_start + j`` unless ``ppn_overrides`` names j.  A
    negative base, more pages than the monitor can own, or a host space
    that is missing (an actor with a null space, given none) or that its
    metadata page cannot hold is refused as :meth:`SecurityMonitor.ecreate`
    would refuse it, before the OS maps anything."""
    if base < 0:
        raise InvalidImage(f"enclave region: base {base:#x} is negative")
    check_capacity(space, image, stack_pages)
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


class Snapshot(dict):
    """Raw DRAM lines as ``snapshot_lines`` saved them, line index to
    (ciphertext, tag): the only value ``restore_lines`` puts back."""


def _page_ctx(*, page_type: PageType, perms: str, sid: int | None = None) -> PageCtx:
    """An ``emod`` ``old`` or ``new`` context."""
    return PageCtx(page_type, perms_from_str(perms), sid=sid)


class ScenarioRunner:
    """Executes one scenario on a fresh machine.

    Each ``_act_<action>`` handler takes the runner and the acting actor
    positionally; its keyword-only parameters are the action's arguments.
    ``space`` defaults to the actor's address space and ``handle`` to the
    value the actor's ``handle_var`` names."""

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

    def _var(self, name: str | None):
        if name not in self.vars:
            raise ScriptError(f"undefined variable {name!r}")
        return self.vars[name]

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

    def _act_access(self, actor: Actor, /, *, va: int, kind: AccessKind | None = None,
                    size: int = 1, data: bytes | None = None, check: bytes | None = None,
                    space: str | None = None):
        if kind is None:
            kind = _READ if data is None else _WRITE
        result = self.machine.access(space or actor.space, va, kind, actor.prv,
                                     data=data, size=size)
        if check is not None and result != check:
            raise _DataMismatch(f"read {result!r}, expected {check!r}")
        return result

    def _act_map_page(self, actor: Actor, /, *, va: int, ppn: int, perms: str = "rw",
                      rsw: int = 0, space: str | None = None):
        self.machine.map_page(actor.prv, space or actor.space, va, ppn, perms, rsw)

    def _act_unmap_page(self, actor: Actor, /, *, va: int, space: str | None = None):
        self.machine.unmap_page(actor.prv, space or actor.space, va)

    def _act_write_csr(self, actor: Actor, /, *, name: str, value: int | list):
        if isinstance(value, list):
            if len(value) != 3:
                raise ScriptError(f"write_csr value must be an integer or [base, size, enabled], "
                                  f"got {value!r:.80}")
            base, size, enabled = value
            value = RangeReg(base, size, bool(enabled))
        self.machine.write_csr(actor.prv, name, value)

    def _act_build_image(self, actor: Actor, /, *, image: dict):
        return image  # built from its manifest at binding (Step.bind)

    def _act_spawn_enclave(self, actor: Actor, /, *, image: dict | EnclaveImage, base: int,
                           ppn_start: int, meta_ppn: int, thread_ppn: int,
                           stack_pages: int = 1,
                           page_ppn_overrides: dict[int, int] | None = None,
                           space: str | None = None):
        return spawn_enclave(self.sm, image, space or actor.space, base, ppn_start,
                             stack_pages, meta_ppn, thread_ppn, page_ppn_overrides)

    def _act_ecreate(self, actor: Actor, /, *, image: EnclaveImage | bytes, base: int,
                     meta_ppn: int, thread_ppn: int, stack_pages: int = 1,
                     space: str | None = None):
        return self.sm.ecreate(space or actor.space, image, base, stack_pages, meta_ppn,
                               thread_ppn)

    def _act_eenter(self, actor: Actor, /, *, handle: EnclaveHandle | None = None,
                    args: dict[int, int] | None = None):
        self.sm.eenter(handle or self._var(actor.handle_var), args)

    def _act_eexit(self, actor: Actor, /, *, returns: dict[int, int] | None = None):
        self.sm.eexit(returns)

    def _act_interrupt(self, actor: Actor, /):
        self.sm.interrupt()

    def _act_eprepare(self, actor: Actor, /, *, va: int, page_type: PageType, perms: str):
        self.sm.eprepare(va, page_type, perms_from_str(perms))

    def _act_edestroy(self, actor: Actor, /, *, va: int):
        self.sm.edestroy(va)

    def _act_emod(self, actor: Actor, /, *, va: int, old: dict, new: dict):
        self.sm.emod(va, _build(_page_ctx, old, "emod old"), _build(_page_ctx, new, "emod new"))

    def _act_egetsealkey(self, actor: Actor, /):
        return self.sm.egetsealkey()

    def _act_swap_out(self, actor: Actor, /, *, va: int, temp_ppn: int,
                      handle: EnclaveHandle | None = None):
        return self.sm.swap_out(handle or self._var(actor.handle_var), va, temp_ppn)

    def _act_swap_in(self, actor: Actor, /, *, va: int, sealed: bytes,
                     handle: EnclaveHandle | None = None):
        self.sm.swap_in(handle or self._var(actor.handle_var), va, sealed)

    def _act_snapshot_lines(self, actor: Actor, /, *, lines: list[int] | None = None,
                            page_ppn: int | None = None):
        if (lines is None) == (page_ppn is None):
            raise ScriptError("snapshot_lines takes one of lines and page_ppn")
        if lines is None:
            base = page_ppn * PAGE // 64
            lines = range(base, base + 64)
        return Snapshot(self.machine.phys_snapshot(lines))

    def _act_restore_lines(self, actor: Actor, /, *, snapshot: Snapshot):
        self.machine.phys_restore(snapshot)

    def _act_flip_bit(self, actor: Actor, /, *, line: int, bit: int, target: str = "ciphertext"):
        self.machine.phys_flip_bit(line, bit, target)

    def _act_set_reg(self, actor: Actor, /, *, reg: int, value: int):
        self.machine.set_reg(reg, value)

    def _act_check_reg(self, actor: Actor, /, *, reg: int, equals: int):
        value = self.machine.get_reg(reg)
        if value != equals:
            raise _DataMismatch(f"reg x{reg} == {value}, expected {equals}")

    def _act_check_data(self, actor: Actor, /, *, var: str, equals: bytes):
        left = self._var(var)
        if left != equals:
            raise _DataMismatch(f"{left!r} != {equals!r}")

    # -- execution ---------------------------------------------------------------

    def _exec(self, step: Step):
        actor = self.actors[step.actor]
        self._gate_actor(actor, step.action)
        handler = ACTIONS.get(step.action)
        if handler is None:
            raise ScriptError(f"unknown action {step.action!r}")
        try:
            kwargs = step.bound
            return handler(self, actor, **(step.bind(self.vars) if kwargs is None else kwargs))
        except ValueError as exc:  # a value the manifest, machine or monitor refused
            raise ScriptError(f"bad args for {step.action}: {exc}") from exc

    def run(self) -> Verdict:
        for i, step in enumerate(self.scenario.steps):
            try:
                result = self._exec(step)
            except _TRAPLIKE as exc:
                if (isinstance(exc, AuthenticationException)
                        and exc.disposition is DispositionKind.ENCLAVE_TERMINATED):
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


# Every scenario action, by name: the ``_act_*`` handlers.
ACTIONS = {name[len("_act_"):]: fn for name, fn in vars(ScenarioRunner).items()
           if name.startswith("_act_")}


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


def _do(actor: str, action: str, *, expect_trap: str | None = None,
        save_as: str | None = None, **args) -> dict:
    """One step: ``actor`` does ``action`` with ``args``."""
    return {"actor": actor, "action": action, "args": args, "expect_trap": expect_trap,
            "save_as": save_as}


def _std_image(n_data: int = 1, fill: str = _CODE_FILL) -> dict:
    pages = [{"index": 0, "perms": "rx", "type": "shenclave", "fill": fill}]
    for j in range(n_data):
        pages.append({"index": 1 + j, "perms": "rw", "type": "regular", "fill": ""})
    return {"entry_offset": 0, "pages": pages}


def _spawn(actor: str, save_as: str, base: int = _A_BASE, ppn_start: int = 0x100,
           meta_ppn: int = 0x200, thread_ppn: int = 0x201, image: dict | None = None,
           **extra) -> dict:
    return _do(actor, "spawn_enclave", save_as=save_as, image=image or _std_image(), base=base,
               ppn_start=ppn_start, stack_pages=1, meta_ppn=meta_ppn, thread_ppn=thread_ppn,
               **extra)


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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data=secret),
            _do("A", "eexit"),
            _do("os", "map_page", va=0x101 * PAGE, ppn=0x101, perms="rw"),
            _do("os", "access", va=0x101 * PAGE, kind="READ", size=len(secret)),
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
            _do("os", "map_page", va=0x300 * PAGE, ppn=0x300, perms="rw"),
            _do("os", "access", va=0x300 * PAGE, data_hex="00" * 64),
            _do("os", "map_page", space="host", va=_A_DATA, ppn=0x300, perms="rwu", rsw=1),
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data="leak-me-please!!"),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_BASE + PAGE, data="AAAA"),
            _do("A", "access", va=_A_BASE + 2 * PAGE, data="BBBB"),
            _do("A", "eexit"),
            _do("os", "map_page", space="host", va=_A_BASE + PAGE, ppn=0x102, perms="rwu", rsw=1),
            _do("os", "map_page", space="host", va=_A_BASE + 2 * PAGE, ppn=0x101, perms="rwu",
                rsw=1),
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_BASE + PAGE, kind="READ", size=4),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data="shellcode-bytes="),
            _do("A", "eexit"),
            _do("os", "map_page", space="host", va=_A_DATA, ppn=0x101, perms="rwxu", rsw=1),
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, kind="FETCH", size=4),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data="balance=100.00$$"),
            _do("phys", "snapshot_lines", save_as="old", lines=[line]),
            _do("A", "access", va=_A_DATA, data="balance=000.13$$"),
            _do("phys", "restore_lines", snapshot_var="old"),
            _do("A", "access", va=_A_DATA, kind="READ", size=16),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data="generation-one.."),
            _do("phys", "snapshot_lines", save_as="copyA", page_ppn=0x101),
            _do("A", "access", va=_A_DATA, data="generation-two.."),
            _do("phys", "snapshot_lines", save_as="copyB", page_ppn=0x101),
            _do("phys", "restore_lines", snapshot_var="copyA"),
            _do("A", "access", expect_trap="AUTH", va=_A_DATA, kind="READ", size=16),
            _do("phys", "restore_lines", snapshot_var="copyB"),
            _do("A", "access", va=_A_DATA, kind="READ", size=16, check="generation-two.."),
            _do("phys", "restore_lines", snapshot_var="copyA"),
            _do("A", "access", va=_A_DATA, kind="READ", size=16),
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
            _do("os", "swap_out", save_as="sealed1", handle_var="hA", va=_A_DATA, temp_ppn=0x400),
            _do("os", "swap_in", handle_var="hA", va=_A_DATA, sealed_var="sealed1"),
            _do("os", "swap_out", save_as="sealed2", handle_var="hA", va=_A_DATA, temp_ppn=0x400),
            _do("os", "swap_in", handle_var="hA", va=_A_DATA, sealed_var="sealed1"),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, data="keep-me-resident"),
            _do("A", "eexit"),
            _do("os", "swap_out", save_as="sealed", handle_var="hA", va=_A_DATA, temp_ppn=0x400),
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_DATA, kind="READ", size=16),
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
        _do("os", "map_page", space="host", va=_SHM_A_VA, ppn=0x180, perms="rwu", rsw=3),
        _do("os", "map_page", space="host", va=_SHM_B_VA, ppn=0x180, perms="rwu", rsw=3),
        _do("host", "eenter", handle_var="hA"),
        _do("A", "write_csr", name="urange", value=[_SHM_A_VA, PAGE, True]),
        _do("A", "write_csr", name="usid0", value=secret0),
        _do("A", "write_csr", name="usid1", value=secret1),
        _do("A", "eprepare", va=_SHM_A_VA, page_type="shm", perms="rwu"),
        _do("A", "access", va=_SHM_A_VA, data="cross-enclave-msg"),
        _do("A", "eexit"),
        _do("host", "eenter", handle_var="hB"),
        _do("B", "write_csr", name="urange", value=[_SHM_B_VA, PAGE, True]),
    ]


def _scn_shm_happy_path() -> Scenario:
    steps = _shm_world(0x1111, 0x2222) + [
        _do("B", "write_csr", name="usid0", value=0x1111),
        _do("B", "write_csr", name="usid1", value=0x2222),
        _do("B", "access", va=_SHM_B_VA, kind="READ", size=17, check="cross-enclave-msg"),
        _do("B", "eexit"),
    ]
    return _scenario(
        "shm-happy-path",
        "Two enclaves agree on an 80-bit secret and exchange data through a "
        "shared page at native speed, each through its own mapping.",
        [_OS, _HOST_A, _ENCLAVE_A, _ENCLAVE_B], steps, "ALLOWED",
    )


def _scn_shm_wrong_key() -> Scenario:
    steps = _shm_world(0x1111, 0x2222) + [
        _do("B", "write_csr", name="usid0", value=0xBAD),
        _do("B", "write_csr", name="usid1", value=0x2222),
        _do("B", "access", va=_SHM_B_VA, kind="READ", size=17),
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
        steps.append(_do("B", "write_csr", name="usid0", value=guess))
        steps.append(_do("B", "access", expect_trap="AUTH" if i < 2 else None, va=_SHM_B_VA,
                         kind="READ", size=17))
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
        _do("os", "map_page", space="host", va=_B_BASE, ppn=0x100, perms="rxu", rsw=2),
        _do("host", "eenter", handle_var="hX"),
        _do("X", "access", expect_trap="AUTH", va=_B_BASE, kind="READ", size=8),
        _do("X", "access", expect_trap="AUTH", va=_B_BASE, kind="READ", size=8),
        _do("X", "access", va=_B_BASE, kind="READ", size=8),
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
            _do("os", "map_page", va=va, ppn=0x500, perms="rwu"),
            _do("os", "map_page", space="host", va=va, ppn=0x500, perms="rwu"),
            _do("os", "access", va=va, data=secret),
            _do("os", "access", va=va, kind="READ", size=16, check=secret),
            _do("host", "access", va=va, kind="READ", size=16),
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
            _do("host", "eenter", handle_var="hA"),
            _do("A", "access", va=_A_BASE, **code_check),
            _do("A", "access", va=_A_DATA, data="instance-1-data!"),
            _do("A", "eexit"),
            _do("host", "eenter", handle_var="hA2"),
            _do("A2", "access", va=_B_BASE, **code_check),
            _do("A2", "access", va=_B_BASE + PAGE, kind="READ", size=16, check_hex="00" * 16),
            _do("A2", "eexit"),
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
    "ACTIONS",
    "Actor",
    "Scenario",
    "ScenarioRunner",
    "ScriptError",
    "Snapshot",
    "Step",
    "Verdict",
    "builtin_suite",
    "dump_scenarios",
    "load_scenarios",
    "run_scenario",
    "spawn_enclave",
]
