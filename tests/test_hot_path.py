"""No enum member load on the access path.

On CPython 3.11 ``EnumType`` defines ``__getattr__``, so ``AccessKind.WRITE``
in a function body takes the slow attribute hook, several times the cost of
a plain class attribute load, and a read hit through the tweak cache made
three such loads.  The hot functions compare against module globals bound
once at import instead.  Wall time cannot hold that; this test reads the
functions' source and fails on any ``Enum.MEMBER`` load back in their
bodies."""

import ast
import enum
import inspect
import textwrap

import pytest

from servas_sim import aead, cache, cli, image, machine, mee, monitor, scenarios, tweak
from servas_sim.machine import AccessKind
from servas_sim.tweak import PageType

PACKAGE_ENUMS = frozenset(
    obj for module in (aead, cache, cli, image, machine, mee, monitor, scenarios, tweak)
    for obj in vars(module).values()
    if isinstance(obj, type) and issubclass(obj, enum.Enum)
    and obj.__module__.startswith("servas_sim."))

HOT = [
    machine.Machine.access,
    machine.Machine._line_access,
    machine._check_pte,
    machine.Machine.pinned_page,
    machine.CsrFile._map_sids,
    cache.TweakTaggedCache.read,
    cache.TweakTaggedCache.update,
    cache.TweakTaggedCache._match,
    cache.TweakTaggedCache._install,
    mee.Mee.read,
    mee.Mee.write,
    tweak.compose_sw_tweak,
    tweak.select_sid,
    tweak.classify_tweak,
    scenarios.ScenarioRunner._act_access,
]


def _resolve(expr, names: dict):
    """The object a ``Name`` or dotted ``Name.attr...`` expression names in
    ``names``, or None for anything else."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, names), expr.attr, None)
    return None


def enum_member_loads(fn) -> list[str]:
    """Every ``Enum.MEMBER`` load in ``fn``'s body (its signature's defaults
    and annotations are evaluated once, not per call) where ``Enum`` names
    one of the package's enum classes in ``fn``'s module."""
    source, first = inspect.getsourcelines(fn)
    node = ast.parse(textwrap.dedent("".join(source))).body[0]
    found = []
    for stmt in node.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                cls = _resolve(sub.value, fn.__globals__)
                if cls in PACKAGE_ENUMS and sub.attr in cls.__members__:
                    found.append(f"{ast.unparse(sub)} at line {first + sub.lineno - 1}")
    return found


def test_the_package_enums_are_found():
    assert {cls.__name__ for cls in PACKAGE_ENUMS} >= {
        "AccessKind", "PageType", "EvictionMode", "ImagePageType",
        "EnclaveState", "DispositionKind"}


def _loads_members(kind, ptype):
    read = AccessKind.READ
    return kind is machine.AccessKind.WRITE or ptype is PageType.SHM or kind is read


def test_the_guard_sees_a_member_load():
    assert [f.split(" at ")[0] for f in enum_member_loads(_loads_members)] == [
        "AccessKind.READ", "machine.AccessKind.WRITE", "PageType.SHM"]


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__qualname__)
def test_no_enum_member_load_on_the_access_path(fn):
    assert enum_member_loads(fn) == [], (
        f"{fn.__module__}.{fn.__qualname__} loads an enum member; bind it as a "
        "module global instead")
