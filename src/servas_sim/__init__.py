"""Behavioral simulator of a tweak-authenticated memory-encryption isolation
primitive and the enclave architecture built on it.

Importing the package loads no submodule: each name below is looked up in
its module on first use (PEP 562), so an entry point loads only the layers
it drives."""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "AccessKind": "machine",
    "AuthenticationError": "mee",
    "Machine": "machine",
    "Mee": "mee",
    "PageType": "tweak",
    "SecurityMonitor": "monitor",
    "SwTweak": "tweak",
    "builtin_suite": "scenarios",
    "run_scenario": "scenarios",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        # not an export: ``from servas_sim import machine`` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
