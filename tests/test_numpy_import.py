"""Each entry point loads only the layers it drives: the simulated machine
never loads numpy (only the eviction Monte Carlo does, on its first call),
``import servas_sim`` loads no submodule, and the analytics commands load
neither the machine, the monitor nor cryptography."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import servas_sim
from servas_sim import machine, mee, monitor, scenarios, tweak
from servas_sim.cache import eviction_grid

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's package and
    return the JSON line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Run in a fresh interpreter, so no other test has loaded numpy first; it
# prints one JSON line, as the assertions belong to the test process.
_CHILD = """
import io, json, sys, contextlib, tempfile
from pathlib import Path

import servas_sim
from servas_sim import cli
from servas_sim.cache import CacheCfg, eviction_grid
from servas_sim.image import ImagePageType, build_image
from servas_sim.machine import AccessKind
from servas_sim.scenarios import spawn_enclave
from servas_sim.tweak import PRV_U

m = servas_sim.Machine(seed=1, cache_cfg=CacheCfg(512, 4))
sm = servas_sim.SecurityMonitor(m)
image = build_image([(0, "rx", ImagePageType.SHENCLAVE, bytes(4096)),
                     (1, "rw", ImagePageType.REGULAR, b"")])
handle = spawn_enclave(sm, image, "host", 0x4000_0000, 0x100, 1, 0x200, 0x201)
sm.eenter(handle)
for _ in range(2):
    m.access("host", 0x4000_1000, AccessKind.WRITE, PRV_U, data=b"cached")
    m.access("host", 0x4000_1000, AccessKind.READ, PRV_U, size=6)
sm.eexit()
verdicts = [servas_sim.run_scenario(s, seed=0) == s.expected
            for s in servas_sim.builtin_suite()]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["scenarios", "--seed", "0"]),
             cli.main(["overhead", "--out", str(Path(tmp) / "o.csv")])]
before = "numpy" in sys.modules
rows = eviction_grid([32], [2], [6, 12], trials=100, seed=0)
print(json.dumps({"hits": m.cache.hits, "verdicts": verdicts, "codes": codes,
                  "numpy_before": before, "numpy_after": "numpy" in sys.modules,
                  "rows": rows}))
"""


def test_the_machine_monitor_and_cli_never_load_numpy():
    """A cache-on machine with an entered enclave, the builtin suite and
    the ``scenarios`` and ``overhead`` commands leave numpy unloaded; the
    first eviction grid loads it and gives the rows it gives here."""
    out = _run_child(_CHILD)
    assert out["hits"] > 0 and all(out["verdicts"]) and out["codes"] == [0, 0]
    assert out["numpy_before"] is False
    assert out["numpy_after"] is True
    expected = eviction_grid([32], [2], [6, 12], trials=100, seed=0)
    assert [tuple(row) for row in out["rows"]] == expected


LAYERS = ["servas_sim.machine", "servas_sim.mee", "servas_sim.monitor",
          "servas_sim.scenarios", "servas_sim.image", "servas_sim.aead", "cryptography"]

_ANALYTICS_CHILD = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import servas_sim
on_import = sorted(m for m in sys.modules if m.startswith("servas_sim."))
from servas_sim import cli
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["evictions", "--entries", "32", "--ways", "2", "--tweaks", "2:6:2",
                       "--trials", "10", "--out", str(Path(tmp) / "e.csv")]),
             cli.main(["overhead", "--out", str(Path(tmp) / "o.csv")]),
             cli.main(["evictions", "--tweaks", "2:6:0"])]
print(json.dumps({"on_import": on_import, "codes": codes,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % LAYERS


def test_the_package_and_the_analytics_commands_load_no_machine_layer():
    """``import servas_sim`` loads no submodule; ``evictions`` and
    ``overhead``, and an ``evictions`` input error, then run without the
    machine, the engine, the monitor, the scenario and image layers and
    cryptography."""
    out = _run_child(_ANALYTICS_CHILD)
    assert out["on_import"] == []
    assert out["codes"] == [0, 0, 2]
    assert out["loaded"] == []


def test_the_package_exports_are_the_submodules_own_objects():
    defined_in = {"AccessKind": machine, "Machine": machine, "AuthenticationError": mee,
                  "Mee": mee, "SecurityMonitor": monitor, "PageType": tweak, "SwTweak": tweak,
                  "builtin_suite": scenarios, "run_scenario": scenarios}
    assert sorted(servas_sim.__all__) == sorted([*defined_in, "__version__"])
    for name, module in defined_in.items():
        assert getattr(servas_sim, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["access", "main", "Nope", "cache_cfg"])
def test_any_other_package_name_is_an_attribute_error(name):
    """So ``getattr(servas_sim, name, None)`` reads None, as a scan of the
    package's modules for a function expects."""
    with pytest.raises(AttributeError, match=name):
        getattr(servas_sim, name)
    assert getattr(servas_sim, name, None) is None
