"""The simulated machine never loads numpy: only the eviction Monte Carlo
does, on its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

from servas_sim.cache import eviction_grid

SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["hits"] > 0 and all(out["verdicts"]) and out["codes"] == [0, 0]
    assert out["numpy_before"] is False
    assert out["numpy_after"] is True
    expected = eviction_grid([32], [2], [6, 12], trials=100, seed=0)
    assert [tuple(row) for row in out["rows"]] == expected
