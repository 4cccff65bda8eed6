"""Span tracing of servas_sim's layers from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: name, start, end,
the enclosing span and the kind of exception the call raised, if any.  A
wrapped module function is replaced under every ``servas_sim`` module name
that binds it, so calls made through ``from .x import f`` bindings are
traced too.  ``Tracer.uninstall()`` puts every original object back and
``Tracer.restored()`` checks that it did.

Spans stay in memory; ``layer_metrics()`` reduces them to the per-layer
metrics once the traced unit of work is done.  Self time is a span's
duration minus the durations of its direct children.  Calls nest strictly
(one thread, synchronous calls), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, owner, attribute, span name).  owner None means a module function.
TARGETS = [
    ("servas_sim.aead", "AesGcmAead", "seal", "aead.seal"),
    ("servas_sim.aead", "AesGcmAead", "open", "aead.open"),
    ("servas_sim.aead", "Ascon128Aead", "seal", "aead.seal"),
    ("servas_sim.aead", "Ascon128Aead", "open", "aead.open"),
    ("servas_sim.mee", "Mee", "write", "mee.write"),
    ("servas_sim.mee", "Mee", "read", "mee.read"),
    ("servas_sim.mee", "Mee", "destroy", "mee.destroy"),
    ("servas_sim.machine", "Machine", "compose_for_access", "tweak.compose"),
    ("servas_sim.machine", None, "classify_tweak", "tweak.classify"),
    ("servas_sim.machine", "Machine", "access", "machine.access"),
    ("servas_sim.machine", "Machine", "write_csr", "machine.write_csr"),
    ("servas_sim.cache", "TweakTaggedCache", "read", "cache.read"),
    ("servas_sim.cache", "TweakTaggedCache", "update", "cache.update"),
    ("servas_sim.cache", "TweakTaggedCache", "invalidate", "cache.invalidate"),
    ("servas_sim.cache", "TweakTaggedCache", "invalidate_all", "cache.invalidate_all"),
    ("servas_sim.cache", None, "simulate_eviction", "cache.simulate_eviction"),
    ("servas_sim.cache", None, "eviction_grid", "cache.eviction_grid"),
    ("servas_sim.image", None, "build_image", "image.build"),
    ("servas_sim.image", None, "load_enclave_image", "image.load"),
    ("servas_sim.image", "EnclaveImage", "validate", "image.validate"),
    ("servas_sim.image", "EnclaveImage", "pack", "image.pack"),
    ("servas_sim.image", "EnclaveImage", "encid", "image.encid"),
    ("servas_sim.image", "EnclaveImage", "wrap", "image.wrap"),
    ("servas_sim.scenarios", None, "run_scenario", "scenarios.run"),
    ("servas_sim.cli", None, "main", "cli.main"),
] + [
    ("servas_sim.monitor", "SecurityMonitor", call, f"monitor.{call}")
    for call in ("ecreate", "eenter", "eexit", "interrupt", "eprepare", "emod",
                 "edestroy", "swap_out", "swap_in", "handle_auth_fault")
]

MONITOR_CALLS = [t[3].split(".", 1)[1] for t in TARGETS if t[0] == "servas_sim.monitor"]

CACHE_METHODS = ("cache.read", "cache.update", "cache.invalidate", "cache.invalidate_all")

_TRAP_KINDS = {"AUTH": "auth", "PAGE_FAULT": "page", "PRIVILEGE": "priv",
               "INVALID_COMBINATION": "invalid"}

# Every per-layer metric with its unit, in report order.  BENCHMARK.json's
# ``per_layer`` list mirrors this table (selftest.py checks that it does).
PER_LAYER = [
    ("aead.seal.calls", "count"), ("aead.open.calls", "count"),
    ("aead.open.fail", "count"), ("aead.busy_s", "s"),
    ("mee.write.calls", "count"), ("mee.read.calls", "count"),
    ("mee.destroy.calls", "count"), ("mee.read.fail", "count"),
    ("mee.self_s", "s"), ("mee.write.redundant", "count"),
    ("mee.write.useful_ratio", "ratio"),
    ("tweak.compose.calls", "count"), ("tweak.compose.busy_s", "s"),
    ("tweak.compose.us_p50", "us"), ("tweak.classify.busy_s", "s"),
    ("machine.access.calls", "count"), ("machine.access.m_calls", "count"),
    ("machine.access.s_calls", "count"), ("machine.access.u_calls", "count"),
    ("machine.access.self_s", "s"), ("machine.write_csr.calls", "count"),
    ("machine.trap.auth", "count"), ("machine.trap.page", "count"),
    ("machine.trap.priv", "count"), ("machine.trap.invalid", "count"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.tweak_mismatches", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.self_s", "s"), ("cache.simulate_eviction.calls", "count"),
    ("cache.simulate_eviction.ms_p50", "ms"), ("cache.eviction_grid.busy_s", "s"),
    ("image.build.calls", "count"), ("image.encid.calls", "count"),
    ("image.busy_s", "s"),
] + [
    (f"monitor.{c}.{m}", u) for c in MONITOR_CALLS
    for m, u in (("calls", "count"), ("ms_p50", "ms"),
                 ("mee_writes", "count/call"), ("mee_reads", "count/call"))
] + [
    ("monitor.self_s", "s"),
    ("scenarios.run.calls", "count"), ("scenarios.steps", "count"),
    ("scenarios.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_unit_s", "s"), ("trace.traced_unit_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
]

# Metrics that must repeat exactly for one seed.
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "count/call")]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, exception kind, tag]; the
        # tag is the privilege of an access, whether a write was redundant,
        # or the verdict of a scenario run.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._write_shadow: dict = {}
        self.caches: dict[int, object] = {}

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, orig, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagger = {"machine.access": self._tag_access, "mee.write": self._tag_write}.get(name)
        is_cache = name in CACHE_METHODS
        keep_result = name == "scenarios.run"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            if is_cache:
                self.caches[id(args[0])] = args[0]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                rec[4] = getattr(exc, "kind", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if keep_result:
                rec[5] = result
            return result

        return wrapper

    @staticmethod
    def _tag_access(args, kwargs):
        return args[4] if len(args) > 4 else kwargs["prv"]

    def _tag_write(self, args, kwargs):
        """True when the write repeats the line's previous plaintext and
        tweak.  Keyed by engine object, which the shadow keeps alive, so a
        recycled id() cannot alias two engines."""
        mee, line, plaintext, sw = args[:4]
        lines = self._write_shadow.setdefault(id(mee), (mee, {}))[1]
        now = (bytes(plaintext), sw.to_int())
        redundant = lines.get(line) == now
        lines[line] = now
        return redundant

    def install(self) -> None:
        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(mod_name)
        mods = [m for n, m in sys.modules.items()
                if n == "servas_sim" or n.startswith("servas_sim.")]
        for mod_name, owner_name, attr, span in TARGETS:
            mod = sys.modules[mod_name]
            if owner_name is not None:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(orig, span))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, span)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """Every patched name holds its original object again."""
        return all(getattr(owner, attr) is orig for owner, attr, orig in self._patched)

    # --- reduction ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        monitor_of = [-1] * n  # innermost enclosing monitor span, or itself
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
            if s[0].startswith("monitor."):
                monitor_of[i] = i
            elif p >= 0:
                monitor_of[i] = monitor_of[p]

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def calls(name):
            return len(idx(name))

        def self_s(prefix):
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0].startswith(prefix))

        def busy_s(prefix):
            """Inclusive time of the outermost spans under a name prefix."""
            total = 0.0
            for i, s in enumerate(spans):
                if s[0].startswith(prefix):
                    p = s[3]
                    while p >= 0 and not spans[p][0].startswith(prefix):
                        p = spans[p][3]
                    if p < 0:
                        total += dur[i]
            return total

        def p50(name, scale):
            d = [dur[i] for i in idx(name)]
            return statistics.median(d) * scale if d else 0.0

        def failed(name):
            return sum(1 for i in idx(name) if spans[i][4] is not None)

        out: dict[str, float] = {}
        out["aead.seal.calls"] = calls("aead.seal")
        out["aead.open.calls"] = calls("aead.open")
        out["aead.open.fail"] = failed("aead.open")
        out["aead.busy_s"] = busy_s("aead.")

        writes = calls("mee.write")
        redundant = sum(1 for i in idx("mee.write") if spans[i][5])
        out["mee.write.calls"] = writes
        out["mee.read.calls"] = calls("mee.read")
        out["mee.destroy.calls"] = calls("mee.destroy")
        out["mee.read.fail"] = failed("mee.read")
        out["mee.self_s"] = self_s("mee.")
        out["mee.write.redundant"] = redundant
        out["mee.write.useful_ratio"] = (writes - redundant) / writes if writes else 0.0

        out["tweak.compose.calls"] = calls("tweak.compose")
        out["tweak.compose.busy_s"] = busy_s("tweak.compose")
        out["tweak.compose.us_p50"] = p50("tweak.compose", 1e6)
        out["tweak.classify.busy_s"] = busy_s("tweak.classify")

        access = idx("machine.access")
        out["machine.access.calls"] = len(access)
        for prv, label in ((3, "m"), (1, "s"), (0, "u")):
            out[f"machine.access.{label}_calls"] = sum(1 for i in access if spans[i][5] == prv)
        out["machine.access.self_s"] = self_s("machine.access")
        out["machine.write_csr.calls"] = calls("machine.write_csr")
        traps = dict.fromkeys(_TRAP_KINDS.values(), 0)
        for i in access:
            kind = spans[i][4]
            if kind in _TRAP_KINDS:
                traps[_TRAP_KINDS[kind]] += 1
        for label, count in traps.items():
            out[f"machine.trap.{label}"] = count

        hits = sum(c.hits for c in self.caches.values())
        misses = sum(c.misses for c in self.caches.values())
        out["cache.hits"] = hits
        out["cache.misses"] = misses
        out["cache.tweak_mismatches"] = sum(c.tweak_mismatches for c in self.caches.values())
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["cache.self_s"] = sum(dur[i] - child[i] for i, s in enumerate(spans)
                                  if s[0] in CACHE_METHODS)
        out["cache.simulate_eviction.calls"] = calls("cache.simulate_eviction")
        out["cache.simulate_eviction.ms_p50"] = p50("cache.simulate_eviction", 1e3)
        out["cache.eviction_grid.busy_s"] = busy_s("cache.eviction_grid")

        out["image.build.calls"] = calls("image.build")
        out["image.encid.calls"] = calls("image.encid")
        out["image.busy_s"] = busy_s("image.")

        mee_ops = {}
        for op in ("mee.write", "mee.read"):
            for i in idx(op):
                mon = monitor_of[i]
                if mon >= 0:
                    key = (spans[mon][0], op)
                    mee_ops[key] = mee_ops.get(key, 0) + 1
        for call in MONITOR_CALLS:
            name = f"monitor.{call}"
            n_calls = calls(name)
            out[f"{name}.calls"] = n_calls
            out[f"{name}.ms_p50"] = p50(name, 1e3)
            out[f"{name}.mee_writes"] = mee_ops.get((name, "mee.write"), 0) / n_calls if n_calls else 0.0
            out[f"{name}.mee_reads"] = mee_ops.get((name, "mee.read"), 0) / n_calls if n_calls else 0.0
        out["monitor.self_s"] = self_s("monitor.")

        out["scenarios.run.calls"] = calls("scenarios.run")
        out["scenarios.steps"] = sum(spans[i][5].at_step + 1 for i in idx("scenarios.run"))
        out["scenarios.self_s"] = self_s("scenarios.run")
        out["cli.main.self_s"] = self_s("cli.main")
        return out
