"""Command-line front end.

Subcommands:

* ``scenarios`` -- run the builtin attack/interaction suite or a JSON
  scenario file; exit 0 iff every verdict matches its expectation.
* ``evictions`` -- tweak-cache eviction Monte Carlo over a parameter grid,
  emitted as CSV (plus an optional gnuplot script).
* ``overhead`` -- inline vs tweak-cache tag-storage arithmetic as CSV.
* ``image`` -- pack, unpack or wrap enclave image containers.

Every command is deterministic: ``overhead`` draws nothing, the others
draw under ``--seed``, with the environment variable ``SERVAS_SIM_SEED``
as the fallback seed.  Exit codes: 0 success, 1 verdict mismatch, 2 usage
or script error.

Importing this module loads only ``cache`` and ``tweak`` of the package;
each command imports the other layers it drives when it runs, so
``evictions`` and ``overhead`` load neither the machine, the monitor nor
cryptography.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from pathlib import Path

from . import cache
from .cache import EvictionMode, TcCfg, eviction_grid, overhead_sweep
from .tweak import voffset_bits

EVICTION_CSV_SCHEMA = "servas-sim eviction-csv v1"
OVERHEAD_CSV_SCHEMA = "servas-sim overhead-csv v1"


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("SERVAS_SIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SERVAS_SIM_SEED takes an integer, not {text!r}") from None


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(x, 0) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"{name} takes a comma list of integers, not {text!r}") from None


def _parse_range(text: str, name: str) -> list[int]:
    """``a:b:step`` (or ``a:b``) inclusive range, of at most the row
    bound's points, or a comma list."""
    if ":" not in text:
        return _parse_int_list(text, name)
    try:
        parts = [int(x, 0) for x in text.split(":")]
    except ValueError:
        raise ValueError(f"{name} takes a:b, a:b:step or a comma list, not {text!r}") from None
    if len(parts) > 3:
        raise ValueError(f"range {text} has {len(parts)} fields, not a:b or a:b:step")
    if parts[2:] == [0]:
        raise ValueError(f"range {text} has a step of 0")
    points = range(parts[0], parts[1] + 1, *parts[2:])
    if points[cache.ROW_LIMIT:]:  # no len(): it overflows on a huge range
        raise ValueError(f"range {text} lists more than the row bound of "
                         f"{cache.ROW_LIMIT:,} points")
    return list(points)


def _parse_tc(text: str) -> list[TcCfg]:
    points = []
    for part in text.split(","):
        n_tweak, _, voffl = part.partition(":")
        try:
            points.append((int(n_tweak, 0), int(voffl, 0)))
        except ValueError:
            raise ValueError(f"--tc point {part!r} is not n_tweak:b_voffsetL") from None
    return [TcCfg(n_tweak=n, voffset_low_bits=v) for n, v in points]


def _out_stream(path: str | None):
    """A context for the file at ``path``, closed on the way out, or for
    stdout (left open) for none or ``-``."""
    if not path or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


# --- scenarios ----------------------------------------------------------------


def _text_report(results, stream) -> None:
    for name, expected, got in results:
        status = "PASS" if expected == got else "FAIL"
        stream.write(f"{status} {name}: expected {_fmt_verdict(expected)}, "
                     f"got {_fmt_verdict(got)}\n")
    n_fail = sum(1 for _, e, g in results if e != g)
    stream.write(f"{len(results) - n_fail}/{len(results)} scenarios matched\n")


def _fmt_verdict(v) -> str:
    detail = f"({v.detail})" if v.detail else ""
    return f"{v.outcome}{detail}@{v.at_step}"


def _junit_report(results, stream) -> None:
    from xml.etree import ElementTree as ET

    suite = ET.Element("testsuite", name="servas-sim-scenarios",
                       tests=str(len(results)),
                       failures=str(sum(1 for _, e, g in results if e != g)))
    for name, expected, got in results:
        case = ET.SubElement(suite, "testcase", classname="scenario", name=name)
        if expected != got:
            failure = ET.SubElement(case, "failure",
                                    message=f"expected {_fmt_verdict(expected)}, "
                                            f"got {_fmt_verdict(got)}")
            failure.text = json.dumps({"expected": expected.to_dict(),
                                       "observed": got.to_dict()})
    stream.write(ET.tostring(suite, encoding="unicode") + "\n")


def cmd_scenarios(args) -> int:
    from .scenarios import builtin_suite, load_scenarios, run_scenario

    seed = _seed_from(args)
    if args.fault_threshold < 1:
        raise ValueError(f"--fault-threshold must be at least 1, got {args.fault_threshold}")
    if args.path is None or args.path == "builtin":
        scenarios = builtin_suite()
    else:
        scenarios = load_scenarios(Path(args.path).read_text())
    if args.filter:
        scenarios = [s for s in scenarios if args.filter in s.name]
        if not scenarios:
            raise ValueError(f"no scenario matches filter {args.filter!r}")
    results = []
    for scenario in scenarios:
        got = run_scenario(scenario, seed=seed, fault_threshold=args.fault_threshold)
        results.append((scenario.name, scenario.expected, got))
    with _out_stream(args.out) as stream:
        (_junit_report if args.report == "junit" else _text_report)(results, stream)
    return 0 if all(e == g for _, e, g in results) else 1


# --- analytics ------------------------------------------------------------------


_GNUPLOT_EVICTIONS = """\
# gnuplot script for the eviction CSV (first two rows are schema + header)
set datafile separator ","
set key top left
set xlabel "tweaks inserted"
set ylabel "eviction probability"
plot "{csv}" every ::2 using 3:(strcol(4) eq "{mode}" ? $5 : 1/0) \\
     with points title "{mode}"
"""


def cmd_evictions(args) -> int:
    seed = _seed_from(args)
    rows = eviction_grid(
        _parse_int_list(args.entries, "--entries"), _parse_int_list(args.ways, "--ways"),
        _parse_range(args.tweaks, "--tweaks"), trials=args.trials, seed=seed,
    )
    with _out_stream(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow([EVICTION_CSV_SCHEMA])
        writer.writerow(["n_entries", "ways", "n_tweaks", "mode", "probability",
                         "trials", "seed"])
        writer.writerows(rows)
    if args.gnuplot:
        Path(args.gnuplot).write_text(
            _GNUPLOT_EVICTIONS.format(csv=args.out or "-", mode=EvictionMode.TOTAL.value))
    return 0


def cmd_overhead(args) -> int:
    tc = args.tc
    if tc is None:
        tc = ",".join(f"{n}:{b}" for n in (32, 128, 512)
                      for b in (6, 20, voffset_bits(args.va_bits)))
    rows = overhead_sweep(_parse_range(args.lines, "--lines"), _parse_tc(tc),
                          va_bits=args.va_bits)
    with _out_stream(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow([OVERHEAD_CSV_SCHEMA])
        writer.writerow(["n_lines", "n_tweak", "b_voffsetL", "inline_bits",
                         "tc_bits", "break_even_lines"])
        writer.writerows(rows)
    return 0


# --- images -----------------------------------------------------------------------


def cmd_image(args) -> int:
    from .image import image_from_manifest, load_enclave_image

    needed = "manifest" if args.mode == "pack" else "image"
    if getattr(args, needed) is None:
        raise ValueError(f"image {args.mode} needs --{needed}")
    if args.mode == "pack":
        manifest_path = Path(args.manifest)
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed manifest: {exc}") from exc
        image = image_from_manifest(manifest, manifest_path.parent)
        Path(args.out).write_bytes(image.pack())
    elif args.mode == "unpack":
        image = load_enclave_image(Path(args.image).read_bytes(),
                                   developer_key=_image_key(args))
        manifest = {
            "entry_offset": image.entry_offset,
            "developer_id": image.developer_id.rstrip(b"\x00").decode(),
            "pages": [
                {"index": p.index,
                 "perms": "".join(f for f in "rwxug" if p.perms[f]),
                 "type": p.page_type.name.lower(),
                 "file": f"page{p.index:02d}.bin"}
                for p in image.pages
            ],
        }
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        for p in image.pages:
            (out_dir / f"page{p.index:02d}.bin").write_bytes(p.body)
    elif args.mode == "wrap":
        image = load_enclave_image(Path(args.image).read_bytes())
        key = _image_key(args)
        if key is None:
            raise ValueError("wrap needs --cpu-key")
        import random

        nonce = random.Random(f"image-wrap-{_seed_from(args)}").randbytes(12)
        Path(args.out).write_bytes(image.wrap(key, nonce))
    return 0


def _image_key(args) -> bytes | None:
    if not getattr(args, "cpu_key", None):
        return None
    from .image import DEVELOPER_ID_BYTES
    from .monitor import derive_developer_key

    cpu_key = bytes.fromhex(args.cpu_key)
    dev_id = args.developer_id.encode()
    if len(dev_id) > DEVELOPER_ID_BYTES:
        raise ValueError(f"--developer-id is longer than {DEVELOPER_ID_BYTES} bytes")
    dev_id = dev_id.ljust(DEVELOPER_ID_BYTES, b"\x00")
    return derive_developer_key(cpu_key, dev_id)


# --- entry point ---------------------------------------------------------------------


@functools.cache  # a parser keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="servas-sim",
        description="enclave-isolation simulator: scenario suite, cache analytics, images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="run attack/interaction scenarios")
    p.add_argument("path", nargs="?", default="builtin",
                   help="scenario JSON file, or 'builtin' (default)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--filter", help="run only scenarios whose name contains this")
    p.add_argument("--fault-threshold", type=int, default=3)
    p.add_argument("--report", choices=("text", "junit"), default="text")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("evictions", help="tweak-cache eviction Monte Carlo")
    p.add_argument("--entries", default="32,128")
    p.add_argument("--ways", default="1,2,4,8")
    p.add_argument("--tweaks", default="2:72:2", help="a:b:step or comma list")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="CSV file (default stdout)")
    p.add_argument("--gnuplot", help="also write a gnuplot script here")
    p.set_defaults(func=cmd_evictions)

    p = sub.add_parser("overhead", help="cache tag storage arithmetic")
    p.add_argument("--va-bits", type=int, choices=(39, 48), default=48)
    p.add_argument("--lines", default="64,128,256,512,1024,2048,4096,8192,16384")
    p.add_argument("--tc", help="comma list of n_tweak:b_voffsetL points (default: 32, 128 "
                   "and 512 entries each with 6, 20 and all voffset bits inline, all being "
                   "42 at 48 bits and 33 at 39)")
    p.add_argument("--out", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("image", help="enclave image tooling")
    p.add_argument("mode", choices=("pack", "unpack", "wrap"))
    p.add_argument("--manifest", help="pack: JSON manifest path")
    p.add_argument("--image", help="unpack/wrap: image file")
    p.add_argument("--out", required=True, help="output file (pack/wrap) or directory (unpack)")
    p.add_argument("--cpu-key", help="hex 128-bit per-CPU key (wrap/unpack of wrapped)")
    p.add_argument("--developer-id", default="devel-00")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_image)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _input_errors() -> tuple[type[Exception], ...]:
    """What ``main`` turns into exit 2: ``OSError``, ``ValueError`` and the
    input errors of the scenario and image layers.  An except clause
    evaluates this only once an error propagates, and a layer that was
    never loaded raised none of its errors, so this loads no layer."""
    errors = [OSError, ValueError]
    if scenarios := sys.modules.get(f"{__package__}.scenarios"):
        errors.append(scenarios.ScriptError)
    if image := sys.modules.get(f"{__package__}.image"):
        errors += (image.FormatError, image.ImageAuthFailure, image.InvalidImage)
    return tuple(errors)


def __getattr__(name: str):
    # ``cli.run_scenario`` is the scenario layer's runner, which tracers
    # (perfbench/spans.py) patch here; it loads that layer on first use
    if name == "run_scenario":
        from .scenarios import run_scenario

        return run_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
