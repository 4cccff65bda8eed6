"""Malformed input files and arguments end in a verdict or a clean exit 2,
never in a traceback, run through the CLI in process: the builtin suite,
dumped and mutated one node at a time, the standard image, packed and
wrapped, with one byte mutation each, and the grid commands' argument
lists, with up to three token mutations each."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import std_image
from servas_sim.cli import main
from servas_sim.monitor import derive_developer_key
from servas_sim.scenarios import builtin_suite, dump_scenarios

_SUITE = json.loads(dump_scenarios(builtin_suite()))
_DROP = "(drop the node)"
_BAD_VALUES = [_DROP, None, -1, 2 ** 90, 2.5, "x", [], {}]


def _paths(node, path=()):
    """Every node below ``node``, as the keys and indices that reach it."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_SITES = list(_paths(_SUITE))
# the objects an rsw key does not belong in: eprepare args, emod contexts
_RSW_SITES = [
    (i, j, *ctx)
    for i, scenario in enumerate(_SUITE["scenarios"])
    for j, step in enumerate(scenario["steps"])
    for ctx in {"eprepare": [()], "emod": [("old",), ("new",)]}.get(step["action"], [])
]


def _mutated(path, value):
    """A copy of the suite with the node at ``path`` dropped or replaced.
    A mutation inside a scenario keeps only that scenario in the file: the
    others are unchanged builtin scenarios."""
    doc = json.loads(json.dumps(_SUITE))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    if len(path) > 2:
        doc["scenarios"] = [doc["scenarios"][path[1]]]
    return doc


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(path, doc):
    path.write_text(json.dumps(doc))
    return _main(["scenarios", str(path)])


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(path=st.sampled_from(_SITES), value=st.sampled_from(_BAD_VALUES))
def test_a_mutated_scenario_file_ends_in_a_verdict_or_exit_two(tmp_path_factory, path, value):
    """Exit 0 or 1 with every verdict reported, 1 only with a mismatch
    among them, or 2 with an error message; no exception escapes."""
    code, out, err = _run(tmp_path_factory.getbasetemp() / "fuzz.json",
                           _mutated(path, value))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ")
    else:
        assert ("FAIL " in out) == (code == 1)


@pytest.mark.parametrize("site", _RSW_SITES)
def test_an_rsw_in_a_page_context_is_an_unknown_argument(tmp_path, site):
    """Even the page type's own rsw: the type fixes it, the OS maps it."""
    i, j, *ctx = site
    code, _, err = _run(tmp_path / "suite.json",
                        _mutated(("scenarios", i, "steps", j, "args", *ctx, "rsw"), 0b11))
    assert code == 2
    assert "unknown argument 'rsw'" in err


_CPU_KEY = bytes(range(16))
_IMAGES = {
    "packed": std_image().pack(),
    "wrapped": std_image().wrap(derive_developer_key(_CPU_KEY, b"devel-00"), bytes(12)),
}


def _byte_mutated(data: bytes, kind: str, at: int, byte: int) -> bytes:
    """``data`` with one bit flipped, cut short or one byte inserted, at
    ``at`` taken modulo the places that mutation has."""
    if kind == "flip":
        at %= 8 * len(data)
        return data[:at // 8] + bytes([data[at // 8] ^ 1 << at % 8]) + data[at // 8 + 1:]
    if kind == "truncate":
        return data[:at % len(data)]
    at %= len(data) + 1
    return data[:at] + bytes([byte]) + data[at:]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(image=st.sampled_from(sorted(_IMAGES)),
       kind=st.sampled_from(["flip", "truncate", "insert"]),
       at=st.integers(0, 1 << 20), byte=st.integers(0, 255))
def test_a_mutated_image_file_is_read_or_refused_with_exit_two(tmp_path_factory, image, kind,
                                                               at, byte):
    """``image unpack`` (with the wrapping key for the wrapped image) and
    ``image wrap`` each exit 0, or 2 with an error message; no exception
    escapes."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz.img"
    path.write_bytes(_byte_mutated(_IMAGES[image], kind, at, byte))
    key = ["--cpu-key", _CPU_KEY.hex()]
    for argv in (["unpack", "--image", str(path), "--out", str(base / "unpacked"),
                  *(key if image == "wrapped" else [])],
                 ["wrap", "--image", str(path), *key, "--out", str(base / "wrapped.img")]):
        code, _, err = _main(["image", *argv])
        assert code in (0, 2)
        assert (code == 2) == err.startswith("error: ")


# The grid commands' arguments: a small valid argument list per command,
# mutated by setting an option's value, dropping a token or adding one.
_GRID_ARGV = {
    "evictions": ["--entries", "8,16", "--ways", "1,4", "--tweaks", "2:8:2", "--trials", "20",
                  "--seed", "3"],
    "overhead": ["--va-bits", "39", "--lines", "64,128", "--tc", "32:6,128:20"],
}
_ARG_VALUES = ["", "0", "-1", "1", "7", "0x10", "1_0", str(2 ** 70), "1e3", "x", ",", "1,,2",
               ":", "1:", "4:1", "1:5:0", "1:3:4:5", "9:2:-1", "32", "32:6:1", "3:6", "32:-1",
               "32:99", "32:6,", "48", "-", "٤"]
_ADDED = ["--seed", "--out", "--gnuplot", "--bogus", "extra", "-h", "--trials=5", "--tc=32:6"]
_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 9), st.sampled_from(_ARG_VALUES)),
    st.tuples(st.just("drop"), st.integers(0, 11)),
    st.tuples(st.just("add"), st.integers(0, 11), st.sampled_from(_ADDED + _ARG_VALUES)),
)


def _mutated_argv(command, mutations):
    argv = list(_GRID_ARGV[command])
    for kind, at, *value in mutations:
        if kind == "add":
            argv.insert(at % (len(argv) + 1), value[0])
        elif not argv:
            continue
        elif kind == "set":  # the token after the ``at``-th option, as first laid out
            argv[(2 * at + 1) % len(argv)] = value[0]
        else:
            del argv[at % len(argv)]
    return [command, *argv]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_GRID_ARGV)),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_grid_arguments_exit_zero_or_two(tmp_path_factory, command, mutations):
    """``evictions`` and ``overhead`` on mutated argument lists exit 0, or
    2 with an error message, the CLI's or argparse's usage error; no other
    exception escapes, and no message is the text of a Python error about
    the parsing code.  Files they are told to write land in a scratch
    directory."""
    argv = _mutated_argv(command, mutations)
    err = io.StringIO()
    with contextlib.chdir(tmp_path_factory.getbasetemp()), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit: a usage error, or help
            code = exc.code
    assert code in (0, 2), argv
    if code == 2:
        where, _, message = err.getvalue().splitlines()[-1].partition("error: ")
        assert where in ("", f"servas-sim {command}: ", "servas-sim: "), argv
        assert not any(leak in message for leak in ("invalid literal", "to unpack", "range()")), \
            argv
