"""Malformed input files end in a verdict or a clean exit 2, never in a
traceback: the builtin suite, dumped and mutated one node at a time, run
through the CLI in process."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from servas_sim.cli import main
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


def _run(path, doc):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scenarios", str(path)])
    return code, out.getvalue(), err.getvalue()


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
