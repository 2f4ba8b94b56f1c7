"""Mutated shipped manifests through the console entry point: never a traceback.

Each example sets one or two leaves of a shipped fixture's manifest to a
malformed atom and runs ``statgeom verify`` on the file.  Whatever the
mutant, the run must end with exit code 0, 1 or 2 (PASS, FAIL, or a
refusal or ERROR row) and print no traceback.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from statgeom import cli
from statgeom.fixtures import registry_manifests

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = ("example_5_2_n2", "example_5_3_k1_l2", "example_5_5_dirichlet", "example_5_6_k1_l2")
ATOMS = (float("nan"), 1e308, -1e308, 10**30, [], {}, None, True, "",
         "log(0)", "2^-1e9", "1/0", "sqrt(-1)", "((")


def _leaves(node, path=()):
    """The path of every scalar in a JSON tree, in document order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, path + (key,))]


@st.composite
def mutants(draw):
    data = registry_manifests()[draw(st.sampled_from(FIXTURES))]
    for path in draw(st.lists(st.sampled_from(_leaves(data)), min_size=1, max_size=2, unique=True)):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(ATOMS))
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a mutant's numbers may overflow
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutants())
def test_mutated_manifest_exits_without_a_traceback(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutant") / "manifest.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path), "--points", "3"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue(), err.getvalue()
