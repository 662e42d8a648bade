"""Differential test of the experiment JSON boundary.

``runner._json_value`` returns values that already are plain before it
tries anything slower.  The plain recursive walk it replaced is kept
here as the oracle, and Hypothesis checks that ``json.dumps`` of the two
is byte-identical on nested containers of everything experiments stash
in their results.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensembles.tracevis import trace_diagram
from repro.experiments.runner import _json_value
from repro.ipm.events import Trace


def oracle_json_value(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: oracle_json_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): oracle_json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_json_value(v) for v in obj]
    if isinstance(obj, (str, bool, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(obj)
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return oracle_json_value(tolist())
    samples = getattr(obj, "samples", None)
    if samples is not None:
        return {"samples": oracle_json_value(samples)}
    return type(obj).__name__


@dataclasses.dataclass
class Pair:
    first: Any
    second: Any


class Metres(float):
    """A float subclass, like ``np.float64``."""


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.floats().map(Metres),
)

arrays = st.one_of(
    st.lists(st.floats(), max_size=5).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-9, 9), max_size=5).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.lists(st.booleans(), max_size=5).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.sampled_from(["write", "read", "meta"]), max_size=5).map(
        np.array
    ),
)

values = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=3), st.integers(-3, 3)),
            children,
            max_size=4,
        ),
        st.builds(Pair, children, children),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(values)
def test_json_value_matches_recursive_walk(obj):
    assert json.dumps(_json_value(obj)) == json.dumps(oracle_json_value(obj))


def test_trace_diagram_serialises_as_columns():
    tr = Trace()
    tr.record(1, "pwrite", "/f", 3, 0, 10, 0.5, 0.25)
    tr.record(0, "open", "/f", 3, 0, 0, 0.0, 0.125)
    assert _json_value(trace_diagram(tr)) == {
        "ranks": [1, 0],
        "t_start": [0.5, 0.0],
        "t_end": [0.75, 0.125],
        "kinds": ["write", "meta"],
        "nranks": 2,
        "t_min": 0.0,
        "t_max": 0.75,
    }
