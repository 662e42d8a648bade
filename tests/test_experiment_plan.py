"""The plan -> summarise -> reduce protocol every experiment follows.

Driving the three steps by hand -- one spec at a time, every summary
pickled and unpickled on the way, the way the sweep ships it between
processes -- must give byte-identical ``result_to_dict`` JSON and
``main()`` text to ``run()`` (compared at ``tiny``), and must match the
outputs of the serial ``run()`` pinned in
``tests/golden/experiment_outputs.json`` (``tiny``, plus fig2 and fig6
at ``small``).  Each simulation's
``IoSystem`` must be gone before the next spec starts: a weakref proof,
with the cyclic collector off, that ``run()`` holds one live simulation
at a time.

The golden digests hash the JSON with every float written to 12
significant digits and the ``main()`` text as printed, so a change in
behaviour shows while last-bit noise from a different NumPy build does
not.  After an intended change, rewrite them with::

    PYTHONPATH=src python tests/test_experiment_plan.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import weakref
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

import repro.apps.harness as harness
from repro.experiments import ALL_EXPERIMENTS, fig1_ior_modes, fig2_lln
from repro.experiments.runner import result_to_dict

GOLDEN = Path(__file__).parent / "golden" / "experiment_outputs.json"

CASES: List[Tuple[str, str]] = [
    (name, "tiny") for name in ALL_EXPERIMENTS
] + [("fig2", "small"), ("fig6", "small")]


def _rounded(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def output_digest(payload: Dict[str, Any], text: str) -> Dict[str, str]:
    """sha256 of the JSON (floats at 12 significant digits) and of the
    ``main()`` text."""
    js = json.dumps(_rounded(payload), sort_keys=True)
    return {
        "json": hashlib.sha256(js.encode()).hexdigest(),
        "text": hashlib.sha256(text.encode()).hexdigest(),
    }


def _same(a: Any, b: Any) -> bool:
    """Deep equality that also compares NumPy arrays and dataclasses."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind in "fc"
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "__dict__") or hasattr(a, "__slots__"):
        fields = getattr(a, "__dict__", None) or {
            s: getattr(a, s) for s in a.__slots__
        }
        other = getattr(b, "__dict__", None) or {
            s: getattr(b, s) for s in b.__slots__
        }
        return _same(fields, other)
    return bool(a == b)


def _drive(module, scale: str):
    """plan -> summarise -> reduce by hand, checking every summary's
    pickle round trip and that no simulation outlives its summary."""
    specs = module.plan(scale)
    summaries: Dict[str, Any] = {}
    live: List[weakref.ref] = []
    gc.disable()
    try:
        for spec in specs:
            assert not [r for r in live if r() is not None], (
                f"a simulation outlived its summary before {spec.label!r}"
            )
            spec = spec.resolve(summaries)
            result = harness.simulate(spec)
            live.append(weakref.ref(result.iosys))
            summary = module.summarise(spec, result)
            del result
            shipped = pickle.loads(pickle.dumps(summary))
            assert _same(shipped, summary), spec.label
            summaries[spec.label] = shipped
        assert not [r for r in live if r() is not None]
    finally:
        gc.enable()
    assert list(summaries) == [s.label for s in specs]
    return module.reduce(scale, summaries)


def _outputs(module, scale: str, result) -> Tuple[str, str]:
    payload = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    return payload, module.main(scale, result=result)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "name,scale", CASES, ids=[f"{n}@{s}" for n, s in CASES]
)
def test_protocol_matches_run_and_golden(name, scale, golden):
    module = ALL_EXPERIMENTS[name]
    by_hand = _outputs(module, scale, _drive(module, scale))
    if scale == "tiny":  # at small the golden alone keeps the suite fast
        assert by_hand == _outputs(module, scale, module.run(scale))
    payload, text = by_hand
    assert output_digest(json.loads(payload), text) == (
        golden[f"{name}@{scale}"]
    )


def test_labels_are_unique_and_needs_point_backwards():
    for name, module in ALL_EXPERIMENTS.items():
        seen: set = set()
        for spec in module.plan("tiny"):
            assert spec.label and spec.label not in seen, (name, spec.label)
            assert all(n in seen for n in spec.needs), (name, spec.label)
            assert spec.cost > 0, (name, spec.label)
            seen.add(spec.label)


def test_specs_survive_pickling():
    """The sweep ships specs to workers: resolved and unresolved specs
    must pickle, and a resolved spec must compare equal after the trip."""
    for module in ALL_EXPERIMENTS.values():
        for spec in module.plan("tiny"):
            pickle.loads(pickle.dumps(spec))
            if spec.bind is None:
                assert pickle.loads(pickle.dumps(spec)) == spec


def test_fig1_and_fig2_share_one_ior_recipe():
    """fig1's first run is fig2's k=1 run: equal specs, which is what a
    plan-level dedup would key on."""
    fig1 = fig1_ior_modes.plan("small")
    fig2 = fig2_lln.plan("small")
    assert fig1[0] == fig2[0]
    assert fig1[0].label != fig2[0].label  # labels take no part
    assert fig1[1] != fig2[0]  # scratch2 is another seed
    assert fig1_ior_modes.configure("paper") == fig2_lln.configure("paper", 1)


def test_unresolved_spec_refuses_to_run():
    spec = next(s for s in ALL_EXPERIMENTS["faults"].plan("tiny") if s.needs)
    with pytest.raises(ValueError, match="unresolved"):
        harness.simulate(spec)


if __name__ == "__main__":  # pragma: no cover - rewrites the golden
    out = {}
    for name, scale in CASES:
        module = ALL_EXPERIMENTS[name]
        payload, text = _outputs(module, scale, module.run(scale))
        out[f"{name}@{scale}"] = output_digest(json.loads(payload), text)
    GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(out)} experiments)")
