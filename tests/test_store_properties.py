"""Hypothesis properties of the run-store record format.

Two families:

- *round-trip exactness*: whatever finite-float record Hypothesis
  builds, persist -> query -> export reproduces it byte-exactly
  (``to_json`` of the original equals ``to_json`` of the stored copy,
  and ``from_json`` inverts both);
- *schema versioning*: a record or store carrying a different
  ``schema_version`` fails loudly with
  :class:`~repro.store.SchemaMigrationError` (naming the migration
  recipe), never by silently misreading rows.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    SCHEMA_VERSION,
    RunRecord,
    RunStore,
    SchemaMigrationError,
    canonical_json,
    derive_run_id,
)

# -- strategies ----------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("C",)),
    min_size=1, max_size=24,
)
metric_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31), finite_floats,
    names,
)


@st.composite
def run_records(draw):
    kind = draw(st.sampled_from(("run", "experiment", "benchmark")))
    name = draw(names)
    metrics = draw(
        st.dictionaries(metric_keys, finite_floats, max_size=6)
    )
    config = draw(
        st.dictionaries(metric_keys, json_scalars, max_size=4)
    )
    wall = draw(st.one_of(
        st.none(),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ))
    payload = {"kind": kind, "name": name, "metrics": metrics,
               "config": config}
    return RunRecord(
        run_id=derive_run_id(payload),
        kind=kind,
        name=name,
        scale=draw(st.sampled_from(("", "paper", "small", "tiny"))),
        fingerprint=draw(st.text("0123456789abcdef", min_size=8,
                                 max_size=64)),
        config=config,
        trace_digest=draw(st.text("0123456789abcdef", max_size=64)),
        n_events=draw(st.integers(0, 10**9)),
        total_bytes=draw(st.integers(0, 10**15)),
        elapsed=draw(finite_floats),
        wall_time=wall,
        created_at=draw(st.sampled_from(
            ("", "2026-08-07T00:00:00+00:00")
        )),
        metrics=metrics,
        findings=tuple(draw(st.lists(
            st.dictionaries(metric_keys, json_scalars, max_size=3),
            max_size=3,
        ))),
        verdicts=draw(st.dictionaries(metric_keys, st.booleans(),
                                      max_size=4)),
        telemetry=draw(st.dictionaries(metric_keys, finite_floats,
                                       max_size=4)),
        notes=draw(st.text(max_size=40)),
    )


# -- round-trip exactness ------------------------------------------------------

@given(record=run_records())
@settings(max_examples=60, deadline=None)
def test_persist_query_export_is_byte_exact(record):
    with RunStore(":memory:") as store:
        assert store.put(record)
        stored = store.get(record.run_id)
    assert stored == record
    assert stored.to_json() == record.to_json()
    assert RunRecord.from_json(stored.to_json()) == record


def _non_finite_literal(token):
    raise AssertionError(f"bare {token} literal in canonical JSON")


@given(record=run_records())
@settings(max_examples=30, deadline=None)
def test_canonical_json_is_stable_and_sorted(record):
    text = record.to_json()
    assert text == canonical_json(json.loads(text))
    # a bare NaN/Infinity token is not standard JSON; the same letters
    # inside a string value (e.g. notes="Infinity") are fine
    json.loads(text, parse_constant=_non_finite_literal)


def test_non_finite_values_are_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            RunRecord(run_id="x", kind="run", name="n", fingerprint="f",
                      metrics={"m": bad})


# -- schema versioning ---------------------------------------------------------

@given(version=st.one_of(
    st.none(),
    st.integers(-5, 50).filter(lambda v: v != SCHEMA_VERSION),
))
@settings(max_examples=20, deadline=None)
def test_record_version_mismatch_raises_migration_error(version):
    payload = {"kind": "run", "name": "n"}
    data = RunRecord(
        run_id=derive_run_id(payload), kind="run", name="n",
        fingerprint="f",
    ).to_dict()
    data["schema_version"] = version
    with pytest.raises(SchemaMigrationError, match="re-ingest|re-export"):
        RunRecord.from_dict(data)


def test_store_version_mismatch_refuses_to_open(tmp_path):
    import sqlite3

    path = tmp_path / "old.sqlite"
    with RunStore(path) as store:
        pass
    conn = sqlite3.connect(path)
    conn.execute(
        "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMigrationError, match="re-ingest"):
        RunStore(path, create=False)
