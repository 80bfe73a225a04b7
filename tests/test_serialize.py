"""JSON/CSV emission and schema validation."""

import copy
import functools
import json
import math
import operator
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from helpers import random_pure

from hm_sim.bloch import pure_to_density
from hm_sim.dynamics import MembraneModel, RandomSource, run_measurement
from hm_sim.errors import ConfigError, ReportSchemaError
from hm_sim.geometry import canonical_observable
from hm_sim.harness import ExperimentConfig, simulate_statistics
from hm_sim.serialize import (
    _conforms,
    _errors,
    csv_from_entries,
    dumps_canonical,
    envelope,
    load_config_file,
    load_schema,
    report_entry,
    schema_error,
    sig12,
    trace_to_json,
    validate_config_payload,
    validate_report_payload,
)


def test_sig12_rounding():
    assert sig12(0.7499999999999998) == 0.75
    assert sig12(1 / 3) == 0.333333333333
    assert sig12(0.0) == 0.0


def test_trace_json_is_schema_shaped():
    psi = random_pure(np.random.default_rng(3), 3)
    _, trace, _ = run_measurement(
        pure_to_density(psi),
        canonical_observable(3),
        MembraneModel.uniform(),
        RandomSource(5).trial_stream(0),
    )
    doc = trace_to_json(trace)
    payload = envelope("measure", 5, True, {}, [], trace=doc)
    validate_report_payload(payload)
    # canonical dump parses back to the rounded payload
    text = dumps_canonical(payload)
    assert json.loads(text)["trace"]["outcome_block"] == list(trace.outcome_block)


def test_report_payload_validates_and_is_deterministic():
    cfg = ExperimentConfig(
        dimension=2,
        state={"kind": "bloch", "coordinates": [math.sin(1.0), 0.0, math.cos(1.0)]},
        observable={"kind": "canonical"},
        membrane={"kind": "uniform"},
        trials=20000,
        master_seed=0xB10C,
    )
    entry = report_entry("spin-machine", simulate_statistics(cfg))
    payload = envelope("spin-machine", 0xB10C, entry["pass"], {"angle": 1.0}, [entry])
    validate_report_payload(payload)
    text1 = dumps_canonical(payload)
    entry2 = report_entry("spin-machine", simulate_statistics(cfg))
    payload2 = envelope("spin-machine", 0xB10C, entry2["pass"], {"angle": 1.0}, [entry2])
    text2 = dumps_canonical(payload2)
    assert text1 == text2


def test_csv_columns_fixed():
    cfg = ExperimentConfig(
        dimension=3,
        state={"kind": "preset", "name": "maximally_mixed"},
        observable={"kind": "canonical"},
        membrane={"kind": "uniform"},
        trials=5000,
        master_seed=7,
    )
    entry = report_entry("r0", simulate_statistics(cfg))
    text = csv_from_entries([entry])
    lines = text.strip().split("\n")
    assert lines[0] == "label,expected,observed,deviation,sigma,report"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1 / 3, abs=1e-12)
    assert first[5] == "r0"


def test_config_schema_diagnostics(tmp_path):
    good = {
        "schema_version": "1",
        "experiment": "spin-machine",
        "angle": 0.5,
        "trials": 100,
    }
    validate_config_payload(good)

    bad = dict(good, angle="wide")
    with pytest.raises(ConfigError) as err:
        validate_config_payload(bad)
    assert "angle" in str(err.value)

    broken = tmp_path / "broken.json"
    broken.write_text('{"schema_version": "1",\n  "experiment": }')
    with pytest.raises(ConfigError) as err:
        load_config_file(str(broken))
    assert "line 2" in str(err.value)

    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError):
        load_config_file(str(missing))


@pytest.mark.parametrize("name", ["config.schema.json", "report.schema.json"])
def test_shipped_schemas_are_valid_draft_2020_12(name):
    # Runs validate against the schemas without this metaschema check.
    Draft202012Validator.check_schema(load_schema(name))


SPIN = {"schema_version": "1", "experiment": "spin-machine", "angle": 0.5}
MEASURE = {
    "schema_version": "1", "experiment": "measure", "dimension": 2,
    "state": {"kind": "bloch", "coordinates": [0.0, 0.0, 1.0]},
    "observable": {"kind": "canonical"}, "membrane": {"kind": "uniform"},
}
REJECTED_CONFIGS = [
    [],
    {},
    {"schema_version": "2", "experiment": "die"},
    {"schema_version": "1", "experiment": "toss"},
    {"schema_version": "1", "experiment": "spin-machine"},
    dict(SPIN, angle="wide"),
    dict(SPIN, angle=3.2),
    dict(SPIN, trials=0),
    dict(SPIN, seed=-1),
    dict(SPIN, tolerance_sigmas=0),
    {"schema_version": "1", "experiment": "verify-born", "dimension": 9},
    {"schema_version": "1", "experiment": "verify-born", "dimension": 2.5},
    {"schema_version": "1", "experiment": "die", "start": "on_table:04"},
    {"schema_version": "1", "experiment": "die", "rolls": 0, "start": "up"},
    dict(MEASURE, dimension=161),
    dict(MEASURE, state={"kind": "pure"}),
    dict(MEASURE, state={"kind": "preset", "name": "basis"}),
    dict(MEASURE, observable={"kind": "spin_axis", "axis": [0, 1]}),
    dict(MEASURE, membrane={"kind": "cellular"}),
    dict(MEASURE, membrane={"kind": "cellular", "weights": [0.5, -0.5]}),
    {"schema_version": "1", "experiment": "universal-average", "dimension": 2},
]
# An unknown field at the root and in each closed spec, and a bad field of another command.
UNKNOWN_FIELD_CONFIGS = [
    {"schema_version": "1", "experiment": "verify-born", "dimension": 2, "trails": 5},
    {"schema_version": "1", "experiment": "die", "trials": 0},
    dict(MEASURE, state={"kind": "bloch", "coordinates": [0, 0, 1], "cordinates": []}),
    dict(MEASURE, observable={"kind": "canonical", "label": []}),
    dict(MEASURE, observable={"kind": "explicit", "labels": [0, 1],
                              "eigenstates": [{"re": [1, 0], "imag": []}]}),
    dict(MEASURE, membrane={"kind": "uniform", "weight": []}),
]


def _report():
    entry = report_entry("r0", simulate_statistics(ExperimentConfig(
        2, {"kind": "preset", "name": "maximally_mixed"}, {"kind": "canonical"},
        {"kind": "uniform"}, 100, 7)))
    return json.loads(dumps_canonical(envelope("die", 7, True, {}, [entry])))


def _broken_reports():
    for key, value in [("seed", -1), ("pass", "yes"), ("command", "toss"),
                       ("schema_version", 1), ("extra", 0), ("reports", {})]:
        yield dict(_report(), **{key: value})
    for key, value in [("observed", ["x", 0.5]), ("trials", 0),
                       ("sigma_model", "poisson"), ("chi_square", "inf")]:
        report = _report()
        report["reports"][0][key] = value
        yield report
    report = _report()
    del report["reports"][0]["pass"]
    yield report
    yield dict(_report(), trace={"dimension": 1})


@pytest.mark.parametrize(
    "name, payload",
    [("config.schema.json", c) for c in REJECTED_CONFIGS]
    + [("report.schema.json", r) for r in _broken_reports()]
    + [("config.schema.json", c) for c in UNKNOWN_FIELD_CONFIGS],
)
def test_schema_error_matches_jsonschema_validate(name, payload):
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(payload, load_schema(name))
    error = schema_error(payload, name)
    assert error is not None
    path, message, _, _ = error
    assert message == reference.value.message
    assert path == tuple(reference.value.absolute_path)


@pytest.mark.parametrize(
    "name, payload",
    [("config.schema.json", SPIN), ("config.schema.json", MEASURE),
     ("report.schema.json", _report())],
)
def test_schema_error_accepts_what_jsonschema_validate_accepts(name, payload):
    jsonschema.validate(payload, load_schema(name))
    assert schema_error(payload, name) is None


def test_a_report_that_fails_its_schema_raises_report_schema_error():
    with pytest.raises(ReportSchemaError, match="^report field meta: 5 is not of type 'object'$"):
        validate_report_payload(dict(_report(), meta=5))


# --- the in-package checker against jsonschema ------------------------------------

# What ``_errors`` decides; any other keyword raises ReportSchemaError.
CHECKED_KEYWORDS = {
    "type", "const", "enum", "required", "properties", "additionalProperties",
    "minimum", "maximum", "exclusiveMinimum", "items", "minItems", "maxItems",
    "$ref", "allOf", "if", "then",
}


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            children = list(value.values())
        elif key == "allOf":
            children = value
        elif key in ("items", "if", "then"):
            children = [value]
        else:
            children = []
        for child in children:
            yield from _subschemas(child)


@pytest.mark.parametrize("name", ["config.schema.json", "report.schema.json"])
def test_the_shipped_schemas_use_only_the_checked_keyword_subset(name):
    # A schema edit that needs another keyword fails here, not silently unchecked.
    schema = load_schema(name)
    for sub in _subschemas(schema):
        annotations = {"$schema", "$id", "title", "$defs"} if sub is schema else set()
        assert sub.keys() <= CHECKED_KEYWORDS | annotations, sub
        # The checker compares const and enum values as strings, as jsonschema does.
        assert all(isinstance(v, str) for v in [sub.get("const", "")] + sub.get("enum", []))
        assert sub.get("additionalProperties", False) is False
        if "$ref" in sub:
            prefix, _, target = sub["$ref"].rpartition("/")
            assert prefix == "#/$defs" and target in schema["$defs"]


# jsonschema.validate less its metaschema check, which is tested once above.
_VALIDATORS = {name: Draft202012Validator(load_schema(name))
               for name in ("config.schema.json", "report.schema.json")}


def _assert_schema_error_is_jsonschemas(doc, name) -> None:
    """Check ``schema_error`` gives jsonschema's verdict, message and path.

    ``_conforms`` must give the same verdict.
    """
    reference = best_match(_VALIDATORS[name].iter_errors(doc))
    error = schema_error(doc, name)
    assert (error is None) == (reference is None), doc
    schema = load_schema(name)
    assert _conforms(doc, schema, schema) is (reference is None), doc
    if reference is not None:
        path, message, _, _ = error
        assert (message, path) == (reference.message, tuple(reference.absolute_path))


def test_a_keyword_outside_the_subset_is_an_internal_error_and_never_accepted():
    # 4 meets every checked keyword here, so only the unchecked one could reject it.
    for schema in [{"multipleOf": 2}, {"type": "integer", "multipleOf": 2},
                   {"additionalProperties": True}, {"$ref": "#/x"}]:
        for check in (_conforms, lambda *args: list(_errors(*args))):
            with pytest.raises(ReportSchemaError, match="is outside the checked subset$"):
                check(4, schema, {})


@pytest.mark.parametrize("payload", [
    dict(SPIN, angle=np.float64(0.5)),
    dict(SPIN, trials=np.int64(10)),
    dict(MEASURE, state={"kind": "bloch", "coordinates": (0.0, 0.0, 1.0)}),
    dict(SPIN, angle=(0.5,)),
    (1,),
    # A bool is no number, though Python's bool is an int.
    dict(SPIN, angle=True),
    dict(MEASURE, state={"kind": "bloch", "coordinates": [0.0, False, 1.0]}),
])
def test_schema_error_hands_other_python_types_to_jsonschema(payload):
    # Decided by the checker's own type tests, which give jsonschema's verdict.
    _assert_schema_error_is_jsonschemas(payload, "config.schema.json")


def _weights(n):
    return [(i + 1) / (n * (n + 1) / 2) for i in range(n)]


UA_CONFIG = {
    "schema_version": "1", "experiment": "universal-average", "dimension": 3,
    "state": {"kind": "pure", "re": [0.6, 0.8, 0.0], "im": [0.0, 0.0, 0.0]},
    "observable": {"kind": "explicit", "labels": [1.0, 2, 3.5], "eigenstates": [
        {"re": [1, 0, 0]}, {"re": [0, 1, 0], "im": [0, 0, 0]}, {"re": [0, 0, 1]}]},
    "cells": 100, "membranes": 2, "trials_per_membrane": 100,
    "fixed_cell_weights": _weights(100),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400,
                                 int(sys.float_info.max) + 1])
@pytest.mark.parametrize("at", [0, 1, 999])
def test_a_non_finite_number_in_a_long_array_is_named_before_the_schema(bad, at):
    # A number array is checked for finiteness in C; NaN must not hide in min and max.
    weights = _weights(1000)
    weights[at] = bad
    config = dict(UA_CONFIG, cells=0, fixed_cell_weights=weights)
    with pytest.raises(ConfigError, match=f"^config field fixed_cell_weights/{at}: not a finite"):
        validate_config_payload(config)


VALID_CONFIGS = [
    dict(SPIN, trials=1000, seed=3, tolerance_sigmas=4.0),
    {"schema_version": "1", "experiment": "verify-born", "dimension": 3, "states": 10.0,
     "trials": 100},
    {"schema_version": "1", "experiment": "die", "rolls": 100, "start": "on_table:4"},
    UA_CONFIG,
    dict(MEASURE, dimension=8, state={"kind": "bloch", "coordinates": [0.01] * 63},
         observable={"kind": "canonical", "labels": [0.5, -0.5] * 4},
         membrane={"kind": "cellular", "weights": _weights(100)}),
    dict(MEASURE, state={"kind": "preset", "name": "basis", "index": 1},
         observable={"kind": "spin_axis", "axis": [0.0, 0, 1e-3]},
         membrane={"kind": "solipsistic"}),
]


def _trace_report():
    psi = random_pure(np.random.default_rng(3), 6)
    _, trace, _ = run_measurement(pure_to_density(psi), canonical_observable(6),
                                  MembraneModel.uniform(), RandomSource(5).trial_stream(0))
    doc = envelope("measure", 5, True, {"dimension": 6}, [], trace=trace_to_json(trace))
    return json.loads(dumps_canonical(doc))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_trace_coordinate_fails_the_report_check(bad):
    # Only a bug puts one there; the report check names it as a config's check does.
    report = _trace_report()
    report["trace"]["on_membrane_point"][1] = bad
    with pytest.raises(ReportSchemaError,
                       match="^report field trace/on_membrane_point/1: not a finite number$"):
        validate_report_payload(report)


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def test_a_config_deeper_than_the_recursion_limit_is_checked_without_recursion_error():
    depth = 2 * sys.getrecursionlimit()
    # An unknown root key of any depth is rejected by name.
    with pytest.raises(ConfigError, match=r"^config field <root>: Additional properties "
                                          r"are not allowed \('bogus' was unexpected\)$"):
        validate_config_payload(dict(SPIN, bogus=_nested(1.0, depth)))
    path = "/".join(["bogus"] + ["0"] * depth)
    with pytest.raises(ConfigError, match=f"^config field {path}: not a finite number$"):
        validate_config_payload(dict(SPIN, bogus=_nested(math.nan, depth)))
    # A message names a bad value by its repr, which recursion limits.
    with pytest.raises(ConfigError, match="^cannot check config: maximum recursion depth"):
        validate_config_payload(dict(SPIN, experiment=_nested(1.0, depth)))


def _many_reports():
    report = _report()
    report["reports"] *= 3
    report["reports"][1] = dict(report["reports"][1], chi_square=None, analytic_max_gap=0.0,
                                meta={"k": 1})
    return report


VALID_REPORTS = [_report(), _trace_report(), _many_reports()]

# The tags that choose an if/then branch, and the values each mutation writes.
_TAGS = ["spin-machine", "verify-born", "die", "universal-average", "measure", "pure",
         "bloch", "preset", "basis", "maximally_mixed", "canonical", "explicit",
         "spin_axis", "uniform", "solipsistic", "cellular", "binomial"]
_WRONG_TYPES = [True, False, None, "x", "1", 1, 1.0, 2.5, 10**400, math.nan, math.inf,
                [], [0.5], [0.5, 1, 2], {}, {"kind": "pure"}]
_OUT_OF_RANGE = [-1, -1.0, -1e-300, 0, 0.0, 1, 2, 3.14159265359, 3.2, 8, 9, 160, 161,
                 10**6 + 1, 10**9 + 1, 2**63, -math.inf]
_KEYS = ["extra", "angle", "index", "weights", "trace", "meta", "name", "im", "membrane"]


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _mutate(doc, data):
    """One mutation of ``doc``, in place, at a path the mutation applies to."""
    paths = list(_paths(doc))[1:]
    leaf = {path: _at(doc, path) for path in paths}
    ops = {
        "wrong type": (paths, _WRONG_TYPES),
        "out of range": ([p for p in paths if type(leaf[p]) in (int, float)], _OUT_OF_RANGE),
        "missing key": ([p for p in paths if isinstance(p[-1], str)], None),
        "extra key": ([p for p in paths if isinstance(leaf[p], dict)], _WRONG_TYPES),
        "retag": ([p for p in paths if p[-1] in ("experiment", "kind", "name", "command",
                                                   "sigma_model")], _TAGS),
        "deep item": ([p for p in paths if isinstance(p[-1], int) and len(p) > 1
                       and p[-1] >= 30], _WRONG_TYPES + _OUT_OF_RANGE),
    }
    op = data.draw(st.sampled_from([op for op, (where, _) in ops.items() if where]))
    where, values = ops[op]
    path = data.draw(st.sampled_from(where))
    parent = _at(doc, path[:-1])
    if op == "missing key":
        del parent[path[-1]]
    elif op == "extra key":
        leaf[path][data.draw(st.sampled_from(_KEYS))] = copy.deepcopy(
            data.draw(st.sampled_from(values)))
    else:
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(values)))


@pytest.mark.parametrize("name, doc", [("config.schema.json", c) for c in VALID_CONFIGS]
                         + [("report.schema.json", r) for r in VALID_REPORTS])
def test_the_unmutated_documents_are_valid(name, doc):
    jsonschema.validate(doc, load_schema(name))
    assert schema_error(doc, name) is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_schema_error_decides_mutated_configs_and_reports_as_jsonschema_does(data):
    # The checker accepts exactly what jsonschema accepts, on plain JSON values,
    # so it never accepts a document jsonschema rejects, also under an if/then.
    name, doc = data.draw(st.sampled_from(
        [("config.schema.json", c) for c in VALID_CONFIGS]
        + [("report.schema.json", r) for r in VALID_REPORTS]))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    _assert_schema_error_is_jsonschemas(doc, name)
