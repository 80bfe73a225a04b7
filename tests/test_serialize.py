"""JSON/CSV emission and schema validation."""

import json
import math

import jsonschema
import numpy as np
import pytest
from jsonschema import Draft202012Validator

from helpers import random_pure

from hm_sim.bloch import pure_to_density
from hm_sim.dynamics import MembraneModel, RandomSource, run_measurement
from hm_sim.errors import ConfigError
from hm_sim.geometry import canonical_observable
from hm_sim.harness import ExperimentConfig, simulate_statistics
from hm_sim.serialize import (
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
    + [("report.schema.json", r) for r in _broken_reports()],
)
def test_schema_error_matches_jsonschema_validate(name, payload):
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(payload, load_schema(name))
    error = schema_error(payload, name)
    assert error is not None
    assert error.message == reference.value.message
    assert error.absolute_path == reference.value.absolute_path


@pytest.mark.parametrize(
    "name, payload",
    [("config.schema.json", SPIN), ("config.schema.json", MEASURE),
     ("report.schema.json", _report())],
)
def test_schema_error_accepts_what_jsonschema_validate_accepts(name, payload):
    jsonschema.validate(payload, load_schema(name))
    assert schema_error(payload, name) is None
