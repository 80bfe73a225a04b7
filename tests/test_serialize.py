"""JSON/CSV emission and schema validation."""

import json
import math

import numpy as np
import pytest

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
    report_entry,
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
