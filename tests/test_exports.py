"""The package's public names, the README sketch that uses them, the
value semantics of its types, and the guards of its library calls."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import hm_sim
from hm_sim import harness
from hm_sim.dynamics import prepare_measurement, run_measurement


def test_every_exported_name_resolves_once_in_sorted_order():
    names = hm_sim.__all__
    assert [n for n in names if not hasattr(hm_sim, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_the_readme_library_sketch_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["block_counts"].sum() == 100000


def _mixed():
    return hm_sim.DensityOperator.maximally_mixed(2)


def _observable():
    return hm_sim.canonical_observable(2)


def _trace():
    rng = hm_sim.RandomSource(3).trial_stream(0)
    return run_measurement(_mixed(), _observable(), hm_sim.MembraneModel.uniform(), rng)[1]


def _report():
    return harness.batch_reports([_mixed()], _observable(), hm_sim.MembraneModel.uniform(),
                                 100, hm_sim.RandomSource(3))[0]


# One constructor per frozen dataclass that holds arrays.  Generated
# field-wise equality would compare the arrays and raise, so these compare
# and hash by identity.
ARRAY_HOLDERS = {
    "DensityOperator": _mixed,
    "PureState": lambda: hm_sim.PureState.normalized([1.0, 1.0]),
    "BlochVector": lambda: hm_sim.BlochVector(2, np.array([0.0, 0.0, 1.0])),
    "Observable": _observable,
    "MeasurementSimplex": lambda: hm_sim.build_measurement_simplex(_observable()),
    "MembraneModel": lambda: hm_sim.MembraneModel.cellular([0.25, 0.75]),
    "CollapseTrace": _trace,
    "MeasurementPlan": lambda: prepare_measurement(_mixed(), _observable()),
    "ConvergenceReport": _report,
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_types_compare_and_hash_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({hash(a), hash(b)}) == 2 and len({a, b}) == 2


def _report_with(frequencies):
    return dataclasses.replace(_report(), empirical_frequencies=np.asarray(frequencies))


_MIXED_SPEC = {"kind": "preset", "name": "maximally_mixed"}
_E = np.eye(8)

# (guarded call, error class, message pattern): one bad input per guard that
# only a malformed library call can reach, each through a public name.
GUARDS = {
    "density-dimension": (lambda: hm_sim.DensityOperator(1, [[1.0]]),
                          hm_sim.DimensionError, "dimension must be >= 2"),
    "pure-dimension": (lambda: hm_sim.PureState(1, [1.0]),
                       hm_sim.DimensionError, "dimension must be >= 2"),
    "pure-amplitudes": (lambda: hm_sim.PureState(2, [1.0, 0.0, 0.0]),
                        hm_sim.DimensionError, "expected 2 amplitudes"),
    "eigenstate-dimension": (
        lambda: hm_sim.Observable(2, (hm_sim.PureState(3, _E[0, :3]),
                                      hm_sim.PureState(3, _E[1, :3])), (0, 1)),
        hm_sim.DimensionError, "eigenstate dimension mismatch"),
    "simplex-shape": (lambda: hm_sim.MeasurementSimplex(2, np.zeros((2, 4))),
                      hm_sim.DimensionError, "expected 2 vertices of length 3"),
    "simplex-not-regular": (lambda: hm_sim.MeasurementSimplex(3, _E[[0, 1, 2]]),
                            hm_sim.GeometryError, "not a regular inscribed simplex"),
    "project-dimension": (
        lambda: hm_sim.project_onto_membrane(hm_sim.BlochVector(3, np.zeros(8)),
                                             _observable().simplex),
        hm_sim.DimensionError, "state and simplex dimensions differ"),
    "barycentric-dimension": (
        lambda: hm_sim.barycentric_coordinates(hm_sim.BlochVector(3, np.zeros(8)),
                                               _observable().simplex),
        hm_sim.DimensionError, "point and simplex dimensions differ"),
    "born-dimension": (
        lambda: hm_sim.born_probabilities(hm_sim.DensityOperator.maximally_mixed(3),
                                          _observable()),
        hm_sim.DimensionError, "state and observable dimensions differ"),
    "prepare-dimension": (
        lambda: prepare_measurement(hm_sim.DensityOperator.maximally_mixed(3), _observable()),
        hm_sim.DimensionError, "state and observable dimensions differ"),
    "state-preset": (lambda: harness.resolve_state_spec({"kind": "preset", "name": "x"}, 2),
                     hm_sim.ConfigError, "unknown state preset 'x'"),
    "observable-kind": (lambda: harness.resolve_observable_spec({"kind": "x"}, 2),
                        hm_sim.ConfigError, "unknown observable kind 'x'"),
    "membrane-kind": (lambda: harness.resolve_membrane_spec({"kind": "x"}),
                      hm_sim.ConfigError, "unknown membrane kind 'x'"),
    "expected-sum": (lambda: hm_sim.chi_square_check([1, 1], [0.5, 0.4]),
                     hm_sim.ConfigError, "expected probabilities must sum to 1"),
    "frequency-sum": (lambda: _report_with([0.5, 0.4]),
                      hm_sim.OracleMismatchError, "empirical frequencies must sum to 1"),
    "frequency-nan": (lambda: _report_with([np.nan, 0.5]),
                      hm_sim.OracleMismatchError, "empirical frequencies must sum to 1"),
    "cell-count": (
        lambda: hm_sim.universal_average_experiment(2, _MIXED_SPEC, {"kind": "canonical"},
                                                    0, 2, 10, 1),
        hm_sim.ConfigError, "cell_count must be >= 1"),
    "membrane-samples": (
        lambda: hm_sim.universal_average_experiment(2, _MIXED_SPEC, {"kind": "canonical"},
                                                    2, 0, 10, 1),
        hm_sim.ConfigError, "membrane_samples must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_each_library_guard_rejects_its_malformed_input(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()
