"""The package's public names, the README sketch that uses them, and the
value semantics of its types."""

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
    "ConvergenceReport": lambda: harness.batch_statistics(
        _mixed(), _observable(), hm_sim.MembraneModel.uniform(), 100,
        hm_sim.RandomSource(3)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_types_compare_and_hash_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({hash(a), hash(b)}) == 2 and len({a, b}) == 2
