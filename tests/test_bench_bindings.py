"""The benchmark binds hm_sim names from outside the package.

``bench/spans.py`` wraps layer functions by module and attribute name, and
``bench/worker.py`` calls hm_sim through module aliases.  Deleting or
renaming one of those names, or reordering the sampler's arguments, breaks
``bench/run.py --trace 1`` with an AttributeError far from the change; these
tests catch it in the package's own suite.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from hm_sim import harness
from hm_sim.bloch import PureState, pure_to_density
from hm_sim.dynamics import MembraneModel, RandomSource
from hm_sim.geometry import canonical_observable

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The expressions through which bench/worker.py reaches each hm_sim module.
WORKER_ALIASES = {
    "h": "harness",
    "d": "dynamics",
    "s": "serialize",
    "self.bloch": "bloch",
    "self.dynamics": "dynamics",
    "self.harness": "harness",
    "self.serialize": "serialize",
    "self.s": "serialize",
    "hm_sim.cli": "cli",
}

MIXED = {"kind": "preset", "name": "maximally_mixed"}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_traced_name_resolves(spans):
    for _, module, path, _ in spans.TRACED:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)


def test_every_hm_sim_name_the_worker_calls_exists():
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    names = {
        (WORKER_ALIASES[ast.unparse(node.value)], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in WORKER_ALIASES
    }
    assert ("harness", "simulate_statistics") in names and len(names) >= 10
    missing = [
        f"hm_sim.{module}.{attr}"
        for module, attr in sorted(names)
        if not hasattr(importlib.import_module(f"hm_sim.{module}"), attr)
    ]
    assert not missing


def test_traced_run_records_the_sampler_and_membrane_extras(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Called through the module, whose bindings the tracer wraps.
        harness.simulate_statistics(harness.ExperimentConfig(
            2, MIXED, {"kind": "canonical"}, {"kind": "uniform"}, 100, 7))
        harness.universal_average_experiment(
            2, MIXED, {"kind": "canonical"}, 2, 3, 10, 7)
    finally:
        tracer.uninstall()
    extras = [(name, info) for _, _, name, _, _, _, info in tracer.spans]
    assert ("harness.sample_elementary_outcomes",
            {"trials": 100, "model": "uniform", "n": 2, "workers": 1}) in extras
    assert ("harness.universal_average", {"membranes": 3}) in extras


@pytest.mark.parametrize("model", ["uniform", "cellular", "solipsistic"])
def test_sampler_draws_each_chunk_from_one_chunk_stream(monkeypatch, model):
    # The bench's dynamics.chunk_stream span and its harness.chunk_fill
    # metric count chunks through RandomSource.chunk_stream: one call per
    # chunk index, ceil(T / CHUNK_TRIALS) in all.
    calls = []
    chunk_stream = RandomSource.chunk_stream

    def recorded(self, job, chunk):
        calls.append((job, chunk))
        return chunk_stream(self, job, chunk)

    monkeypatch.setattr(RandomSource, "chunk_stream", recorded)
    membrane = {
        "uniform": MembraneModel.uniform(),
        "cellular": MembraneModel.cellular(np.full(50, 0.02)),
        "solipsistic": MembraneModel.solipsistic(),
    }[model]
    state = pure_to_density(PureState.normalized([0.6, 0.48, 0.64]))
    chunk = harness.CHUNK_TRIALS
    for trials, workers in ((1, 1), (chunk, 2), (chunk + 1, 1), (3 * chunk - 7, 2)):
        calls.clear()
        harness.sample_elementary_outcomes(
            state, canonical_observable(3), membrane, trials, RandomSource(5),
            job=2, workers=workers,
        )
        chunks = -(-trials // chunk)
        assert sorted(calls) == [(2, c) for c in range(chunks)]
