"""The benchmark binds hm_sim names from outside the package.

``bench/spans.py`` wraps layer functions by module and attribute name, and
``bench/worker.py`` calls hm_sim through module aliases.  Deleting or
renaming one of those names, or reordering the sampler's arguments, breaks
``bench/run.py --trace 1`` with an AttributeError far from the change; these
tests catch it in the package's own suite.
"""

import ast
import importlib
import inspect
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


def _hm_sim_callee(func: ast.expr):
    """The hm_sim object a worker call reaches through a module alias, or None."""
    text = ast.unparse(func)
    for alias, module in WORKER_ALIASES.items():
        if text.startswith(alias + "."):
            owner = importlib.import_module(f"hm_sim.{module}")
            for attr in text[len(alias) + 1:].split("."):
                owner = getattr(owner, attr)
            return owner
    return None


def test_every_hm_sim_call_in_the_worker_binds_to_its_signature():
    # A renamed keyword or a dropped positional parameter would only fail
    # inside a benchmark run; bind each call's shape here instead.
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    calls = [(node, _hm_sim_callee(node.func)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    calls = [(node, fn) for node, fn in calls if fn is not None]
    bound = {ast.unparse(node.func).rsplit(".", 1)[-1] for node, _ in calls}
    assert {"simulate_statistics", "universal_average_experiment",
            "born_identity_max_gap", "ExperimentConfig"} <= bound
    for node, fn in calls:
        signature = inspect.signature(fn)
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        # A ** argument forwards the keywords of the worker's own callers,
        # which a static check cannot see: only the named ones are bound.
        names = [k.arg for k in node.keywords if k.arg is not None]
        try:
            signature.bind(*node.args, **dict.fromkeys(names))
        except TypeError as err:
            pytest.fail(f"bench/worker.py: {ast.unparse(node)}: {err}")


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_parameter_names_the_spans_read_match_the_harness():
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    sampler = _function(tree, "_sampler_extra")
    names = next(ast.literal_eval(node.value) for node in ast.walk(sampler)
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "names")
    params = list(inspect.signature(harness.sample_elementary_outcomes).parameters)
    assert params[:7] == list(names)

    membranes = _function(tree, "_membranes_extra")
    keyword = next(node.left.value for node in ast.walk(membranes)
                   if isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant))
    index = next(node.slice.value for node in ast.walk(membranes)
                 if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "args")
    params = list(inspect.signature(harness.universal_average_experiment).parameters)
    assert params[index] == keyword == "membrane_samples"
