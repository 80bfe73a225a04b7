"""Membrane sampling, the collapse engine, spin machine and die."""

import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest

from helpers import random_density, random_pure

import hm_sim.dynamics
import hm_sim.geometry
from hm_sim.bloch import (
    EIGEN_TOL,
    BlochVector,
    DensityOperator,
    PureState,
    bloch_to_density,
    density_to_bloch,
    pure_to_density,
)
from hm_sim.dynamics import (
    _BUCKETS,
    MembraneModel,
    RandomSource,
    _bucket_table,
    _by_columns,
    _find_cells,
    draw_breaks,
    luders_posterior,
    prepare_measurement,
    run_measurement,
    spin_machine_measure,
)
from hm_sim.errors import (
    ConfigError,
    DimensionError,
    GeometryError,
    ImpossibleOutcomeError,
    OracleMismatchError,
)
from hm_sim.geometry import (
    Observable,
    barycentric_coordinates,
    born_probabilities,
    build_measurement_simplex,
    canonical_observable,
    project_onto_membrane,
    spin_observable,
)


def make_simplex(n, labels=None):
    return build_measurement_simplex(canonical_observable(n, labels))


def break_weights(model, n, count, rng):
    """Barycentric weights of ``count`` breaking points of the membrane model.

    The sampler draws each break as a row it only needs up to scale; the
    weights are those rows normalised.
    """
    v = np.empty((count, n))
    draw_breaks(model, np.full(n, 1 / n), rng, v, np.empty(count * n))
    return v / v.sum(axis=1, keepdims=True)


def cell_index_of_weights(weights, cell_count, dimension):
    """Cell membership oracle: the slab of [0, 1) that F(w_0) falls in.

    The cells are the preimages of [i/m, (i+1)/m) under the uniform law's
    CDF of the first weight, F(w) = 1 - (1 - w)^(N-1).
    """
    w0 = np.asarray(weights, dtype=float)[..., 0]
    f = 1.0 - (1.0 - w0) ** (dimension - 1)
    return np.minimum((f * cell_count).astype(int), cell_count - 1)


def test_random_source_streams_are_reproducible_and_independent():
    src = RandomSource(12345)
    a = src.trial_stream(7).random(5)
    b = src.trial_stream(7).random(5)
    np.testing.assert_array_equal(a, b)
    c = src.trial_stream(8).random(5)
    assert not np.array_equal(a, c)
    # domain separation: trial 0 and chunk (0, 0) differ
    assert not np.array_equal(
        src.trial_stream(0).random(4), src.chunk_stream(0, 0).random(4)
    )
    with pytest.raises(ConfigError):
        RandomSource(-1)


def test_membrane_model_validation():
    assert MembraneModel.uniform().cell_count == 1
    assert MembraneModel.solipsistic().cell_count == 1
    for w in ([1.0], [0.25, 0.75], np.full(50, 0.02)):
        assert MembraneModel.cellular(w).cell_count == len(w)
    with pytest.raises(ConfigError):
        MembraneModel("bogus")
    with pytest.raises(ConfigError):
        MembraneModel.cellular([0.5, 0.6])
    with pytest.raises(ConfigError):
        MembraneModel.cellular([-0.1, 1.1])
    with pytest.raises(ConfigError):
        MembraneModel("uniform", cell_weights=np.array([1.0]))
    for bad in ([], [[0.5, 0.5]], [0.5, math.nan, 0.5], [math.nan], None):
        with pytest.raises(ConfigError):
            MembraneModel.cellular(bad)
    # Weights whose sum overflows fail on their range, with no overflow warning.
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        MembraneModel.cellular([3e292, 1.7976931348623155e308])
    # The cell count is read off the weights, not stored beside them.
    assert [f.name for f in dataclasses.fields(MembraneModel)] == ["kind", "cell_weights"]


def test_uniform_sampling_centers_on_segment_midpoint():
    s = make_simplex(2)
    rng = RandomSource(1).trial_stream(0)
    pts = break_weights(MembraneModel.uniform(), 2, 100000, rng) @ s.vertices[:, 2]
    # z-coordinate uniform on [-1, 1]: mean 0, variance 1/3
    assert abs(pts.mean()) <= 3 * math.sqrt(1 / 3 / len(pts))


def test_solipsistic_sampling_hits_only_vertices_uniformly():
    rng = RandomSource(2).trial_stream(0)
    trials = 30000
    # A solipsistic break is a vertex: it has an outcome and no interior weights.
    outcomes, weights = draw_breaks(
        MembraneModel.solipsistic(), np.full(6, 1 / 6), rng, np.empty((trials, 6)),
        np.empty(trials * 6),
    )
    assert weights is None
    freq = np.bincount(outcomes, minlength=6) / trials
    band = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
    assert np.all(np.abs(freq - 1 / 6) <= band)


def test_single_cell_membrane_is_drawwise_uniform():
    one_cell = MembraneModel.cellular([1.0])
    a = break_weights(MembraneModel.uniform(), 3, 5, RandomSource(3).trial_stream(5))
    b = break_weights(one_cell, 3, 5, RandomSource(3).trial_stream(5))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n,m", [(2, 10), (3, 7), (4, 12)])
def test_cells_have_equal_uniform_measure(n, m):
    # Oracle: uniform points on the simplex must occupy the m cells with
    # frequency 1/m each (the cells are exact equal-measure slabs).
    rng = np.random.default_rng(40 + n)
    e = rng.standard_exponential((60000, n))
    w = e / e.sum(axis=1, keepdims=True)
    idx = cell_index_of_weights(w, m, n)
    freq = np.bincount(idx, minlength=m) / len(w)
    band = 4 * math.sqrt((1 / m) * (1 - 1 / m) / len(w))
    assert np.all(np.abs(freq - 1 / m) <= band)


def adversarial_cumulative_weights():
    """Cumulative cell weights that stress every edge of the bucket lookup."""
    k = _BUCKETS
    rng = np.random.default_rng(31)
    random = np.cumsum(rng.dirichlet(np.ones(50)))
    zeros = np.cumsum([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0])
    on_edges = np.arange(1, 65) / 64.0
    below_one = random.copy()
    below_one[-1] = np.nextafter(1.0, 0.0)
    above_one = random.copy()
    above_one[-1] = np.nextafter(1.0, 2.0)
    every_bucket = np.arange(1, 8 * k + 1) / (8 * k)
    crowded = np.cumsum(rng.dirichlet(np.ones(5 * k)))
    return {
        "random": random, "zero-weight cells": zeros, "on bucket edges": on_edges,
        "last one ulp below 1": below_one, "last one ulp above 1": above_one,
        "every bucket ambiguous": every_bucket, "many more cells than buckets": crowded,
    }


@pytest.mark.parametrize("name", list(adversarial_cumulative_weights()))
def test_bucket_lookup_equals_searchsorted(name):
    # int(r * _BUCKETS) is the exact bucket of r only for a power of two.
    assert _BUCKETS & (_BUCKETS - 1) == 0
    cs = adversarial_cumulative_weights()[name]
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    keys = np.concatenate([
        cs, np.nextafter(cs, 0.0), np.nextafter(cs, 2.0),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        [0.0, np.nextafter(1.0, 0.0)],
        np.random.default_rng(32).random(50000),
    ])
    keys = keys[(keys >= 0.0) & (keys < 1.0)]
    table = _bucket_table(cs)
    found = _find_cells(cs, table, keys)
    np.testing.assert_array_equal(found, np.searchsorted(cs, keys))
    if name == "every bucket ambiguous":
        assert np.all(table < 0)
    if name == "random":
        assert np.mean(table >= 0) > 0.98


def test_only_draws_as_long_as_the_bucket_table_build_it():
    model = MembraneModel.cellular(np.full(50, 0.02))
    u = np.full(3, 1 / 3)
    draw_breaks(model, u, RandomSource(1).trial_stream(0), np.empty((_BUCKETS - 1, 3)),
                np.empty((_BUCKETS - 1) * 3))
    assert "_buckets" not in vars(model)
    draw_breaks(model, u, RandomSource(1).trial_stream(0), np.empty((_BUCKETS, 3)),
                np.empty(_BUCKETS * 3))
    assert "_buckets" in vars(model)


@pytest.mark.parametrize("length", range(1, 8))
def test_numpy_adds_a_short_row_left_to_right(length):
    # The cellular column route sums its exponentials column by column; it
    # keeps the row route's bytes only while numpy sums rows of up to 7
    # floats in that order.  Rows of 8 or more are summed pairwise.
    rng = np.random.default_rng(40 + length)
    for count in (1, 2, 7, 1023, 1024, 8192):
        e = rng.standard_exponential((count, length))
        total = e[:, 0].copy()
        for j in range(1, length):
            total += e[:, j]
        np.testing.assert_array_equal(total, e.sum(axis=1))


def test_the_column_route_takes_long_draws_of_at_most_8_outcomes():
    assert _by_columns(8192, 2) and _by_columns(8192, 8) and _by_columns(1024, 6)
    assert not _by_columns(1023, 6)  # a short draw
    assert not _by_columns(1, 6)  # a single shot
    assert not _by_columns(8192, 9)  # a wide row


@pytest.mark.parametrize("n", range(2, 9))
def test_column_and_row_routes_draw_the_same_bytes(n, monkeypatch):
    # Every model, a landed point with a zero weight and one without, draws
    # on both sides of the count cut; weights and outcomes agree bit for bit.
    rng = np.random.default_rng(70 + n)
    zero_u = rng.dirichlet(np.ones(n))
    zero_u[n // 2] = 0.0
    models = (MembraneModel.uniform(), MembraneModel.cellular(rng.dirichlet(np.ones(50))),
              MembraneModel.cellular(rng.dirichlet(np.ones(5000))))
    for u in (rng.dirichlet(np.ones(n)), zero_u):
        for model in models:
            for count in (1024, 5000, 8192):
                drawn = []
                for columns in (True, False):
                    monkeypatch.setattr(hm_sim.dynamics, "_by_columns",
                                        lambda c, k, columns=columns: columns)
                    rows = np.empty((count, n))
                    outcomes, _ = draw_breaks(model, u, RandomSource(n).chunk_stream(count, 0),
                                              rows, np.full(count * n, np.nan))
                    drawn.append((rows, outcomes))
                for by_columns, by_rows in zip(*drawn):
                    np.testing.assert_array_equal(by_columns, by_rows)


@pytest.mark.parametrize("count", (100, 1024))
def test_draw_breaks_leaves_the_break_rows_in_v(count):
    # On the row route (100) and the column route (1024), v keeps the breaks,
    # row 0 normalised, and the outcomes are those rows' own classification.
    n = 6
    rng = np.random.default_rng(90)
    u = rng.dirichlet(np.ones(n))
    models = (MembraneModel.uniform(), MembraneModel.cellular([1.0]),
              MembraneModel.cellular(rng.dirichlet(np.ones(50))))
    for model in models:
        v = np.empty((count, n))
        outcomes, first = draw_breaks(model, u, RandomSource(7).chunk_stream(0, count), v,
                                      np.empty(v.size))
        np.testing.assert_array_equal(first, v[0])
        assert abs(v[0].sum() - 1.0) <= 1e-12 and np.all(v > 0.0)
        np.testing.assert_array_equal(outcomes, hm_sim.geometry.classify_weights(v, u))
        if model.cell_count == 1:
            # The breaks are the stream's exponentials, only row 0 divided by its sum.
            e = RandomSource(7).chunk_stream(0, count).standard_exponential((count, n))
            e[0] /= e[0].sum()
            np.testing.assert_array_equal(v, e)
        else:
            np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("n,m", [(2, 6), (3, 9)])
def test_cellular_sampling_respects_cell_weights(n, m):
    rng_w = np.random.default_rng(77)
    weights = rng_w.dirichlet(np.ones(m))
    model = MembraneModel.cellular(weights)
    stream = RandomSource(9).trial_stream(1)
    draws = 12000
    idx = cell_index_of_weights(break_weights(model, n, draws, stream), m, n)
    freq = np.bincount(idx, minlength=m) / draws
    band = 4 * np.sqrt(weights * (1 - weights) / draws) + 1e-9
    assert np.all(np.abs(freq - weights) <= band)


def test_random_cellular_membranes_average_to_uniform():
    # Expectation over Dirichlet(1^m) cell weights of the cellular sampling
    # law equals the uniform law exactly (cells have equal measure): across
    # many random membranes, the mean occupancy of every cell of a finer
    # partition must sit at 1/fine within the between-membrane standard error.
    n, m = 3, 8
    rng_w = np.random.default_rng(123)
    stream = RandomSource(124).trial_stream(0)
    fine, membranes, draws = 16, 120, 400
    freqs = np.zeros((membranes, fine))
    for k in range(membranes):
        model = MembraneModel.cellular(rng_w.dirichlet(np.ones(m)))
        w = break_weights(model, n, draws, stream)
        freqs[k] = np.bincount(cell_index_of_weights(w, fine, n), minlength=fine)
    freqs /= draws
    mean = freqs.mean(axis=0)
    se = freqs.std(axis=0, ddof=1) / np.sqrt(membranes)
    z = np.abs(mean - 1.0 / fine) / se
    assert np.max(z) <= 4.5, f"max |z| = {np.max(z):.2f}"


def test_eigenstate_input_gives_certain_outcome_for_all_models():
    obs = canonical_observable(3)
    d = pure_to_density(PureState.basis_state(3, 2))
    for model in (
        MembraneModel.uniform(),
        MembraneModel.solipsistic(),
        MembraneModel.cellular([0.0, 1.0, 0.0]),
    ):
        for t in range(20):
            rng = RandomSource(5).trial_stream(t)
            label, trace, posterior = run_measurement(d, obs, model, rng)
            assert label == 2.0
            assert trace.outcome_block == (2,)
            assert np.max(np.abs(posterior.matrix - d.matrix)) <= 1e-12


def test_collapse_trace_invariants_nondegenerate():
    obs = canonical_observable(3)
    s = build_measurement_simplex(obs)
    rng_states = np.random.default_rng(50)
    for t in range(50):
        d = pure_to_density(random_pure(rng_states, 3))
        stream = RandomSource(6).trial_stream(t)
        label, trace, posterior = run_measurement(d, obs, MembraneModel.uniform(), stream)
        i = trace.outcome_block[0]
        assert trace.outcome_block == (i,)
        # on-membrane point is the literal projection
        np.testing.assert_array_equal(
            trace.on_membrane_point.coordinates,
            project_onto_membrane(trace.initial_state, s).coordinates,
        )
        # final state is the outcome vertex, on the unit sphere
        assert abs(trace.final_state.norm - 1.0) <= 1e-10
        assert np.max(np.abs(trace.final_state.coordinates - s.vertices[i])) <= 1e-12
        assert np.max(np.abs(trace.intermediate_point.coordinates - s.vertices[i])) <= 1e-12
        # posterior is the eigenprojector
        expected = pure_to_density(obs.eigenstates[i])
        assert np.max(np.abs(posterior.matrix - expected.matrix)) <= 1e-12


def test_luders_identity_degenerate():
    # N=3 observable with labels (a, a, b): posterior must equal
    # P_M D P_M / Tr(P_M D P_M) entrywise within 1e-12, and the block
    # probability must be the sum of its members' Born weights.
    obs = canonical_observable(3, (7.0, 7.0, 9.0))
    assert obs.degeneracy_partition == ((0, 1), (2,))
    rng_states = np.random.default_rng(60)
    for t in range(40):
        d = pure_to_density(random_pure(rng_states, 3))
        stream = RandomSource(8).trial_stream(t)
        label, trace, posterior = run_measurement(d, obs, MembraneModel.uniform(), stream)
        block = trace.outcome_block
        p = obs.projector(block)
        num = p @ d.matrix @ p
        expected = num / np.trace(num).real
        assert np.max(np.abs(posterior.matrix - expected)) <= 1e-12
        if block == (0, 1):
            # posterior of a pure state stays pure: unit-sphere final point
            assert abs(trace.final_state.norm - 1.0) <= 1e-10


def test_degenerate_block_probability_matches_born_sum():
    obs = canonical_observable(3, (7.0, 7.0, 9.0))
    rng_states = np.random.default_rng(61)
    d = pure_to_density(random_pure(rng_states, 3))
    p = born_probabilities(d, obs)
    expected_block = p[0] + p[1]
    trials = 20000
    hits = 0
    plan = prepare_measurement(d, obs)
    for t in range(trials):
        label, trace, _ = plan.measure(MembraneModel.uniform(), RandomSource(13).trial_stream(t))
        hits += trace.outcome_block == (0, 1)
    freq = hits / trials
    assert abs(freq - expected_block) <= 4 * math.sqrt(
        expected_block * (1 - expected_block) / trials
    )


def test_first_kind_repeatability_exact():
    # Re-measuring the posterior lands in the same degeneracy block, every time.
    cases = [
        (2, (0.0, 1.0)),
        (3, (5.0, 5.0, 6.0)),
        (6, (1.0, 2.0, 2.0, 3.0, 3.0, 3.0)),
    ]
    rng_states = np.random.default_rng(70)
    for n, labels in cases:
        obs = canonical_observable(n, labels)
        for t in range(300):
            d = random_density(rng_states, n) if t % 2 else pure_to_density(
                random_pure(rng_states, n)
            )
            stream = RandomSource(14).trial_stream(t)
            model = MembraneModel.uniform()
            _, first, posterior = run_measurement(d, obs, model, stream)
            _, second, _ = run_measurement(posterior, obs, model, stream)
            assert second.outcome_block == first.outcome_block


def test_solipsistic_outcomes_uniform_for_any_noneigenstate():
    obs = canonical_observable(6)
    model = MembraneModel.solipsistic()
    rng_states = np.random.default_rng(80)
    trials = 12000
    for d in (
        DensityOperator.maximally_mixed(6),
        pure_to_density(random_pure(rng_states, 6)),
    ):
        counts = np.zeros(6, int)
        plan = prepare_measurement(d, obs)
        for t in range(trials):
            stream = RandomSource(15).trial_stream(t)
            label, trace, _ = plan.measure(model, stream)
            counts[trace.outcome_block[0]] += 1
        freq = counts / trials
        band = 4 * math.sqrt((1 / 6) * (5 / 6) / trials)
        assert np.all(np.abs(freq - 1 / 6) <= band)


def test_full_pipeline_on_random_eigenbasis():
    # Non-canonical observables exercise the general path: off-block matrix
    # entries of the posterior are only float-zero, not exact zeros.
    from helpers import random_orthonormal_frame
    from hm_sim.harness import sample_elementary_outcomes

    n = 5
    rng = np.random.default_rng(2024)
    frame = random_orthonormal_frame(rng, n)
    states = tuple(PureState(n, frame[:, k]) for k in range(n))
    obs = Observable(n, states, (1.0, 1.0, 2.0, 3.0, 3.0))
    d = pure_to_density(random_pure(rng, n))

    counts = sample_elementary_outcomes(d, obs, MembraneModel.uniform(), 100000, RandomSource(41))
    born = born_probabilities(d, obs)
    freq = counts / counts.sum()
    band = 4 * np.sqrt(born * (1 - born) / counts.sum())
    assert np.all(np.abs(freq - born) <= band)

    for t in range(200):
        _, first, post = run_measurement(
            d, obs, MembraneModel.uniform(), RandomSource(42).trial_stream(t)
        )
        p = obs.projector(first.outcome_block)
        ref = p @ d.matrix @ p
        ref = ref / np.trace(ref).real
        assert np.max(np.abs(post.matrix - ref)) <= 1e-12
        _, second, _ = run_measurement(
            post, obs, MembraneModel.uniform(), RandomSource(43).trial_stream(t)
        )
        assert second.outcome_block == first.outcome_block


def test_impossible_outcome_raises():
    obs = canonical_observable(3)
    d = pure_to_density(PureState.basis_state(3, 0))
    with pytest.raises(ImpossibleOutcomeError):
        luders_posterior(d, obs, (1,))


def test_solipsistic_single_shot_rejects_a_state_with_an_unreachable_block():
    # The break lands on any vertex, so for some seeds on vertex 2, whose
    # outcome this state never gives; every seed is refused alike.
    obs = canonical_observable(3)
    d = pure_to_density(PureState.normalized([1.0, 1.0, 0.0]))
    plan = prepare_measurement(d, obs)
    for t in range(12):
        with pytest.raises(ConfigError, match="solipsistic"):
            run_measurement(
                d, obs, MembraneModel.solipsistic(), RandomSource(7).trial_stream(t)
            )
        with pytest.raises(ConfigError, match="solipsistic"):
            plan.measure(MembraneModel.solipsistic(), RandomSource(7).trial_stream(t))


MEMBRANES = {
    "uniform": MembraneModel.uniform(),
    "cellular": MembraneModel.cellular([0.2, 0.5, 0.3]),
    "solipsistic": MembraneModel.solipsistic(),
}


@pytest.mark.parametrize("labels", ((1.0, 2.0, 3.0), (1.0, 1.0, 2.0)))
@pytest.mark.parametrize("kind", sorted(MEMBRANES))
@pytest.mark.parametrize("at_vertex", (False, True))
def test_a_shot_on_a_plan_is_the_single_shot(labels, kind, at_vertex):
    from hm_sim.serialize import dumps_canonical, trace_to_json

    obs = canonical_observable(3, labels)
    amplitudes = [0.0, 0.0, 1.0] if at_vertex else [0.6, 0.48j, 0.64]
    d = pure_to_density(PureState.normalized(amplitudes))
    plan = prepare_measurement(d, obs)
    assert (plan.at_vertex is not None) == at_vertex
    model = MEMBRANES[kind]
    blocks = set()
    for t in range(40):
        hm_sim.dynamics._held_plan.cache_clear()  # so each single shot prepares anew
        label, trace, posterior = run_measurement(d, obs, model, RandomSource(5).trial_stream(t))
        again, shot, shot_posterior = plan.measure(model, RandomSource(5).trial_stream(t))
        assert again == label
        assert dumps_canonical(trace_to_json(shot)) == dumps_canonical(trace_to_json(trace))
        np.testing.assert_array_equal(shot_posterior.matrix, posterior.matrix)
        blocks.add(trace.outcome_block)
    assert len(blocks) == (1 if at_vertex else len(obs.degeneracy_partition))


def test_a_plan_builds_each_blocks_collapse_once(monkeypatch):
    calls = {"luders_posterior": [], "project_onto_face": []}
    for name in calls:
        original = getattr(hm_sim.dynamics, name)

        def counting(*args, _name=name, _original=original):
            calls[_name].append(args[2])
            return _original(*args)

        monkeypatch.setattr(hm_sim.dynamics, name, counting)
    obs = canonical_observable(6, (1.0, 1.0, 2.0, 2.0, 3.0, 3.0))
    plan = prepare_measurement(pure_to_density(random_pure(np.random.default_rng(3), 6)), obs)
    posteriors = {}
    for t in range(200):
        _, trace, posterior = plan.measure(MembraneModel.uniform(), RandomSource(6).trial_stream(t))
        assert posteriors.setdefault(trace.outcome_block, posterior) is posterior
    assert set(posteriors) == set(obs.degeneracy_partition)
    for blocks in calls.values():
        assert sorted(blocks) == sorted(posteriors)


def test_repeated_measurements_prepare_each_state_once(monkeypatch):
    # A re-measured posterior is the object its block's collapse keeps, so
    # the pairs prepare the state and one posterior per block, not 2 * 100.
    project = hm_sim.dynamics.project_onto_membrane
    calls = []

    def counting(r, simplex):
        calls.append(r)
        return project(r, simplex)

    monkeypatch.setattr(hm_sim.dynamics, "project_onto_membrane", counting)
    obs = canonical_observable(6, (1.0, 1.0, 2.0, 3.0, 3.0, 4.0))
    d = pure_to_density(random_pure(np.random.default_rng(8), 6))
    model = MembraneModel.uniform()
    for t in range(100):
        label, _, posterior = run_measurement(d, obs, model, RandomSource(10).trial_stream(2 * t))
        again, _, _ = run_measurement(posterior, obs, model, RandomSource(10).trial_stream(2 * t + 1))
        assert again == label
    assert len(calls) <= 1 + len(obs.degeneracy_partition)


def test_an_equal_state_gets_its_own_plan_with_the_same_bytes():
    from hm_sim.serialize import dumps_canonical, trace_to_json

    obs = canonical_observable(3, (1.0, 1.0, 2.0))
    psi = PureState.normalized([0.6, 0.48j, 0.64])
    d = pure_to_density(psi)
    held = hm_sim.dynamics._held_plan
    plan = held(d, obs)
    twin = pure_to_density(psi)
    np.testing.assert_array_equal(twin.matrix, d.matrix)
    assert held(twin, obs) is not plan
    assert held(d, obs) is plan
    model = MembraneModel.uniform()
    shots = [plan.measure(model, RandomSource(11).trial_stream(t))[1] for t in range(20)]
    held.cache_clear()
    fresh = held(d, obs)
    assert fresh is not plan
    for t, shot in enumerate(shots):
        _, trace, _ = fresh.measure(model, RandomSource(11).trial_stream(t))
        assert dumps_canonical(trace_to_json(trace)) == dumps_canonical(trace_to_json(shot))


def test_the_plan_cache_is_bounded_and_keeps_no_error(monkeypatch):
    held = hm_sim.dynamics._held_plan
    assert held.cache_info().maxsize == hm_sim.dynamics.PLAN_CACHE_SIZE == 8
    monkeypatch.setattr(
        hm_sim.dynamics, "born_probabilities", lambda state, obs: np.full(2, math.nan)
    )
    d, obs = DensityOperator.maximally_mixed(2), canonical_observable(2)
    for _ in range(2):
        with pytest.raises(OracleMismatchError):
            held(d, obs)
    monkeypatch.undo()
    assert held(d, obs).oracle_gap <= 1e-9


def test_plan_with_another_observables_simplex_fails_the_oracle(monkeypatch, no_live_simplexes):
    d = pure_to_density(PureState.basis_state(2, 0))
    prepare_measurement(d, spin_observable([1.0, 0.0, 1.0]))
    # A plan still held would keep that observable's simplex alive; with an
    # empty registry the second observable must build its own.
    monkeypatch.setattr(hm_sim.geometry, "_simplexes", weakref.WeakValueDictionary())
    foreign = make_simplex(2)
    monkeypatch.setattr(
        hm_sim.geometry, "build_measurement_simplex", lambda observable: foreign
    )
    with pytest.raises(OracleMismatchError):
        prepare_measurement(d, spin_observable([1.0, 0.0, 1.0]))


def test_a_nan_oracle_fails_the_plan(monkeypatch):
    # NaN compares false with everything, so a gap test written as
    # gap > ORACLE_TOL would pass it.
    monkeypatch.setattr(
        hm_sim.dynamics, "born_probabilities", lambda state, obs: np.full(2, math.nan)
    )
    with pytest.raises(OracleMismatchError):
        prepare_measurement(DensityOperator.maximally_mixed(2), canonical_observable(2))


def test_one_observable_builds_its_simplex_once(monkeypatch, no_live_simplexes):
    from hm_sim.harness import sample_elementary_outcomes

    build = hm_sim.geometry.build_measurement_simplex
    calls = []

    def counting(observable):
        calls.append(observable)
        return build(observable)

    # Wrap the builder under every name an hm_sim module binds it to, so a
    # call through any of them counts.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hm_sim" and getattr(
            module, "build_measurement_simplex", None
        ) is build:
            monkeypatch.setattr(module, "build_measurement_simplex", counting)
    obs = canonical_observable(3, (1.0, 1.0, 2.0))
    d = pure_to_density(PureState.normalized([0.6, 0.48, 0.64]))
    model = MembraneModel.uniform()
    prepare_measurement(d, obs)
    for t in range(3):
        run_measurement(d, obs, model, RandomSource(9).trial_stream(t))
    sample_elementary_outcomes(d, obs, model, 100, RandomSource(9))
    assert len(calls) == 1 and calls[0] is obs


def _random_observable(seed, n):
    from helpers import random_orthonormal_frame

    frame = random_orthonormal_frame(np.random.default_rng(seed), n)
    states = tuple(PureState(n, frame[:, k]) for k in range(n))
    return Observable(n, states, tuple(float(k) for k in range(n)))


def test_observables_with_one_eigenbasis_share_its_simplex(no_live_simplexes):
    d = pure_to_density(PureState.normalized([0.6, 0.48, 0.64]))
    plain, degenerate = canonical_observable(3), canonical_observable(3, (1.0, 1.0, 2.0))
    assert plain.simplex is degenerate.simplex
    fresh = build_measurement_simplex(canonical_observable(3))
    u = barycentric_coordinates(project_onto_membrane(density_to_bloch(d), fresh), fresh)
    for obs in (plain, degenerate):
        assert prepare_measurement(d, obs).u.tobytes() == u.tobytes()


def test_a_foreign_simplex_on_a_new_basis_fails_the_oracle(monkeypatch, no_live_simplexes):
    foreign = make_simplex(3)
    monkeypatch.setattr(
        hm_sim.geometry, "build_measurement_simplex", lambda observable: foreign
    )
    obs = _random_observable(25, 3)
    with pytest.raises(OracleMismatchError):
        prepare_measurement(pure_to_density(PureState.normalized([0.6, 0.48, 0.64])), obs)
    assert obs.simplex is foreign


def test_a_shared_simplex_dies_with_its_last_holder(no_live_simplexes):
    obs = _random_observable(32, 32)
    d = pure_to_density(PureState.basis_state(32, 0))
    run_measurement(d, obs, MembraneModel.uniform(), RandomSource(26).trial_stream(0))
    simplex = weakref.ref(obs.simplex)  # run_measurement's memo holds obs, and so its simplex
    assert len(hm_sim.geometry._simplexes) == 1
    del obs
    assert simplex() is not None
    hm_sim.dynamics._held_plan.cache_clear()
    assert simplex() is None and len(hm_sim.geometry._simplexes) == 0


def _edge_states():
    """States that ``DensityOperator`` accepts at the edge of its eigenvalue bound.

    For N in (2, 3, 6), k eigenvalues at -0.9 EIGEN_TOL and N - k equal ones
    summing to 1 + 0.9 k EIGEN_TOL, in the canonical basis and in a random
    one; at k = N - 1 the point is 0.9 N EIGEN_TOL beyond the unit sphere.
    Then an N=3 state whose diagonal is imaginary within the 1e-12 bound.
    """
    from helpers import random_orthonormal_frame

    low = -0.9 * EIGEN_TOL
    for n in (2, 3, 6):
        frame = random_orthonormal_frame(np.random.default_rng(1400 + n), n)
        for k in range(1, n):
            eigenvalues = np.array([(1.0 - k * low) / (n - k)] * (n - k) + [low] * k)
            for basis, u in (("canonical", np.eye(n)), ("random", frame)):
                matrix = (u * eigenvalues) @ u.conj().T
                yield pytest.param(n, matrix, id=f"n{n}-k{k}-{basis}")
    imaginary = 1j * np.diag([0.49e-12, 0.49e-12, -0.49e-12])
    yield pytest.param(3, np.eye(3) / 3 + imaginary, id="n3-imaginary-diagonal")


@pytest.mark.parametrize("n, matrix", _edge_states())
def test_every_accepted_state_maps_prepares_and_measures(n, matrix):
    from hm_sim.harness import sample_elementary_outcomes

    state = DensityOperator(n, matrix)
    density_to_bloch(state)
    # On the degenerate observable the posterior of block (0, 1) divides the
    # state's negative eigenvalues by the block weight; re-measured, it stays.
    degenerate = canonical_observable(n, (0, 0) + tuple(range(1, n - 1)))
    for obs in (canonical_observable(n), degenerate):
        prepare_measurement(state, obs)
        for model in (MembraneModel.uniform(), MembraneModel.cellular([0.2] * 5)):
            for t in range(20):
                source = RandomSource(23)
                label, first, posterior = run_measurement(state, obs, model,
                                                          source.trial_stream(2 * t))
                again, second, _ = run_measurement(posterior, obs, model,
                                                   source.trial_stream(2 * t + 1))
                assert (again, second.outcome_block) == (label, first.outcome_block)
    counts = sample_elementary_outcomes(state, canonical_observable(n), MembraneModel.uniform(),
                                        20000, RandomSource(23))
    assert counts.sum() == 20000


def test_born_identity_max_gap_is_the_plans_gap():
    from hm_sim.harness import born_identity_max_gap

    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        d = random_density(rng, n)
        obs = canonical_observable(n)
        plan = prepare_measurement(d, obs)
        assert plan.oracle_gap <= 1e-9
        assert born_identity_max_gap(d, obs) == plan.oracle_gap


def test_spin_machine_probabilities():
    # theta = pi/2 gives (1/2, 1/2); theta = pi/3 gives (3/4, 1/4).
    model = MembraneModel.uniform()
    axis = np.array([0.0, 0.0, 1.0])
    for theta, p_up in ((math.pi / 2, 0.5), (math.pi / 3, 0.75)):
        r = BlochVector(2, np.array([math.sin(theta), 0.0, math.cos(theta)]))
        trials = 6000
        ups = 0
        for t in range(trials):
            outcome, trace = spin_machine_measure(
                r, axis, model, RandomSource(16).trial_stream(t)
            )
            assert trace.polar_angle == pytest.approx(theta, abs=1e-12)
            ups += outcome[2] > 0
        assert abs(ups / trials - p_up) <= 4 * math.sqrt(p_up * (1 - p_up) / trials)


def test_spin_machine_certain_at_poles():
    model = MembraneModel.uniform()
    axis = np.array([0.0, 0.0, 1.0])
    up = BlochVector(2, np.array([0.0, 0.0, 1.0]))
    down = BlochVector(2, np.array([math.sin(math.pi), 0.0, math.cos(math.pi)]))
    for t in range(25):
        outcome, _ = spin_machine_measure(up, axis, model, RandomSource(17).trial_stream(t))
        np.testing.assert_allclose(outcome, axis)
        outcome, _ = spin_machine_measure(down, axis, model, RandomSource(18).trial_stream(t))
        np.testing.assert_allclose(outcome, -axis)
    with pytest.raises(Exception):
        spin_machine_measure(up, [0.0, 0.0, 0.0], model, RandomSource(19).trial_stream(0))


def test_spin_machine_builds_one_simplex_per_axis(monkeypatch, no_live_simplexes):
    build = hm_sim.geometry.build_measurement_simplex
    calls = []

    def counting(observable):
        calls.append(observable)
        return build(observable)

    monkeypatch.setattr(hm_sim.geometry, "build_measurement_simplex", counting)
    r = BlochVector(2, np.array([0.3, 0.4, 0.5]))
    for t in range(200):
        spin_machine_measure(r, [0.2, -0.3, 0.9], MembraneModel.uniform(),
                             RandomSource(20).trial_stream(t))
    assert len(calls) == 1


def test_spin_machine_keeps_the_sign_of_a_zero_axis_component():
    from hm_sim.serialize import dumps_canonical, trace_to_json

    # -0.0 == 0.0, but arctan2 keeps the sign of zero, so these two axes
    # have simplex vertices 2.4e-16 apart and different trace bytes.  The
    # first axis is measured first, so a cache keyed on values would hand
    # its observable to the second.
    r = BlochVector(2, np.array([0.3, 0.4, 0.5]))
    model = MembraneModel.uniform()
    for axis in ([-1.0, -0.0, 0.0], [-1.0, 0.0, 0.0]):
        observable = spin_observable(axis)
        for t in range(20):
            outcome, trace = spin_machine_measure(r, axis, model, RandomSource(21).trial_stream(t))
            label, fresh, _ = run_measurement(
                bloch_to_density(r), observable, model, RandomSource(21).trial_stream(t))
            assert dumps_canonical(trace_to_json(trace)) == dumps_canonical(trace_to_json(fresh))
            assert outcome[0] == (-1.0 if label > 0 else 1.0)


def test_axes_that_differ_in_the_sign_of_a_zero_get_two_simplexes(no_live_simplexes):
    minus, plus = spin_observable([-1.0, -0.0, 0.0]), spin_observable([-1.0, 0.0, 0.0])
    assert minus.simplex is not plus.simplex
    assert minus.simplex.vertices.tobytes() != plus.simplex.vertices.tobytes()


@pytest.mark.parametrize("axis, error", [
    ([0.0, 0.0, 1.0, 0.0], DimensionError),
    ([[0.0, 0.0, 1.0]], DimensionError),
    ([0.0, 0.0, 0.0], GeometryError),
    ([math.nan, 0.0, 1.0], GeometryError),
])
def test_spin_machine_rejects_a_bad_axis_on_every_call(axis, error):
    r = BlochVector(2, np.array([0.0, 0.0, 1.0]))
    for t in range(2):
        with pytest.raises(error):
            spin_machine_measure(r, axis, MembraneModel.uniform(), RandomSource(22).trial_stream(t))


def test_spin_machine_rejects_a_state_off_the_n2_ball_on_every_call():
    r = BlochVector(3, np.zeros(8))
    for t in range(2):
        with pytest.raises(DimensionError):
            spin_machine_measure(r, [0.0, 0.0, 1.0], MembraneModel.uniform(),
                                 RandomSource(22).trial_stream(t))


def test_spin_machine_prepares_once_per_state_and_axis(monkeypatch):
    project = hm_sim.dynamics.project_onto_membrane
    calls = []

    def counting(r, simplex):
        calls.append(r)
        return project(r, simplex)

    monkeypatch.setattr(hm_sim.dynamics, "project_onto_membrane", counting)
    hm_sim.dynamics._spin_plan_of_bits.cache_clear()
    coordinates = np.array([0.3, 0.4, 0.5])
    model = MembraneModel.uniform()
    r = BlochVector(2, coordinates)
    for t in range(200):
        spin_machine_measure(r, [0.2, -0.3, 0.9], model, RandomSource(24).trial_stream(t))
    twin = BlochVector(2, coordinates.copy())
    for t in range(20):
        spin_machine_measure(twin, [0.2, -0.3, 0.9], model, RandomSource(25).trial_stream(t))
    assert len(calls) == 1


SIGNED_ZERO_AXES = ([-1.0, -0.0, 0.0], [-1.0, 0.0, 0.0])


@pytest.mark.parametrize("pairs, at_vertex", [
    ([([-1.0, 0.0, 0.0], axis) for axis in SIGNED_ZERO_AXES], True),  # a pole of both
    ([([0.0, 0.0, 0.0], axis) for axis in SIGNED_ZERO_AXES], False),  # polar angle pi/2
    ([([0.3, 0.4, 0.5], axis) for axis in SIGNED_ZERO_AXES], False),
    ([([0.3, -0.0, 0.5], axis) for axis in SIGNED_ZERO_AXES], False),
    # Two points on one axis, then one point on both signed-zero axes: a cache
    # keyed on the axis alone, or on the point alone, hands one a wrong plan.
    ([([0.3, 0.4, 0.5], SIGNED_ZERO_AXES[1]), ([0.3, -0.0, 0.5], SIGNED_ZERO_AXES[1]),
      ([0.1, 0.2, 0.3], SIGNED_ZERO_AXES[0]), ([0.1, 0.2, 0.3], SIGNED_ZERO_AXES[1])], False),
], ids=["pole", "centre", "generic", "signed-zero", "interleaved"])
def test_a_repeated_spin_shot_is_the_uncached_shot(pairs, at_vertex):
    from hm_sim.bloch import _unit
    from hm_sim.serialize import dumps_canonical, trace_to_json

    # The (point, axis) pairs take their shots in turn, each on trial stream t.
    model = MembraneModel.uniform()
    shots = [(coordinates, axis, t, *spin_machine_measure(
                 BlochVector(2, np.array(coordinates)), axis, model,
                 RandomSource(23).trial_stream(t)))
             for t in range(30) for coordinates, axis in pairs]
    for coordinates, axis, t, outcome, trace in shots:
        hm_sim.dynamics._held_plan.cache_clear()
        state = bloch_to_density(BlochVector(2, np.array(coordinates)))
        observable = spin_observable(axis)
        assert (prepare_measurement(state, observable).at_vertex is not None) == at_vertex
        label, fresh, _ = run_measurement(state, observable, model,
                                          RandomSource(23).trial_stream(t))
        assert dumps_canonical(trace_to_json(trace)) == dumps_canonical(trace_to_json(fresh))
        unit = _unit(np.asarray(axis))
        assert outcome.tobytes() == (unit if label > 0 else -unit).tobytes()
        if not any(coordinates):
            assert trace.polar_angle == math.pi / 2


# The die: the upper-face observable of six faces, measured by a solipsistic
# membrane.  Off the table (None) the state is the ball centre; on the table
# showing face k it is vertex k.
DIE = canonical_observable(6, tuple(float(k) for k in range(1, 7)))


def _die_state(face):
    if face is None:
        return DensityOperator.maximally_mixed(6)
    return pure_to_density(PureState.basis_state(6, face - 1))


def _roll(face, rng):
    label, trace, _ = run_measurement(_die_state(face), DIE, MembraneModel.solipsistic(), rng)
    return int(label), trace


def test_die_on_table_is_certain():
    for t in range(25):
        face, trace = _roll(4, RandomSource(20).trial_stream(t))
        assert face == 4
        assert trace.outcome_block == (3,)


def test_die_off_table_uniform_and_first_kind():
    trials = 20000
    counts = np.zeros(6, int)
    plan = prepare_measurement(_die_state(None), DIE)
    for t in range(trials):
        label, _, _ = plan.measure(MembraneModel.solipsistic(), RandomSource(21).trial_stream(t))
        counts[int(label) - 1] += 1
    freq = counts / trials
    band = 3 * math.sqrt((1 / 6) * (5 / 6) / trials)
    assert np.all(np.abs(freq - 1 / 6) <= band)
    # roll once, then re-measure the produced on-table state: same face
    for t in range(50):
        face, _ = _roll(None, RandomSource(22).trial_stream(t))
        again, _ = _roll(face, RandomSource(23).trial_stream(t))
        assert again == face


def test_die_state_geometry():
    s = build_measurement_simplex(DIE)
    r = density_to_bloch(_die_state(None))
    np.testing.assert_allclose(r.coordinates, np.zeros(35), atol=1e-15)
    r4 = density_to_bloch(_die_state(4))
    np.testing.assert_allclose(r4.coordinates, s.vertices[3], atol=1e-14)
