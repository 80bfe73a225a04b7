"""Batch Monte Carlo engine, convergence reports, chi-square acceptance."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    cellular_outcome_law,
    chi_square_thresholds,
    random_orthonormal_frame,
    random_pure,
    threshold_table_source,
)
import hm_sim.geometry
from hm_sim.bloch import PureState, pure_to_density
from hm_sim.dynamics import MembraneModel, RandomSource, draw_breaks, prepare_measurement
from hm_sim.errors import ConfigError, DimensionError
from hm_sim.geometry import Observable, born_probabilities, canonical_observable
from hm_sim.harness import (
    _CHI2_THRESHOLDS,
    CHUNK_TRIALS,
    ExperimentConfig,
    _hotelling_check,
    batch_reports,
    born_identity_max_gap,
    chi_square_check,
    random_pure_state,
    sample_elementary_outcomes,
    simulate_statistics,
    universal_average_experiment,
)

SEED = 0xB10C


def spin_config(theta, trials, seed=SEED, membrane=None):
    return ExperimentConfig(
        dimension=2,
        state={"kind": "bloch", "coordinates": [math.sin(theta), 0.0, math.cos(theta)]},
        observable={"kind": "canonical"},
        membrane=membrane or {"kind": "uniform"},
        trials=trials,
        master_seed=seed,
    )


def test_spin_report_matches_closed_form():
    report = simulate_statistics(spin_config(math.pi / 3, 100000))
    np.testing.assert_allclose(report.oracle_probabilities, [0.75, 0.25], atol=1e-12)
    assert report.passed
    band = 4 * math.sqrt(0.75 * 0.25 / 100000)
    assert np.all(report.per_block_deviation <= band)
    assert abs(float(report.empirical_frequencies.sum()) - 1.0) <= 1e-12


def test_eigenstate_frequencies_are_exact():
    report = simulate_statistics(spin_config(0.0, 5000))
    np.testing.assert_array_equal(report.empirical_frequencies, [1.0, 0.0])
    assert report.passed
    report = simulate_statistics(spin_config(math.pi, 5000))
    np.testing.assert_array_equal(report.empirical_frequencies, [0.0, 1.0])
    assert report.passed


@pytest.mark.parametrize("n", (3, 4, 6))
def test_random_state_conformance(n):
    psi = random_pure_state(RandomSource(SEED), 0, n)
    cfg = ExperimentConfig(
        dimension=n,
        state={"kind": "pure", "re": list(psi.amplitudes.real), "im": list(psi.amplitudes.imag)},
        observable={"kind": "canonical"},
        membrane={"kind": "uniform"},
        trials=100000,
        master_seed=SEED + n,
    )
    report = simulate_statistics(cfg)
    oracle = born_probabilities(pure_to_density(psi), canonical_observable(n))
    np.testing.assert_allclose(report.oracle_probabilities, oracle, atol=1e-12)
    assert report.passed


def test_degenerate_blocks_aggregate_oracle():
    # Coarse-graining consistency: block probability equals the sum of the
    # elementary Born probabilities of its members.
    psi = random_pure_state(RandomSource(7), 3, 4)
    state_spec = {
        "kind": "pure",
        "re": list(psi.amplitudes.real),
        "im": list(psi.amplitudes.imag),
    }
    cfg = ExperimentConfig(
        dimension=4,
        state=state_spec,
        observable={"kind": "canonical", "labels": [1.0, 2.0, 1.0, 3.0]},
        membrane={"kind": "uniform"},
        trials=50000,
        master_seed=11,
    )
    report = simulate_statistics(cfg)
    elem = born_probabilities(pure_to_density(psi), canonical_observable(4))
    expected_blocks = np.array([elem[0] + elem[2], elem[1], elem[3]])
    assert report.block_labels == (1.0, 2.0, 3.0)
    np.testing.assert_allclose(report.oracle_probabilities, expected_blocks, atol=1e-9)
    assert report.passed


def test_solipsistic_outcomes_uniform_regardless_of_state():
    # Two different non-eigenstate inputs must both produce uniform outcome
    # distributions (chi-square at the 0.999 quantile, 1e5 trials each); the
    # membrane reveals nothing about the pre-measurement state.
    psi = random_pure_state(RandomSource(31), 0, 6)
    state_specs = [
        {"kind": "preset", "name": "maximally_mixed"},
        {"kind": "pure", "re": list(psi.amplitudes.real), "im": list(psi.amplitudes.imag)},
    ]
    for job, state_spec in enumerate(state_specs):
        cfg = ExperimentConfig(
            dimension=6,
            state=state_spec,
            observable={"kind": "canonical"},
            membrane={"kind": "solipsistic"},
            trials=100000,
            master_seed=SEED,
        )
        report = simulate_statistics(cfg, job=job)
        chi = chi_square_check(report.observed_counts, np.full(6, 1 / 6))
        assert chi.passed
    # the report's own oracle is the Born rule, so only the maximally mixed
    # input (where Born is uniform) passes the report as a whole
    mixed_report = simulate_statistics(
        ExperimentConfig(
            dimension=6,
            state={"kind": "preset", "name": "maximally_mixed"},
            observable={"kind": "canonical"},
            membrane={"kind": "solipsistic"},
            trials=100000,
            master_seed=SEED,
        )
    )
    np.testing.assert_allclose(
        mixed_report.oracle_probabilities, np.full(6, 1 / 6), atol=1e-12
    )
    assert mixed_report.passed


def test_seed_stability_and_worker_invariance():
    a = simulate_statistics(spin_config(1.0, 30000))
    b = simulate_statistics(spin_config(1.0, 30000))
    assert a.observed_counts == b.observed_counts
    assert a.chi_square_statistic == b.chi_square_statistic
    np.testing.assert_array_equal(a.empirical_frequencies, b.empirical_frequencies)
    c = simulate_statistics(spin_config(1.0, 30000), workers=3)
    np.testing.assert_array_equal(a.empirical_frequencies, c.empirical_frequencies)
    assert a.observed_counts == c.observed_counts

    psi = random_pure_state(RandomSource(3), 1, 3)
    state = pure_to_density(psi)
    obs = canonical_observable(3)
    o1 = sample_elementary_outcomes(state, obs, MembraneModel.uniform(), 25000, RandomSource(5))
    o2 = sample_elementary_outcomes(
        state, obs, MembraneModel.uniform(), 25000, RandomSource(5), workers=4
    )
    np.testing.assert_array_equal(o1, o2)


def test_sampler_threads_are_bounded_by_chunks_and_cpus(monkeypatch):
    import hm_sim.harness

    pools = []

    class SerialPool:
        """Records its max_workers and runs the chunks in order, on this thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(hm_sim.harness, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(hm_sim.harness.os, "cpu_count", lambda: 4)
    state = pure_to_density(random_pure_state(RandomSource(3), 1, 3))
    obs = canonical_observable(3)
    chunk = hm_sim.harness.CHUNK_TRIALS

    def sample(trials, workers):
        return sample_elementary_outcomes(
            state, obs, MembraneModel.uniform(), trials, RandomSource(5), workers=workers
        )

    for trials, workers, threads in (
        (2 * chunk + 1, 100000, [3]),  # three chunks
        (5 * chunk, 100000, [4]),      # four CPUs
        (chunk, 2, []),                # one chunk: no pool
        (5 * chunk, 1, []),
    ):
        pools.clear()
        outcomes = sample(trials, workers)
        assert pools == threads
        np.testing.assert_array_equal(outcomes, sample(trials, 1))
    monkeypatch.setattr(hm_sim.harness.os, "cpu_count", lambda: None)
    pools.clear()
    sample(5 * chunk, 8)
    assert pools == []


def oracle_chunk_outcomes(model, u, count, rng):
    """The reference batch draw: normalised rows, one classifier.

    Uniform rows are divided by their sums, cellular cells come from a plain
    ``searchsorted`` over the cumulative weights and the weights are stacked
    column by column, then every row is classified by argmin(v / u).
    Returns the outcomes and the weights (None for a solipsistic membrane).
    """
    n = len(u)
    if model.kind == "solipsistic":
        return rng.integers(0, n, size=count), None
    m = model.cell_count
    if model.kind == "uniform" or m == 1:
        e = rng.standard_exponential((count, n))
        v = e / e.sum(axis=1, keepdims=True)
    else:
        cells = np.searchsorted(np.cumsum(model.cell_weights), rng.random(count))
        cells = np.minimum(cells, m - 1)
        slab = (cells + rng.random(count)) / m
        w0 = 1.0 - (1.0 - slab) ** (1.0 / (n - 1))
        if n == 2:
            v = np.column_stack([w0, 1.0 - w0])
        else:
            e = rng.standard_exponential((count, n - 1))
            rest = e / e.sum(axis=1, keepdims=True) * (1.0 - w0)[:, None]
            v = np.column_stack([w0, rest])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = v / u
    ratios[:, u == 0.0] = np.inf
    return np.argmin(ratios, axis=-1), v


@pytest.mark.parametrize("n", (2, 3, 6, 8, 9, 12))
def test_sampler_draws_the_outcomes_of_the_normalised_oracle(n, monkeypatch):
    # Full chunks and a partial chunk shorter than the bucket table; a real
    # landed point and one with an exact zero weight.  A state's zero weight
    # lands as exactly 0 only at some N, so the second point comes from a
    # patched preparation.
    import hm_sim.harness

    trials = 2 * CHUNK_TRIALS + 1000
    rng = np.random.default_rng(60 + n)
    obs = canonical_observable(n)
    state = pure_to_density(random_pure_state(RandomSource(8), n, n))
    plan = prepare_measurement(state, obs)
    zero_u = np.array(plan.u)
    zero_u[n // 2] = 0.0
    zero_u /= zero_u.sum()
    plans = (plan, dataclasses.replace(plan, u=zero_u))
    models = (
        MembraneModel.uniform(),
        MembraneModel.cellular([1.0]),
        MembraneModel.cellular(rng.dirichlet(np.ones(50))),
        MembraneModel.cellular(rng.dirichlet(np.ones(5000))),
        MembraneModel.solipsistic(),
    )
    source = RandomSource(SEED + n)
    for p in plans:
        if p is plans[1]:
            monkeypatch.setattr(hm_sim.harness, "prepare_measurement", lambda s, o: plans[1])
        for model in models:
            expected = []
            for c in range(3):
                size = min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS)
                oracle, weights = oracle_chunk_outcomes(
                    model, p.u, size, source.chunk_stream(4, c)
                )
                v = np.empty((size, n))
                drawn, _ = draw_breaks(model, p.u, source.chunk_stream(4, c), v,
                                       np.empty(v.size))
                np.testing.assert_array_equal(drawn, oracle)
                if model.cell_count > 1:
                    np.testing.assert_array_equal(v, weights)
                expected.append(oracle)
            expected = np.bincount(np.concatenate(expected), minlength=n)
            for workers in (1, 2):
                got = sample_elementary_outcomes(
                    state, obs, model, trials, source, job=4, workers=workers
                )
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, expected)
            if p is plans[1] and model.kind != "solipsistic":
                assert got[n // 2] == 0


@pytest.mark.parametrize("n", (2, 3, 6, 8, 9, 12))
def test_cellular_draws_leave_the_oracle_weights_bit_for_bit(n):
    # Both routes, on both sides of the bucket-table cut: the rows a cellular
    # draw leaves in v are the oracle's weights, not just its outcomes.
    rng = np.random.default_rng(80 + n)
    u = rng.dirichlet(np.ones(n))
    for m in (50, 5000):
        model = MembraneModel.cellular(rng.dirichlet(np.ones(m)))
        for count in (1, 100, 1024, 8192):
            oracle, weights = oracle_chunk_outcomes(
                model, u, count, RandomSource(n).chunk_stream(m, count)
            )
            v = np.empty((count, n))
            drawn, first = draw_breaks(model, u, RandomSource(n).chunk_stream(m, count), v,
                                       np.empty(v.size))
            np.testing.assert_array_equal(v, weights)
            np.testing.assert_array_equal(first, weights[0])
            np.testing.assert_array_equal(drawn, oracle)


@pytest.mark.parametrize("n", (2, 3, 8, 9, 12))
def test_packed_jobs_count_what_each_chunk_draws_alone(n, monkeypatch):
    # Jobs of 1, 100 and 8191 trials share blocks with the short last chunk
    # of their neighbours, 8192 fills one, and 8193 and 20000 leave a short
    # chunk behind.  Each job's counts are the bincount of the oracle draw
    # of each of its chunks, on its own membrane, its own plan and its own
    # chunk stream, whatever shares its block, for either worker count;
    # every chunk stream is derived exactly once.  The jobs measure one
    # plan, one with an exact zero weight, or a plan each.  Then the zero
    # weight is the first 100-trial job's, which shares a block classified
    # by rows, and the 20000-trial job's, whose short last chunk shares a
    # block with the last job, classified by columns at N <= 8; the
    # eigenstate of the second 100-trial job between them counts with
    # certainty and draws nothing.
    import hm_sim.harness

    jobs = [(7, 1), (3, 100), (11, 8191), (0, 8192), (5, 8193), (9, 1), (4, 20000),
            (2, 100), (8, 1)]
    rng = np.random.default_rng(30 + n)
    obs = canonical_observable(n)
    own = [prepare_measurement(pure_to_density(random_pure_state(RandomSource(6), n + k, n)),
                               obs) for k in range(len(jobs))]
    plan = own[0]
    zero_u = np.array(plan.u)
    zero_u[n // 2] = 0.0
    zero_u /= zero_u.sum()
    zero = dataclasses.replace(plan, u=zero_u)
    own[1] = own[6] = zero
    own[7] = prepare_measurement(pure_to_density(PureState.basis_state(n, 1)), obs)
    assert own[7].at_vertex == 1 and all(p.at_vertex is None for p in own[:7] + own[8:])
    laws = [{job: MembraneModel.uniform() for job, _ in jobs},
            {job: MembraneModel.solipsistic() for job, _ in jobs}]
    laws += [{job: MembraneModel.cellular(rng.dirichlet(np.ones(m))) for job, _ in jobs}
             for m in (1, 50, 5000)]
    source = RandomSource(SEED - n)
    calls = []
    chunk_stream = RandomSource.chunk_stream

    def recorded(self, job, chunk):
        calls.append((job, chunk))
        return chunk_stream(self, job, chunk)

    for plans in ([plan] * len(jobs), [zero] * len(jobs), own):
        drawing = [(job, trials) for p, (job, trials) in zip(plans, jobs)
                   if p.at_vertex is None]
        for law in laws:
            expected = np.zeros((len(jobs), n), dtype=np.int64)
            for row, p, (job, trials) in zip(expected, plans, jobs):
                if p.at_vertex is not None:
                    row[p.at_vertex] = trials
                    continue
                for c in range(-(-trials // CHUNK_TRIALS)):
                    size = min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS)
                    outcomes, _ = oracle_chunk_outcomes(law[job], p.u, size,
                                                        source.chunk_stream(job, c))
                    row += np.bincount(outcomes, minlength=n)
            with monkeypatch.context() as patch:
                patch.setattr(RandomSource, "chunk_stream", recorded)
                for workers in (1, 2):
                    calls.clear()
                    got = hm_sim.harness._count_jobs(plans, law.__getitem__, *zip(*jobs),
                                                     source, workers)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, expected)
                    assert sorted(calls) == sorted(
                        (job, c) for job, trials in drawing
                        for c in range(-(-trials // CHUNK_TRIALS)))
            if law[0].kind != "solipsistic":
                for row, p in zip(got, plans):
                    assert p is not zero or row[n // 2] == 0
            if plans is own:
                assert got[7].tolist() == [0, 100] + [0] * (n - 2)


def test_universal_average_holds_one_random_membrane_at_a_time():
    # Each random membrane of 10**6 cells holds about 16 MB (its weights and
    # their running sums); ten times the membranes may not grow the peak.
    import tracemalloc

    state = {"kind": "pure", "re": [0.6, 0.48, 0.64]}

    def peak(membranes):
        tracemalloc.start()
        try:
            universal_average_experiment(3, state, {"kind": "canonical"}, 10**6,
                                         membranes, 10, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(2), peak(20)
    assert many <= 1.25 * few, (few, many)


def test_library_batches_keep_no_simplex_alive(no_live_simplexes):
    # Each call prepares its own plan and drops it, so only the caller's
    # observables hold their simplexes: a kept plan would pin a third, the
    # canonical N = 32 simplex universal-average builds, and the other two
    # once the caller drops them.
    n = 32
    first, second = (Observable(n, tuple(PureState(n, frame[:, k]) for k in range(n)),
                                tuple(float(k) for k in range(n)))
                     for frame in (random_orthonormal_frame(np.random.default_rng(seed), n)
                                   for seed in (1, 2)))
    state = pure_to_density(random_pure_state(RandomSource(6), 0, n))
    [report] = batch_reports([state], first, MembraneModel.uniform(), 100, RandomSource(6))
    assert report.trials == 100
    assert born_identity_max_gap(state, second) <= 1e-9
    universal_average_experiment(n, {"kind": "preset", "name": "maximally_mixed"},
                                 {"kind": "canonical"}, 2, 2, 10, 6)
    assert len(hm_sim.geometry._simplexes) == 2
    del first, second, state
    assert len(hm_sim.geometry._simplexes) == 0


@pytest.mark.parametrize("kind", ("uniform", "cellular", "solipsistic"))
def test_sampler_memory_does_not_grow_with_trials(kind):
    # Sixteen times the trials may not double the peak: the sampler keeps
    # counts, not the outcome of every trial.
    import tracemalloc

    model = {
        "uniform": MembraneModel.uniform(),
        "cellular": MembraneModel.cellular(np.full(50, 0.02)),
        "solipsistic": MembraneModel.solipsistic(),
    }[kind]
    state = pure_to_density(random_pure_state(RandomSource(3), 1, 3))
    obs = canonical_observable(3)
    prepare_measurement(state, obs)  # builds the simplex, so neither peak holds it

    def peak(trials):
        tracemalloc.start()
        try:
            counts = sample_elementary_outcomes(state, obs, model, trials, RandomSource(5))
            return tracemalloc.get_traced_memory()[1], counts
        finally:
            tracemalloc.stop()

    small, few = peak(4 * CHUNK_TRIALS)
    large, many = peak(64 * CHUNK_TRIALS)
    assert few.sum() == 4 * CHUNK_TRIALS and many.sum() == 64 * CHUNK_TRIALS
    assert large <= 2 * small, (small, large)


def test_vertex_sample_counts_without_drawing(monkeypatch):
    # An eigenstate gives its own outcome with certainty: 10**15 trials are
    # one count, with no chunk drawn.
    def no_draws(self, job, chunk):
        raise AssertionError("a vertex sample drew a chunk")

    monkeypatch.setattr(RandomSource, "chunk_stream", no_draws)
    obs = canonical_observable(4)
    state = pure_to_density(PureState.basis_state(4, 2))
    counts = sample_elementary_outcomes(
        state, obs, MembraneModel.uniform(), 10**15, RandomSource(5), workers=2
    )
    assert counts.dtype == np.int64
    assert counts.tolist() == [0, 0, 10**15, 0]


def test_chi_square_exact_match_passes_with_zero_statistic():
    res = chi_square_check([250, 250, 500], [0.25, 0.25, 0.5])
    assert res.statistic == 0.0
    assert res.passed


def test_chi_square_uniform_die():
    rng = np.random.default_rng(SEED)
    counts = np.bincount(rng.integers(0, 6, 60000), minlength=6)
    res = chi_square_check(counts, np.full(6, 1 / 6))
    assert res.degrees_of_freedom == 5
    assert res.passed


def test_chi_square_concentrated_fails():
    res = chi_square_check([1000, 0, 0, 0], np.full(4, 0.25))
    assert not res.passed
    assert res.statistic > res.threshold


def test_chi_square_pools_rare_blocks_and_rejects_zero_counts():
    # block 2 has expected 5e-5 * 1000 = 0.05 < 10: pooled
    res = chi_square_check([500, 499, 1], [0.5, 0.49995, 5e-5])
    assert res.degrees_of_freedom == 2
    # The cut is 10 expected hits: of 10.1, 9, 8 and 972.9, block 0 is kept
    # and blocks 1 and 2 are pooled into one cell, so 3 cells and 2 dof.  A
    # cut at 5 hits would keep all four (3 dof), one at 10.2 pool block 0 (1).
    res = chi_square_check([11, 8, 7, 974], [0.0101, 0.0090, 0.0080, 0.9729])
    assert res.degrees_of_freedom == 2
    with pytest.raises(ConfigError):
        chi_square_check([0, 0], [0.5, 0.5])
    with pytest.raises(ConfigError, match="sum to 1"):
        chi_square_check([1, 1], [math.nan, 0.5])
    with pytest.raises(DimensionError):
        chi_square_check([1, 2, 3], [0.5, 0.5])


def test_chi_square_zero_probability_block_with_hits_is_infinite():
    for counts, expected in (([900, 90, 10], [0.9, 0.1, 0.0]), ([9, 1], [1.0, 0.0])):
        res = chi_square_check(counts, expected)
        assert math.isinf(res.statistic)
        assert not res.passed


def test_chi_square_all_pooled_noise_passes_at_zero_dof():
    # 10 die rolls: every block expects 10/6 < 10 hits, so all six are pooled
    # into one cell whose statistic is rounding noise against threshold 0.
    res = chi_square_check([2, 2, 3, 1, 2, 0], np.full(6, 1 / 6))
    assert res.degrees_of_freedom == 0 and res.threshold == 0.0
    assert 0.0 < res.statistic < 1e-20
    assert res.passed


# dof 1..159 read the table; 199 is past it and takes the scipy route.
@pytest.mark.parametrize("dof", [*range(1, len(_CHI2_THRESHOLDS) + 1), 199])
def test_chi_square_threshold_is_the_scipy_stats_quantile(dof):
    from scipy import stats

    # dof + 1 equiprobable cells of 100 counts each: none is pooled.
    cells = dof + 1
    res = chi_square_check([100] * cells, np.full(cells, 1 / cells))
    assert res.degrees_of_freedom == dof
    assert res.threshold == stats.chi2.ppf(0.999, dof)


def test_chi_square_table_is_the_formula_it_was_generated_from():
    # The test above checks each entry against scipy.stats.chi2.ppf too.
    expected = chi_square_thresholds(len(_CHI2_THRESHOLDS))
    assert _CHI2_THRESHOLDS == expected, (
        "regenerate harness._CHI2_THRESHOLDS:\n" + threshold_table_source(expected))


def test_chi_square_table_reaches_every_cli_dimension():
    from hm_sim.serialize import load_schema

    def dimension_maxima(node):
        if isinstance(node, dict):
            dimension = node.get("properties", {}).get("dimension", {})
            if "maximum" in dimension:
                yield dimension["maximum"]
            for child in node.values():
                yield from dimension_maxima(child)
        elif isinstance(node, list):
            for child in node:
                yield from dimension_maxima(child)

    # A config of the largest dimension with one cell (or fixed weights) has
    # dimension - 1 degrees of freedom; past the table the CLI imports scipy.
    largest = max(dimension_maxima(load_schema("config.schema.json")))
    assert len(_CHI2_THRESHOLDS) >= largest - 1


@pytest.mark.parametrize("p, k", [(1, 200), (2, 200), (5, 12)])
def test_hotelling_threshold_is_the_scipy_stats_quantile(p, k):
    from scipy import stats

    freqs = np.random.default_rng(SEED).dirichlet(np.ones(p + 1), size=k)
    res = _hotelling_check(freqs, np.full(p + 1, 1 / (p + 1)))
    assert res.degrees_of_freedom == p
    assert res.threshold == p * (k - 1) / (k - p) * stats.f.ppf(0.999, p, k - p)


def test_hotelling_defers_to_the_sigma_bands_when_membranes_never_vary():
    # Three one-trial membranes, all in block 0: the deviation from the
    # oracle lies along a direction with zero sample variance, which says
    # nothing about the between-membrane spread.
    res = _hotelling_check(np.array([[1.0, 0.0]] * 3), np.array([0.8, 0.2]))
    assert (res.statistic, res.degrees_of_freedom, res.threshold) == (0.0, 0, 0.0)
    assert res.passed


def test_single_cell_universal_average_equals_uniform_run():
    theta = math.pi / 3
    k, n = 5, 4000
    grand = universal_average_experiment(
        dimension=2,
        state={"kind": "bloch", "coordinates": [math.sin(theta), 0.0, math.cos(theta)]},
        observable={"kind": "canonical"},
        cell_count=1,
        membrane_samples=k,
        trials_per_membrane=n,
        master_seed=SEED,
    )
    flat = simulate_statistics(spin_config(theta, k * n))
    np.testing.assert_array_equal(
        grand.empirical_frequencies, flat.empirical_frequencies
    )
    assert grand.observed_counts == flat.observed_counts
    np.testing.assert_array_equal(grand.sigma, flat.sigma)
    assert grand.chi_square_statistic == flat.chi_square_statistic
    assert grand.sigma_model == flat.sigma_model == "binomial"


@pytest.mark.parametrize("n", (2, 3, 8))
@pytest.mark.parametrize("m", (2, 50))
def test_cellular_counts_follow_the_exact_cell_law(n, m):
    # A random membrane's counts fit its exact law and reject Born's, so
    # the fit can tell a changed draw from the same law.
    rng = np.random.default_rng(100 * n + m)
    state = pure_to_density(random_pure(rng, n))
    observable = canonical_observable(n)
    u = prepare_measurement(state, observable).u
    weights = rng.dirichlet(np.ones(m))
    law = cellular_outcome_law(u, weights)
    counts = sample_elementary_outcomes(
        state, observable, MembraneModel.cellular(weights), 200_000, RandomSource(n * m))
    assert chi_square_check(counts, law).passed
    assert not chi_square_check(counts, u).passed
    np.testing.assert_allclose(cellular_outcome_law(u, np.full(m, 1 / m)), u, rtol=0, atol=1e-15)


def test_all_weight_on_the_last_cell_gives_the_cell_law_not_born():
    # The README's expected failure: the last of 50 cells lies beyond
    # w_0 = u_0 = 0.75, so the break never tears towards vertex 0.
    report = universal_average_experiment(
        dimension=2,
        state={"kind": "bloch", "coordinates": [0.866025403784, 0.0, 0.5]},
        observable={"kind": "canonical"},
        cell_count=50,
        membrane_samples=3,
        trials_per_membrane=5000,
        master_seed=SEED,
        fixed_cell_weights=[0.0] * 49 + [1.0],
    )
    u = report.oracle_probabilities
    np.testing.assert_allclose(u, [0.75, 0.25], atol=1e-12)
    law = cellular_outcome_law(u, [0.0] * 49 + [1.0])
    assert law.tolist() == [0.0, 1.0]
    assert report.empirical_frequencies.tolist() == law.tolist()
    assert not report.passed


def test_universal_average_recovers_born():
    theta = math.pi / 3
    report = universal_average_experiment(
        dimension=2,
        state={"kind": "bloch", "coordinates": [math.sin(theta), 0.0, math.cos(theta)]},
        observable={"kind": "canonical"},
        cell_count=50,
        membrane_samples=200,
        trials_per_membrane=2000,
        master_seed=SEED,
    )
    np.testing.assert_allclose(report.oracle_probabilities, [0.75, 0.25], atol=1e-12)
    assert report.sigma_model == "between_membrane_se"
    assert report.passed
    # the between-membrane spread is far larger than the binomial scale
    assert np.all(report.sigma >= np.sqrt(0.25 * 0.75 / report.trials))


def test_adversarial_membrane_fails_born():
    # All weight on the slab next to the first vertex: breaks land near it,
    # so the membrane almost always contracts away from vertex 0.
    theta = math.pi / 3
    weights = np.zeros(50)
    weights[-1] = 1.0
    report = universal_average_experiment(
        dimension=2,
        state={"kind": "bloch", "coordinates": [math.sin(theta), 0.0, math.cos(theta)]},
        observable={"kind": "canonical"},
        cell_count=50,
        membrane_samples=1,
        trials_per_membrane=4000,
        master_seed=SEED,
        fixed_cell_weights=weights,
    )
    assert not report.passed
    assert report.sigma_model == "binomial"
    assert report.empirical_frequencies[1] > 0.9


def test_universal_average_with_few_membranes_degrades_to_bands():
    report = universal_average_experiment(
        dimension=2,
        state={"kind": "bloch", "coordinates": [1.0, 0.0, 0.0]},
        observable={"kind": "canonical"},
        cell_count=5,
        membrane_samples=2,
        trials_per_membrane=2000,
        master_seed=SEED,
    )
    assert report.sigma_model == "between_membrane_se"
    assert report.degrees_of_freedom == 0  # covariance not estimable from K=2


def test_scaling_law_slope():
    # max deviation shrinks like 1/sqrt(trials): fitted log-log slope near -0.5
    theta = 1.1
    slopes = []
    for seed in range(20):
        devs = []
        for trials in (1000, 10000, 100000):
            report = simulate_statistics(spin_config(theta, trials, seed=seed))
            devs.append(max(float(report.per_block_deviation.max()), 1e-12))
        slope = np.polyfit(np.log([1000, 10000, 100000]), np.log(devs), 1)[0]
        slopes.append(slope)
    mean_slope = float(np.mean(slopes))
    assert -0.65 <= mean_slope <= -0.35


def test_config_validation():
    # The batch checks trials and the specs, so the config is built unchecked.
    with pytest.raises(ConfigError):
        simulate_statistics(
            ExperimentConfig(2, {"kind": "preset", "name": "maximally_mixed"},
                             {"kind": "canonical"}, {"kind": "uniform"}, 0, 1)
        )
    with pytest.raises(ConfigError, match="unknown membrane kind 'nope'"):
        simulate_statistics(
            ExperimentConfig(2, {"kind": "preset", "name": "maximally_mixed"},
                             {"kind": "canonical"}, {"kind": "nope"}, 10, 1)
        )
    with pytest.raises(ConfigError):
        simulate_statistics(
            ExperimentConfig(2, {"kind": "nope"}, {"kind": "canonical"},
                             {"kind": "uniform"}, 10, 1)
        )


@pytest.mark.parametrize("states, trials, tolerance_sigmas, bad", [
    (1, 0, 4.0, "trials"), (1, -5, 4.0, "trials"),
    (1, 100, 0.0, "tolerance_sigmas"), (1, 100, -1.0, "tolerance_sigmas"),
    (0, 100, 4.0, "at least one state"),
])
def test_batch_reports_rejects_bad_states_trials_and_tolerance(states, trials,
                                                               tolerance_sigmas, bad):
    # Warnings are errors here, so a RuntimeWarning before the ConfigError fails too.
    state = pure_to_density(PureState.normalized([1.0, 1.0]))
    with pytest.raises(ConfigError, match=bad):
        batch_reports([state] * states, canonical_observable(2), MembraneModel.uniform(),
                      trials, RandomSource(1), tolerance_sigmas)
