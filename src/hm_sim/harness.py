"""Monte Carlo experiment runner and statistical acceptance checks.

Batches of membrane measurements are executed vectorized: breaking points
are drawn as rows of barycentric weights (uniform ones up to scale) and
classified against the landed state point, a run of at least 1024 rows of
at most 8 outcomes column by column, else in one argmin.  One thread runs
about 13-48 million uniform trials per CPU second at N = 8 down to N = 2,
8-39 million cellular (50 cells) and 116-127 million solipsistic ones
(2-vCPU Xeon VM, numpy 2.4.6, one BLAS thread, batches of 2 * 10^6
trials, best of 3).

One sampler route counts every experiment: a list of jobs, each (job id,
trials) on a prepared measurement of a state (a plan) and a membrane of
its own.  ``batch_reports`` runs one job per state, each on its own plan,
and a universal average one job per membrane, all on one plan; no plan
outlives its call.  A job's trials are cut into fixed-size chunks, each
drawing its random part from its own stream (a cellular chunk finds its
cells on its own membrane, which is then dropped), and consecutive chunks
are packed into blocks of at most CHUNK_TRIALS rows.  One pass weights a
block, one classifies each run of its rows on one plan, and one counts it.
So a job of 100 trials costs its stream and its membrane, not a chunk's
fixed costs.  A batch keeps only the count of each outcome, so its memory
does not grow with the number of trials, and its counts do not depend on
execution order or on how many workers share the blocks.  The preparation
carries two probability routes, the Hilbert-space oracle Tr(D P_i) and the
membrane geometry (barycentric coordinates of the projected state), which
must agree to 1e-9 or the run aborts.  One verdict per plan then compares
the outcome-block counts to the oracle: binomial sigma bands and Pearson
chi-square, or, over random membranes, between-membrane bands and
Hotelling T^2.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bloch import (
    BlochVector,
    DensityOperator,
    PureState,
    bloch_to_density,
    density_to_bloch,  # noqa: F401  (the benchmark tracer patches this binding)
    pure_to_density,
)
from .dynamics import (
    MembraneModel,
    RandomSource,
    _block_outcomes,
    _draw_chunk,
    prepare_measurement,
)
from .errors import ConfigError, DimensionError, OracleMismatchError
from .geometry import Observable, born_probabilities, canonical_observable, spin_observable

# Trials per chunk.  Fixed: chunk boundaries define the random streams, so
# changing this constant changes results, but worker counts never do.
CHUNK_TRIALS = 8192

# Both fit checks, chi-square and Hotelling T^2, pass below this quantile.
_VERDICT_QUANTILE = 0.999

# The chi-square thresholds 2 * gammaincinv(dof / 2, _VERDICT_QUANTILE) for
# dof = 1..159, as scipy 1.17.1 computes them and written by repr, so each
# reads back bit for bit.  dof 159 is the most any command reaches
# (universal-average at the schema's largest dimension, 160).  Looking the
# threshold up spares every verdict command the scipy.special import;
# tests/helpers.py regenerates the table and checks it against scipy.
_CHI2_THRESHOLDS = (
    10.827566170662733, 13.815510557964274, 16.26623619623813, 18.46682695290317,
    20.515005652432873, 22.457744484825323, 24.321886347856854, 26.12448155837614,
    27.877164871256568, 29.58829844507442, 31.264133620239985, 32.90949040736021,
    34.52817897487089, 36.12327368039813, 37.69729821835383, 39.252354790768464,
    40.79021670690253, 42.31239633167996, 43.82019596451753, 45.31474661812586,
    46.797038041561315, 48.26794229083518, 49.7282324664315, 51.17859777737739,
    52.619655776172834, 54.05196238857664, 55.47602020574521, 56.892285393353625,
    58.301173489794905, 59.70306430442994, 61.098306081058126, 62.487219057088474,
    63.870098522344946, 65.24721746094244, 66.61882884370104, 67.98516762602424,
    69.3464524962412, 70.70288741150503, 72.0546629519878, 73.40195751899103,
    74.74493839842374, 76.08376270770002, 77.41857824131394, 78.74952422804303,
    80.07673201081901, 81.40032565870999, 82.72042251912399, 84.03713371722348,
    85.35056460859305, 86.66081519040317, 87.96798047562868, 89.27215083430448,
    90.5734123052986, 91.8718468816601, 93.16753277222854, 94.46054464187807,
    95.75095383248956, 97.03882856650883, 98.32423413474163, 99.60723306984946,
    100.8878853068583, 102.16624833184879, 103.44237731987324, 104.71632526304057,
    105.98814308961282, 107.25787977487072, 108.52558244443486, 109.79129647066172,
    111.05506556267146, 112.31693185051572, 113.57693596394476, 114.83511710619328,
    116.09151312316095, 117.34616056833929, 118.59909476379528, 119.85034985750531,
    121.09995887729859, 122.34795378165676, 123.59436550758484, 124.83922401576478,
    126.08255833316952, 127.32439659331791, 128.56476607432293, 129.80369323488026,
    131.04120374833502, 132.27732253494605, 133.51207379246583, 134.7454810251423,
    135.97756707124026, 137.20835412917324, 138.437863782331, 139.66611702268335,
    140.8931342732306, 142.11893540936777, 143.34353977923126, 144.56696622308277,
    145.7892330917839, 147.01035826441762, 148.23035916510173, 149.44925277903886,
    150.66705566784537, 151.88378398420096, 153.09945348584796, 154.31407954898623,
    155.5276771810864, 156.740261033153, 157.95184541147285, 159.1624442888655,
    160.37207131546973, 161.58073982908158, 162.78846286507468, 163.9952531659132,
    165.2011231902913, 166.40608512190016, 167.61015087785867, 168.81333211680516,
    170.01564024668554, 171.21708643223513, 172.41768160217916, 173.6174364561601,
    174.81636147140657, 176.01446690915446, 177.21176282083061, 178.40825905401258,
    179.60396525816938, 180.79889089020068, 181.9930452197729, 183.18643733447217,
    184.37907614477075, 185.57097038882497, 186.76212863710677, 187.95255929687283,
    189.1422706164864, 190.33127068958913, 191.5195674591372, 192.70716872129785,
    193.89408212922336, 195.0803151966945, 196.26587530165207, 197.45076968960848,
    198.63500547695546, 199.8185896541588, 201.00152908886196, 202.1838305288837,
    203.36550060512525, 204.54654583438844, 205.72697262210653, 206.9067872649892,
    208.08599595359124, 209.26460477480072, 210.44261971425405, 211.62004665867843,
    212.79689139816605, 213.97315962838022, 215.1488569526981, 216.32398888429128,
    217.49856084814567, 218.67257818302437, 219.8460461433745,
)

# The default sigma band of every verdict.
TOLERANCE_SIGMAS = 4.0


# --- experiment specification -------------------------------------------------


def _amplitudes(spec: dict, dimension: int, what: str) -> np.ndarray:
    """The complex amplitudes of a JSON ``re``/``im`` spec, checked for length."""
    re = np.asarray(spec["re"], dtype=float)
    im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (dimension,) or im.shape != (dimension,):
        raise ConfigError(
            f"{what} needs {dimension} amplitudes, got {re.shape}/{im.shape}"
        )
    return re + 1j * im


def resolve_state_spec(spec: dict, dimension: int) -> DensityOperator:
    """Build the initial density operator from a JSON-shaped spec."""
    kind = spec.get("kind")
    if kind == "pure":
        return pure_to_density(
            PureState.normalized(_amplitudes(spec, dimension, "pure state"))
        )
    if kind == "bloch":
        coords = np.asarray(spec["coordinates"], dtype=float)
        return bloch_to_density(BlochVector(dimension, coords))
    if kind == "preset":
        name = spec.get("name")
        if name == "maximally_mixed":
            return DensityOperator.maximally_mixed(dimension)
        if name == "basis":
            return pure_to_density(PureState.basis_state(dimension, int(spec["index"])))
        raise ConfigError(f"unknown state preset {name!r}")
    raise ConfigError(f"unknown state kind {kind!r}")


def resolve_observable_spec(spec: dict, dimension: int) -> Observable:
    kind = spec.get("kind")
    if kind == "canonical":
        return canonical_observable(dimension, spec.get("labels"))
    if kind == "spin_axis":
        if dimension != 2:
            raise ConfigError("spin_axis observables require dimension 2")
        return spin_observable(spec["axis"])
    if kind == "explicit":
        states = tuple(
            PureState(dimension, _amplitudes(s, dimension, "eigenstate"))
            for s in spec["eigenstates"]
        )
        return Observable(dimension, states, tuple(spec["labels"]))
    raise ConfigError(f"unknown observable kind {kind!r}")


def resolve_membrane_spec(spec: dict) -> MembraneModel:
    kind = spec.get("kind")
    if kind == "uniform":
        return MembraneModel.uniform()
    if kind == "solipsistic":
        return MembraneModel.solipsistic()
    if kind == "cellular":
        return MembraneModel.cellular(spec["weights"])
    raise ConfigError(f"unknown membrane kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete Monte Carlo experiment: state, observable, membrane, trials.

    The state/observable/membrane fields hold the JSON-shaped specs used by
    config files; ``simulate_statistics`` resolves them for library callers
    and the benchmark, which hold specs.  The CLI resolves its own config.
    """

    dimension: int
    state: dict
    observable: dict
    membrane: dict
    trials: int
    master_seed: int
    tolerance_sigmas: float = TOLERANCE_SIGMAS


# --- vectorized sampling -------------------------------------------------------


def sample_elementary_outcomes(
    state: DensityOperator,
    observable: Observable,
    model: MembraneModel,
    trials: int,
    source: RandomSource,
    job: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """N int64 counts: how often each elementary outcome occurs in ``trials`` runs.

    A library and benchmark entry point for one job: ``job`` namespaces the
    random streams so parts sharing one master seed stay independent, and
    ``workers`` only affects wall time.  Each call prepares the state anew.
    """
    plan = prepare_measurement(state, observable)
    return _count_jobs([plan], lambda _: model, [job], [trials], source, workers)[0]


def _blocks(jobs, trials):
    """The blocks of ``trials[i]`` runs of each job id ``jobs[i]``.

    A block is a list of (i, job id, chunk, size).  A job's runs are cut
    into chunks of CHUNK_TRIALS and a shorter last one; consecutive chunks
    share a block of at most CHUNK_TRIALS rows while they fit.  A full
    chunk fills a block of its own, so a job appears at most once in a
    block, and a block's job numbers i rise, skipping only jobs of 0 runs.
    """
    block, rows = [], 0
    for slot, (job, count) in enumerate(zip(jobs, trials)):
        for c in range((count + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
            size = min(CHUNK_TRIALS, count - c * CHUNK_TRIALS)
            if rows + size > CHUNK_TRIALS:
                yield block
                block, rows = [], 0
            block.append((slot, job, c, size))
            rows += size
    if block:
        yield block


def _count_jobs(plans, membrane, jobs, trials, source, workers) -> np.ndarray:
    """(len(jobs), N) int64 outcome counts of ``trials[i]`` runs of job id ``jobs[i]``.

    Job j = ``jobs[i]`` measures ``plans[i]`` on the membrane ``membrane(j)``;
    the plans share one N, the membranes one kind and cell count.  A job on
    an eigenstate counts its runs there (first kind) and draws nothing; any
    other job's chunk c draws from ``source.chunk_stream(j, c)``, whatever
    else shares its block (``_blocks``).  A worker draws each chunk's
    random part into its block's arrays, its cells or vertex indices into
    ``drawn``, building the chunk's membrane unless it holds that job's
    already; it drops the one it holds first, so each worker holds at most
    one membrane.  Then one pass weights the block, one classifies each run
    of its rows on one plan, and one ``bincount`` of i * N + outcome counts
    it.  Worker w runs blocks w, w + workers, ...; integer sums are exact
    in any order, so counts do not depend on ``workers``.  No more threads
    run than blocks or CPUs, and a single one needs no pool.  A job split
    over the blocks of two workers builds its membrane in each.
    """
    n = len(plans[0].u)
    counts = np.zeros((len(jobs), n), dtype=np.int64)
    if min(trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {min(trials)}")
    drawing = list(trials)  # the runs each job draws
    for i, plan in enumerate(plans):
        if plan.at_vertex is not None:
            counts[i, plan.at_vertex], drawing[i] = trials[i], 0
    rows = min(CHUNK_TRIALS, sum(drawing))
    workers = (min(workers, sum(1 for _ in _blocks(jobs, drawing)) or 1, os.cpu_count() or 1)
               if workers > 1 else 1)
    lock = threading.Lock()

    def count_blocks(w: int) -> None:
        v, work = np.empty((rows, n)), np.empty(rows * n)
        x, drawn = np.empty(rows), np.empty(rows, dtype=np.intp)
        held = held_slot = None
        for block in itertools.islice(_blocks(jobs, drawing), w, None, workers):
            lo, heads = 0, []
            for slot, job, c, size in block:
                if slot != held_slot:
                    held = None
                    held, held_slot = membrane(job), slot
                hi = lo + size
                part = _draw_chunk(held, source.chunk_stream(job, c), v[lo:hi],
                                   work[lo * (n - 1):hi * (n - 1)], x[lo:hi])
                if part is not None:
                    drawn[lo:hi] = part
                heads.append((lo, plans[slot].u))
                lo = hi
            outcomes = _block_outcomes(held.kind, held.cell_count, v[:lo], work, x[:lo],
                                       drawn[:lo], heads)
            first, last = block[0][0], block[-1][0]
            if len(block) > 1:  # a lone chunk's offsets are all 0
                outcomes = outcomes + np.repeat([(slot - first) * n for slot, *_ in block],
                                                [size for *_, size in block])
            hits = np.bincount(outcomes, minlength=(last - first + 1) * n).reshape(-1, n)
            with lock:
                counts[first:last + 1] += hits

    if workers == 1:
        count_blocks(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(count_blocks, range(workers)))
    return counts


# --- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    degrees_of_freedom: int
    threshold: float
    passed: bool


def chi_square_check(observed_counts, expected_probabilities) -> ChiSquareResult:
    """Pearson goodness-of-fit against the given expected probabilities.

    Blocks with expected probability below 10/total are pooled into one;
    the threshold is the 0.999 quantile of chi-square with
    (retained blocks - 1) degrees of freedom.  With 0 degrees of freedom
    the one cell's observed and expected counts agree up to rounding, so
    only an infinite statistic (hits in a zero-probability block) fails.
    """
    observed = np.asarray(observed_counts, dtype=float)
    expected = np.asarray(expected_probabilities, dtype=float)
    if observed.shape != expected.shape:
        raise DimensionError("observed and expected shapes differ")
    total = float(observed.sum())
    if total <= 0:
        raise ConfigError("cannot test all-zero counts")
    if not abs(float(expected.sum()) - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigError("expected probabilities must sum to 1")

    retain = expected >= 10.0 / total
    cells = int(retain.sum())
    statistic = 0.0
    for o, e in zip(observed[retain], expected[retain] * total):
        statistic += (o - e) ** 2 / e
    pooled_obs = float(observed[~retain].sum())
    pooled_exp = float(expected[~retain].sum()) * total
    if np.any(~retain):
        if pooled_exp > 0.0:
            statistic += (pooled_obs - pooled_exp) ** 2 / pooled_exp
            cells += 1
        elif pooled_obs > 0.0:
            statistic = float("inf")

    dof = max(cells - 1, 0)
    if dof == 0:
        threshold = 0.0
    elif dof <= len(_CHI2_THRESHOLDS):
        threshold = _CHI2_THRESHOLDS[dof - 1]
    else:
        # Only library callers get past the table; imported here so that no
        # CLI verdict loads scipy for it.
        from scipy.special import gammaincinv

        # The chi-square quantile, as scipy.stats.chi2.ppf computes it.
        threshold = 2.0 * float(gammaincinv(dof / 2, _VERDICT_QUANTILE))
    passed = statistic <= threshold if dof >= 1 else np.isfinite(statistic)
    return ChiSquareResult(float(statistic), dof, threshold, bool(passed))


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Empirical block frequencies versus the Born oracle.

    ``sigma`` holds the one-sigma scale per block; ``sigma_model`` records
    whether it is the plain binomial scale sqrt(p(1-p)/trials) or the
    between-membrane standard error used by the universal-average
    experiment.  ``passed`` (serialized as "pass") requires every deviation
    within tolerance_sigmas * sigma and the chi-square statistic below its
    0.999-quantile threshold.
    """

    block_labels: tuple[float, ...]
    observed_counts: tuple[int, ...]
    empirical_frequencies: np.ndarray
    oracle_probabilities: np.ndarray
    per_block_deviation: np.ndarray
    sigma: np.ndarray
    sigma_model: str
    tolerance_sigmas: float
    trials: int
    chi_square_statistic: float
    chi_square_threshold: float
    degrees_of_freedom: int
    passed: bool
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        freq = np.asarray(self.empirical_frequencies, dtype=float)
        if not abs(float(freq.sum()) - 1.0) <= 1e-12:  # NaN fails too
            raise OracleMismatchError("empirical frequencies must sum to 1")


def _verdict(
    observable, counts, born, tolerance_sigmas, meta, between_membranes=None
) -> ConvergenceReport:
    """Sigma bands and a fit check of ``counts`` against ``born``, each summed by block.

    The bands are binomial, and the check is Pearson's chi-square, unless
    ``between_membranes`` gives the between-membrane standard error and the
    Hotelling result of random membranes: then each band is the larger of
    the two scales, and Hotelling decides the fit.
    """
    if not tolerance_sigmas > 0:  # NaN fails too
        raise ConfigError(f"tolerance_sigmas must be positive, got {tolerance_sigmas}")
    counts, oracle_blocks = observable.block_sums(counts), observable.block_sums(born)
    trials = int(counts.sum())
    # A block's Born sum may round to just above 1; p(1 - p) is then 0, not negative.
    sigma = np.sqrt(np.maximum(oracle_blocks * (1 - oracle_blocks), 0.0) / trials)
    if between_membranes is None:
        sigma_model, chi = "binomial", chi_square_check(counts, oracle_blocks)
    else:
        se, chi = between_membranes
        sigma_model, sigma = "between_membrane_se", np.maximum(se, sigma)
    freq = counts / trials
    dev = np.abs(freq - oracle_blocks)
    bands_ok = bool(np.all(dev <= tolerance_sigmas * sigma + 1e-15))
    return ConvergenceReport(
        block_labels=tuple(observable.block_labels),
        observed_counts=tuple(int(c) for c in counts),
        empirical_frequencies=freq,
        oracle_probabilities=oracle_blocks,
        per_block_deviation=dev,
        sigma=sigma,
        sigma_model=sigma_model,
        tolerance_sigmas=tolerance_sigmas,
        trials=trials,
        chi_square_statistic=chi.statistic,
        chi_square_threshold=chi.threshold,
        degrees_of_freedom=chi.degrees_of_freedom,
        passed=bool(bands_ok and chi.passed),
        meta=meta,
    )


def batch_reports(states, observable, model, trials, source,
                  tolerance_sigmas=TOLERANCE_SIGMAS, workers=1) -> list:
    """A verdict per state on ``trials`` runs, job i for state i, in one job list.

    The batch entry point of every command: each verdict takes its oracle
    from the plan its counts ran on; ``workers`` only changes wall time.
    """
    if not states:
        raise ConfigError("batch_reports needs at least one state")
    plans = [prepare_measurement(state, observable) for state in states]
    counts = _count_jobs(plans, lambda _: model, range(len(plans)), [trials] * len(plans),
                         source, workers)
    return [_verdict(observable, c, p.born, tolerance_sigmas, {}) for p, c in zip(plans, counts)]


def simulate_statistics(
    config: ExperimentConfig, job: int = 0, workers: int = 1
) -> ConvergenceReport:
    """A spec-dict batch, a library and benchmark entry point; ``job`` keys its streams.

    It counts through ``sample_elementary_outcomes``, whose span the bench tracer and
    ``tests/test_bench_bindings.py`` pin, and judges against ``born_probabilities``.
    """
    state = resolve_state_spec(config.state, config.dimension)
    observable = resolve_observable_spec(config.observable, config.dimension)
    counts = sample_elementary_outcomes(state, observable,
                                        resolve_membrane_spec(config.membrane), config.trials,
                                        RandomSource(config.master_seed), job, workers)
    return _verdict(observable, counts, born_probabilities(state, observable),
                    config.tolerance_sigmas, {})


def _hotelling_check(
    membrane_freqs: np.ndarray, oracle_blocks: np.ndarray
) -> ChiSquareResult:
    """Hotelling T^2 of the per-membrane frequency vectors against the oracle.

    The grand mean over random membranes carries between-membrane variance on
    top of multinomial noise, so a plain Pearson statistic on pooled counts
    would be wildly anticonservative; T^2 uses the empirical covariance of
    the K membrane frequency vectors instead.
    """
    k, b = membrane_freqs.shape
    p = b - 1
    if p >= 1 and k > p + 1:
        x = membrane_freqs[:, :p]
        diff = x.mean(axis=0) - oracle_blocks[:p]
        cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        pinv = np.linalg.pinv(cov)
        off_range = np.linalg.norm(cov @ (pinv @ diff) - diff)
        if off_range <= 1e-12 * (1 + np.linalg.norm(diff)):
            t2 = float(k * diff @ pinv @ diff)
            scale = p * (k - 1) / (k - p)
            # Imported here so that only universal-average over random
            # membranes loads scipy.
            from scipy.special import fdtri

            # The F quantile, as scipy.stats.f.ppf computes it.
            threshold = scale * float(fdtri(p, k - p, _VERDICT_QUANTILE))
            return ChiSquareResult(t2, p, threshold, bool(t2 <= threshold))
    # One block leaves no frequency free to test, too few membranes cannot
    # estimate the covariance, and a deviation outside its range lies along a
    # direction in which the membrane frequencies never varied (few trials per
    # membrane), which T^2 cannot weigh: the sigma bands decide instead.
    return ChiSquareResult(0.0, 0, 0.0, True)


def _random_membrane(rng, cell_count) -> MembraneModel:
    """A membrane whose cell weights are normalized unit-rate exponentials.

    The membrane keeps a frozen copy of the draw, which is freed on return.
    """
    e = rng.standard_exponential(cell_count)
    e /= e.sum()
    return MembraneModel.cellular(e)


def universal_average_experiment(
    dimension: int,
    state: dict,
    observable: dict,
    cell_count: int,
    membrane_samples: int,
    trials_per_membrane: int,
    master_seed: int,
    tolerance_sigmas: float = TOLERANCE_SIGMAS,
    fixed_cell_weights=None,
    workers: int = 1,
) -> ConvergenceReport:
    """Born-rule recovery as an average over random non-uniform membranes.

    Draws ``membrane_samples`` cellular membranes whose cell weights are
    uniform on the probability simplex (normalized unit-rate exponentials),
    runs ``trials_per_membrane`` measurements on each, and reports the
    grand-average block frequencies against the Born oracle.  Expectation
    over the weight distribution equals the uniform membrane exactly because
    the cells are equal-measure, so the grand average must satisfy the Born
    bands even though individual membranes need not.

    ``fixed_cell_weights`` pins every membrane to one explicit weight vector,
    one weight per cell, instead (used to exhibit adversarial non-uniform
    membranes); the report then uses plain binomial statistics.
    """
    if cell_count < 1:
        raise ConfigError("cell_count must be >= 1")
    if membrane_samples < 1:
        raise ConfigError("membrane_samples must be >= 1")
    if fixed_cell_weights is not None and len(fixed_cell_weights) != cell_count:
        raise ConfigError(
            f"fixed_cell_weights has {len(fixed_cell_weights)} entries "
            f"for {cell_count} cells"
        )
    # One membrane for the whole run, whose lookup table a long enough draw
    # builds once; built first, so that one cell cannot hide bad weights.
    fixed = (None if fixed_cell_weights is None
             else MembraneModel.cellular(fixed_cell_weights))

    state_op = resolve_state_spec(state, dimension)
    observable_op = resolve_observable_spec(observable, dimension)
    source = RandomSource(master_seed)
    k, n = membrane_samples, trials_per_membrane
    plan = prepare_measurement(state_op, observable_op)
    if cell_count == 1:
        # Single full-simplex cell: every membrane is the uniform one.  Run a
        # single uniform job so the result is draw-for-draw identical to the
        # plain uniform-membrane experiment with k*n trials.
        uniform = MembraneModel.uniform()
        membrane, jobs, trials = (lambda _: uniform), [0], [k * n]
    else:
        # Membrane i is built where its trials run, and dropped before the next.
        membrane = ((lambda _: fixed) if fixed is not None else
                    (lambda i: _random_membrane(source.membrane_stream(i), cell_count)))
        jobs, trials = range(k), [n] * k
    counts = _count_jobs([plan] * len(jobs), membrane, jobs, trials, source, workers)

    between_membranes = None
    if cell_count > 1 and fixed is None and k >= 2:
        membrane_freqs = observable_op.block_sums(counts) / n
        se = np.std(membrane_freqs, axis=0, ddof=1) / np.sqrt(k)
        between_membranes = se, _hotelling_check(membrane_freqs,
                                                 observable_op.block_sums(plan.born))

    meta = {
        "cells": cell_count,
        "membranes": k,
        "trials_per_membrane": n,
        "fixed_cell_weights": fixed_cell_weights is not None,
    }
    return _verdict(
        observable_op, counts.sum(axis=0), plan.born, tolerance_sigmas, meta, between_membranes
    )


# --- random test states ---------------------------------------------------------


def random_pure_state(source: RandomSource, index: int, dimension: int) -> PureState:
    """Deterministic random pure state number ``index`` for a master seed."""
    rng = source.state_stream(index)
    a = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return PureState.normalized(a)


def born_identity_max_gap(
    state: DensityOperator, observable: Observable
) -> float:
    """Max componentwise gap between the geometric and Born probabilities.

    A library and benchmark entry point, a new plan's ``oracle_gap``; a gap
    above ``dynamics.ORACLE_TOL`` raises OracleMismatchError instead.
    """
    return prepare_measurement(state, observable).oracle_gap
