"""Breakable-membrane measurement dynamics.

A measurement run unfolds in three stages: the state point falls
orthogonally onto the measurement simplex and sticks (decoherence-like),
the membrane breaks at a random point whose subregion determines the
elementary outcome (collapse-like), and for degenerate outcomes the point
re-emerges at the Lueders state of the outcome block (purification-like).
The posterior always equals P_M D P_M / Tr(P_M D P_M), so immediately
repeating the measurement reproduces the same outcome block with certainty.

Membrane models control where the break can occur: ``uniform`` breaks
anywhere with equal density (and reproduces the Born rule), ``solipsistic``
breaks only at the vertices with probability 1/N each (outcome statistics
independent of any non-eigenstate input, the classical-die regime), and
``cellular`` partitions the simplex into m equal-measure cells carrying
arbitrary probability weights (the stand-in for non-uniform membranes;
a single cell holding all the weight is the almost-deterministic limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bloch import (
    ALGEBRAIC_TOL,
    EIGEN_TOL,
    BlochVector,
    DensityOperator,
    bloch_to_density,
    density_to_bloch,
    _frozen,
    _unit,
)
from .errors import (
    ConfigError,
    DimensionError,
    ImpossibleOutcomeError,
    InvalidStateError,
    OracleMismatchError,
)
from .geometry import (
    Observable,
    _classify_by_columns,
    barycentric_coordinates,
    born_probabilities,
    classify_weights,
    project_onto_face,
    project_onto_membrane,
    spin_observable,
)

VERTEX_TOL = 1e-10      # a state this close to a vertex is that eigenstate
MIN_BLOCK_PROB = 1e-14  # sampling an outcome below this signals a bug
ORACLE_TOL = 1e-9       # max gap between the geometric and Born probabilities
PLAN_CACHE_SIZE = 8     # plans kept: a re-measured state and up to 7 posteriors

# Stream-domain tags keep trial, chunk and membrane draws independent.
_DOMAIN_TRIAL = 0
_DOMAIN_CHUNK = 1
_DOMAIN_MEMBRANE = 2
_DOMAIN_STATE = 3


@dataclass(frozen=True)
class RandomSource:
    """Root of all randomness: a 64-bit master seed plus stream derivation.

    Every consumer derives its own generator from (master_seed, domain,
    index...) through ``numpy``'s SeedSequence mixing, so identical indices
    give identical draws regardless of execution order or worker count.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ConfigError("master_seed must fit in 64 unsigned bits")

    def _stream(self, domain: int, *indices: int) -> np.random.Generator:
        entropy = (int(self.master_seed), domain, *(int(i) for i in indices))
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def trial_stream(self, trial: int) -> np.random.Generator:
        """Generator for one single-shot measurement trial."""
        return self._stream(_DOMAIN_TRIAL, trial)

    def chunk_stream(self, job: int, chunk: int) -> np.random.Generator:
        """Generator for one fixed-size trial chunk of a batch job."""
        return self._stream(_DOMAIN_CHUNK, job, chunk)

    def membrane_stream(self, index: int) -> np.random.Generator:
        """Generator for drawing the cell weights of membrane ``index``."""
        return self._stream(_DOMAIN_MEMBRANE, index)

    def state_stream(self, index: int) -> np.random.Generator:
        """Generator for drawing random test states."""
        return self._stream(_DOMAIN_STATE, index)


@dataclass(frozen=True, eq=False)
class MembraneModel:
    """Breaking-point law of the elastic membrane."""

    kind: str
    cell_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "solipsistic", "cellular"):
            raise ConfigError(f"unknown membrane kind {self.kind!r}")
        if self.kind == "cellular":
            w = np.asarray(self.cell_weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ConfigError(
                    f"cell weights must be a non-empty 1-D array, got shape {w.shape}"
                )
            if not (w.min() >= 0.0 and w.max() <= 1.0):  # NaN fails too; sum stays finite
                raise ConfigError("cell weights must lie in [0, 1]")
            if not abs(float(w.sum()) - 1.0) <= 1e-12:
                raise ConfigError(f"cell weights sum to {w.sum()}, expected 1")
            object.__setattr__(self, "cell_weights", _frozen(w))
        elif self.cell_weights is not None:
            raise ConfigError(f"{self.kind} membrane takes no cell weights")

    @property
    def cell_count(self) -> int:
        """One cell per weight of a cellular membrane; 1 for the others."""
        return 1 if self.cell_weights is None else len(self.cell_weights)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """Running sums of the cell weights, the keys a cellular draw searches."""
        return np.cumsum(self.cell_weights)

    @cached_property
    def _buckets(self) -> np.ndarray:
        """Cell per bucket of [0, 1), built on the first draw long enough to use it."""
        return _bucket_table(self._cumulative)

    @classmethod
    def uniform(cls) -> "MembraneModel":
        return cls("uniform")

    @classmethod
    def solipsistic(cls) -> "MembraneModel":
        return cls("solipsistic")

    @classmethod
    def cellular(cls, cell_weights) -> "MembraneModel":
        return cls("cellular", cell_weights)


# --- cell geometry -----------------------------------------------------------
#
# The simplex is sliced into m cells of exactly equal uniform measure using
# the first barycentric coordinate w_0: under the uniform law w_0 ~
# Beta(1, N-1), so F(w) = 1 - (1 - w)^(N-1) is uniform on [0, 1) and the
# preimages of [i/m, (i+1)/m) are equal-probability slabs.  Sampling inside
# cell i draws the slab coordinate uniformly, inverts F, and fills the
# remaining coordinates with a uniform point of the opposite face.
#
# A draw picks its cell as np.searchsorted(cs, r) over the cumulative cell
# weights cs.  A draw of at least _BUCKETS keys looks most of them up in a
# table of _BUCKETS equal buckets of [0, 1) instead, built once per membrane:
# key r lies in bucket int(r * _BUCKETS), exactly, since _BUCKETS is a power
# of two, and a bucket that holds no value of cs maps every key in it to the
# same cell.  Building the table is one search of _BUCKETS + 1 keys, so a
# shorter draw would not repay it.

_BUCKETS = 4096


def _bucket_table(cs: np.ndarray) -> np.ndarray:
    """The cell of every key in each bucket that holds no value of ``cs``, else -1."""
    lo = np.searchsorted(cs, np.arange(_BUCKETS + 1) / _BUCKETS)
    return np.where(lo[:-1] == lo[1:], lo[:-1], -1)


def _find_cells(cs: np.ndarray, table: np.ndarray, r: np.ndarray) -> np.ndarray:
    """np.searchsorted(cs, r) for keys in [0, 1), through ``_bucket_table(cs)``."""
    cells = table[(r * _BUCKETS).astype(np.intp)]
    ambiguous = np.flatnonzero(cells < 0)
    cells[ambiguous] = np.searchsorted(cs, r[ambiguous])
    return cells


def _by_columns(count: int, n: int) -> bool:
    """Whether a draw of ``count`` breaks is normalised and classified by columns.

    numpy's inner loop runs along a row, so a long chunk of rows of N <= 8
    floats loses most of its time to per-row overhead; a column route then
    runs each step down a whole column.  A single shot, a short draw or a
    wide row is faster by rows.  numpy adds a row of up to 7 floats (the
    N - 1 exponentials of a cellular break) left to right, the order in
    which the columns are added, so both routes give the same bytes.
    """
    return n <= 8 and count >= 1024


def _draw_chunk(
    model: MembraneModel, rng: np.random.Generator, v: np.ndarray, work: np.ndarray,
    x: np.ndarray,
) -> np.ndarray | None:
    """The random part of len(v) breaks of ``model``, drawn from ``rng`` in place.

    A break of one cell (uniform, or a membrane of a single cell) is a row
    of N unit-rate exponentials, drawn into ``v``.  A break of m > 1 cells
    draws its cell key into ``x``, then its slab coordinate into ``x`` and,
    for N > 2, the N - 1 exponentials of the opposite face into ``work``
    (len(v) * (N - 1) floats); its cell, returned, is the only part that
    reads the membrane.  A solipsistic break is a vertex index, returned.
    """
    count, n = v.shape
    if model.kind == "solipsistic":
        return rng.integers(0, n, size=count)
    if model.cell_count == 1:
        rng.standard_exponential(out=v)
        return None
    r = rng.random(out=x)
    if count < _BUCKETS:
        cells = np.searchsorted(model._cumulative, r)
    else:
        cells = _find_cells(model._cumulative, model._buckets, r)
    rng.random(out=x)
    if n > 2:
        rng.standard_exponential(out=work.reshape(count, n - 1))
    return cells


def _block_outcomes(
    kind: str, m: int, u: np.ndarray, v: np.ndarray, work: np.ndarray, x: np.ndarray,
    drawn: np.ndarray | None, heads,
) -> np.ndarray:
    """Outcomes of the breaks whose random parts ``_draw_chunk`` drew, chunk after chunk.

    Every chunk is of one membrane ``kind`` of ``m`` cells.  ``v`` (count,
    N) holds the breaks, ``work`` (count * N floats) the cellular
    exponentials, then scratch, ``x`` the slab coordinates and ``drawn``
    the cells or vertex indices; ``heads`` lists each chunk's first row,
    [0] for a lone chunk.  Each step runs elementwise or along a row, so
    no break's weights or outcome depend on how the rows were cut into
    chunks, and each chunk's first row is normalised, as its own draw
    would normalise its row 0.  A count of at least 1024 breaks with at
    most 8 outcomes is normalised and classified column by column, with
    the same bytes.
    """
    if kind == "solipsistic":
        return drawn
    count, n = v.shape
    if m == 1:
        for head in heads:  # indexing by the list would cost a single shot ~2 us more
            v[head] /= v[head].sum()
    else:
        # x holds the slab coordinate s, 1 - s, (1 - s)^(1/(N-1)), then 1 - w0.
        np.minimum(drawn, m - 1, out=drawn)
        x += drawn
        x /= m
        np.subtract(1.0, x, out=x)
        x **= 1.0 / (n - 1)
        w0 = np.subtract(1.0, x, out=v[:, 0])
        np.subtract(1.0, w0, out=x)
        if n == 2:
            v[:, 1] = x
        elif not _by_columns(count, n):
            # The two routes differ only in how a row is summed and divided:
            # a column loop would cost a wide single shot a ufunc call per weight.
            e = work[:count * (n - 1)].reshape(count, n - 1)
            np.divide(e, e.sum(axis=1, keepdims=True), out=v[:, 1:])
            v[:, 1:] *= x[:, None]
        else:
            # Each weight is still (e / sum) * (1 - w0), the sum added left to right.
            e = work[:count * (n - 1)].reshape(count, n - 1)
            total = e[:, 0].copy()
            for j in range(1, n - 1):
                total += e[:, j]
            for j in range(n - 1):
                np.divide(e[:, j], total, out=v[:, j + 1])
                v[:, j + 1] *= x
    if _by_columns(count, n):
        return _classify_by_columns(v, u, work)
    return classify_weights(v, u, out=work[:v.size].reshape(v.shape))


def draw_breaks(
    model: MembraneModel, u: np.ndarray, rng: np.random.Generator, v: np.ndarray,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw len(v) membrane breaks into ``v``; return their outcomes and the first's weights.

    ``u`` holds the barycentric weights of the landed state point.  ``v``, a
    C-contiguous (count, N) array, and ``work``, scratch space of v.size
    floats, are the caller's; a single shot passes new ones.  This is one
    chunk of ``_draw_chunk`` finished by ``_block_outcomes`` with heads
    [0], as the batch sampler runs a block of one chunk.  The draw leaves
    row i of ``v`` a positive multiple of the barycentric weights of break
    i, and row 0 exactly them, the weights it returns and a single-shot
    trace prints.  A uniform break is a row of unit-rate exponentials, which
    normalised is uniform on the simplex; the classifier ignores a row's
    scale, so only row 0 is normalised.  A single cell spans the whole
    simplex, so that membrane draws the uniform rows, draw for draw.  The
    outcomes are elementary outcome indices, classified in ``work``.  A
    solipsistic membrane breaks only at vertices, and a break at a vertex
    sits on every tension line at once; the solipsistic law resolves it to
    that vertex's own outcome, which is what makes the die faces
    equiprobable.  It leaves ``v`` untouched and returns None for the
    weights.
    """
    count, n = v.shape
    x = np.empty(count)
    drawn = _draw_chunk(model, rng, v, work[:count * (n - 1)], x)
    outcomes = _block_outcomes(model.kind, model.cell_count, u, v, work, x, drawn, [0])
    return outcomes, None if model.kind == "solipsistic" else v[0].copy()


# --- the measurement process -------------------------------------------------


@dataclass(frozen=True, eq=False)
class CollapseTrace:
    """Full record of a single measurement run.

    ``outcome_block`` holds the 0-based eigenstate indices of the degeneracy
    block that fired (a singleton unless the observable is degenerate).
    ``polar_angle`` is the angle between the initial state and the first
    vertex axis, populated only for two-outcome runs.
    """

    initial_state: BlochVector
    on_membrane_point: BlochVector
    breaking_point: BlochVector
    outcome_block: tuple[int, ...]
    outcome_label: float
    intermediate_point: BlochVector
    final_state: BlochVector
    polar_angle: float | None = None


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """One measurement of a state, prepared once and shared by every trial.

    ``bloch`` is the point of ``state``, ``on_membrane`` where it lands on
    ``observable.simplex``, and ``u`` the barycentric weights of the landed
    point, which are the Born probabilities.  ``born`` holds the
    Hilbert-space oracle Tr(D P_i) and ``oracle_gap`` its measured max gap
    to ``u``.  ``at_vertex`` is the index of the eigenstate the state sits
    on (within VERTEX_TOL), else None.  The plan owns its collapse: each
    block's face point, Lueders posterior and its point are built on the
    block's first shot and kept.  The plan is shareable across threads; two
    that first use a block together may both build it, with equal results.
    """

    state: DensityOperator
    observable: Observable
    bloch: BlochVector
    on_membrane: BlochVector
    u: np.ndarray
    born: np.ndarray
    at_vertex: int | None
    oracle_gap: float
    _collapses: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _polar_angle(self) -> float | None:
        """Angle between the state and the first vertex axis, for N = 2."""
        rn = float(np.linalg.norm(self.bloch.coordinates))
        if rn < 1e-15:
            return math.pi / 2  # direction undefined at the center
        cos = np.dot(self.observable.simplex.vertices[0], self.bloch.coordinates) / rn
        return float(np.arccos(np.clip(cos, -1, 1)))

    @cached_property
    def _unreachable_block(self) -> tuple[int, ...] | None:
        """The first block of Born weight 0, if any: a solipsistic break can land there."""
        obs = self.observable
        sums = zip(obs.degeneracy_partition, obs.block_sums(self.born))
        return next((blk for blk, p in sums if p <= MIN_BLOCK_PROB), None)

    def _collapse(self, block: tuple[int, ...]):
        """(face point, posterior, posterior point) of a block, built on first use."""
        if block not in self._collapses:
            face = project_onto_face(self.on_membrane, self.observable.simplex, block)
            posterior = luders_posterior(self.state, self.observable, block)
            self._collapses[block] = (face, posterior, density_to_bloch(posterior))
        return self._collapses[block]

    def measure(
        self, model: MembraneModel, rng: np.random.Generator
    ) -> tuple[float, CollapseTrace, DensityOperator]:
        """One break on the landed point: (outcome label, trace, posterior).

        A state on a vertex yields that eigenstate's outcome with certainty
        under every membrane model: a measurement of the first kind.
        """
        obs, n = self.observable, len(self.u)
        if self.at_vertex is not None:
            elementary, weights = self.at_vertex, None
        else:
            if model.kind == "solipsistic" and self._unreachable_block is not None:
                raise ConfigError(  # that block has no Lueders posterior
                    "a solipsistic membrane can break into outcome block "
                    f"{self._unreachable_block}, which has probability 0 for this state"
                )
            outcomes, weights = draw_breaks(model, self.u, rng, np.empty((1, n)), np.empty(n))
            elementary = int(outcomes[0])
        break_w = np.eye(n)[elementary] if weights is None else weights
        block = obs.degeneracy_partition[obs.block_index[elementary]]
        intermediate, posterior, final = self._collapse(block)
        trace = CollapseTrace(
            initial_state=self.bloch,
            on_membrane_point=self.on_membrane,
            breaking_point=BlochVector(n, obs.simplex.from_barycentric(break_w)),
            outcome_block=block,
            outcome_label=obs.eigenvalue_labels[block[0]],
            intermediate_point=intermediate,
            final_state=final,
            polar_angle=self._polar_angle if n == 2 else None,
        )
        return trace.outcome_label, trace, posterior


def prepare_measurement(
    state: DensityOperator, observable: Observable
) -> MeasurementPlan:
    """Land the state on the observable's membrane and check the Born rule.

    The state lands on ``observable.simplex``.  The weights of the landed
    point come from the membrane geometry (projection and a linear solve)
    and are checked once against the Hilbert-space oracle Tr(D P_i); a gap
    above ORACLE_TOL raises OracleMismatchError, since the two routes agree
    for every state and a correct simplex.  Each call prepares a new plan.
    """
    n = state.dimension
    if observable.dimension != n:
        raise DimensionError("state and observable dimensions differ")
    simplex = observable.simplex
    r = density_to_bloch(state)
    on_membrane = project_onto_membrane(r, simplex)
    u = barycentric_coordinates(on_membrane, simplex)
    born = born_probabilities(state, observable)
    gap = float(np.max(np.abs(born - u)))
    if not gap <= ORACLE_TOL:  # a NaN gap fails too
        raise OracleMismatchError(
            f"geometric and Hilbert-space probabilities differ by {gap:.3e}"
        )
    vertex_dist = np.linalg.norm(simplex.vertices - r.coordinates, axis=1)
    at_vertex = int(np.argmin(vertex_dist)) if vertex_dist.min() <= VERTEX_TOL else None
    return MeasurementPlan(state, observable, r, on_membrane, u, born, at_vertex, gap)


def luders_posterior(
    state: DensityOperator, observable: Observable, block: tuple[int, ...]
) -> DensityOperator:
    """P_M D P_M / Tr(P_M D P_M) for the projection onto an outcome block.

    Dividing by the block weight w scales D's eigenvalues, which may reach
    -EIGEN_TOL, by 1/w.  A posterior rejected for an eigenvalue no lower
    than -(EIGEN_TOL + N * ALGEBRAIC_TOL) / w, D's allowance plus its
    Hermitian and rounding slack, is clipped to a state: its eigenvalues
    floored at 0, then scaled to trace 1.  Any other rejection raises.
    """
    p = observable.projector(block)
    weight = float(np.real(np.einsum("ij,ji->", p, state.matrix)))
    if weight <= MIN_BLOCK_PROB:
        raise ImpossibleOutcomeError(
            f"outcome block {block} has probability {weight:.3e}; "
            "the sampled outcome is inconsistent with the state"
        )
    m = p @ state.matrix @ p / weight
    m = (m + m.conj().T) / 2.0
    try:
        return DensityOperator(state.dimension, m)
    except InvalidStateError as error:
        low = error.min_eigenvalue
        if low is None or low * weight < -(EIGEN_TOL + state.dimension * ALGEBRAIC_TOL):
            raise
    values, vectors = np.linalg.eigh(m)
    values = np.maximum(values, 0.0)
    return DensityOperator(state.dimension, vectors * (values / values.sum()) @ vectors.conj().T)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _held_plan(state: DensityOperator, observable: Observable) -> MeasurementPlan:
    """``prepare_measurement``, kept for the last PLAN_CACHE_SIZE object pairs; errors are not."""
    return prepare_measurement(state, observable)


def run_measurement(
    state: DensityOperator, observable: Observable, model: MembraneModel,
    rng: np.random.Generator,
) -> tuple[float, CollapseTrace, DensityOperator]:
    """One shot on ``_held_plan``'s plan, so a re-measured state is prepared once."""
    return _held_plan(state, observable).measure(model, rng)


def spin_machine_measure(
    r: BlochVector, axis, model: MembraneModel, rng: np.random.Generator,
) -> tuple[np.ndarray, CollapseTrace]:
    """Measure a spin-1/2 state point along a spatial axis.

    The elastic is stripped between the axis endpoints n and -n; with the
    uniform model the outcome probabilities are (1 + cos(theta))/2 and
    (1 - cos(theta))/2 for a unit state at polar angle theta.  Returns the
    outcome as the signed axis vector together with the trace.  The plan
    of each (point, axis) pair is prepared once and kept, keyed on their
    float64 bits, so a repeated shot is one break draw.
    """
    if r.dimension != 2:
        raise DimensionError("spin machine states live on the N=2 Bloch ball")
    a = np.asarray(axis, dtype=float)
    plan, unit = _spin_plan_of_bits(r.coordinates.tobytes(), a.shape, a.tobytes())
    label, trace, _ = plan.measure(model, rng)
    return (1.0 if label > 0 else -1.0) * unit, trace


@lru_cache(maxsize=16)
def _spin_plan_of_bits(
    point_bits: bytes, axis_shape: tuple[int, ...], axis_bits: bytes
) -> tuple[MeasurementPlan, np.ndarray]:
    """The plan of the N=2 point and axis with these float64 bits, and the unit axis.

    Keyed on bits, not values: -0.0 == 0.0, yet arctan2 keeps the sign of
    zero, so the two axes' vertices differ.  Each plan kept here is about
    7 kB, and a bad axis raises on every call: lru_cache keeps no errors.
    """
    a = np.frombuffer(axis_bits).reshape(axis_shape)
    observable = spin_observable(a)
    state = bloch_to_density(BlochVector(2, np.frombuffer(point_bits)))
    return prepare_measurement(state, observable), _frozen(_unit(a))
