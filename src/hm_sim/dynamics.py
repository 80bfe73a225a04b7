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
from dataclasses import dataclass

import numpy as np

from .bloch import (
    BlochVector,
    DensityOperator,
    bloch_to_density,
    density_to_bloch,
    _frozen,
)
from .errors import (
    ConfigError,
    DimensionError,
    ImpossibleOutcomeError,
    OracleMismatchError,
)
from .geometry import (
    Observable,
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


@dataclass(frozen=True)
class MembraneModel:
    """Breaking-point law of the elastic membrane."""

    kind: str
    cell_count: int = 1
    cell_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "solipsistic", "cellular"):
            raise ConfigError(f"unknown membrane kind {self.kind!r}")
        if self.kind == "cellular":
            if self.cell_count < 1:
                raise ConfigError("cellular membrane needs cell_count >= 1")
            w = np.asarray(self.cell_weights, dtype=float)
            if w.shape != (self.cell_count,):
                raise ConfigError(
                    f"need {self.cell_count} cell weights, got shape {w.shape}"
                )
            if w.min() < 0.0:
                raise ConfigError("cell weights must be non-negative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ConfigError(f"cell weights sum to {w.sum()}, expected 1")
            object.__setattr__(self, "cell_weights", _frozen(w))
        elif self.cell_weights is not None:
            raise ConfigError(f"{self.kind} membrane takes no cell weights")

    @classmethod
    def uniform(cls) -> "MembraneModel":
        return cls("uniform")

    @classmethod
    def solipsistic(cls) -> "MembraneModel":
        return cls("solipsistic")

    @classmethod
    def cellular(cls, cell_weights) -> "MembraneModel":
        w = np.asarray(cell_weights, dtype=float)
        return cls("cellular", cell_count=w.shape[0], cell_weights=w)


# --- cell geometry -----------------------------------------------------------
#
# The simplex is sliced into m cells of exactly equal uniform measure using
# the first barycentric coordinate w_0: under the uniform law w_0 ~
# Beta(1, N-1), so F(w) = 1 - (1 - w)^(N-1) is uniform on [0, 1) and the
# preimages of [i/m, (i+1)/m) are equal-probability slabs.  Sampling inside
# cell i draws the slab coordinate uniformly, inverts F, and fills the
# remaining coordinates with a uniform point of the opposite face.


def cell_index_of_weights(weights: np.ndarray, cell_count: int, dimension: int):
    """Cell index of simplex points given as barycentric weights (vectorized)."""
    w0 = np.asarray(weights, dtype=float)[..., 0]
    f = 1.0 - (1.0 - w0) ** (dimension - 1)
    return np.minimum((f * cell_count).astype(int), cell_count - 1)


def _uniform_weights(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Exactly uniform barycentric weights: normalized unit-rate exponentials."""
    e = rng.standard_exponential((count, n))
    return e / e.sum(axis=1, keepdims=True)


def _cellular_weights(
    rng: np.random.Generator, count: int, n: int, model: MembraneModel
) -> np.ndarray:
    m = model.cell_count
    if m == 1:
        # Single cell spanning the whole simplex: defer to the uniform law so
        # the two models are draw-for-draw identical, not just in law.
        return _uniform_weights(rng, count, n)
    cells = np.searchsorted(np.cumsum(model.cell_weights), rng.random(count))
    cells = np.minimum(cells, m - 1)
    slab = (cells + rng.random(count)) / m
    w0 = 1.0 - (1.0 - slab) ** (1.0 / (n - 1))
    if n == 2:
        return np.column_stack([w0, 1.0 - w0])
    e = rng.standard_exponential((count, n - 1))
    rest = e / e.sum(axis=1, keepdims=True) * (1.0 - w0)[:, None]
    return np.column_stack([w0, rest])


def draw_breaks(
    model: MembraneModel, u: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw ``count`` membrane breaks; return their outcomes and weights.

    ``u`` holds the barycentric weights of the landed state point.  The
    outcomes are elementary outcome indices, the weights the (count, N)
    barycentric weights of the breaking points.  A solipsistic membrane
    breaks only at vertices, and a break at a vertex sits on every tension
    line at once; the solipsistic law resolves it to that vertex's own
    outcome, which is what makes the die faces equiprobable.  It builds no
    weight array and returns None for the weights.
    """
    n = len(u)
    if model.kind == "solipsistic":
        return rng.integers(0, n, size=count), None
    if model.kind == "cellular":
        v = _cellular_weights(rng, count, n, model)
    else:
        v = _uniform_weights(rng, count, n)
    return classify_weights(v, u), v


# --- the measurement process -------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MeasurementPlan:
    """One measurement of a state, prepared once and shared by every trial.

    ``bloch`` is the state point, ``on_membrane`` where it lands on
    ``observable.simplex``, and ``u`` the barycentric weights of the landed
    point, which are the Born probabilities.  ``born`` holds the
    Hilbert-space oracle Tr(D P_i) and ``oracle_gap`` its measured max gap
    to ``u``.  ``at_vertex`` is the index of the eigenstate the state sits
    on (within VERTEX_TOL), else None.  The plan is read-only and shareable
    across worker threads; the simplex stays with the observable.
    """

    bloch: BlochVector
    on_membrane: BlochVector
    u: np.ndarray
    born: np.ndarray
    at_vertex: int | None
    oracle_gap: float


def prepare_measurement(
    state: DensityOperator, observable: Observable
) -> MeasurementPlan:
    """Land the state on the observable's membrane and check the Born rule.

    The state lands on ``observable.simplex``.  The weights of the landed
    point come from the membrane geometry (projection and a linear solve)
    and are checked once against the Hilbert-space oracle Tr(D P_i); a gap
    above ORACLE_TOL raises OracleMismatchError, since the two routes agree
    for every state and a correct simplex.
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
    if gap > ORACLE_TOL:
        raise OracleMismatchError(
            f"geometric and Hilbert-space probabilities differ by {gap:.3e}"
        )
    vertex_dist = np.linalg.norm(simplex.vertices - r.coordinates, axis=1)
    at_vertex = int(np.argmin(vertex_dist)) if vertex_dist.min() <= VERTEX_TOL else None
    return MeasurementPlan(r, on_membrane, u, born, at_vertex, gap)


def luders_posterior(
    state: DensityOperator, observable: Observable, block: tuple[int, ...]
) -> DensityOperator:
    """P_M D P_M / Tr(P_M D P_M) for the projection onto an outcome block."""
    p = observable.projector(block)
    weight = float(np.real(np.einsum("ij,ji->", p, state.matrix)))
    if weight <= MIN_BLOCK_PROB:
        raise ImpossibleOutcomeError(
            f"outcome block {block} has probability {weight:.3e}; "
            "the sampled outcome is inconsistent with the state"
        )
    m = p @ state.matrix @ p / weight
    return DensityOperator(state.dimension, (m + m.conj().T) / 2.0)


def run_measurement(
    state: DensityOperator,
    observable: Observable,
    model: MembraneModel,
    rng: np.random.Generator,
) -> tuple[float, CollapseTrace, DensityOperator]:
    """Execute one full membrane measurement.

    Returns (outcome label, trace, posterior density operator).  A state
    sitting exactly on a vertex (within 1e-10) yields that eigenstate's
    outcome with certainty under every membrane model; this is what makes
    the process a measurement of the first kind.
    """
    n = state.dimension
    plan = prepare_measurement(state, observable)
    simplex, r = observable.simplex, plan.bloch
    if plan.at_vertex is not None:
        elementary, weights = plan.at_vertex, None
    else:
        if model.kind == "solipsistic":
            # A solipsistic break may land on any vertex; a block the state
            # cannot reach has no Lueders posterior to collapse to.
            for blk in observable.degeneracy_partition:
                if plan.born[list(blk)].sum() <= MIN_BLOCK_PROB:
                    raise ConfigError(
                        f"a solipsistic membrane can break into outcome block {blk}, "
                        "which has probability 0 for this state"
                    )
        outcomes, weights = draw_breaks(model, plan.u, 1, rng)
        elementary = int(outcomes[0])
    break_w = np.eye(n)[elementary] if weights is None else weights[0]

    block = observable.degeneracy_partition[observable.block_index[elementary]]
    intermediate = project_onto_face(plan.on_membrane, simplex, block)
    posterior = luders_posterior(state, observable, block)
    final = density_to_bloch(posterior)

    polar = None
    if n == 2:
        axis = simplex.vertices[0]
        rn = float(np.linalg.norm(r.coordinates))
        if rn < 1e-15:
            polar = math.pi / 2  # direction undefined at the center
        else:
            polar = float(np.arccos(np.clip(np.dot(axis, r.coordinates) / rn, -1, 1)))

    trace = CollapseTrace(
        initial_state=r,
        on_membrane_point=plan.on_membrane,
        breaking_point=BlochVector(n, simplex.from_barycentric(break_w)),
        outcome_block=block,
        outcome_label=observable.eigenvalue_labels[block[0]],
        intermediate_point=intermediate,
        final_state=final,
        polar_angle=polar,
    )
    return trace.outcome_label, trace, posterior


def spin_machine_measure(
    r: BlochVector,
    axis,
    model: MembraneModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, CollapseTrace]:
    """Measure a spin-1/2 state point along a spatial axis.

    The elastic is stripped between the axis endpoints n and -n; with the
    uniform model the outcome probabilities are (1 + cos(theta))/2 and
    (1 - cos(theta))/2 for a unit state at polar angle theta.  Returns the
    outcome as the signed axis vector together with the trace.
    """
    if r.dimension != 2:
        raise DimensionError("spin machine states live on the N=2 Bloch ball")
    observable = spin_observable(axis)
    state = bloch_to_density(r)
    label, trace, _ = run_measurement(state, observable, model, rng)
    unit = np.asarray(axis, dtype=float)
    unit = unit / np.linalg.norm(unit)
    return (unit if label > 0 else -unit), trace

