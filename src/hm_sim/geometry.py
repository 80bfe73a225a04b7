"""Measurement simplexes: the elastic-membrane geometry of an observable.

The Bloch images of an observable's N orthonormal eigenstates are unit
vectors with pairwise inner product -1/(N-1); they span a regular
(N-1)-simplex inscribed in the unit sphere (a diameter for N = 2, an
equilateral triangle for N = 3, ...).  A measurement projects the state
point orthogonally onto the simplex's affine hull, and the barycentric
coordinates of the landed point are exactly the Born probabilities
Tr(D P_i).  The same numbers arise as relative volumes of the N
sub-simplexes cut out by joining the landed point to the vertices, which
is the breakable-membrane reading: a uniform membrane tears inside
sub-simplex i with probability equal to its volume fraction, detaching all
anchors except vertex i.  The simulator draws breaks and never needs the
volumes; the tests compute them by Gram determinants as an oracle for the
linear solve here.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bloch import (
    BlochVector,
    DensityOperator,
    PureState,
    _bloch_coordinates,
    _frozen,
    _unit,
)
from .errors import (
    DimensionError,
    GeometryError,
    InvalidMembranePointError,
    ObservableError,
)

HULL_TOL = 1e-8        # max distance from the affine hull for membrane points
CLAMP_TOL = 1e-10      # negative barycentric weight treated as exact zero
SIMPLEX_TOL = 1e-10    # vertex norm / inner-product / orthogonality checks

# Live simplexes by the bytes of their eigenstate amplitudes; an entry dies
# with the last observable or plan that holds its simplex.
_simplexes = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class Observable:
    """A projective observable: orthonormal eigenstates plus eigenvalue labels.

    Equal labels induce the degeneracy partition; each block of
    ``degeneracy_partition`` holds the (0-based) indices sharing one label,
    ordered by first appearance.  ``block_index`` maps each index to the
    position of its block (int64) and ``block_labels`` holds each block's
    label; ``block_sums`` folds N per-eigenstate values (the last axis)
    into their blocks.
    ``simplex`` is the observable's measurement simplex, the one
    membrane every measurement of it shares.  It depends on the eigenstates
    alone: observables with the same eigenstate bits, whatever their
    labels, share one simplex while any of them holds it.
    """

    dimension: int
    eigenstates: tuple[PureState, ...]
    eigenvalue_labels: tuple[float, ...]
    degeneracy_partition: tuple[tuple[int, ...], ...] = field(init=False)
    block_index: np.ndarray = field(init=False)
    block_labels: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        n = self.dimension
        if n < 2:
            raise DimensionError(f"dimension must be >= 2, got {n}")
        states = tuple(self.eigenstates)
        labels = tuple(float(x) for x in self.eigenvalue_labels)
        if len(states) != n or len(labels) != n:
            raise DimensionError(
                f"need exactly {n} eigenstates and labels, "
                f"got {len(states)} and {len(labels)}"
            )
        for s in states:
            if s.dimension != n:
                raise DimensionError("eigenstate dimension mismatch")
        a = np.array([s.amplitudes for s in states])
        bad = np.argwhere(np.abs(np.triu(a.conj() @ a.T, 1)) > SIMPLEX_TOL)
        if len(bad):  # row-major, so the first pair a loop over i < j meets
            i, j = bad[0]
            raise ObservableError(f"eigenstates {i} and {j} are not orthogonal")
        blocks: list[list[int]] = []
        seen: dict[float, int] = {}
        for i, lab in enumerate(labels):
            if lab in seen:
                blocks[seen[lab]].append(i)
            else:
                seen[lab] = len(blocks)
                blocks.append([i])
        index = np.array([seen[lab] for lab in labels], dtype=np.int64)
        object.__setattr__(self, "eigenstates", states)
        object.__setattr__(self, "eigenvalue_labels", labels)
        object.__setattr__(
            self, "degeneracy_partition", tuple(tuple(b) for b in blocks)
        )
        object.__setattr__(self, "block_index", _frozen(index))
        object.__setattr__(self, "block_labels", tuple(seen))

    @cached_property
    def simplex(self) -> MeasurementSimplex:
        key = b"".join(s.amplitudes.tobytes() for s in self.eigenstates)
        simplex = _simplexes.get(key)
        if simplex is None:
            simplex = _simplexes[key] = build_measurement_simplex(self)
        return simplex

    def block_sums(self, x: np.ndarray) -> np.ndarray:
        """The sums of ``x`` over each degeneracy block, along its last axis."""
        return np.stack([x[..., list(b)].sum(axis=-1) for b in self.degeneracy_partition],
                        axis=-1)

    def projector(self, indices) -> np.ndarray:
        """Sum of |n_i><n_i| over the given eigenstate indices."""
        p = np.zeros((self.dimension, self.dimension), dtype=complex)
        for i in indices:
            a = self.eigenstates[i].amplitudes
            p += np.outer(a, a.conj())
        return p


def canonical_observable(dimension: int, labels=None) -> Observable:
    """Observable with the standard basis as eigenstates; labels default 0..N-1."""
    if labels is None:
        labels = tuple(float(i) for i in range(dimension))
    states = tuple(PureState.basis_state(dimension, i) for i in range(dimension))
    return Observable(dimension, states, tuple(labels))


def spin_observable(axis) -> Observable:
    """The two-outcome observable along a spatial axis (N = 2).

    Eigenstates are spin-up and spin-down along ``axis``; labels are the
    eigenvalues +-1/2 of (1/2)(|n><n| - |-n><-n|) in units where hbar = 1.
    """
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise DimensionError(f"axis must be a 3-vector, got shape {a.shape}")
    unit = _unit(a)
    if unit is None:
        raise GeometryError(f"measurement axis needs a finite nonzero norm, got {axis}")
    nx, ny, nz = unit
    theta = np.arccos(min(max(nz, -1.0), 1.0))  # np.clip is slower on a scalar
    phi = np.arctan2(ny, nx)
    up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    down = np.array([-np.sin(theta / 2), np.exp(1j * phi) * np.cos(theta / 2)])
    return Observable(2, (PureState(2, up), PureState(2, down)), (0.5, -0.5))


@dataclass(frozen=True, eq=False)
class MeasurementSimplex:
    """The regular (N-1)-simplex of an observable's eigenstate Bloch vectors.

    ``vertices`` holds the N unit vectors as rows of an (N, N^2-1) array.
    An orthonormal frame of the affine hull is computed once (Gram-Schmidt
    over the edge vectors n_i - n_1 in index order) and cached; after
    construction the object is read-only and shareable across workers.
    Observables with the same eigenstate bits share one, as
    ``Observable.simplex``.
    """

    dimension: int
    vertices: np.ndarray
    frame: np.ndarray = field(init=False)  # (N^2-1, N-1), orthonormal columns

    def __post_init__(self):
        n = self.dimension
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (n, n * n - 1):
            raise DimensionError(
                f"expected {n} vertices of length {n * n - 1}, got {v.shape}"
            )
        norms = np.linalg.norm(v, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= SIMPLEX_TOL:  # NaN fails too
            raise GeometryError("simplex vertices must be unit vectors")
        gram = v @ v.T
        target = -1.0 / (n - 1)
        off = gram[~np.eye(n, dtype=bool)]
        if not np.max(np.abs(off - target)) <= SIMPLEX_TOL:
            raise GeometryError(
                f"vertex inner products deviate from {target:.6f}; "
                "not a regular inscribed simplex"
            )
        object.__setattr__(self, "vertices", _frozen(v))
        # The checks above imply N - 1 independent edges, Gram matrix N/(N-1) (I + J).
        object.__setattr__(self, "frame", _frozen(_orthonormal_frame(v)))


def _orthonormal_frame(vertices: np.ndarray) -> np.ndarray:
    """Deterministic Gram-Schmidt over edge vectors, two passes for stability."""
    base = vertices[0]
    cols: list[np.ndarray] = []
    for row in vertices[1:]:
        u = row - base
        for _ in range(2):
            for q in cols:
                u = u - np.dot(q, u) * q
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            cols.append(u / norm)
    return np.column_stack(cols) if cols else np.zeros((vertices.shape[1], 0))


def build_measurement_simplex(observable: Observable) -> MeasurementSimplex:
    """Map each eigenstate's projector |n_i><n_i| to its Bloch vector and assemble."""
    rows = [
        _bloch_coordinates(np.outer(s.amplitudes, s.amplitudes.conj()))
        for s in observable.eigenstates
    ]
    return MeasurementSimplex(observable.dimension, np.stack(rows))


def _affine_projection(
    point: np.ndarray, base: np.ndarray, frame: np.ndarray
) -> np.ndarray:
    """base + Q Q^T (point - base): onto the affine span of Q's columns at base."""
    return base + frame @ (frame.T @ (point - base))


def project_onto_membrane(r: BlochVector, simplex: MeasurementSimplex) -> BlochVector:
    """Orthogonal projection of a state point onto the membrane's affine hull."""
    if r.dimension != simplex.dimension:
        raise DimensionError("state and simplex dimensions differ")
    return BlochVector(
        r.dimension,
        _affine_projection(r.coordinates, simplex.vertices[0], simplex.frame),
    )


def project_onto_face(
    point: BlochVector, simplex: MeasurementSimplex, block: tuple[int, ...]
) -> BlochVector:
    """Orthogonal projection onto the face of a vertex subset (one vertex: itself, bit for bit)."""
    verts = simplex.vertices[list(block)]
    face = _affine_projection(point.coordinates, verts[0], _orthonormal_frame(verts))
    return BlochVector(point.dimension, face)


def _clamped(raw: np.ndarray) -> np.ndarray:
    """Clamp weights negative by float noise (<= CLAMP_TOL) and renormalize.

    Anything more negative is a genuine geometry violation and raises.  The
    result is N read-only weights in [0, 1] summing to 1.
    """
    raw = np.asarray(raw, dtype=float)
    low = float(raw.min())
    if low < -CLAMP_TOL:
        raise InvalidMembranePointError(
            f"barycentric weight {low:.3e} is negative beyond tolerance; "
            "point lies outside the simplex"
        )
    w = np.clip(raw, 0.0, 1.0)
    return _frozen(w / w.sum())


def _barycentric_raw(point: np.ndarray, simplex: MeasurementSimplex) -> np.ndarray:
    """Least-squares solve of the stacked vertex system [V^T; 1] w = [p; 1]."""
    n = simplex.dimension
    a = np.vstack([simplex.vertices.T, np.ones((1, n))])
    b = np.append(point, 1.0)
    w, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return w / w.sum()


def barycentric_coordinates(
    point: BlochVector, simplex: MeasurementSimplex
) -> np.ndarray:
    """Weights w with point = sum_i w_i n_i and sum w_i = 1.

    The point must lie in the membrane's affine hull (within 1e-8) and
    inside the simplex up to float noise; clamping and error thresholds
    follow ``_clamped``.
    """
    if point.dimension != simplex.dimension:
        raise DimensionError("point and simplex dimensions differ")
    p = point.coordinates
    dist = float(np.linalg.norm(p - _affine_projection(p, simplex.vertices[0], simplex.frame)))
    if dist > HULL_TOL:
        raise GeometryError(
            f"point lies {dist:.3e} from the membrane's affine hull"
        )
    return _clamped(_barycentric_raw(p, simplex))


def born_probabilities(state: DensityOperator, observable: Observable) -> np.ndarray:
    """Hilbert-space outcome probabilities p_i = Tr(D P_i) = <n_i| D |n_i>.

    This is the oracle route against which the membrane geometry is checked.
    """
    if state.dimension != observable.dimension:
        raise DimensionError("state and observable dimensions differ")
    probs = np.array(
        [
            float(np.real(np.vdot(s.amplitudes, state.matrix @ s.amplitudes)))
            for s in observable.eigenstates
        ]
    )
    return _clamped(probs)


def classify_weights(v: np.ndarray, u: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Outcome indices of breaking points given as barycentric weights.

    ``v`` holds the weights of one breaking point, or one per row; ``u``
    those of the landed state point p.  Breaking inside sub-simplex i
    (anchored at p and the vertices other than n_i) tears those anchors away
    and the membrane contracts to n_i.  Membership in sub-simplex i is
    equivalent to v_i / u_i <= v_j / u_j for all j, so the outcome is the
    argmin of the ratios along the last axis; numpy's argmin takes the first
    minimum, so on tension lines (ties) the lowest index wins.  Scaling a
    row of ``v`` by a positive factor scales all its ratios alike and leaves
    the argmin unchanged, so a row need not be normalised (in floating point
    only ratios within rounding of a tie could flip); the batch sampler
    classifies unnormalised rows on this ground.  ``out``, if given,
    receives the ratios v / u and may be ``v`` itself; a zero weight of p
    gets the ratio inf, without a division.  A long chunk of short rows is
    classified by ``_classify_by_columns`` instead, with the same outcomes.
    """
    # A zero weight of p means the sub-simplex is a measure-zero sliver the
    # membrane cannot tear into; never classify there.  Its ratio is inf,
    # written in place of a division by zero.
    zero = u == 0.0
    ratios = np.divide(v, u, out=out, where=~zero)
    ratios[..., zero] = np.inf
    return np.argmin(ratios, axis=-1)


def _classify_by_columns(v: np.ndarray, u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``classify_weights(v, u)`` of a (count, N) array, one column at a time.

    numpy's inner loop runs along a row, so rows of a few weights spend most
    of their time in per-row overhead; here each operation runs down a whole
    column.  ``work`` holds at least 2 * count floats.  The running minimum
    is replaced only where a later column's ratio is strictly less, so the
    first minimum wins, as in ``np.argmin``.  No ratio is NaN (a zero weight
    of p makes its column inf), so the outcomes are argmin's, ties included.
    """
    count, n = v.shape
    best, ratio = work[:count], work[count:2 * count]
    outcomes = np.zeros(count, dtype=np.intp)
    less = np.empty(count, dtype=bool)
    for j in range(n):
        column = best if j == 0 else ratio
        if u[j] == 0.0:
            column.fill(np.inf)
        else:
            np.divide(v[:, j], u[j], out=column)
        if j > 0:
            np.less(ratio, best, out=less)
            np.minimum(best, ratio, out=best)
            np.putmask(outcomes, less, j)
    return outcomes
