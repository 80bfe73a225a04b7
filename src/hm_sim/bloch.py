"""Extended Bloch representation of finite-dimensional quantum states.

An N-dimensional density operator D is expanded over the identity and the
N^2 - 1 traceless Hermitian generators of SU(N) as

    D(r) = (1/N) * (I + c_N * sum_i r_i L_i),    c_N = sqrt(N (N - 1) / 2),

where the generators satisfy Tr(L_i L_j) = 2 delta_ij.  For N = 2 these are
the Pauli matrices (c_2 = 1) and r is the ordinary Bloch vector; for N = 3
they are the Gell-Mann matrices (c_3 = sqrt(3)).  The map sends states into
the closed unit ball of R^(N^2 - 1): pure states land exactly on the unit
sphere, the maximally mixed state at the origin.  For N >= 3 not every point
of the ball corresponds to a positive operator, so the valid-state region is
a proper convex subset of the ball.

The generators are the generalized Gell-Mann matrices (Kimura 2003;
Bertlmann & Krammer 2008), in a fixed order: for the index pairs j < k in
lexicographic order first the symmetric ones, then the antisymmetric ones,
then the N - 1 diagonal ones (see ``build_generator_basis``).  Each touches
at most N entries, so with s = N / (2 c_N) the components of r read
straight off the matrix:

    symmetric (j, k):      s * (D_jk + D_kj)     =  2 s Re D_jk
    antisymmetric (j, k):  s * i (D_jk - D_kj)   = -2 s Im D_jk
    diagonal l = 1..N-1:   s * sqrt(2 / (l (l + 1))) * (sum_{i<l} D_ii - l D_ll)

and the inverse map scatters them back into the same entries.  Both maps
cost O(N^2) time and memory; the dense (N^2 - 1, N, N) generator tensor is
built only by ``build_generator_basis``, which documents the order and
serves the tests as an oracle.  The forward map reads real parts only:
Hermiticity is ``DensityOperator``'s alone to check, and ``BlochVector``'s
bound is the image of its eigenvalue bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import DimensionError, InvalidStateError

# Algebraic identities on exactly constructed objects hold to ~1e-15; these
# looser bounds absorb accumulation over N^2-sized contractions and one pass
# through an eigensolver.
ALGEBRAIC_TOL = 1e-12
EIGEN_TOL = 1e-10


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.flags.writeable = False
    return out


def _unit(a: np.ndarray) -> np.ndarray | None:
    """``a / |a|``, or None when ``a`` is zero or has a non-finite entry.

    Only when |a| overflows or is below 1e-12 is ``a`` divided by max |a_i|
    first: that division would move the bits of every other vector.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not 1e-12 <= norm < np.inf:  # NaN too
        scale = np.abs(a).max(initial=0.0)
        if not 0.0 < scale < np.inf:  # NaN too
            return None
        a = a / scale
        norm = np.linalg.norm(a)
    return a / norm


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """An N x N Hermitian, unit-trace, positive-semidefinite matrix."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.dimension
        if n < 2:
            raise DimensionError(f"dimension must be >= 2, got {n}")
        if m.shape != (n, n):
            raise DimensionError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > ALGEBRAIC_TOL:
            raise InvalidStateError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m) - 1.0) > ALGEBRAIC_TOL:
            raise InvalidStateError(f"trace is {np.trace(m)}, expected 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -EIGEN_TOL:
            raise InvalidStateError(
                f"matrix is not positive semidefinite (min eigenvalue {lo:.3e})",
                min_eigenvalue=lo,
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def maximally_mixed(cls, dimension: int) -> "DensityOperator":
        return cls(dimension, np.eye(dimension, dtype=complex) / dimension)


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm complex amplitude vector."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if self.dimension < 2:
            raise DimensionError(f"dimension must be >= 2, got {self.dimension}")
        if a.shape != (self.dimension,):
            raise DimensionError(
                f"expected {self.dimension} amplitudes, got shape {a.shape}"
            )
        if not abs(np.vdot(a, a).real - 1.0) <= ALGEBRAIC_TOL:  # NaN fails too
            raise InvalidStateError("amplitudes are not unit norm within 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(a))

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an unnormalized vector; rejects a zero or non-finite one."""
        a = np.asarray(amplitudes, dtype=complex)
        unit = _unit(a)
        if unit is None:
            raise InvalidStateError("amplitudes must be finite" if not np.isfinite(a).all()
                                    else "cannot normalize the zero vector")
        return cls(a.shape[0], unit)

    @classmethod
    def basis_state(cls, dimension: int, index: int) -> "PureState":
        if not 0 <= index < dimension:
            raise DimensionError(f"basis index must be 0..{dimension - 1}, got {index}")
        a = np.zeros(dimension, dtype=complex)
        a[index] = 1.0
        return cls(dimension, a)


@dataclass(frozen=True, eq=False)
class BlochVector:
    """A point of the closed unit ball in R^(N^2 - 1), up to N * EIGEN_TOL.

    A trace-1 matrix whose eigenvalues are >= -EIGEN_TOL has |r| at most
    1 + N EIGEN_TOL, reached at (1 + (N - 1) EIGEN_TOL, -EIGEN_TOL, ...).
    The bound is also what keeps a huge coordinate, whose c_N r_i would
    overflow, out of ``bloch_to_density``.
    """

    dimension: int
    coordinates: np.ndarray

    def __post_init__(self):
        if self.dimension < 2:
            raise DimensionError(f"dimension must be >= 2, got {self.dimension}")
        c = np.asarray(self.coordinates, dtype=float)
        expected = self.dimension**2 - 1
        if c.shape != (expected,):
            raise DimensionError(
                f"expected {expected} coordinates for N={self.dimension}, "
                f"got shape {c.shape}"
            )
        with np.errstate(over="ignore"):  # an overflowing norm is just > 1
            norm = np.linalg.norm(c)
        if not norm <= 1.0 + self.dimension * EIGEN_TOL:  # NaN fails too
            raise InvalidStateError(f"norm {norm:.12f} exceeds 1; not a point of the ball")
        object.__setattr__(self, "coordinates", _frozen(c))


def build_generator_basis(dimension: int) -> np.ndarray:
    """Stack the N^2 - 1 generalized Gell-Mann generators of SU(N).

    Returns a read-only complex (N^2 - 1, N, N) array, L_i at index i.
    For every index pair j < k there is a symmetric generator (E_jk + E_kj)
    and an antisymmetric one (-i E_jk + i E_kj); the remaining N - 1
    generators are diagonal, the l-th being
    sqrt(2 / (l (l + 1))) * diag(1, ..., 1, -l, 0, ..., 0) with l ones.
    All satisfy Tr(L_a L_b) = 2 delta_ab.  For N = 2 the ordering yields
    exactly (sigma_x, sigma_y, sigma_z).
    """
    n = dimension
    if n < 2:
        raise DimensionError(f"dimension must be >= 2, got {n}")
    gens: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            gens.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            gens.append(m)
    for l in range(1, n):
        d = np.zeros(n)
        d[:l] = 1.0
        d[l] = -l
        gens.append(np.diag(d * sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return _frozen(np.stack(gens))


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Where the generators of SU(N) read the matrix, and c_N.

    Returns the flat indices j N + k and k N + j of the pairs j < k in
    lexicographic order, the (N - 1, N) array whose row l - 1 is the
    diagonal of the l-th diagonal generator, and c_N = sqrt(N (N - 1) / 2),
    the scale that puts pure states on the unit sphere.
    """
    j, k = np.triu_indices(n, 1)
    l = np.arange(1.0, n)[:, None]
    i = np.arange(n)
    diagonal = np.where(i < l, 1.0, np.where(i == l, -l, 0.0)) * np.sqrt(
        2.0 / (l * (l + 1))
    )
    return (_frozen(j * n + k), _frozen(k * n + j), _frozen(diagonal),
            sqrt(n * (n - 1) / 2.0))


def density_to_bloch(state: DensityOperator) -> BlochVector:
    """Map a density operator to its Bloch vector, r_i = N/(2 c_N) Tr(D L_i)."""
    return BlochVector(state.dimension, _bloch_coordinates(state.matrix))


def _bloch_coordinates(matrix: np.ndarray) -> np.ndarray:
    """The components N/(2 c_N) Tr(M L_i) of the Hermitian part of an N x N matrix."""
    n = matrix.shape[0]
    upper, lower, diagonal, c = _layout(n)
    d = matrix.reshape(-1)
    above, below = d[upper], d[lower]
    # Sequential row sums add the diagonal terms in the order of the dense
    # contraction Tr(D L_l), so every component keeps its bits.
    diag = np.add.accumulate(diagonal * d[:: n + 1], axis=1)[:, -1]
    traces = np.concatenate((above + below, (above - below) * 1j, diag))
    # + 0.0 maps the -0.0 of a vanishing sum or difference to the 0.0 that
    # the dense contraction gives.
    return (traces.real + 0.0) * (n / (2.0 * c))


def bloch_to_density(r: BlochVector) -> DensityOperator:
    """Inverse map, D = (1/N)(I + c_N r . L).

    For N >= 3 the ball is not filled with states, so the reconstructed
    operator may fail positivity.  ``DensityOperator`` makes that check; it
    raises ``InvalidStateError`` carrying the offending minimum eigenvalue.
    """
    n = r.dimension
    upper, lower, diagonal, c = _layout(n)
    pairs = len(upper)
    sym, anti = r.coordinates[:pairs], r.coordinates[pairs : 2 * pairs]
    m = np.zeros(n * n, dtype=complex)
    m.real[upper] = m.real[lower] = sym
    m.imag[upper], m.imag[lower] = -anti, anti
    m.real[:: n + 1] = r.coordinates[2 * pairs :] @ diagonal
    m = (np.eye(n, dtype=complex) + c * m.reshape(n, n)) / n
    return DensityOperator(n, m)


def pure_to_density(psi: PureState) -> DensityOperator:
    """Rank-1 projection |psi><psi|."""
    return DensityOperator(psi.dimension, np.outer(psi.amplitudes, psi.amplitudes.conj()))
