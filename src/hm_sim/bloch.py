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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import NamedTuple

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


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered traceless Hermitian generators of SU(N).

    ``generators`` has shape (N^2 - 1, N, N).  The ordering is fixed:
    symmetric off-diagonal generators for index pairs (j, k), j < k, in
    lexicographic order, then the antisymmetric ones in the same pair order,
    then the N - 1 diagonal generators.  ``normalization`` is the scale
    c_N = sqrt(N (N - 1) / 2) that puts pure states on the unit sphere.
    """

    dimension: int
    generators: np.ndarray
    normalization: float

    def __post_init__(self):
        object.__setattr__(self, "generators", _frozen(self.generators))


@dataclass(frozen=True)
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

    def purity(self) -> float:
        """Tr(D^2); equals 1 exactly for pure states."""
        return float(np.real(np.einsum("ij,ji->", self.matrix, self.matrix)))


@dataclass(frozen=True)
class PureState:
    """A unit-norm complex amplitude vector; equality is modulo global phase."""

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
        if abs(np.vdot(a, a).real - 1.0) > ALGEBRAIC_TOL:
            raise InvalidStateError("amplitudes are not unit norm within 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(a))

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an unnormalized vector; rejects the zero vector."""
        a = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(a))
        if norm < 1e-12:
            raise InvalidStateError("cannot normalize the zero vector")
        return cls(a.shape[0], a / norm)

    @classmethod
    def basis_state(cls, dimension: int, index: int) -> "PureState":
        a = np.zeros(dimension, dtype=complex)
        a[index] = 1.0
        return cls(dimension, a)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def equivalent_to(self, other: "PureState", tol: float = EIGEN_TOL) -> bool:
        """True when the two states differ only by a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) <= tol


@dataclass(frozen=True)
class BlochVector:
    """A point of the closed unit ball in R^(N^2 - 1)."""

    dimension: int
    coordinates: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coordinates, dtype=float)
        expected = self.dimension**2 - 1
        if c.shape != (expected,):
            raise DimensionError(
                f"expected {expected} coordinates for N={self.dimension}, "
                f"got shape {c.shape}"
            )
        if np.linalg.norm(c) > 1.0 + EIGEN_TOL:
            raise InvalidStateError(
                f"norm {np.linalg.norm(c):.12f} exceeds 1; not a point of the ball"
            )
        object.__setattr__(self, "coordinates", _frozen(c))

    @classmethod
    def center(cls, dimension: int) -> "BlochVector":
        return cls(dimension, np.zeros(dimension**2 - 1))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coordinates))


class StateValidity(NamedTuple):
    valid: bool
    min_eigenvalue: float


def build_generator_basis(dimension: int) -> GeneratorBasis:
    """Construct the N^2 - 1 generalized Gell-Mann generators of SU(N).

    For every index pair j < k there is a symmetric generator
    (E_jk + E_kj) and an antisymmetric one (-i E_jk + i E_kj); the remaining
    N - 1 generators are diagonal, the l-th being
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
    return GeneratorBasis(n, np.stack(gens), sqrt(n * (n - 1) / 2.0))


@lru_cache(maxsize=None)
def generator_basis(dimension: int) -> GeneratorBasis:
    """The one basis every map uses for dimension N; immutable and shared."""
    return build_generator_basis(dimension)


def density_to_bloch(state: DensityOperator) -> BlochVector:
    """Map a density operator to its Bloch vector, r_i = N/(2 c_N) Tr(D L_i)."""
    n = state.dimension
    basis = generator_basis(n)
    traces = np.einsum("aij,ji->a", basis.generators, state.matrix)
    if np.max(np.abs(traces.imag)) > ALGEBRAIC_TOL:
        raise InvalidStateError(
            "Tr(D L_i) has imaginary part above 1e-12; input is not Hermitian"
        )
    return BlochVector(n, traces.real * (n / (2.0 * basis.normalization)))


def _bloch_matrix(r: BlochVector) -> np.ndarray:
    n = r.dimension
    basis = generator_basis(n)
    m = np.tensordot(r.coordinates, basis.generators, axes=1)
    m = (np.eye(n, dtype=complex) + basis.normalization * m) / n
    return (m + m.conj().T) / 2.0


def bloch_to_density(r: BlochVector) -> DensityOperator:
    """Inverse map, D = (1/N)(I + c_N r . L).

    For N >= 3 the ball is not filled with states, so the reconstructed
    operator may fail positivity; that raises ``InvalidStateError`` carrying
    the offending minimum eigenvalue.
    """
    m = _bloch_matrix(r)
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -EIGEN_TOL:
        raise InvalidStateError(
            f"Bloch vector does not correspond to a state "
            f"(min eigenvalue {lo:.3e})",
            min_eigenvalue=lo,
        )
    return DensityOperator(r.dimension, m)


def is_valid_state(r: BlochVector) -> StateValidity:
    """Total version of ``bloch_to_density``: never raises for in-ball input."""
    lo = float(np.linalg.eigvalsh(_bloch_matrix(r))[0])
    return StateValidity(lo >= -EIGEN_TOL, lo)


def pure_to_density(psi: PureState) -> DensityOperator:
    """Rank-1 projection |psi><psi|."""
    return DensityOperator(psi.dimension, np.outer(psi.amplitudes, psi.amplitudes.conj()))
