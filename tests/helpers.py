"""Shared construction helpers and oracles for the test suite."""

import math

import numpy as np

from hm_sim.bloch import BlochVector, DensityOperator, PureState
from hm_sim.geometry import HULL_TOL, MeasurementSimplex


def random_pure(rng: np.random.Generator, n: int) -> PureState:
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState.normalized(a)


def random_density(rng: np.random.Generator, n: int) -> DensityOperator:
    # Ginibre construction: A A^dag / Tr is always a valid density matrix.
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return DensityOperator(n, m / np.trace(m))


def random_orthonormal_frame(rng: np.random.Generator, n: int) -> np.ndarray:
    """Columns form a Haar-ish random orthonormal basis of C^n."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cellular_outcome_law(u, weights) -> np.ndarray:
    """Exact elementary-outcome probabilities of a cellular membrane.

    ``u`` holds the barycentric weights of the landed state point, with
    0 < u_0 < 1, and ``weights`` the m cell weights.  Under the uniform law
    the break's first weight w_0 has density (N-1)(1-s)^(N-2), and given
    w_0 = s the break tears towards vertex 0 with probability
    (1 - s (1-u_0) / ((1-s) u_0))_+^(N-2), else towards i >= 1 in proportion
    to u_i.  So outcome 0 together with w_0 <= s has probability
    H(s) = u_0 (1 - (1 - min(s/u_0, 1))^(N-1)).  Cell c is the slab of w_0
    whose image under 1 - (1-w_0)^(N-1) is [c/m, (c+1)/m), holding 1/m of
    the uniform measure, so P(0) = sum_c weight_c m (H(b_c) - H(a_c)) over
    the slab edges, and outcomes i >= 1 share 1 - P(0) in proportion to u_i.
    Equal weights give back u: the Born rule.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(weights, dtype=float)
    n, m = len(u), len(w)
    edges = 1.0 - (1.0 - np.arange(m + 1) / m) ** (1.0 / (n - 1))
    hit0 = u[0] * (1.0 - (1.0 - np.minimum(edges / u[0], 1.0)) ** (n - 1))
    p0 = math.fsum(w * m * np.diff(hit0))
    law = u * ((1.0 - p0) / (1.0 - u[0]))
    law[0] = p0
    return law


def _sqrt_gram_volume(points: np.ndarray) -> float:
    """Gram-determinant volume of conv(points), up to the common factorial.

    In membrane-local coordinates the edge matrix is square, so the square
    root of det(E E^T) is just |det E|; evaluating it that way keeps the
    noise floor at machine precision instead of its square root.
    """
    edges = points[1:] - points[0]
    return float(abs(np.linalg.det(edges)))


def subsimplex_volume_fractions(
    on_membrane: BlochVector, simplex: MeasurementSimplex
) -> np.ndarray:
    """Volume fraction of each tension-line sub-simplex.

    Sub-simplex i is conv({p} union {n_j : j != i}); its volume divided by
    the full simplex volume equals barycentric weight i.  Computed through
    Gram determinants in membrane-local coordinates, it is an oracle
    independent of the linear solve in ``barycentric_coordinates``.
    """
    assert on_membrane.dimension == simplex.dimension
    base, frame = simplex.vertices[0], simplex.frame
    p = on_membrane.coordinates
    local_p = (p - base) @ frame
    assert np.linalg.norm(base + frame @ local_p - p) <= HULL_TOL, "not on the membrane"
    corners = (simplex.vertices - base) @ frame
    total = _sqrt_gram_volume(corners)
    fractions = np.empty(simplex.dimension)
    for i in range(simplex.dimension):
        pts = corners.copy()
        pts[i] = local_p
        fractions[i] = _sqrt_gram_volume(pts) / total
    # |det| never goes negative, so a point outside the simplex shows as
    # volumes summing to more than the whole.
    assert abs(fractions.sum() - 1.0) <= 1e-8, "point lies outside the simplex"
    return fractions / fractions.sum()


def chi_square_thresholds(max_dof: int) -> tuple[float, ...]:
    """The 0.999 chi-square quantiles for 1..max_dof degrees of freedom.

    This is the formula ``harness._CHI2_THRESHOLDS`` was generated from, and
    the one ``chi_square_check`` still evaluates beyond the table.
    """
    from scipy.special import gammaincinv

    return tuple(2.0 * float(gammaincinv(dof / 2, 0.999)) for dof in range(1, max_dof + 1))


def threshold_table_source(values) -> str:
    """``values`` as the Python source of a tuple, four floats a line.

    Each float is written by repr, which round-trips it exactly, so the
    printed table reads back bit for bit; a failing table test prints this
    text to paste in.
    """
    rows = ["    " + " ".join(f"{v!r}," for v in values[i:i + 4])
            for i in range(0, len(values), 4)]
    return "(\n" + "\n".join(rows) + "\n)"
