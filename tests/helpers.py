"""Shared construction helpers and oracles for the test suite."""

import math

import numpy as np

from hm_sim.bloch import DensityOperator, PureState


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
