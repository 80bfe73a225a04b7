"""Generator bases and the state <-> Bloch-vector maps."""

import math

import numpy as np
import pytest

from helpers import random_density, random_pure

import hm_sim.bloch
from hm_sim.bloch import (
    BlochVector,
    DensityOperator,
    PureState,
    bloch_to_density,
    build_generator_basis,
    density_to_bloch,
    pure_to_density,
)
from hm_sim.errors import DimensionError, InvalidStateError
from hm_sim.geometry import build_measurement_simplex, canonical_observable

# Independent oracles: the textbook Pauli and Gell-Mann matrices, written out.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / math.sqrt(3),
]


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_count_hermitian_traceless(n):
    basis = build_generator_basis(n)
    assert basis.shape == (n * n - 1, n, n) and basis.dtype == complex
    assert not basis.flags.writeable
    for g in basis:
        assert np.max(np.abs(g - g.conj().T)) <= 1e-12
        assert abs(np.trace(g)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_orthogonality(n):
    g = build_generator_basis(n)
    gram = np.einsum("aij,bji->ab", g, g)
    assert np.max(np.abs(gram.imag)) <= 1e-12
    assert np.max(np.abs(gram.real - 2.0 * np.eye(len(g)))) <= 1e-12


def test_normalization_constants():
    # c_2 = 1 reproduces D = (I + r.sigma)/2; c_3 = sqrt(3) the qutrit formula.
    # The constant the maps use is the last entry of their layout.
    assert hm_sim.bloch._layout(2)[3] == pytest.approx(1.0, abs=1e-15)
    assert hm_sim.bloch._layout(3)[3] == pytest.approx(math.sqrt(3), abs=1e-15)


def test_pauli_ordering_exact():
    g = build_generator_basis(2)
    np.testing.assert_allclose(g[0], SX, atol=1e-15)
    np.testing.assert_allclose(g[1], SY, atol=1e-15)
    np.testing.assert_allclose(g[2], SZ, atol=1e-15)


def test_gell_mann_matrices_recovered():
    # Same matrices as the standard Gell-Mann set, reordered to the fixed
    # symmetric/antisymmetric/diagonal layout.
    g = build_generator_basis(3)
    expected_order = [0, 3, 5, 1, 4, 6, 2, 7]  # standard lambda indices (0-based)
    for ours, std in zip(g, expected_order):
        np.testing.assert_allclose(ours, GELL_MANN[std], atol=1e-15)


def test_generator_basis_rejects_small_dimension():
    with pytest.raises(DimensionError):
        build_generator_basis(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_fast_maps_match_generator_contraction(n):
    # Oracle: r_i = N/(2 c_N) Tr(D L_i) and D = (I + c_N r . L)/N, contracted
    # against the dense generator tensor, with c_N computed here.
    generators = build_generator_basis(n)
    c = math.sqrt(n * (n - 1) / 2.0)
    scale = n / (2.0 * c)
    rng = np.random.default_rng(5000 + n)
    states = [pure_to_density(random_pure(rng, n)) for _ in range(10)]
    states += [random_density(rng, n) for _ in range(10)]
    for d in states:
        r = density_to_bloch(d)
        traces = np.einsum("aij,ji->a", generators, d.matrix)
        assert np.max(np.abs(r.coordinates - traces.real * scale)) <= 1e-15
        dense = np.tensordot(r.coordinates, generators, axes=1)
        dense = (np.eye(n) + c * dense) / n
        assert np.max(np.abs(bloch_to_density(r).matrix - dense)) <= 1e-15


def test_maps_never_build_the_generator_tensor(monkeypatch):
    def refuse(dimension):
        raise AssertionError(f"dense SU({dimension}) basis built")

    monkeypatch.setattr(hm_sim.bloch, "build_generator_basis", refuse)
    n = 64
    rng = np.random.default_rng(64)
    r = density_to_bloch(random_density(rng, n))
    assert bloch_to_density(r).dimension == n
    simplex = build_measurement_simplex(canonical_observable(n))
    assert simplex.vertices.shape == (n, n * n - 1)


def test_maximally_mixed_maps_to_center():
    for n in (2, 3):
        r = density_to_bloch(DensityOperator.maximally_mixed(n))
        np.testing.assert_allclose(r.coordinates, np.zeros(n * n - 1), atol=1e-15)


def test_center_maps_to_maximally_mixed():
    d = bloch_to_density(BlochVector(2, np.zeros(3)))
    np.testing.assert_allclose(d.matrix, np.eye(2) / 2, atol=1e-15)


def test_ground_state_bloch_vector():
    # Oracle: components are Tr(D sigma_i) with the explicit Paulis.
    d = pure_to_density(PureState.basis_state(2, 0))
    expected = [np.trace(d.matrix @ s).real for s in (SX, SY, SZ)]
    np.testing.assert_allclose(expected, [0.0, 0.0, 1.0], atol=1e-15)
    r = density_to_bloch(d)
    np.testing.assert_allclose(r.coordinates, expected, atol=1e-14)
    assert np.linalg.norm(r.coordinates) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_round_trip_on_random_densities(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(25):
        d = random_density(rng, n)
        back = bloch_to_density(density_to_bloch(d))
        assert np.max(np.abs(back.matrix - d.matrix)) <= 1e-10


def test_round_trip_on_n2_unit_vectors():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.standard_normal(3)
        r = BlochVector(2, v / np.linalg.norm(v))
        back = density_to_bloch(bloch_to_density(r))
        np.testing.assert_allclose(back.coordinates, r.coordinates, atol=1e-10)


def purity(d: DensityOperator) -> float:
    return float(np.trace(d.matrix @ d.matrix).real)


@pytest.mark.parametrize("n", range(2, 9))
def test_purity_criterion(n):
    rng = np.random.default_rng(2000 + n)
    for _ in range(10):
        psi = random_pure(rng, n)
        d = pure_to_density(psi)
        assert abs(purity(d) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(density_to_bloch(d).coordinates) - 1.0) <= 1e-10
    mixed = random_density(rng, n)
    if abs(purity(mixed) - 1.0) > 1e-6:
        assert np.linalg.norm(density_to_bloch(mixed).coordinates) < 1.0


@pytest.mark.parametrize("n", range(2, 9))
def test_orthogonal_states_inner_product(n):
    # Tr(P_i P_j) = 0 forces r_i . r_j = -1/(N-1).
    rng = np.random.default_rng(3000 + n)
    from helpers import random_orthonormal_frame

    frame = random_orthonormal_frame(rng, n)
    vecs = [
        density_to_bloch(pure_to_density(PureState(n, frame[:, k])))
        for k in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            dot = float(np.dot(vecs[i].coordinates, vecs[j].coordinates))
            assert abs(dot + 1.0 / (n - 1)) <= 1e-10


@pytest.mark.parametrize("n", (2, 3, 5))
def test_map_is_affine_in_mixing(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(10):
        d1, d2 = random_density(rng, n), random_density(rng, n)
        t = rng.random()
        mix = DensityOperator(n, t * d1.matrix + (1 - t) * d2.matrix)
        expected = (
            t * density_to_bloch(d1).coordinates
            + (1 - t) * density_to_bloch(d2).coordinates
        )
        np.testing.assert_allclose(
            density_to_bloch(mix).coordinates, expected, atol=1e-12
        )


def test_qutrit_generator_axes_leave_the_state_space():
    # Scan all 8 generator directions at unit norm; each reconstructed
    # operator picks up a negative eigenvalue, confirming the ball is not
    # filled with states for N = 3.  Oracle: eigvalsh of the explicit matrix.
    generators = build_generator_basis(3)
    for axis in range(8):
        r = np.zeros(8)
        r[axis] = 1.0
        m = (np.eye(3) + math.sqrt(3) * generators[axis]) / 3.0
        lo = np.linalg.eigvalsh(m)[0]
        assert lo < -1e-6
        with pytest.raises(InvalidStateError) as err:
            bloch_to_density(BlochVector(3, r))
        assert err.value.min_eigenvalue == pytest.approx(lo, abs=1e-12)


@pytest.mark.parametrize("n", (2, 8, 64))
def test_bloch_to_density_runs_one_eigensolve(monkeypatch, n):
    # The positivity check lives in DensityOperator alone.
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    r = density_to_bloch(random_density(np.random.default_rng(n), n))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert bloch_to_density(r).dimension == n
    assert calls == [(n, n)]


def test_bloch_to_density_accepts_convex_combinations():
    rng = np.random.default_rng(99)
    for _ in range(20):
        r1 = density_to_bloch(random_density(rng, 3))
        r2 = density_to_bloch(random_density(rng, 3))
        t = rng.random()
        mix = BlochVector(3, t * r1.coordinates + (1 - t) * r2.coordinates)
        assert bloch_to_density(mix).dimension == 3
    assert bloch_to_density(BlochVector(3, np.zeros(8))).dimension == 3


def test_pure_to_density_examples():
    d = pure_to_density(PureState(2, np.array([1.0, 0.0])))
    np.testing.assert_allclose(d.matrix, np.diag([1.0, 0.0]), atol=1e-15)
    d = pure_to_density(PureState.normalized([1.0, 1.0]))
    np.testing.assert_allclose(d.matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_pure_state_validation():
    with pytest.raises(InvalidStateError):
        PureState(2, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(InvalidStateError):
        PureState.normalized([0.0, 0.0])
    a = PureState.normalized([1.0, 1.0])
    b = PureState.normalized([1.0j, 1.0j])
    assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) <= 1e-10  # equal up to a global phase
    # NaN fails every comparison, so the norm check passes only a number.
    with pytest.raises(InvalidStateError, match="unit norm"):
        PureState(2, np.array([math.nan, 0.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidStateError, match="must be finite"):
            PureState.normalized([bad, 1.0])
    # A tiny or underflowing norm is rescaled by the largest entry, not rejected.
    np.testing.assert_array_equal(PureState.normalized([1e-13, 0.0]).amplitudes, [1.0, 0.0])
    np.testing.assert_allclose(PureState.normalized([1e-200, 1e-200]).amplitudes,
                               [math.sqrt(0.5)] * 2, rtol=1e-15)
    for index in (-1, 3):
        with pytest.raises(DimensionError, match=r"basis index must be 0\.\.2"):
            PureState.basis_state(3, index)


def test_density_validation():
    with pytest.raises(InvalidStateError):
        DensityOperator(2, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(2, np.diag([0.9, 0.3]))  # trace 1.2
    with pytest.raises(InvalidStateError):
        DensityOperator(2, np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(DimensionError):
        DensityOperator(3, np.eye(2) / 2)
    # NaN slips through every comparison, so it needs a check of its own.
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityOperator(2, np.array([[bad, 0.0], [0.0, 1.0]]))


def test_bloch_vector_rejects_points_outside_ball():
    with pytest.raises(InvalidStateError):
        BlochVector(2, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidStateError, match="not a point of the ball"):
        BlochVector(2, np.array([math.nan, 0.0, 0.0]))


def test_bloch_vector_rejects_dimension_below_2():
    # As PureState and DensityOperator do, not later in the maps.
    with pytest.raises(DimensionError, match="dimension must be >= 2"):
        BlochVector(1, [])
