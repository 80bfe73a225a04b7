"""Simplex construction, membrane projection, barycentric/Born agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_density,
    random_orthonormal_frame,
    random_pure,
    subsimplex_volume_fractions,
)

from hm_sim.bloch import (
    BlochVector,
    DensityOperator,
    PureState,
    density_to_bloch,
    pure_to_density,
)
from hm_sim.errors import (
    DimensionError,
    GeometryError,
    InvalidMembranePointError,
    ObservableError,
)
from hm_sim.geometry import (
    MeasurementSimplex,
    Observable,
    _classify_by_columns,
    barycentric_coordinates,
    born_probabilities,
    build_measurement_simplex,
    canonical_observable,
    classify_weights,
    project_onto_face,
    project_onto_membrane,
    spin_observable,
)


def make_simplex(n, labels=None):
    return build_measurement_simplex(canonical_observable(n, labels))


def n2_state(theta):
    """Unit Bloch vector at polar angle theta from the +z vertex."""
    return BlochVector(2, np.array([math.sin(theta), 0.0, math.cos(theta)]))


def test_observable_partition_from_labels():
    obs = canonical_observable(4, (1.0, 2.0, 1.0, 3.0))
    assert obs.degeneracy_partition == ((0, 2), (1,), (3,))
    assert obs.block_index.dtype == np.int64
    assert obs.block_index.tolist() == [0, 1, 0, 2]
    assert obs.block_labels == (1.0, 2.0, 3.0)


def test_observable_rejects_nonorthogonal_eigenstates():
    s0 = PureState.normalized([1.0, 0.0])
    s1 = PureState.normalized([1.0, 1.0])
    with pytest.raises(ObservableError, match="eigenstates 0 and 1 are not orthogonal"):
        Observable(2, (s0, s1), (0.0, 1.0))
    # Pairs (0, 3) and (1, 2) overlap; the first in the order i < j is named,
    # not the first column by column.
    states = tuple(PureState.normalized(a) for a in (
        [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ObservableError, match="eigenstates 0 and 3 are not orthogonal"):
        Observable(4, states, (0.0, 1.0, 2.0, 3.0))


def test_observable_rejects_dimension_below_2():
    # Zero eigenstates match zero labels, but such an observable has no simplex.
    with pytest.raises(DimensionError, match="dimension must be >= 2, got 0"):
        Observable(0, (), ())


def test_n2_simplex_is_antipodal():
    s = make_simplex(2)
    np.testing.assert_allclose(s.vertices[0], [0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(s.vertices[1], [0, 0, -1], atol=1e-14)


@pytest.mark.parametrize("n", (3, 4, 6, 8))
def test_vertex_inner_products(n):
    # Oracle: Tr(P_i P_j) = 0 for orthogonal projections forces the Bloch
    # inner product to -1/(N-1); checked both with canonical and random frames.
    s = make_simplex(n)
    gram = s.vertices @ s.vertices.T
    expected = np.full((n, n), -1.0 / (n - 1)) + np.eye(n) * (1 + 1.0 / (n - 1))
    np.testing.assert_allclose(gram, expected, atol=1e-10)

    rng = np.random.default_rng(500 + n)
    frame = random_orthonormal_frame(rng, n)
    states = tuple(PureState(n, frame[:, k]) for k in range(n))
    obs = Observable(n, states, tuple(float(i) for i in range(n)))
    s2 = build_measurement_simplex(obs)
    gram2 = s2.vertices @ s2.vertices.T
    np.testing.assert_allclose(gram2, expected, atol=1e-10)


def test_projection_n2_lands_at_cos_theta():
    s = make_simplex(2)
    for theta in (0.0, 0.3, math.pi / 3, math.pi / 2, 2.5, math.pi):
        p = project_onto_membrane(n2_state(theta), s)
        np.testing.assert_allclose(
            p.coordinates, [0, 0, math.cos(theta)], atol=1e-12
        )


def test_projection_fixes_vertices():
    s = make_simplex(5)
    for row in s.vertices:
        p = project_onto_membrane(BlochVector(5, row), s)
        np.testing.assert_allclose(p.coordinates, row, atol=1e-12)


@pytest.mark.parametrize("n", (2, 3, 4, 7))
def test_projection_of_center_is_centroid(n):
    s = make_simplex(n)
    p = project_onto_membrane(BlochVector(n, np.zeros(n * n - 1)), s)
    np.testing.assert_allclose(p.coordinates, s.vertices.mean(axis=0), atol=1e-12)
    w = barycentric_coordinates(p, s)
    np.testing.assert_allclose(w, np.full(n, 1.0 / n), atol=1e-12)


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_projection_residual_orthogonal_to_edges(n):
    rng = np.random.default_rng(600 + n)
    s = make_simplex(n)
    for _ in range(10):
        r = density_to_bloch(random_density(rng, n))
        resid = r.coordinates - project_onto_membrane(r, s).coordinates
        for i in range(n):
            for j in range(i + 1, n):
                edge = s.vertices[i] - s.vertices[j]
                assert abs(np.dot(resid, edge)) <= 1e-10


def test_barycentric_examples():
    s = make_simplex(3)
    w = barycentric_coordinates(BlochVector(3, s.vertices[0]), s)
    np.testing.assert_allclose(w, [1, 0, 0], atol=1e-12)

    s2 = make_simplex(2)
    for theta in (0.4, math.pi / 3, 2.0):
        p = BlochVector(2, np.array([0, 0, math.cos(theta)]))
        w = barycentric_coordinates(p, s2)
        np.testing.assert_allclose(
            w,
            [math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2],
            atol=1e-12,
        )


def test_barycentric_rejects_off_hull_and_outside_points():
    s = make_simplex(3)
    rel = np.zeros(8)
    rel[3] = 1e-4  # antisymmetric direction, orthogonal to the membrane plane
    off = BlochVector(3, s.vertices.mean(axis=0) + rel)
    with pytest.raises(GeometryError):
        barycentric_coordinates(off, s)

    # Walk from a vertex through the centroid and beyond the opposite face
    # (t = 1.5 hits the face); the point stays inside the unit ball but its
    # first barycentric weight is -1/15, beyond every clamp tolerance.
    t = 1.6
    centroid = s.vertices.mean(axis=0)
    outside = BlochVector(3, (1 - t) * s.vertices[0] + t * centroid)
    with pytest.raises(InvalidMembranePointError):
        barycentric_coordinates(outside, s)


def test_born_probabilities_examples():
    obs = canonical_observable(3)
    d = pure_to_density(PureState.basis_state(3, 1))
    np.testing.assert_allclose(
        born_probabilities(d, obs), [0, 1, 0], atol=1e-14
    )
    np.testing.assert_allclose(
        born_probabilities(DensityOperator.maximally_mixed(3), obs),
        np.full(3, 1 / 3),
        atol=1e-14,
    )
    # Spin-1/2 at polar angle pi/3 from the measurement axis: cos^2(pi/6) = 3/4.
    from hm_sim.bloch import bloch_to_density

    d2 = bloch_to_density(n2_state(math.pi / 3))
    np.testing.assert_allclose(
        born_probabilities(d2, canonical_observable(2)),
        [0.75, 0.25],
        atol=1e-12,
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_born_geometry_identity(n):
    # The central claim: barycentric coordinates of the projected state point
    # equal the Hilbert-space probabilities Tr(D P_i).
    rng = np.random.default_rng(700 + n)
    obs = canonical_observable(n)
    s = build_measurement_simplex(obs)
    for _ in range(25):
        d = pure_to_density(random_pure(rng, n))
        r = density_to_bloch(d)
        w = barycentric_coordinates(project_onto_membrane(r, s), s)
        p = born_probabilities(d, obs)
        assert np.max(np.abs(w - p)) <= 1e-9
    for _ in range(10):
        d = random_density(rng, n)
        r = density_to_bloch(d)
        w = barycentric_coordinates(project_onto_membrane(r, s), s)
        p = born_probabilities(d, obs)
        assert np.max(np.abs(w - p)) <= 1e-9


def test_subsimplex_volume_examples():
    s = make_simplex(3)
    centroid = BlochVector(3, s.vertices.mean(axis=0))
    np.testing.assert_allclose(
        subsimplex_volume_fractions(centroid, s),
        np.full(3, 1 / 3),
        atol=1e-12,
    )
    midpoint = BlochVector(3, (s.vertices[1] + s.vertices[2]) / 2)
    np.testing.assert_allclose(
        subsimplex_volume_fractions(midpoint, s),
        [0.0, 0.5, 0.5],
        atol=1e-12,
    )


@pytest.mark.parametrize("n", (2, 3, 4, 6, 8))
def test_volume_and_solve_routes_agree(n):
    rng = np.random.default_rng(800 + n)
    s = make_simplex(n)
    for _ in range(20):
        w = rng.dirichlet(np.ones(n))
        p = BlochVector(n, s.from_barycentric(w))
        via_volumes = subsimplex_volume_fractions(p, s)
        via_solve = barycentric_coordinates(p, s)
        assert np.max(np.abs(via_volumes - via_solve)) <= 1e-9
        assert np.max(np.abs(via_solve - w)) <= 1e-9


def _membership_oracle(x, p, vertices):
    """Brute sub-simplex membership with lowest-index tie-break."""
    n = vertices.shape[0]
    for i in range(n):
        pts = vertices.copy()
        pts[i] = p
        a = np.vstack([pts.T, np.ones((1, n))])
        b = np.append(x, 1.0)
        w, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
        if np.linalg.norm(a @ w - b) <= 1e-8 and w.min() >= -1e-9:
            return i
    return None


def test_classify_examples():
    s = make_simplex(3)
    centroid = BlochVector(3, s.vertices.mean(axis=0))
    midpoint = BlochVector(3, (s.vertices[1] + s.vertices[2]) / 2)
    u = barycentric_coordinates(centroid, s)
    # Breaking on the far edge detaches anchors n_2, n_3: outcome is index 0.
    assert classify_weights(barycentric_coordinates(midpoint, s), u) == 0
    # Breaking exactly at the landed point: tie among all, lowest index wins.
    assert classify_weights(u, u) == 0
    # Near a vertex the outcome is never that vertex (it anchors the other
    # subregions, not its own).
    for eps in (1e-3, 1e-6):
        x = BlochVector(
            3, s.from_barycentric(np.array([1 - eps, eps * 0.6, eps * 0.4]))
        )
        assert classify_weights(barycentric_coordinates(x, s), u) in (1, 2)


@pytest.mark.parametrize("n", (2, 3, 4, 6))
def test_classify_matches_membership_oracle(n):
    rng = np.random.default_rng(900 + n)
    s = make_simplex(n)
    for _ in range(40):
        u = rng.dirichlet(np.ones(n))
        p = BlochVector(n, s.from_barycentric(u))
        x = BlochVector(n, s.from_barycentric(rng.dirichlet(np.ones(n))))
        got = classify_weights(barycentric_coordinates(x, s), barycentric_coordinates(p, s))
        expected = _membership_oracle(x.coordinates, p.coordinates, s.vertices)
        assert got == expected


@pytest.mark.parametrize("n", (3, 5))
def test_classification_partitions_match_weights(n):
    # Frequencies of classified uniform samples converge to the barycentric
    # weights of the landed point (statistical check, 4 sigma).
    rng = np.random.default_rng(1000 + n)
    s = make_simplex(n)
    u = rng.dirichlet(np.ones(n))
    p = BlochVector(n, s.from_barycentric(u))
    trials = 20000
    e = rng.standard_exponential((trials, n))
    v = e / e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        ratios = v / u
    outcomes = np.argmin(ratios, axis=1)
    freq = np.bincount(outcomes, minlength=n) / trials
    band = 4.0 * np.sqrt(u * (1 - u) / trials)
    assert np.all(np.abs(freq - u) <= band)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    count=st.integers(1, 8192),  # up to harness.CHUNK_TRIALS
    seed=st.integers(0, 2**32 - 1),
    tie_share=st.sampled_from((0.0, 0.5, 1.0)),
    zero_u=st.integers(0, 7),
)
def test_column_classifier_is_the_row_argmin(n, count, seed, tie_share, zero_u):
    # Small integer weights make exact ties, some breaks are all zeros, and
    # up to n - 1 weights of p are zero; where u has no zero, the reference
    # is plain np.argmin(v / u, axis=-1).
    rng = np.random.default_rng(seed)
    v = rng.standard_exponential((count, n))
    ties = rng.random(count) < tie_share
    v[ties] = rng.integers(0, 3, (int(ties.sum()), n))
    v[rng.random(count) < 0.05] = 0.0
    u = rng.choice((0.25, 0.5, 1.0), n) if tie_share else rng.dirichlet(np.ones(n))
    u[rng.permutation(n)[:min(zero_u, n - 1)]] = 0.0
    work = np.full(2 * count + 3, np.nan)
    got = _classify_by_columns(v, u, work)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = v / u
    ratios[:, u == 0.0] = np.inf
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.argmin(ratios, axis=-1))
    np.testing.assert_array_equal(got, classify_weights(v, u))


def test_classify_rejects_points_outside_simplex():
    s = make_simplex(3)
    centroid = BlochVector(3, s.vertices.mean(axis=0))
    t = 1.6
    outside = BlochVector(3, (1 - t) * s.vertices[0] + t * centroid.coordinates)
    with pytest.raises(GeometryError):
        classify_weights(
            barycentric_coordinates(outside, s), barycentric_coordinates(centroid, s)
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_simplex_rows_are_the_eigenstate_bloch_vectors(n):
    # The simplex reads each row off |n_i><n_i| directly; it must equal the
    # public map applied to the eigenstate's density operator, bit for bit.
    rng = np.random.default_rng(1100 + n)
    frame = random_orthonormal_frame(rng, n)
    labels = tuple(float(i) for i in range(n))
    random_basis = tuple(PureState(n, frame[:, k]) for k in range(n))
    for obs in (canonical_observable(n), Observable(n, random_basis, labels)):
        s = build_measurement_simplex(obs)
        for row, psi in zip(s.vertices, obs.eigenstates):
            np.testing.assert_array_equal(
                row, density_to_bloch(pure_to_density(psi)).coordinates
            )


@pytest.mark.parametrize("n,block", [(3, (0, 1)), (4, (1, 3)), (6, (0, 2, 5)), (4, (2,))])
def test_face_projection_matches_closed_form(n, block):
    # The face of block M is the regular sub-simplex of its vertices; from
    # n_i . n_j = -1/(N-1), projecting the point with weights u onto it gives
    # weights u_i + (1 - sum_M u)/|M| on M and 0 elsewhere.
    rng = np.random.default_rng(1200 + n)
    s = make_simplex(n)
    for _ in range(10):
        u = rng.dirichlet(np.ones(n))
        landed = BlochVector(n, s.from_barycentric(u))
        w = np.zeros(n)
        idx = list(block)
        w[idx] = u[idx] + (1.0 - u[idx].sum()) / len(block)
        got = project_onto_face(landed, s, block)
        np.testing.assert_allclose(got.coordinates, s.from_barycentric(w), atol=1e-12)
    assert np.array_equal(project_onto_face(landed, s, (1,)).coordinates, s.vertices[1])


@pytest.mark.parametrize("n", range(2, 17))
def test_a_one_vertex_face_is_its_vertex_bit_for_bit(n):
    # The general route adds an empty frame's 0.0 to the vertex, which
    # keeps every bit but a -0.0, and the Bloch map leaves no vertex one.
    rng = np.random.default_rng(1300 + n)
    frame = random_orthonormal_frame(rng, n)
    random_basis = tuple(PureState(n, frame[:, k]) for k in range(n))
    for obs in (canonical_observable(n), Observable(n, random_basis, range(n))):
        s = build_measurement_simplex(obs)
        landed = project_onto_membrane(density_to_bloch(random_density(rng, n)), s)
        for i in range(n):
            face = project_onto_face(landed, s, (i,))
            assert face.coordinates.tobytes() == s.vertices[i].tobytes()


def test_spin_observable_vertices_align_with_axis():
    rng = np.random.default_rng(11)
    for _ in range(10):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        s = build_measurement_simplex(spin_observable(axis))
        np.testing.assert_allclose(s.vertices[0], axis, atol=1e-12)
        np.testing.assert_allclose(s.vertices[1], -axis, atol=1e-12)
    # The squared norm overflows or falls below 1e-12; the direction is still clear.
    for axis, unit in (([1e200, 1e200, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
                       ([1e-13, 0.0, 0.0], [1.0, 0.0, 0.0])):
        s = build_measurement_simplex(spin_observable(axis))
        np.testing.assert_allclose(s.vertices, [unit, np.negative(unit)], atol=1e-12)
    for axis in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(GeometryError, match="finite nonzero norm"):
            spin_observable(axis)


def test_simplex_rejects_a_nan_vertex_at_the_norm_check():
    # NaN fails every comparison, so each check passes only numbers.
    with pytest.raises(GeometryError, match="unit vectors"):
        MeasurementSimplex(2, np.array([[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]))
