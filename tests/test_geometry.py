"""Unit and property tests for the two-subspace geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _dense import (
    dense_correlator_trace,
    dense_matrix,
    eigh_range_basis,
    projector_from_matrix,
    recording_eigh,
)
from otoc_thermalize.hilbert import Projector, conjugate, sample_haar_unitary
from otoc_thermalize.geometry import (
    MAX_CORRELATOR_ORDER,
    angle_variance,
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
    orthonormal_range_basis,
)

ORACLE_TOL = 1e-9


def random_pair(dim, d_r, d_rho, seed):
    """Haar-random projector pair with the given ranks."""
    rng = np.random.default_rng(seed)
    u = sample_haar_unitary(dim, rng=rng)
    v = sample_haar_unitary(dim, rng=rng)
    p_r = conjugate(Projector.coordinate(dim, d_r), u)
    p_rho = conjugate(Projector.coordinate(dim, d_rho), v)
    return p_r, p_rho


def test_contained_range_gives_zero_angles():
    # range(P_rho) inside range(P_R): every angle vanishes.
    p_r = Projector.coordinate(6, 4)
    p_rho = Projector.coordinate(6, 2)
    geom = halmos_decompose(p_r, p_rho)
    np.testing.assert_allclose(geom.angles, 0.0, atol=1e-12)
    assert correlator_trace(p_r, p_rho, 3) == 1.0


def test_orthogonal_ranges_give_right_angles():
    e = np.eye(6, dtype=complex)
    p_r = Projector.from_isometry(e[:, :3])
    p_rho = Projector.from_isometry(e[:, 3:5])
    geom = halmos_decompose(p_r, p_rho)
    np.testing.assert_allclose(geom.angles, 0.5 * np.pi, atol=1e-12)
    assert correlator_trace(p_r, p_rho, 2) == 0.0


def test_equal_angle_instance_quarter_pi():
    # P_rho spanned by (e0+e2)/sqrt2 and (e1+e3)/sqrt2 sits at 45 degrees.
    e = np.eye(4, dtype=complex)
    p_r = Projector.from_isometry(e[:, :2])
    b = (e[:, [0, 1]] + e[:, [2, 3]]) / np.sqrt(2.0)
    p_rho = Projector.from_isometry(b)
    geom = halmos_decompose(p_r, p_rho)
    np.testing.assert_allclose(geom.angles, 0.25 * np.pi, atol=1e-12)
    assert abs(correlator_trace(p_r, p_rho, 1) - 0.5) <= 1e-12
    assert abs(correlator_trace(p_r, p_rho, 2) - 0.25) <= 1e-12
    assert abs(correlator_from_angles(geom, 2) - 0.25) <= 1e-12
    # all cos^2 equal, so the variance vanishes
    assert angle_variance(p_r, p_rho) == 0.0


def test_identical_projectors_all_orders():
    p = Projector.coordinate(8, 5)
    for n in range(1, 5):
        assert correlator_trace(p, p, n) == 1.0


def test_excess_rank_angles_are_right_angles():
    # d_rho > d_r leaves d_rho - d_r angles pinned at pi/2.
    p_r, p_rho = random_pair(12, 3, 7, seed=2)
    geom = halmos_decompose(p_r, p_rho)
    assert geom.angles.shape == (7,)
    np.testing.assert_allclose(geom.angles[3:], 0.5 * np.pi, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([6, 8, 12, 16]))
def test_geometry_invariants_random_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    d_r = int(rng.integers(1, dim))
    d_rho = int(rng.integers(1, dim))
    p_r, p_rho = random_pair(dim, d_r, d_rho, seed)
    geom = halmos_decompose(p_r, p_rho)
    w = geom.axes_w
    # axes_w is an orthonormal basis of range(P_rho)
    assert np.linalg.norm(w.conj().T @ w - np.eye(d_rho)) <= 1e-10
    assert np.linalg.norm(dense_matrix(p_rho) @ w - w) <= 1e-9
    # cos(theta_k) = ||P_R w_k|| and <w_k|P_R|w_l> = delta_kl cos^2(theta_k)
    pw = dense_matrix(p_r) @ w
    cos = np.cos(geom.angles)
    np.testing.assert_allclose(np.linalg.norm(pw, axis=0), cos, atol=1e-9)
    overlap = w.conj().T @ pw
    np.testing.assert_allclose(overlap, np.diag(cos ** 2), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([8, 16, 32]))
def test_angle_route_equals_trace_route(seed, dim):
    rng = np.random.default_rng(seed)
    d_r = int(rng.integers(1, dim))
    d_rho = int(rng.integers(1, dim))
    p_r, p_rho = random_pair(dim, d_r, d_rho, seed)
    geom = halmos_decompose(p_r, p_rho)
    for n in (1, 2, 3, 4):
        assert abs(correlator_trace(p_r, p_rho, n)
                   - correlator_from_angles(geom, n)) <= ORACLE_TOL


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_moment_chain_and_variance(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([8, 16, 24]))
    d_r = int(rng.integers(1, dim))
    d_rho = int(rng.integers(1, dim))
    p_r, p_rho = random_pair(dim, d_r, d_rho, seed)
    g2 = correlator_trace(p_r, p_rho, 1)
    g4 = correlator_trace(p_r, p_rho, 2)
    assert -1e-12 <= g2 <= 1.0
    assert g4 <= g2 + 1e-12
    assert g2 ** 2 <= g4 + 1e-12
    sigma2 = angle_variance(p_r, p_rho)
    assert 0.0 <= sigma2 <= 0.25 + 1e-12
    # variance equals the centered angle-route second moment
    geom = halmos_decompose(p_r, p_rho)
    centered = float(np.sum((geom.cos2 - g2) ** 2) / d_rho)
    assert abs(sigma2 - centered) <= ORACLE_TOL


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_symmetry_under_role_exchange(seed):
    rng = np.random.default_rng(seed)
    dim = 12
    d_r = int(rng.integers(1, dim))
    d_rho = int(rng.integers(1, dim))
    p_r, p_rho = random_pair(dim, d_r, d_rho, seed)
    for n in (1, 2, 3):
        lhs = d_rho * correlator_trace(p_r, p_rho, n)
        rhs = d_r * correlator_trace(p_rho, p_r, n)
        assert abs(lhs - rhs) <= 1e-10 * dim


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_unitary_invariance_of_angles(seed):
    p_r, p_rho = random_pair(10, 4, 6, seed)
    angles = halmos_decompose(p_r, p_rho).angles
    u = sample_haar_unitary(10, seed=seed)
    rotated = halmos_decompose(conjugate(p_r, u), conjugate(p_rho, u)).angles
    np.testing.assert_allclose(np.sort(angles), np.sort(rotated), atol=ORACLE_TOL)


def test_range_basis_rejects_corrupted_projector():
    # claims rank 2 but is rank 3: the eigh oracle must error, not guess
    with pytest.raises(ValueError, match="rank"):
        eigh_range_basis(np.diag([1.0, 1.0, 1.0, 0.0]), rank=2)


def test_correlator_rejects_out_of_range_order():
    p = Projector.coordinate(4, 2)
    with pytest.raises(ValueError, match="order"):
        correlator_trace(p, p, 0)
    with pytest.raises(ValueError, match="order"):
        correlator_trace(p, p, 9)


def test_correlator_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        correlator_trace(Projector.coordinate(4, 2), Projector.coordinate(6, 2), 1)


def isometry_pair(case, dim=12, seed=20):
    """Isometries (V_r, V_rho) for the degenerate geometries and a generic pair."""
    rng = np.random.default_rng(seed)
    u = sample_haar_unitary(dim, rng=rng)
    v = sample_haar_unitary(dim, rng=rng)
    if case == "nested":  # ran(P_rho) inside ran(P_R): every angle is zero
        return u[:, :7], u[:, :7] @ sample_haar_unitary(7, rng=rng, columns=3)
    if case == "orthogonal":
        return u[:, :5], u[:, 5:9]
    if case == "excess-rank":  # d_rho > d_r
        return u[:, :3], v[:, :8]
    if case == "full-rank":  # P_rho = 1
        return u[:, :5], v
    if case == "rank-one":  # d_rho = 1
        return u[:, :6], v[:, :1]
    return u[:, :6], v[:, :4]


CASES = ["nested", "orthogonal", "excess-rank", "full-rank", "rank-one", "generic"]


def assert_routes_agree(v_r, v_rho):
    """The kept basis and the basis the eigh oracle recovers agree.

    They span the same range, and they give the same decomposition.
    """
    p_r, p_rho = Projector.from_isometry(v_r), Projector.from_isometry(v_rho)
    with recording_eigh() as calls:
        kept = halmos_decompose(p_r, p_rho)
    assert calls == []
    with recording_eigh() as calls:
        recovered = [projector_from_matrix(dense_matrix(p), p.rank) for p in (p_r, p_rho)]
    assert calls == [(p_r.dim, p_r.dim)] * 2
    for p, q in zip((p_r, p_rho), recovered):
        kept_basis, found = orthonormal_range_basis(p), q.basis
        assert np.linalg.norm(kept_basis @ kept_basis.conj().T
                              - found @ found.conj().T) <= 1e-10
    dense = halmos_decompose(*recovered)
    np.testing.assert_allclose(kept.cos2, dense.cos2, rtol=0, atol=1e-12)
    w_kept, w_dense = kept.axes_w, dense.axes_w
    assert np.linalg.norm(w_kept @ w_kept.conj().T
                          - w_dense @ w_dense.conj().T) <= 1e-10
    return kept


@pytest.mark.parametrize("case", CASES)
def test_kept_isometry_and_eigh_routes_agree(case):
    geom = assert_routes_agree(*isometry_pair(case))
    if case == "nested":
        np.testing.assert_allclose(geom.cos2, 1.0, atol=1e-12)
    elif case == "orthogonal":
        np.testing.assert_allclose(geom.cos2, 0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([4, 8, 16, 24]))
def test_kept_isometry_and_eigh_routes_agree_on_random_pairs(seed, dim):
    rng = np.random.default_rng(seed)
    d_r = int(rng.integers(1, dim + 1))
    d_rho = int(rng.integers(1, dim + 1))
    assert_routes_agree(sample_haar_unitary(dim, rng=rng, columns=d_r),
                        sample_haar_unitary(dim, rng=rng, columns=d_rho))


def test_decomposition_ignores_later_writes_to_the_callers_isometry():
    v_r, v_rho = isometry_pair("generic")
    v_r, v_rho = v_r.copy(), v_rho.copy()
    p_r, p_rho = Projector.from_isometry(v_r), Projector.from_isometry(v_rho)
    before = halmos_decompose(p_r, p_rho)
    v_r[:] = 0.0
    v_rho[:] = 1.0
    after = halmos_decompose(p_r, p_rho)
    np.testing.assert_array_equal(before.angles, after.angles)
    np.testing.assert_array_equal(before.axes_w, after.axes_w)
    basis = orthonormal_range_basis(p_rho)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0


@pytest.mark.parametrize("case", ["nested", "orthogonal", "generic", "excess-rank"])
def test_correlator_trace_matches_matrix_power_oracle(case):
    p_r, p_rho = (Projector.from_isometry(v) for v in isometry_pair(case, dim=16))
    a = dense_matrix(p_r) @ dense_matrix(p_rho)
    for n in range(1, MAX_CORRELATOR_ORDER + 1):
        oracle = np.trace(np.linalg.matrix_power(a, n)).real / p_rho.rank
        assert abs(correlator_trace(p_r, p_rho, n) - oracle) <= 1e-12 * p_r.dim
        assert abs(dense_correlator_trace(p_r, p_rho, n) - oracle) <= 1e-12 * p_r.dim
