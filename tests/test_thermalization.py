"""Tests for the thermal-subspace and nonthermal-fraction bound machinery."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _dense import (
    dense_expectations,
    dense_matrix,
    dense_nonthermal_fraction,
    principal_axes,
)
from test_geometry import CASES, isometry_pair
from otoc_thermalize import thermalization
from otoc_thermalize.hilbert import (
    STACK_ENTRIES,
    InvariantError,
    Projector,
    derive_rng,
    sample_haar_unitary,
)
from otoc_thermalize.geometry import (
    angle_variance,
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.thermalization import (
    bound_nonthermal_fraction,
    bound_thermal_dimension,
    converse_variance_bound,
    core_sizing,
    empirical_nonthermal_fraction,
    nonthermal_witness_bound,
    thermal_axes,
    thermalization_report,
)

FLOAT_SLACK = 1e-9


def random_pair(dim, d_r, d_rho, seed):
    rng = np.random.default_rng(seed)
    p_r = Projector(sample_haar_unitary(dim, rng=rng)[:, :d_r])
    p_rho = Projector(sample_haar_unitary(dim, rng=rng)[:, :d_rho])
    return p_r, p_rho


def maximal_variance_pair():
    """P_R = span{e0,e1}, P_rho = span{e0,e2}: angles {0, pi/2}, sigma2 = 1/4."""
    e = np.eye(4, dtype=complex)
    p_r = Projector(e[:, :2])
    p_rho = Projector(e[:, [0, 2]])
    return p_r, p_rho


# ---------------------------------------------------------------------------
# Formula evaluations.
# ---------------------------------------------------------------------------

def test_thermal_dimension_formula():
    assert bound_thermal_dimension(0.0, 0.1, 64) == 64.0
    # sigma2 = lambda^2 is the vacuous threshold (0.1**2 != 0.01 exactly,
    # hence the dust tolerance)
    assert abs(bound_thermal_dimension(0.01, 0.1, 64)) <= 1e-12
    assert abs(bound_thermal_dimension(1e-4, 0.1, 1024) - 1013.76) <= 1e-9
    # never negative
    assert bound_thermal_dimension(0.5, 0.1, 64) == 0.0


def test_thermal_dimension_rejects_zero_lambda():
    with pytest.raises(ValueError, match="lambda"):
        bound_thermal_dimension(0.0, 0.0, 4)


def test_nonthermal_fraction_formula():
    val, vac = bound_nonthermal_fraction(0.0, 0.3)
    assert val == 0.0 and not vac
    val, vac = bound_nonthermal_fraction(1.08e-4, 0.1)
    assert abs(val - 0.9) <= 1e-12 and not vac
    val, vac = bound_nonthermal_fraction(4.0 * (0.1 * 0.1 / 3.0) ** 3, 0.05)
    assert abs(val - 0.2) <= 1e-12 and not vac
    val, vac = bound_nonthermal_fraction(0.2, 0.01)
    assert val == 1.0 and vac


def test_converse_bound_formula():
    assert converse_variance_bound(0.1, 0.0) == pytest.approx(0.01)
    assert converse_variance_bound(0.0, 1.0) == 1.0
    assert converse_variance_bound(0.1, 0.2) == pytest.approx(0.208)
    with pytest.raises(ValueError, match="lambda"):
        converse_variance_bound(1.0, 0.5)


def test_witness_bound_formula():
    assert nonthermal_witness_bound(0.09, 0.3) == 0.0
    assert nonthermal_witness_bound(1.0, 0.0) == 1.0
    assert abs(nonthermal_witness_bound(0.25, 0.3)
               - (0.25 - 0.09) / 0.91) <= 1e-12
    with pytest.raises(ValueError, match="lambda"):
        nonthermal_witness_bound(0.25, 1.0)


def test_dimension_bound_vs_fraction_bound_crossover():
    # At lambda* = (2 sigma2)^(2/3) / 3 the Markov dimension bound and the
    # cube-root fraction bound coincide (as raw formulas); above lambda* the
    # dimension bound is the stronger one, so the fraction bound never
    # improves on it there.
    for sigma2 in (1e-6, 1e-4, 1e-2):
        lam_star = (2.0 * sigma2) ** (2.0 / 3.0) / 3.0
        f_raw = (3.0 / lam_star) * (sigma2 / 4.0) ** (1.0 / 3.0)
        phi = sigma2 / lam_star ** 2
        assert abs(f_raw - phi) <= 1e-9 * phi
        for scale in (1.5, 3.0, 10.0, 100.0):
            lam = scale * lam_star
            f_raw = (3.0 / lam) * (sigma2 / 4.0) ** (1.0 / 3.0)
            assert sigma2 / lam ** 2 <= f_raw + FLOAT_SLACK
        # both bounds exceed 1 at the boundary: the interface clamps and flags
        val, vacuous = bound_nonthermal_fraction(sigma2, lam_star)
        assert phi > 1.0
        assert val == 1.0 and vacuous


# ---------------------------------------------------------------------------
# Thermal subspace.
# ---------------------------------------------------------------------------

def test_thermal_axes_counts_ties_as_thermal():
    cos2 = np.array([0.0, 0.5, 1.0])  # mean 0.5
    assert thermal_axes(cos2, 0.5).tolist() == [True, True, True]
    assert thermal_axes(cos2, 0.25).tolist() == [False, True, False]
    with pytest.raises(ValueError, match="positive"):
        thermal_axes(cos2, 0.0)


def test_a_tie_does_not_follow_the_last_ulp():
    # cos^2 = (0, 1) about G2 = 1/2 is an exact tie at lambda = 1/2; a value
    # or G2 one ulp off, as an SVD rounds, must give the same mask and fraction
    tiny, down, up = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    for low, high in itertools.product((-tiny, 0.0, tiny), (down, 1.0, up)):
        cos2 = np.array([low, high])
        assert thermal_axes(cos2, 0.5).tolist() == [True, True]
        g2 = float(np.sum(cos2)) / cos2.size
        for g in (np.nextafter(g2, 0.0), g2, np.nextafter(g2, 1.0)):
            assert empirical_nonthermal_fraction(cos2, np.eye(2), g, 0.5) == 0.0


def test_thermal_subspace_full_when_variance_zero():
    p_r = Projector.coordinate(6, 4)
    p_rho = Projector.coordinate(6, 2)   # contained: all angles zero
    geom = halmos_decompose(p_r, p_rho)
    keep = thermal_axes(geom.cos2, 0.1)
    assert np.count_nonzero(keep) == 2
    basis = principal_axes(p_r, p_rho)[:, keep]
    np.testing.assert_allclose(basis @ basis.conj().T, dense_matrix(p_rho), atol=1e-9)


def test_thermal_subspace_empty_for_maximal_variance():
    p_r, p_rho = maximal_variance_pair()
    geom = halmos_decompose(p_r, p_rho)
    keep = thermal_axes(geom.cos2, 0.4)
    # both cos^2 values deviate from G2 = 1/2 by exactly 1/2 > lambda
    assert np.count_nonzero(keep) == 0
    basis = principal_axes(p_r, p_rho)[:, keep]
    assert basis.shape[1] == 0
    np.testing.assert_allclose(basis @ basis.conj().T, 0.0, atol=1e-14)


def test_thermal_subspace_vectors_satisfy_resolution_bound():
    p_r, p_rho = random_pair(64, 32, 16, seed=5)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    lam = 0.2
    dim_th = np.count_nonzero(thermal_axes(geom.cos2, lam))
    sigma2 = angle_variance(geom)
    assert dim_th >= bound_thermal_dimension(sigma2, lam, 16) - FLOAT_SLACK
    # 100 Haar-sampled unit vectors in H_th all hit G2 within lambda
    basis = principal_axes(p_r, p_rho)[:, np.abs(geom.cos2 - g2) <= lam]
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeff = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        vec = basis @ (coeff / np.linalg.norm(coeff))
        expect = float(np.real(vec.conj() @ dense_matrix(p_r) @ vec))
        assert abs(expect - g2) <= lam + FLOAT_SLACK


# ---------------------------------------------------------------------------
# Empirical fractions.
# ---------------------------------------------------------------------------

def test_empirical_fraction_zero_for_aligned_pair():
    p_r = Projector.coordinate(6, 4)
    p_rho = Projector.coordinate(6, 2)
    geom = halmos_decompose(p_r, p_rho)
    f = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), 1.0, 0.05)
    assert f == 0.0


def test_empirical_fraction_one_for_maximal_variance():
    p_r, p_rho = maximal_variance_pair()
    geom = halmos_decompose(p_r, p_rho)
    f = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), 0.5, 0.3)
    assert f == 1.0


def test_empirical_fraction_rejects_nonorthonormal_basis():
    geom = halmos_decompose(*maximal_variance_pair())
    bad = np.ones((2, 2), dtype=complex)
    with pytest.raises(InvariantError, match="orthonormal"):
        empirical_nonthermal_fraction(geom.cos2, bad, 0.5, 0.1)


def test_empirical_fraction_rejects_a_nan_basis():
    q = np.eye(4, dtype=complex)
    q[0, 0] = np.nan
    with pytest.raises(InvariantError, match="orthonormal"):
        empirical_nonthermal_fraction(np.linspace(0, 1, 4), q, 0.5, 0.1)


def test_strict_inequality_boundary_counts_as_thermal():
    # expectation deviates by exactly lambda: strict ">" keeps it thermal
    geom = halmos_decompose(Projector.coordinate(2, 1), Projector.coordinate(2, 1))
    f = empirical_nonthermal_fraction(geom.cos2, np.eye(1), 0.5, 0.5)
    assert f == 0.0


def _coordinate_pair(dim, r_cols, rho_cols):
    e = np.eye(dim, dtype=complex)
    return Projector(e[:, r_cols]), Projector(e[:, rho_cols])


@pytest.mark.parametrize("pair", [
    _coordinate_pair(8, [0, 1, 2, 3, 4], [1, 2]),        # nested: zero angles
    _coordinate_pair(8, [0, 1], [2, 3, 4]),              # orthogonal ranges
    random_pair(16, 3, 9, seed=21),                      # d_rho > d_r
    random_pair(16, 5, 16, seed=22),                     # full-rank P_rho
    random_pair(16, 6, 1, seed=23),                      # d_rho = 1
    random_pair(32, 12, 8, seed=24),
    random_pair(32, 20, 12, seed=25),
], ids=["nested", "orthogonal", "d_rho>d_r", "full-rank", "d_rho=1",
        "random-a", "random-b"])
def test_principal_axes_probes_match_the_dense_oracle(pair):
    # In the principal axes P_R restricted to range(P_rho) is diag(cos^2):
    # the coordinates q probe the same states as the D x n basis w q.
    p_r, p_rho = pair
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    axes = principal_axes(p_r, p_rho)
    rng = np.random.default_rng(31)
    probes = [np.eye(geom.d_rho)]
    probes += [sample_haar_unitary(geom.d_rho, rng=rng) for _ in range(5)]
    compared = 0
    for q in probes:
        dense = dense_expectations(p_r, axes @ q)
        np.testing.assert_allclose(geom.cos2 @ np.abs(q) ** 2, dense,
                                   rtol=0, atol=1e-12)
        for lam in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7):
            if np.min(np.abs(np.abs(dense - g2) - lam)) <= 1e-9:
                continue  # a tie: the two routes may round to either side
            compared += 1
            assert (empirical_nonthermal_fraction(geom.cos2, q, g2, lam)
                    == dense_nonthermal_fraction(p_r, axes @ q, g2, lam))
    assert compared >= 30


def _tie_pair():
    """verify-theorem's first pair at n = 4, n_s = 1, n_sigma = 0.

    P_rho = 1, so every cos^2 is 0 or 1 about G2 = 1/2, up to roundoff.
    """
    rng = derive_rng(1, "verify-theorem", 0)
    return (sample_haar_unitary(16, rng=rng, columns=8),
            sample_haar_unitary(16, rng=rng, columns=16))


@pytest.mark.parametrize("case", [*CASES, "tie"])
def test_worst_basis_fraction_equals_the_principal_axes_probe(case):
    # the probes q = 1 have expectations cos^2, so the report reads their
    # fraction off the thermal-axes count; ties are compared, not skipped
    v_r, v_rho = _tie_pair() if case == "tie" else isometry_pair(case)
    p_r, p_rho = Projector(v_r), Projector(v_rho)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_from_angles(geom, 1)
    for lam in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7):
        report = thermalization_report(p_r, p_rho, lam, n_bases=0)
        assert report.worst_basis_f == empirical_nonthermal_fraction(
            geom.cos2, np.eye(geom.d_rho), g2, lam)


def test_report_draws_one_d_rho_unitary_per_basis(monkeypatch):
    # the probe bases come from the generator passed in, n_bases draws of
    # size d_rho in order (here one stack), and the fractions match the dense
    # oracle on them
    p_r, p_rho = random_pair(32, 12, 8, seed=26)
    calls, qs = [], []
    draw = thermalization.sample_haar_unitary

    def recorder(dim, seed=None, rng=None, columns=None, count=None):
        calls.append((dim, seed, rng, columns, count))
        stack = draw(dim, seed=seed, rng=rng, columns=columns, count=count)
        qs.extend(stack)
        return stack

    monkeypatch.setattr(thermalization, "sample_haar_unitary", recorder)
    gen = np.random.default_rng(41)
    report = thermalization_report(p_r, p_rho, lam=0.05, n_bases=7, seed=gen)
    assert calls == [(8, None, gen, None, 7)]
    replay = np.random.default_rng(41)
    for q in qs:
        np.testing.assert_array_equal(q, draw(8, rng=replay))
    assert gen.bit_generator.state == replay.bit_generator.state
    axes = principal_axes(p_r, p_rho)
    assert report.worst_basis_f == dense_nonthermal_fraction(
        p_r, axes, report.g2, 0.05)
    assert list(report.empirical_f) == [
        dense_nonthermal_fraction(p_r, axes @ q, report.g2, 0.05) for q in qs]


def test_stacked_fractions_equal_per_basis_fractions():
    p_r, p_rho = random_pair(32, 12, 8, seed=27)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    stack = sample_haar_unitary(8, seed=5, count=12)
    for lam in (0.02, 0.05, 0.1):
        stacked = empirical_nonthermal_fraction(geom.cos2, stack, g2, lam)
        assert stacked.shape == (12,)
        assert stacked.tolist() == [
            empirical_nonthermal_fraction(geom.cos2, q, g2, lam) for q in stack]
    # a 2-D basis still gives a float
    assert type(empirical_nonthermal_fraction(geom.cos2, stack[0], g2, 0.05)) is float


@pytest.mark.parametrize("bad", ["nonorthonormal", "nan"])
def test_stacked_fraction_rejects_one_bad_basis(bad):
    stack = sample_haar_unitary(4, seed=6, count=5)
    stack[3, 0, 0] = 2.0 if bad == "nonorthonormal" else np.nan
    with pytest.raises(InvariantError, match="orthonormal"):
        empirical_nonthermal_fraction(np.linspace(0, 1, 4), stack, 0.5, 0.1)


@pytest.mark.parametrize("dim, d_rho", [(16, 16), (16, 8), (64, 32), (128, 64)])
def test_report_stacks_are_capped_by_the_dimension(monkeypatch, dim, d_rho):
    # at most max(1, STACK_ENTRIES // d_rho^2) bases per stack, the cap of
    # every Haar stack: all 10 in one stack at d_rho <= 16, 4 at d_rho = 32,
    # and 1 at d_rho = 64, where D^2 // d_rho^2 would allow 4
    p_r, p_rho = random_pair(dim, dim // 2, d_rho, seed=28)
    step, n_bases = max(1, STACK_ENTRIES // d_rho ** 2), 10
    counts = []
    draw = thermalization.sample_haar_unitary

    def recorder(*args, count=None, **kwargs):
        counts.append(count)
        return draw(*args, count=count, **kwargs)

    monkeypatch.setattr(thermalization, "sample_haar_unitary", recorder)
    report = thermalization_report(p_r, p_rho, lam=0.1, n_bases=n_bases,
                                   seed=np.random.default_rng(9))
    assert len(counts) == -(-n_bases // step)
    assert max(counts) == min(step, n_bases) and sum(counts) == n_bases
    geom = halmos_decompose(p_r, p_rho)
    g2 = float(np.sum(geom.cos2)) / geom.d_rho
    replay = np.random.default_rng(9)
    assert report.empirical_f == tuple(
        empirical_nonthermal_fraction(geom.cos2, draw(d_rho, rng=replay), g2, 0.1)
        for _ in range(n_bases))


def test_worst_basis_dominates_sampled_bases():
    # The principal-axes basis should produce the largest nonthermal fraction
    # in nearly all random instances.
    wins = 0
    trials = 20
    for seed in range(trials):
        p_r, p_rho = random_pair(32, 16, 8, seed=100 + seed)
        geom = halmos_decompose(p_r, p_rho)
        g2 = correlator_trace(geom, 1)
        sigma2 = angle_variance(geom)
        lam = 0.7 * np.sqrt(sigma2)  # resolution inside the angle spread
        f_worst = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), g2, lam)
        rng = np.random.default_rng(seed)
        f_sampled = max(
            empirical_nonthermal_fraction(
                geom.cos2, sample_haar_unitary(geom.d_rho, rng=rng), g2, lam)
            for _ in range(50))
        if f_worst >= f_sampled:
            wins += 1
    assert wins >= 0.95 * trials


# ---------------------------------------------------------------------------
# Soundness of the bounds (theorem checks, zero tolerance).
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
@example(12)  # dim 32, d_r 9, full-rank P_rho
def test_forward_bounds_sound_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([16, 32, 64]))
    d_r = int(rng.integers(1, dim + 1))
    d_rho = int(rng.integers(1, dim + 1))
    p_r, p_rho = random_pair(dim, d_r, d_rho, seed)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    sigma2 = angle_variance(geom)
    for lam in (0.05, 0.1, 0.2, 0.5):
        f_bound, _ = bound_nonthermal_fraction(sigma2, lam)
        dim_th = np.count_nonzero(thermal_axes(geom.cos2, lam))
        assert dim_th >= bound_thermal_dimension(sigma2, lam, d_rho) - FLOAT_SLACK
        f_worst = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), g2, lam)
        assert f_worst <= f_bound + FLOAT_SLACK
        f_rot = empirical_nonthermal_fraction(
            geom.cos2, sample_haar_unitary(geom.d_rho, rng=rng), g2, lam)
        assert f_rot <= f_bound + FLOAT_SLACK


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31))
@example(82)  # d_r 18, full-rank P_rho
def test_converse_bound_sound(seed):
    # If every tested basis has fraction <= f_max at resolution lambda, then
    # sigma2 <= lambda^2 + (1 - lambda^2) f_max.
    rng = np.random.default_rng(seed)
    dim = 24
    p_r, p_rho = random_pair(dim, int(rng.integers(1, dim + 1)),
                             int(rng.integers(1, dim + 1)), seed)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    sigma2 = angle_variance(geom)
    for lam in (0.1, 0.3, 0.6):
        fractions = [empirical_nonthermal_fraction(
            geom.cos2, np.eye(geom.d_rho), g2, lam)]
        fractions += [empirical_nonthermal_fraction(
            geom.cos2, sample_haar_unitary(geom.d_rho, rng=rng), g2, lam) for _ in range(5)]
        f_max = max(fractions)
        assert sigma2 <= converse_variance_bound(lam, f_max) + FLOAT_SLACK


def test_witness_bound_achieved_by_worst_basis():
    # Maximal-variance instance: the principal axes must exhibit at least the
    # witness fraction whenever sigma2 >= gamma2.
    p_r, p_rho = maximal_variance_pair()
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    sigma2 = angle_variance(geom)
    lam = 0.3
    bound = nonthermal_witness_bound(sigma2, lam)
    assert abs(bound - (0.25 - 0.09) / 0.91) <= 1e-12
    f = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), g2, lam)
    assert f >= bound - FLOAT_SLACK


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_witness_bound_sound_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    dim = 32
    p_r, p_rho = random_pair(dim, int(rng.integers(1, dim)),
                             int(rng.integers(1, dim)), seed)
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    sigma2 = angle_variance(geom)
    for lam in (0.1, 0.3):
        f = empirical_nonthermal_fraction(geom.cos2, np.eye(geom.d_rho), g2, lam)
        assert f >= nonthermal_witness_bound(sigma2, lam) - FLOAT_SLACK


# ---------------------------------------------------------------------------
# Core sizing.
# ---------------------------------------------------------------------------

def test_core_sizing_degenerate_floor():
    # cube factor 1: the floor D_S(D_S-1)/4 survives alone
    row = core_sizing(3.0, 1.0, 2)
    assert row.d_sigma_min == 1  # ceil(0.5)
    row = core_sizing(3.0, 1.0, 4)
    assert row.d_sigma_min == 3  # ceil(3.0) with the floor 12/4
    assert row.n_sigma == 2


def test_core_sizing_rejects_bad_inputs():
    with pytest.raises(ValueError):
        core_sizing(0.0, 0.5, 2)
    with pytest.raises(ValueError):
        core_sizing(0.1, 0.0, 2)
    with pytest.raises(ValueError):
        core_sizing(0.1, 0.5, 1)


def test_core_sizing_monotone_in_targets():
    # tighter resolution or smaller fraction always needs a larger core
    base = core_sizing(0.2, 0.5, 2).d_sigma_min
    assert core_sizing(0.1, 0.5, 2).d_sigma_min > base
    assert core_sizing(0.2, 0.25, 2).d_sigma_min > base
    assert core_sizing(0.2, 0.5, 4).d_sigma_min > base


# ---------------------------------------------------------------------------
# Aggregated report.
# ---------------------------------------------------------------------------

def test_report_is_sound_and_self_consistent():
    p_r, p_rho = random_pair(48, 24, 12, seed=9)
    report = thermalization_report(p_r, p_rho, lam=0.25, n_bases=10, seed=3)
    assert max(report.worst_basis_f, *report.empirical_f) <= \
        report.f_lambda_bound + FLOAT_SLACK
    assert report.dim_thermal_achieved >= report.dim_thermal_bound - FLOAT_SLACK
    assert 0.0 <= report.worst_basis_f <= 1.0
    assert len(report.empirical_f) == 10
    assert report.sigma2 <= report.converse_bound + FLOAT_SLACK
    assert report.g2 >= report.g4 >= report.g2 ** 2 - FLOAT_SLACK
    # deterministic under the same seed
    again = thermalization_report(p_r, p_rho, lam=0.25, n_bases=10, seed=3)
    assert again.empirical_f == report.empirical_f


@pytest.mark.parametrize("n_sigma", [0, 2])
def test_every_principal_axis_is_thermal_or_counted_nonthermal(n_sigma):
    # the pairs verify-theorem draws at n = 4, n_s = 1; with n_sigma = 0,
    # P_rho = 1 and every cos^2 is 0 or 1 about G2 = 1/2, an exact tie at
    # lambda = 0.5 that the fraction and the dimension must decide alike
    for i in range(10):
        rng = derive_rng(1, "verify-theorem", i)
        p_r = Projector(sample_haar_unitary(16, rng=rng, columns=8))
        p_rho = Projector(
            sample_haar_unitary(16, rng=rng, columns=16 >> n_sigma))
        for lam in (0.05, 0.1, 0.2, 0.5):
            report = thermalization_report(p_r, p_rho, lam, n_bases=2, seed=rng)
            assert (report.worst_basis_f * p_rho.rank + report.dim_thermal_achieved
                    == p_rho.rank)
