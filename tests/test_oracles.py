"""Frozen oracle tests.

Every derived constant used elsewhere in the suite is pinned here against an
*independent* computation route: Pade matrix exponentials (scipy), explicit
Kronecker/permutation constructions, closed-form principal-angle instances,
exact quadrature over the U(2) Euler parametrization, high-sample Monte Carlo
at D=4, oscillatory-integral quadrature for the window transforms, and exact
rational arithmetic for the core-sizing table.  These tests were written
before the implementation and must not be weakened to make it pass.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.integrate
import scipy.linalg

from _dense import (
    dense_embed,
    dense_matrix,
    dense_unitary,
    gue_hamiltonian,
    hamiltonian_source,
    projector_from_matrix,
    swap_representation_check,
)
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    Projector,
    sample_haar_unitary,
)
from otoc_thermalize.geometry import (
    angle_variance,
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.dynamics import haar_prediction
from otoc_thermalize.predictor import WeightingFunction
from otoc_thermalize.thermalization import core_sizing


# ----------------------------------------------------------------------------
# Matrix exponential: eigendecomposition route vs scipy's Pade route.
# ----------------------------------------------------------------------------

def test_evolve_matches_pade_exponential():
    rng = np.random.default_rng(11)
    for dim in (4, 16, 48):
        h = gue_hamiltonian(dim, rng=rng)
        source, vecs = hamiltonian_source(h)
        for t in (0.0, 0.173, 1.9, -4.2):
            u = dense_unitary(source, t, vecs)
            u_ref = scipy.linalg.expm(-1j * t * h)
            assert np.linalg.norm(u - u_ref) <= 1e-10 * dim


# ----------------------------------------------------------------------------
# Tensor embedding vs hand-built Kronecker products.
# ----------------------------------------------------------------------------

def test_embed_observable_two_qubits_is_diag_1100():
    chi = np.array([1.0, 0.0])
    psi = np.zeros(4)
    psi[0] = 1.0
    setup = ManyBodySetup(n_total=2, n_observed=1, n_core=2,
                          observed_state=chi, core_state=psi)
    p = dense_embed(setup, "observable")
    assert p.rank == 2
    np.testing.assert_allclose(dense_matrix(p), np.diag([1.0, 1.0, 0.0, 0.0]),
                               atol=1e-14)


def test_embed_observable_middle_site_matches_kron():
    # chi on site 1 of 3: projector must equal I2 (x) |chi><chi| (x) I2.
    rng = np.random.default_rng(5)
    chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    chi /= np.linalg.norm(chi)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    setup = ManyBodySetup(n_total=3, n_observed=1, n_core=3,
                          observed_state=chi, core_state=psi,
                          observed_sites=(1,))
    p = dense_embed(setup, "observable")
    ref = np.kron(np.kron(np.eye(2), np.outer(chi, chi.conj())), np.eye(2))
    np.testing.assert_allclose(dense_matrix(p), ref, atol=1e-12)
    assert p.rank == 4


def test_embed_core_entangled_state_matches_kron():
    # Entangled core state on the first 2 of 3 qubits, identity on the bath.
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi /= np.linalg.norm(phi)
    chi = np.array([1.0, 0.0])
    setup = ManyBodySetup(n_total=3, n_observed=1, n_core=2,
                          observed_state=chi, core_state=phi)
    p = dense_embed(setup, "core")
    ref = np.kron(np.outer(phi, phi.conj()), np.eye(2))
    np.testing.assert_allclose(dense_matrix(p), ref, atol=1e-12)
    assert p.rank == 2


def test_conjugate_by_swap_moves_projector():
    # U = SWAP on two qubits maps |0><0| (x) 1 to 1 (x) |0><0|.
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    p = projector_from_matrix(np.kron(np.diag([1.0, 0.0]), np.eye(2)), rank=2)
    q = Projector(swap @ p.basis)
    np.testing.assert_allclose(dense_matrix(q), np.kron(np.eye(2), np.diag([1.0, 0.0])),
                               atol=1e-14)


# ----------------------------------------------------------------------------
# Principal angles on an instance built directly from the two-subspace normal
# form: theta values are inputs, so every downstream quantity has a closed form.
# ----------------------------------------------------------------------------

def _normal_form_pair(thetas, dim, seed=None):
    """P_R spanned by e_0..e_{k-1}; P_rho spanned by cos(t_k) e_k + sin(t_k) e_{k+k}."""
    k = len(thetas)
    assert dim >= 2 * k
    b_r = np.eye(dim, dtype=complex)[:, :k]
    b_rho = np.zeros((dim, k), dtype=complex)
    for j, th in enumerate(thetas):
        b_rho[j, j] = math.cos(th)
        b_rho[k + j, j] = math.sin(th)
    p_r = projector_from_matrix(b_r @ b_r.conj().T, rank=k)
    p_rho = projector_from_matrix(b_rho @ b_rho.conj().T, rank=k)
    if seed is not None:
        u = sample_haar_unitary(dim, seed=seed)
        p_r, p_rho = Projector(u @ p_r.basis), Projector(u @ p_rho.basis)
    return p_r, p_rho


def test_halmos_recovers_constructed_angles():
    thetas = (0.3, 0.7, 0.5 * math.pi)
    for seed in (None, 42):
        p_r, p_rho = _normal_form_pair(thetas, dim=6, seed=seed)
        geom = halmos_decompose(p_r, p_rho)
        np.testing.assert_allclose(np.sort(geom.angles), np.sort(thetas),
                                   atol=1e-9)
        # angles are sorted by descending cos(theta)
        assert np.all(np.diff(geom.angles) >= -1e-12)


def test_correlators_match_closed_form_cosine_sums():
    thetas = (0.3, 0.7, 0.5 * math.pi)
    p_r, p_rho = _normal_form_pair(thetas, dim=8, seed=7)
    geom = halmos_decompose(p_r, p_rho)
    cos2 = np.cos(thetas) ** 2
    for n in range(1, 5):
        expect = float(np.sum(cos2 ** n)) / 3.0
        assert abs(correlator_trace(geom, n) - expect) <= 1e-9
        assert abs(correlator_from_angles(geom, n) - expect) <= 1e-9
    g2 = float(np.sum(cos2)) / 3.0
    g4 = float(np.sum(cos2 ** 2)) / 3.0
    assert abs(angle_variance(geom) - (g4 - g2 * g2)) <= 1e-9


def test_maximal_variance_instance_d4():
    # P_R = span{e0, e1}, P_rho = span{e0, e2}: angles {0, pi/2}, sigma2 = 1/4.
    e = np.eye(4, dtype=complex)
    p_r = projector_from_matrix(e[:, :2] @ e[:, :2].T, rank=2)
    b = e[:, [0, 2]]
    p_rho = projector_from_matrix(b @ b.T, rank=2)
    geom = halmos_decompose(p_r, p_rho)
    np.testing.assert_allclose(geom.angles, [0.0, 0.5 * math.pi], atol=1e-12)
    assert abs(angle_variance(geom) - 0.25) <= 1e-12


# ----------------------------------------------------------------------------
# Haar moments.  Two independent oracles:
#   (a) exact quadrature over the U(2) Euler-angle parametrization at D=2;
#   (b) 1e5-sample Monte Carlo at D=4 with a self-contained Ginibre+QR sampler.
# The D=4 oracle deliberately discriminates the correct Weingarten value 11/30
# from the nearby wrong candidates 1/3 and 0.3.
# ----------------------------------------------------------------------------

def test_haar_moments_quadrature_u2():
    # For D=2 and rank-1 projectors, G2 = |U_00|^2 = cos^2(t) with Haar density
    # 2 sin(t) cos(t) on [0, pi/2]; G4 = cos^4(t).
    mean_g2, _ = scipy.integrate.quad(
        lambda t: math.cos(t) ** 2 * 2 * math.sin(t) * math.cos(t), 0, math.pi / 2)
    mean_g4, _ = scipy.integrate.quad(
        lambda t: math.cos(t) ** 4 * 2 * math.sin(t) * math.cos(t), 0, math.pi / 2)
    mean_g2_sq, _ = scipy.integrate.quad(
        lambda t: math.cos(t) ** 4 * 2 * math.sin(t) * math.cos(t), 0, math.pi / 2)
    pred = haar_prediction(d=2, d_s=2, d_sigma=2)
    assert abs(pred.mean_g2 - mean_g2) <= 1e-12          # 1/2
    assert abs(pred.mean_g4 - mean_g4) <= 1e-12          # 1/3
    assert abs(pred.var_g2 - (mean_g2_sq - mean_g2 ** 2)) <= 1e-12   # 1/12


def _mc_haar_submatrix_moments(dim, d_r, d_rho, n_samples, seed):
    """Self-contained CUE sampler (batched Ginibre + QR + phase fix)."""
    rng = np.random.default_rng(seed)
    g2 = np.empty(n_samples)
    g4 = np.empty(n_samples)
    batch = 2000
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        a = (rng.standard_normal((b, dim, dim))
             + 1j * rng.standard_normal((b, dim, dim))) / math.sqrt(2.0)
        q, r = np.linalg.qr(a)
        d = np.einsum('bii->bi', r)
        q = q * (d / np.abs(d))[:, None, :]
        m = q[:, :d_r, :d_rho]
        mhm = np.einsum('bij,bik->bjk', m.conj(), m)
        g2[done:done + b] = np.einsum('bjj->b', mhm).real / d_rho
        g4[done:done + b] = np.einsum('bjk,bkj->b', mhm, mhm).real / d_rho
        done += b
    return g2, g4


def test_haar_g4_mean_monte_carlo_d4():
    n = 100_000
    g2, g4 = _mc_haar_submatrix_moments(dim=4, d_r=2, d_rho=2,
                                        n_samples=n, seed=2024)
    pred = haar_prediction(d=4, d_s=2, d_sigma=2)
    se_g4 = g4.std(ddof=1) / math.sqrt(n)
    se_g2 = g2.std(ddof=1) / math.sqrt(n)
    # Exact Weingarten values at these dims.
    assert abs(pred.mean_g2 - 0.5) <= 1e-15
    assert abs(pred.mean_g4 - 11.0 / 30.0) <= 1e-15
    assert abs(pred.var_g2 - 1.0 / 60.0) <= 1e-15
    # Monte Carlo agreement within 4 standard errors ...
    assert abs(g4.mean() - pred.mean_g4) <= 4 * se_g4
    assert abs(g2.mean() - pred.mean_g2) <= 4 * se_g2
    assert 0.5 <= g2.var(ddof=1) / pred.var_g2 <= 2.0
    # ... and decisive rejection of the wrong candidate values.
    assert abs(g4.mean() - 1.0 / 3.0) > 10 * se_g4
    assert abs(g4.mean() - 0.3) > 10 * se_g4


def test_sigma2_typ_asymptotic_form():
    pred = haar_prediction(d=256, d_s=2, d_sigma=16)
    assert abs(pred.sigma2_typ - 1.0 / 64.0) <= 1e-15
    # The exact ensemble mean of sigma2 approaches the asymptotic form.
    assert abs(pred.mean_sigma2 - pred.sigma2_typ) <= 0.01 * pred.sigma2_typ


# ----------------------------------------------------------------------------
# Swap-metric OTOC representation vs a fully materialized kron + SWAP matrix.
# ----------------------------------------------------------------------------

def test_swap_form_matches_explicit_kron_matrix():
    rng = np.random.default_rng(31)
    for dim, d_r, d_rho in ((8, 4, 2), (16, 6, 10)):
        u = sample_haar_unitary(dim, rng=rng)
        v = sample_haar_unitary(dim, rng=rng)
        e = np.eye(dim, dtype=complex)
        p_r = projector_from_matrix(e[:, :d_r] @ e[:, :d_r].T, rank=d_r)
        p_rho = projector_from_matrix(e[:, :d_rho] @ e[:, :d_rho].T, rank=d_rho)
        p_r, p_rho = Projector(u @ p_r.basis), Projector(v @ p_rho.basis)
        # Explicit D^2 x D^2 route: SWAP as a permutation matrix.
        dsq = dim * dim
        perm = np.arange(dsq).reshape(dim, dim).T.reshape(dsq)
        k_r = np.kron(dense_matrix(p_r), dense_matrix(p_r))
        k_rho = np.kron(dense_matrix(p_rho), dense_matrix(p_rho))
        ref = np.trace(k_r @ k_rho[perm, :]).real / d_rho
        direct, swap_form, gap = swap_representation_check(p_r, p_rho)
        assert abs(swap_form - ref) <= 1e-10
        assert abs(direct - ref) <= 1e-10
        assert gap == abs(direct - swap_form)


# ----------------------------------------------------------------------------
# Window Fourier transforms vs direct oscillatory quadrature.
# ----------------------------------------------------------------------------

def test_box_window_fourier_vs_quadrature():
    t0, horizon = 0.7, 13.0
    w = WeightingFunction.box(t0, horizon)
    for e_val in (0.0, 0.37, 2.0, 9.3):
        re, _ = scipy.integrate.quad(lambda t: math.cos(e_val * t) / horizon,
                                     t0, t0 + horizon)
        im, _ = scipy.integrate.quad(lambda t: -math.sin(e_val * t) / horizon,
                                     t0, t0 + horizon)
        val = w.fourier(e_val)
        assert abs(val - (re + 1j * im)) <= 1e-10


def test_tent_window_fourier_vs_quadrature():
    t_obs = 5.0
    w = WeightingFunction.tent(t_obs)
    for e_val in (0.0, 0.37, 2.0, 9.3):
        re, _ = scipy.integrate.quad(
            lambda t: math.cos(e_val * t) * (1 - abs(t) / t_obs) / t_obs,
            -t_obs, t_obs, limit=200)
        val = w.fourier(e_val)
        assert abs(val.imag) <= 1e-12
        assert abs(val.real - re) <= 1e-10


# ----------------------------------------------------------------------------
# Core sizing vs exact rational arithmetic.
# ----------------------------------------------------------------------------

def _exact_sizing(lambda_rel, f, d_s):
    v = Fraction(d_s * (d_s - 1), 4) * (Fraction(3) / (lambda_rel * f)) ** 3
    d_sigma = math.ceil(v)
    return d_sigma, math.ceil(math.log2(d_sigma))


def test_core_sizing_exact_rows():
    d_sigma, n_sigma = _exact_sizing(Fraction(1, 10), Fraction(1, 10), 2)
    assert (d_sigma, n_sigma) == (13_500_000, 24)
    row = core_sizing(0.1, 0.1, 2)
    assert row.d_sigma_min == 13_500_000
    assert row.n_sigma == 24
    # Threshold columns: relative-lambda and absolute-lambda conventions.
    thr_rel = 4 * (Fraction(1, 10) * Fraction(1, 10) / 3) ** 3
    thr_abs = 4 * (Fraction(1, 10) * Fraction(1, 20) / 3) ** 3
    assert abs(row.sigma2_threshold_rel - float(thr_rel)) <= 1e-12 * float(thr_rel)
    assert abs(row.sigma2_threshold_abs - float(thr_abs)) <= 1e-12 * float(thr_abs)
    assert abs(float(thr_rel) - 1.48148148e-7) <= 1e-13

    d_sigma2, n_sigma2 = _exact_sizing(Fraction(2, 10), Fraction(9, 10), 2)
    assert (d_sigma2, n_sigma2) == (2315, 12)
    row2 = core_sizing(0.2, 0.9, 2)
    assert row2.d_sigma_min == 2315
    assert row2.n_sigma == 12
    thr2_abs = 4 * (Fraction(9, 10) * Fraction(1, 10) / 3) ** 3
    assert float(thr2_abs) == 1.08e-4
    assert abs(row2.sigma2_threshold_abs - 1.08e-4) <= 1e-16


# ----------------------------------------------------------------------------
# Haar sampler statistics (first moment + unitarity) for the packaged sampler.
# ----------------------------------------------------------------------------

def test_sample_haar_unitary_first_moment_and_unitarity():
    dim, n = 8, 1500
    rng = np.random.default_rng(99)
    acc = np.zeros((dim, dim), dtype=complex)
    for _ in range(n):
        u = sample_haar_unitary(dim, rng=rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10 * dim
        acc += u
    assert np.max(np.abs(acc / n)) <= 5.0 / math.sqrt(n * dim)


def test_unitary_one_design_conjugation_mean():
    # <U A U^dag> over the Haar measure equals Tr[A]/D * identity.
    dim, n = 6, 20_000
    rng = np.random.default_rng(123)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    acc = np.zeros((dim, dim), dtype=complex)
    for _ in range(n):
        u = sample_haar_unitary(dim, rng=rng)
        acc += u @ a @ u.conj().T
    mean = acc / n
    ref = np.trace(a) / dim * np.eye(dim)
    # entry scale ~ |A| / sqrt(n D); 5-sigma-ish envelope
    assert np.max(np.abs(mean - ref)) <= 5 * np.linalg.norm(a) / math.sqrt(n * dim)
