"""Tests for window transforms, auto-to-cross correlator bounds, and the
fourth-order obstruction demo."""

import math

import numpy as np
import pytest

from otoc_thermalize import predictor
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    UnitarySource,
    derive_rng,
    evolve,
    gue_hamiltonian,
    sample_haar_unitary,
    tensor_embed,
)
from otoc_thermalize.dynamics import correlator_series
from otoc_thermalize.predictor import (
    WeightingFunction,
    canonical_window_pair,
    cauchy_schwarz_bound,
    cloned_equilibrium_bound,
    fourier_weight,
    fourth_order_negative_demo,
    hs_inner,
    synopsis_bound,
    theorem_bound,
    time_interval_bound,
    to_eigenbasis,
    weighted_autocorrelator,
    weighted_correlator,
)

BOUND_SLACK = 1e-9


def _random_hermitian(dim, rng, unit_norm=True):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2.0
    if unit_norm:
        h = h / math.sqrt(hs_inner(h, h).real)
    return h


# ---------------------------------------------------------------------------
# Windows and their Fourier transforms.
# ---------------------------------------------------------------------------

def test_fourier_transform_reference_values():
    box = WeightingFunction.box(0.0, 4.0)
    tent = WeightingFunction.tent(3.0)
    assert fourier_weight(box, 0.0) == pytest.approx(1.0)
    assert fourier_weight(tent, 0.0) == pytest.approx(1.0)
    # tent transform is sinc^2: first node at E = 2 pi / t_obs
    assert abs(fourier_weight(tent, 2.0 * math.pi / 3.0)) <= 1e-12
    # sinc(1)^2 = sin(1)^2 at E t_obs / 2 = 1
    assert fourier_weight(tent, 2.0 / 3.0).real == pytest.approx(
        math.sin(1.0) ** 2, abs=1e-12)


def test_fourier_weight_scalar_and_vector():
    box = WeightingFunction.box(-1.0, 2.0)
    scalar = fourier_weight(box, 0.37)
    assert isinstance(scalar, complex)
    vec = fourier_weight(box, np.array([0.0, 0.37, 5.0]))
    assert vec.shape == (3,)
    assert vec[1] == pytest.approx(scalar)


def test_tent_transform_is_nonnegative():
    tent = WeightingFunction.tent(2.0)
    vals = tent.fourier(np.linspace(-60.0, 60.0, 3001))
    assert np.all(vals.real >= -1e-12)
    assert np.max(np.abs(vals.imag)) <= 1e-12


def test_window_densities_have_unit_mass():
    grid = np.linspace(-8.0, 8.0, 200001)
    for w in (WeightingFunction.box(-1.5, 3.0), WeightingFunction.tent(2.5)):
        # O(h) quadrature error at the box discontinuities dominates
        assert np.trapezoid(w.density(grid), grid) == pytest.approx(1.0, abs=1e-4)
        assert w.mass() == 1.0


def test_tabulated_window_matches_tent():
    t_obs = 2.0
    grid = np.linspace(-t_obs, t_obs, 4001)
    tent = WeightingFunction.tent(t_obs)
    tab = WeightingFunction.tabulated(grid, np.clip(1.0 - np.abs(grid) / t_obs, 0, None))
    for e in (0.0, 0.9, 4.0):
        assert fourier_weight(tab, e) == pytest.approx(
            fourier_weight(tent, e), abs=1e-6)


def test_window_constructor_validation():
    with pytest.raises(ValueError, match="duration"):
        WeightingFunction.box(0.0, 0.0)
    with pytest.raises(ValueError, match="half-width"):
        WeightingFunction.tent(-1.0)
    with pytest.raises(ValueError, match="increasing"):
        WeightingFunction.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightingFunction.tabulated([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="mass"):
        WeightingFunction.tabulated([0.0, 1.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# Canonical window pair and its Fourier constants.
# ---------------------------------------------------------------------------

def test_canonical_pair_constants():
    pair = canonical_window_pair(0.0, 50.0, 3.0)
    assert pair.xi == pytest.approx(math.pi / 2.0)
    assert pair.delta_e == pytest.approx(math.pi / 3.0)
    assert pair.w0 == pytest.approx(3.0 / (math.pi / 2.0 * 50.0))
    assert pair.W == pytest.approx((2.0 / math.pi) ** 2)


def test_canonical_pair_constants_verified_numerically():
    # W is the floor of the CP transform inside the Fourier window; w0 caps
    # the long-window transform outside it.
    pair = canonical_window_pair(0.0, 37.0, 2.5, xi=2.0)
    e_in = np.linspace(-pair.delta_e, pair.delta_e, 4001)
    inside = pair.w_plus.fourier(e_in).real
    assert inside.min() >= pair.W - BOUND_SLACK
    edge = fourier_weight(pair.w_plus, pair.delta_e).real
    assert edge == pytest.approx(pair.W, abs=1e-12)
    e_out = np.concatenate([
        np.linspace(pair.delta_e, 50.0, 20001),
        -np.linspace(pair.delta_e, 50.0, 20001),
        np.logspace(math.log10(50.0), 3.0, 2001),
    ])
    outside = np.abs(pair.w.fourier(e_out))
    assert outside.max() <= pair.w0 + BOUND_SLACK


def test_canonical_pair_validation():
    with pytest.raises(ValueError, match="xi"):
        canonical_window_pair(0.0, 10.0, 1.0, xi=math.pi)
    with pytest.raises(ValueError, match="xi"):
        canonical_window_pair(0.0, 10.0, 1.0, xi=-0.5)
    # observation window too long for the horizon: w0 >= 1
    with pytest.raises(ValueError, match="w0"):
        canonical_window_pair(0.0, 1.0, 10.0)


# ---------------------------------------------------------------------------
# Bohr-frequency evaluation of window averages.
# ---------------------------------------------------------------------------

def test_weighted_correlator_matches_time_quadrature():
    rng = derive_rng(31, "bohr-quadrature")
    h = gue_hamiltonian(8, rng=rng)
    a = _random_hermitian(8, rng)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    evals, vecs = np.linalg.eigh(h)
    a_eig = to_eigenbasis(vecs, a)
    b_eig = to_eigenbasis(vecs, b)
    w = WeightingFunction.box(0.0, 6.0)
    grid = np.linspace(0.0, 6.0, 6001)
    samples = np.empty(grid.size, dtype=complex)
    for i, t in enumerate(grid):
        phases = np.exp(-1j * evals * t)
        u = (vecs * phases) @ vecs.conj().T
        samples[i] = hs_inner(b, u @ a @ u.conj().T)
    direct = np.trapezoid(w.density(grid) * samples, grid)
    bohr = weighted_correlator(evals, a_eig, b_eig, w)
    assert abs(bohr - direct) <= 1e-5


def test_autocorrelator_average_is_nonnegative_for_cp_window():
    rng = derive_rng(7, "cp-positive")
    evals, vecs = np.linalg.eigh(gue_hamiltonian(24, rng=rng))
    tent = WeightingFunction.tent(4.0)
    for _ in range(5):
        a_eig = to_eigenbasis(vecs, _random_hermitian(24, rng))
        assert weighted_autocorrelator(evals, a_eig, tent) >= -BOUND_SLACK


def test_autocorrelator_rejects_a_complex_average(monkeypatch):
    monkeypatch.setattr(predictor, "weighted_correlator",
                        lambda *args: 0.5 + 1e-6j)
    with pytest.raises(ValueError, match="not real"):
        weighted_autocorrelator(np.zeros(2), np.eye(2), WeightingFunction.tent(4.0))


# ---------------------------------------------------------------------------
# Auto-to-cross theorem bound.
# ---------------------------------------------------------------------------

def test_theorem_bound_trivial_cases():
    pair = canonical_window_pair(0.0, 20.0, 1.0)
    assert theorem_bound(0.0, 0.0, 1.0, pair) == 0.0
    assert theorem_bound(0.5, 1.0, 0.0, pair) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        theorem_bound(-1.0, 1.0, 1.0, pair)


def test_theorem_bound_sound_for_random_operators():
    # |window-averaged <B, U_t(A)>| <= (sqrt(auto/W) + w0 sqrt(<A,A>)) sqrt(<B,B>)
    # for arbitrary A, B and any canonical window pair.
    rng = derive_rng(12, "theorem-soundness")
    evals, vecs = np.linalg.eigh(gue_hamiltonian(32, rng=rng))
    windows = [
        (0.0, 20.0, 1.0, math.pi / 2.0),
        (5.0, 40.0, 2.0, 2.0),
        (0.0, 100.0, 0.5, 1.0),
        (-10.0, 30.0, 1.5, 2.5),
    ]
    for _ in range(3):
        a = _random_hermitian(32, rng)
        b = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        b = b / math.sqrt(hs_inner(b, b).real)
        a_eig = to_eigenbasis(vecs, a)
        b_eig = to_eigenbasis(vecs, b)
        norm_a = hs_inner(a, a).real
        norm_b = hs_inner(b, b).real
        for t0, horizon, t_obs, xi in windows:
            pair = canonical_window_pair(t0, horizon, t_obs, xi=xi)
            auto = weighted_autocorrelator(evals, a_eig, pair.w_plus)
            lhs = abs(weighted_correlator(evals, a_eig, b_eig, pair.w))
            rhs = theorem_bound(max(0.0, auto), norm_a, norm_b, pair)
            assert lhs <= rhs + BOUND_SLACK


def test_two_point_specialization_norms_and_identity():
    # A = P_R - 1/D_S and B = D_sigma P_rho - 1 turn the cross correlator
    # into the deviation of G2 from its thermal value 1/D_S.
    chi = np.array([1.0, 0.0])
    psi = np.zeros(8)
    psi[0] = 1.0
    setup = ManyBodySetup(6, 1, 3, chi, psi)
    d = setup.dim
    a2 = tensor_embed(setup, "observable").entries - np.eye(d) / setup.d_s
    b2 = setup.d_sigma * tensor_embed(setup, "core").entries - np.eye(d)
    assert hs_inner(a2, a2).real == pytest.approx(
        (setup.d_s - 1) / setup.d_s ** 2, abs=1e-12)
    assert hs_inner(b2, b2).real == pytest.approx(setup.d_sigma - 1.0, abs=1e-12)

    source = UnitarySource.hamiltonian(gue_hamiltonian(d, seed=5))
    for t in (0.0, 0.7, -1.3):
        u = evolve(source, t)
        cross = hs_inner(b2, u @ a2 @ u.conj().T)
        series = correlator_series(setup, source, [-t])
        assert cross.real == pytest.approx(
            series.g2[0] - 1.0 / setup.d_s, abs=1e-10)
        assert abs(cross.imag) <= 1e-10


def test_synopsis_bound_matches_theorem_with_unit_norms():
    pair = canonical_window_pair(0.0, 12.0, 1.2, xi=0.8)
    for auto in (0.0, 0.3, 1.0):
        assert synopsis_bound(auto, 1.2, 12.0, 0.8) == pytest.approx(
            theorem_bound(auto, 1.0, 1.0, pair), abs=1e-12)


def test_synopsis_bound_reference_value():
    # equal windows and unit autocorrelator at xi = pi/2: 2/pi + pi/2
    val = synopsis_bound(1.0, 5.0, 5.0, math.pi / 2.0)
    assert val == pytest.approx(2.0 / math.pi + math.pi / 2.0, abs=1e-12)
    with pytest.raises(ValueError, match="xi"):
        synopsis_bound(1.0, 1.0, 10.0, -1.0)
    with pytest.raises(ValueError, match="sin"):
        synopsis_bound(1.0, 1.0, 10.0, math.pi)


# ---------------------------------------------------------------------------
# Derived interval / cloned-operator bounds.
# ---------------------------------------------------------------------------

def test_time_interval_bound_reference_value():
    val, vacuous = time_interval_bound(
        0.0, 0.0, math.pi / 2.0, 1.0, 1000.0, 2, 4, 0.5)
    expected = (4.0 / (0.25 * 2.0)) * (1.0 / (math.pi / 2.0 * 1000.0))
    assert val == pytest.approx(expected, abs=1e-12)
    assert not vacuous


def test_time_interval_bound_limits_and_vacuity():
    val, vacuous = time_interval_bound(0.0, 0.0, 1.0, 1.0, 1e12, 2, 2, 0.9)
    assert val <= 1e-9 and not vacuous
    val, vacuous = time_interval_bound(0.5, 0.1, 1.0, 1.0, 10.0, 2, 64, 0.01)
    assert val == 1.0 and vacuous
    with pytest.raises(ValueError, match="lambda"):
        time_interval_bound(0.0, 0.0, 1.0, 1.0, 1.0, 2, 2, 0.0)
    with pytest.raises(ValueError, match="xi"):
        time_interval_bound(0.0, 0.0, math.pi, 1.0, 1.0, 2, 2, 0.5)


def test_cloned_equilibrium_bound_values():
    assert cloned_equilibrium_bound(0.0, 0.0, 0.0, 0.5, 2, 4) == 0.0
    # W = 1, kappa_plus = 0 reduces to D_sigma eps + w0 D_sigma (D_S-1)/D_S^2
    assert cloned_equilibrium_bound(0.01, 0.0, 0.001, 1.0, 2, 4) == pytest.approx(
        0.04 + 0.001 * 4 * 0.25, abs=1e-15)
    with pytest.raises(ValueError, match="floor"):
        cloned_equilibrium_bound(0.0, 0.0, 0.0, 0.0, 2, 4)
    with pytest.raises(ValueError, match="kappa"):
        cloned_equilibrium_bound(0.0, 1.5, 0.0, 0.5, 2, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        cloned_equilibrium_bound(-0.1, 0.0, 0.0, 0.5, 2, 4)


# ---------------------------------------------------------------------------
# Gram-matrix Cauchy-Schwarz route for general dynamics.
# ---------------------------------------------------------------------------

def test_cauchy_schwarz_bound_trivial_cases():
    w = WeightingFunction.tent(1.0)
    assert cauchy_schwarz_bound(np.arange(3.0), np.zeros((3, 3)), w, 1.0) == 0.0
    # single grid point: plain Cauchy-Schwarz sqrt(<A,A>) sqrt(<B,B>)
    val = cauchy_schwarz_bound(np.array([3.0]), np.array([[0.7]]), w, 2.0)
    assert val == pytest.approx(math.sqrt(0.7) * math.sqrt(2.0), abs=1e-12)


def test_cauchy_schwarz_bound_kernel_validation():
    w = WeightingFunction.tent(1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        cauchy_schwarz_bound(np.arange(2.0), np.array([[1.0, 2.0], [0.0, 1.0]]), w, 1.0)
    with pytest.raises(ValueError, match="indefinite"):
        cauchy_schwarz_bound(np.arange(2.0), np.diag([1.0, -1.0]), w, 1.0)
    with pytest.raises(ValueError, match="shape"):
        cauchy_schwarz_bound(np.arange(3.0), np.eye(2), w, 1.0)


def test_cauchy_schwarz_bound_sound_for_circuit_dynamics():
    # Brickwork circuit on 8 qubits: the discrete window average of the
    # cross correlator is bounded by the Gram-kernel Cauchy-Schwarz value.
    chi = np.array([1.0, 0.0])
    psi = np.zeros(16)
    psi[0] = 1.0
    setup = ManyBodySetup(8, 1, 4, chi, psi)
    d = setup.dim
    a = tensor_embed(setup, "observable").entries - np.eye(d) / setup.d_s
    b = setup.d_sigma * tensor_embed(setup, "core").entries - np.eye(d)
    norm_b = hs_inner(b, b).real
    source = UnitarySource.circuit(8, seed=6)
    times = np.arange(12.0)
    evolved = []
    for t in times:
        u = evolve(source, t)
        evolved.append(u @ a @ u.conj().T)
    gram = np.array([[hs_inner(x, y) for y in evolved] for x in evolved])
    cross = np.array([hs_inner(b, x) for x in evolved])
    dt = np.zeros(times.size)
    dt[:-1] += 0.5 * np.diff(times)
    dt[1:] += 0.5 * np.diff(times)
    for center in np.linspace(1.0, 10.0, 10):
        weights = np.exp(-0.5 * (times - center) ** 2)
        w = WeightingFunction.tabulated(times, weights)
        q = w.density(times) * dt
        lhs = abs(np.sum(q * cross))
        rhs = cauchy_schwarz_bound(times, gram, w, norm_b)
        assert lhs <= rhs + BOUND_SLACK


# ---------------------------------------------------------------------------
# Fourth-order obstruction.
# ---------------------------------------------------------------------------

def test_negative_demo_generic_core_fails_premise():
    report = fourth_order_negative_demo(64, 2, 4, n_samples=100, seed=3)
    assert report.verdict == "premise unsatisfiable"
    assert report.measured_rms > report.threshold
    assert report.ratio > 2.0
    assert not report.trivial_core


def test_negative_demo_large_observable_satisfies_premise():
    report = fourth_order_negative_demo(64, 16, 16, n_samples=100, seed=3)
    assert report.verdict == "premise satisfiable"
    assert report.measured_rms <= report.threshold


def test_negative_demo_trivial_core():
    report = fourth_order_negative_demo(16, 2, 1, n_samples=10, seed=0)
    assert report.trivial_core
    assert report.measured_rms <= 1e-12
    assert report.verdict == "premise satisfiable"


def test_negative_demo_ratio_tracks_heuristic():
    # the heuristic deviation scale D_sigma/D^2 predicts the satisfiability
    # flip between a small and a large observable at fixed total dimension
    small = fourth_order_negative_demo(64, 2, 4, n_samples=100, seed=9)
    large = fourth_order_negative_demo(64, 16, 16, n_samples=100, seed=9)
    assert small.ratio > 1.0 > large.ratio
    for rep in (small, large):
        # order-of-magnitude anchor only: stay within a decade
        assert 0.1 <= rep.measured_rms / rep.heuristic_scale <= 10.0


def _full_draw_negative_demo_rms(d, d_sigma, n_samples, seed):
    """Oracle: the premise RMS from the corner of each full Haar unitary."""
    d_rho = d // d_sigma
    dev = np.empty(n_samples)
    for i in range(n_samples):
        u = sample_haar_unitary(d, rng=derive_rng(seed, "negative-demo", i))
        g = np.sum(np.abs(u[:d_rho, :d_rho]) ** 2) / d_rho
        dev[i] = g * g - 1.0 / d_sigma ** 2
    return float(np.sqrt(np.mean(dev ** 2)))


def test_negative_demo_matches_the_full_draw():
    report = fourth_order_negative_demo(256, 2, 16, n_samples=6, seed=31)
    oracle = _full_draw_negative_demo_rms(256, 16, 6, 31)
    assert abs(report.measured_rms - oracle) <= 1e-12


def test_negative_demo_equals_the_full_draw_for_a_trivial_core():
    report = fourth_order_negative_demo(32, 2, 1, n_samples=4, seed=2)
    assert report.measured_rms == _full_draw_negative_demo_rms(32, 1, 4, 2)


def test_negative_demo_deterministic_and_validated():
    a = fourth_order_negative_demo(32, 2, 4, n_samples=20, seed=1)
    b = fourth_order_negative_demo(32, 2, 4, n_samples=20, seed=1)
    assert a.measured_rms == b.measured_rms
    with pytest.raises(ValueError, match="divide"):
        fourth_order_negative_demo(10, 3, 2)
    with pytest.raises(ValueError, match="samples"):
        fourth_order_negative_demo(16, 2, 4, n_samples=1)
