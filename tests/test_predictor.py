"""Tests for window transforms, auto-to-cross correlator bounds, and the
fourth-order obstruction demo."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import _dense
from _dense import (
    box_density,
    box_transform,
    dense_unitary,
    gue_hamiltonian,
    hamiltonian_source,
    tent_density,
    tent_transform,
    to_eigenbasis,
    two_point_operators,
    weighted_autocorrelator,
    weighted_correlator,
)
from otoc_thermalize.hilbert import (
    Eigenframe,
    InvariantError,
    ManyBodySetup,
    UnitarySource,
    derive_rng,
    sample_gue_eigensystem,
    sample_haar_unitary,
)
from otoc_thermalize.dynamics import correlator_series
from otoc_thermalize.predictor import (
    WindowPair,
    cauchy_schwarz_bound,
    fourth_order_negative_demo,
    synopsis_bound,
    theorem_bound,
    time_interval_bound,
    window_averages,
)

BOUND_SLACK = 1e-9


def _random_hermitian(dim, rng, unit_norm=True):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (x + x.conj().T) / 2.0
    if unit_norm:
        h = h / math.sqrt(np.vdot(h, h).real / dim)
    return h


# ---------------------------------------------------------------------------
# Windows and their Fourier transforms.
# ---------------------------------------------------------------------------

def test_fourier_transform_reference_values():
    pair = WindowPair(0.0, 4.0, 3.0)
    assert box_transform(pair, 0.0) == pytest.approx(1.0)
    assert tent_transform(pair, 0.0) == pytest.approx(1.0)
    # tent transform is sinc^2: first node at E = 2 pi / t_obs
    assert abs(tent_transform(pair, 2.0 * math.pi / 3.0)) <= 1e-12
    # sinc(1)^2 = sin(1)^2 at E t_obs / 2 = 1
    assert tent_transform(pair, 2.0 / 3.0).real == pytest.approx(
        math.sin(1.0) ** 2, abs=1e-12)


def test_fourier_weight_scalar_and_vector():
    pair = WindowPair(-1.0, 2.0, 1.0)
    scalar = box_transform(pair, 0.37)
    assert isinstance(scalar, complex)
    vec = box_transform(pair, np.array([0.0, 0.37, 5.0]))
    assert vec.shape == (3,)
    assert vec[1] == pytest.approx(scalar)


def test_tent_transform_is_nonnegative():
    vals = tent_transform(WindowPair(0.0, 10.0, 2.0), np.linspace(-60.0, 60.0, 3001))
    assert np.all(vals.real >= -1e-12)
    assert np.max(np.abs(vals.imag)) <= 1e-12


def test_window_densities_have_unit_mass():
    grid = np.linspace(-8.0, 8.0, 200001)
    pair = WindowPair(-1.5, 3.0, 2.5)
    for density in (box_density, tent_density):
        # O(h) quadrature error at the box discontinuities dominates
        assert np.trapezoid(density(pair, grid), grid) == pytest.approx(1.0, abs=1e-4)


def test_window_constructor_validation():
    with pytest.raises(ValueError, match="duration"):
        WindowPair(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="half-width"):
        WindowPair(0.0, 10.0, -1.0)


# ---------------------------------------------------------------------------
# The window pair and its Fourier constants.
# ---------------------------------------------------------------------------

def test_canonical_pair_constants():
    pair = WindowPair(0.0, 50.0, 3.0)
    assert pair.xi == pytest.approx(math.pi / 2.0)
    assert pair.delta_e == pytest.approx(math.pi / 3.0)
    assert pair.w0 == pytest.approx(3.0 / (math.pi / 2.0 * 50.0))
    assert pair.W == pytest.approx((2.0 / math.pi) ** 2)


def test_canonical_pair_constants_verified_numerically():
    # W is the floor of the CP transform inside the Fourier window; w0 caps
    # the long-window transform outside it.
    pair = WindowPair(0.0, 37.0, 2.5, xi=2.0)
    e_in = np.linspace(-pair.delta_e, pair.delta_e, 4001)
    inside = tent_transform(pair, e_in).real
    assert inside.min() >= pair.W - BOUND_SLACK
    edge = tent_transform(pair, pair.delta_e).real
    assert edge == pytest.approx(pair.W, abs=1e-12)
    e_out = np.concatenate([
        np.linspace(pair.delta_e, 50.0, 20001),
        -np.linspace(pair.delta_e, 50.0, 20001),
        np.logspace(math.log10(50.0), 3.0, 2001),
    ])
    outside = np.abs(box_transform(pair, e_out))
    assert outside.max() <= pair.w0 + BOUND_SLACK


def test_canonical_pair_validation():
    with pytest.raises(ValueError, match="xi"):
        WindowPair(0.0, 10.0, 1.0, xi=math.pi)
    with pytest.raises(ValueError, match="xi"):
        WindowPair(0.0, 10.0, 1.0, xi=-0.5)
    # observation window too long for the horizon: w0 >= 1
    with pytest.raises(ValueError, match="w0"):
        WindowPair(0.0, 1.0, 10.0)
    # sinc^2(xi) rounds to 1 for a tiny xi
    with pytest.raises(ValueError, match="W must"):
        WindowPair(0.0, 1e12, 1.0, xi=1e-8)


# ---------------------------------------------------------------------------
# Bohr-frequency evaluation of window averages.
# ---------------------------------------------------------------------------

def _two_point_frame(n, n_s, n_sigma, seed):
    """(Eigenframe(E, W, Y), D_S, D_sigma) of a GUE instance with a random core frame.

    W is the GUE eigenframe of a D/D_S-dimensional observable and Y a Haar
    D x D/D_sigma core basis. With D_sigma = 1 the core is the whole space
    and B = Y Y^dag - 1 vanishes; Y is then a permutation, whose Gram is
    exactly 1, so both routes sum exact zeros rather than roundoff.
    """
    d, d_s, d_sigma = 2 ** n, 2 ** n_s, 2 ** n_sigma
    rng = derive_rng(seed, "two-point-frame", n, n_s, n_sigma)
    evals, w = sample_gue_eigensystem(d, rng, columns=d // d_s)
    if d_sigma == 1:
        y = np.eye(d)[rng.permutation(d)].astype(complex)
    else:
        y = sample_haar_unitary(d, rng=rng, columns=d // d_sigma)
    return Eigenframe(evals, w, y), d_s, d_sigma


def _dense_two_point(frame, d_s, d_sigma):
    """A = W W^dag - 1/D_S and B = D_sigma Y Y^dag - 1 as dense D x D arrays."""
    w, y = frame.w, frame.y
    eye = np.eye(w.shape[0])
    return w @ w.conj().T - eye / d_s, d_sigma * (y @ y.conj().T) - eye


def test_weighted_correlator_matches_time_quadrature():
    frame, d_s, d_sigma = _two_point_frame(3, 1, 2, 31)
    evals = frame.evals
    a_eig, b_eig = _dense_two_point(frame, d_s, d_sigma)
    pair = WindowPair(0.5, 6.0, 1.5)
    shifts = [0.0, 2.5]
    auto, cross = window_averages(frame, pair, shifts)

    def quadrature(density, window, b, start, stop):
        # <B, U_t(A)> with U_t = exp(-iEt) in the eigenbasis
        grid = np.linspace(start, stop, 6001)
        samples = np.empty(grid.size, dtype=complex)
        for i, t in enumerate(grid):
            u = np.exp(-1j * evals * t)
            samples[i] = np.vdot(b, u[:, None] * a_eig * u.conj()) / evals.size
        return np.trapezoid(density(window, grid) * samples, grid)

    assert abs(auto - quadrature(tent_density, pair, a_eig, -1.5, 1.5)) <= 1e-5
    for s, value in zip(shifts, cross):
        moved = WindowPair(0.5 + s, 6.0, 1.5)
        assert abs(value - quadrature(box_density, moved, b_eig,
                                      0.5 + s, 6.5 + s)) <= 1e-5


def test_shifted_windows_match_per_window_evaluation():
    # 70 windows: the second GEMM chunk starts at window 64
    frame, d_s, d_sigma = _two_point_frame(7, 1, 4, 17)
    # repeated eigenvalues put omega = 0 entries off the diagonal
    evals = np.round(frame.evals, 1)
    frame = dataclasses.replace(frame, evals=evals)
    a_eig, b_eig = _dense_two_point(frame, d_s, d_sigma)
    shifts = 0.75 * np.arange(-5, 65)
    pair = WindowPair(1.5, 7.0, 0.75)
    auto, values = window_averages(frame, pair, shifts)
    assert values.shape == shifts.shape
    for s, value in zip(shifts, values):
        moved = WindowPair(1.5 + s, 7.0, 0.75)
        oracle = weighted_correlator(evals, a_eig, b_eig, moved)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)
        single_auto, single = window_averages(frame, moved, [0.0])
        assert single_auto == auto
        assert abs(value - single[0]) <= 1e-12 * abs(single[0])
    # a chunk's windows come out the same whatever windows follow it
    first = window_averages(frame, pair, shifts[:64])
    assert first[0] == auto and np.array_equal(first[1], values[:64])


@pytest.mark.parametrize("n, n_s, n_sigma", [
    (1, 1, 0), (1, 1, 1), (2, 1, 2), (2, 2, 0), (3, 1, 2), (3, 3, 3),
    (4, 2, 3), (4, 1, 0), (5, 1, 4), (5, 5, 1), (7, 1, 4), (7, 7, 0),
    (8, 3, 5), (8, 8, 2)])
def test_window_averages_match_the_dense_bohr_sums(n, n_s, n_sigma):
    # D below one block (n <= 5) and over several (n = 7, 8); D_sigma = 1
    # and D_S = D among them
    frame, d_s, d_sigma = _two_point_frame(n, n_s, n_sigma, 23)
    evals = frame.evals
    a_eig, b_eig = _dense_two_point(frame, d_s, d_sigma)
    pair = WindowPair(1.3, 40.0, 1.5, xi=1.2)
    shifts = 1.5 * np.arange(70)
    auto, cross = window_averages(frame, pair, shifts)
    oracle = weighted_autocorrelator(evals, a_eig, pair)
    assert abs(auto - oracle) <= 1e-12 * abs(oracle)
    for s, value in zip(shifts, cross):
        moved = WindowPair(1.3 + s, 40.0, 1.5, xi=1.2)
        oracle = weighted_correlator(evals, a_eig, b_eig, moved)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)
    if d_sigma == 1:
        assert not np.any(cross)


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shifted_windows_keep_memory_independent_of_the_shift_count():
    frame = _two_point_frame(8, 1, 4, 3)[0]
    d = frame.evals.size
    pair = WindowPair(0.0, 50.0, 2.0)
    one = _peak_traced_bytes(lambda: window_averages(frame, pair, [0.0]))
    many = _peak_traced_bytes(
        lambda: window_averages(frame, pair, np.linspace(0.0, 400.0, 200)))
    assert many - one < d * d * np.dtype(complex).itemsize


def test_window_averages_of_an_instance_stay_below_one_dense_array():
    # n = 10 at predictor-demo's defaults: one D x D complex array is 16 MiB
    frame = _two_point_frame(10, 1, 4, 9)[0]
    d = frame.evals.size
    pair = WindowPair(0.0, 200.0, 2.0)
    peak = _peak_traced_bytes(
        lambda: window_averages(frame, pair, 2.0 * np.arange(10)))
    assert peak < d * d * np.dtype(complex).itemsize


def test_autocorrelator_average_is_nonnegative_for_cp_window():
    for seed in range(5):
        frame = _two_point_frame(5, 2, 3, seed)[0]
        pair = WindowPair(0.0, 40.0, 4.0)
        auto, _ = window_averages(frame, pair, [0.0])
        assert auto >= -BOUND_SLACK


def test_autocorrelator_rejects_a_complex_average(monkeypatch):
    # the dense oracle takes any A, whose autocorrelator need not be real
    monkeypatch.setattr(_dense, "bohr_sum", lambda *args: 0.5 + 1e-6j)
    with pytest.raises(InvariantError, match="not real"):
        weighted_autocorrelator(np.zeros(2), np.eye(2), WindowPair(0.0, 10.0, 4.0))


# ---------------------------------------------------------------------------
# Auto-to-cross theorem bound.
# ---------------------------------------------------------------------------

def test_theorem_bound_trivial_cases():
    pair = WindowPair(0.0, 20.0, 1.0)
    assert theorem_bound(0.0, 0.0, 1.0, pair) == 0.0
    assert theorem_bound(0.5, 1.0, 0.0, pair) == 0.0
    with pytest.raises(InvariantError, match="nonnegative"):
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
        b = b / math.sqrt(np.vdot(b, b).real / 32)
        a_eig = to_eigenbasis(vecs, a)
        b_eig = to_eigenbasis(vecs, b)
        norm_a = np.vdot(a, a).real / 32
        norm_b = np.vdot(b, b).real / 32
        for t0, horizon, t_obs, xi in windows:
            pair = WindowPair(t0, horizon, t_obs, xi=xi)
            auto = weighted_autocorrelator(evals, a_eig, pair)
            lhs = abs(weighted_correlator(evals, a_eig, b_eig, pair))
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
    a2, b2 = two_point_operators(setup)
    assert np.vdot(a2, a2).real / d == pytest.approx(
        (setup.d_s - 1) / setup.d_s ** 2, abs=1e-12)
    assert np.vdot(b2, b2).real / d == pytest.approx(setup.d_sigma - 1.0, abs=1e-12)

    source, vecs = hamiltonian_source(gue_hamiltonian(d, seed=5), setup)
    for t in (0.0, 0.7, -1.3):
        u = dense_unitary(source, t, vecs)
        cross = np.vdot(b2, u @ a2 @ u.conj().T) / d
        series = correlator_series(setup, source, [-t])
        assert cross.real == pytest.approx(
            series.g2[0] - 1.0 / setup.d_s, abs=1e-10)
        assert abs(cross.imag) <= 1e-10


def test_synopsis_bound_matches_theorem_with_unit_norms():
    pair = WindowPair(0.0, 12.0, 1.2, xi=0.8)
    for auto in (0.0, 0.3, 1.0):
        assert synopsis_bound(auto, pair) == pytest.approx(
            theorem_bound(auto, 1.0, 1.0, pair), abs=1e-12)


def test_synopsis_bound_reference_value():
    # equal windows and unit autocorrelator at xi = pi/2: 2/pi + pi/2
    val = synopsis_bound(1.0, WindowPair(0.0, 5.0, 5.0, math.pi / 2.0))
    assert val == pytest.approx(2.0 / math.pi + math.pi / 2.0, abs=1e-12)
    # the pair rejects the xi that would make the bound meaningless
    with pytest.raises(ValueError, match="xi"):
        WindowPair(0.0, 10.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="sin"):
        WindowPair(0.0, 10.0, 1.0, math.pi - 1e-15)


# ---------------------------------------------------------------------------
# Derived time-interval bound.
# ---------------------------------------------------------------------------

def test_time_interval_bound_reference_value():
    val, vacuous = time_interval_bound(
        0.0, 0.0, WindowPair(0.0, 1000.0, 1.0, math.pi / 2.0), 2, 4, 0.5)
    expected = (4.0 / (0.25 * 2.0)) * (1.0 / (math.pi / 2.0 * 1000.0))
    assert val == pytest.approx(expected, abs=1e-12)
    assert not vacuous


def test_time_interval_bound_limits_and_vacuity():
    val, vacuous = time_interval_bound(
        0.0, 0.0, WindowPair(0.0, 1e12, 1.0, 1.0), 2, 2, 0.9)
    assert val <= 1e-9 and not vacuous
    pair = WindowPair(0.0, 10.0, 1.0, 1.0)
    val, vacuous = time_interval_bound(0.5, 0.1, pair, 2, 64, 0.01)
    assert val == 1.0 and vacuous
    with pytest.raises(ValueError, match="lambda"):
        time_interval_bound(0.0, 0.0, pair, 2, 2, 0.0)
    with pytest.raises(ValueError, match="xi"):
        time_interval_bound(0.0, 0.0, WindowPair(0.0, 1.0, 1.0, math.pi), 2, 2, 0.5)
    for epsilon, kappa_rr in ((-0.1, 0.0), (0.0, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            time_interval_bound(epsilon, kappa_rr, pair, 2, 2, 0.5)


# ---------------------------------------------------------------------------
# Gram-matrix Cauchy-Schwarz route for general dynamics.
# ---------------------------------------------------------------------------

def test_cauchy_schwarz_bound_trivial_cases():
    assert cauchy_schwarz_bound(np.zeros((3, 3)), np.ones(3), 1.0) == 0.0
    # single grid point: plain Cauchy-Schwarz sqrt(<A,A>) sqrt(<B,B>)
    val = cauchy_schwarz_bound(np.array([[0.7]]), [1.0], 2.0)
    assert val == pytest.approx(math.sqrt(0.7) * math.sqrt(2.0), abs=1e-12)


def test_cauchy_schwarz_bound_rejects_a_nan_kernel():
    gram = np.eye(3)
    gram[0, 1] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        cauchy_schwarz_bound(gram, np.ones(3), 1.0)


def test_cauchy_schwarz_bound_kernel_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        cauchy_schwarz_bound(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="indefinite"):
        cauchy_schwarz_bound(np.diag([1.0, -1.0]), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="shape"):
        cauchy_schwarz_bound(np.eye(2), np.ones(3), 1.0)


def test_cauchy_schwarz_bound_sound_for_circuit_dynamics():
    # Brickwork circuit on 8 qubits: the discrete window average of the
    # cross correlator is bounded by the Gram-kernel Cauchy-Schwarz value.
    chi = np.array([1.0, 0.0])
    psi = np.zeros(16)
    psi[0] = 1.0
    setup = ManyBodySetup(8, 1, 4, chi, psi)
    a, b = two_point_operators(setup)
    d = setup.dim
    norm_b = np.vdot(b, b).real / d
    source = UnitarySource.circuit(8, seed=6)
    times = np.arange(12.0)
    evolved = []
    for t in times:
        u = dense_unitary(source, t)
        evolved.append(u @ a @ u.conj().T)
    gram = np.array([[np.vdot(x, y) / d for y in evolved] for x in evolved])
    cross = np.array([np.vdot(b, x) / d for x in evolved])
    dt = np.zeros(times.size)
    dt[:-1] += 0.5 * np.diff(times)
    dt[1:] += 0.5 * np.diff(times)
    for center in np.linspace(1.0, 10.0, 10):
        # a Gaussian window of unit trapezoid mass, times trapezoid weights
        weights = np.exp(-0.5 * (times - center) ** 2)
        q = weights / np.trapezoid(weights, times) * dt
        lhs = abs(np.sum(q * cross))
        rhs = cauchy_schwarz_bound(gram, q, norm_b)
        assert lhs <= rhs + BOUND_SLACK


# ---------------------------------------------------------------------------
# Fourth-order obstruction.
# ---------------------------------------------------------------------------

def test_negative_demo_generic_core_fails_premise():
    report = fourth_order_negative_demo(64, 2, 4, n_samples=100, seed=3)
    assert report.verdict == "premise unsatisfiable"
    assert report.measured_rms > report.threshold
    assert report.measured_rms / report.threshold > 2.0


def test_negative_demo_large_observable_satisfies_premise():
    report = fourth_order_negative_demo(64, 16, 16, n_samples=100, seed=3)
    assert report.verdict == "premise satisfiable"
    assert report.measured_rms <= report.threshold


def test_negative_demo_trivial_core():
    report = fourth_order_negative_demo(16, 2, 1, n_samples=10, seed=0)
    assert "trivial core" in report.check.formula
    assert report.measured_rms <= 1e-12
    assert report.verdict == "premise satisfiable"


def test_negative_demo_ratio_tracks_heuristic():
    # the sharp deviation scale 2 (D_sigma - 1)/(D_sigma^2 sqrt(D^2 - 1))
    # predicts the satisfiability flip between a small and a large
    # observable at fixed total dimension
    small = fourth_order_negative_demo(64, 2, 4, n_samples=100, seed=9)
    large = fourth_order_negative_demo(64, 16, 16, n_samples=100, seed=9)
    assert (small.measured_rms / small.threshold > 1.0
            > large.measured_rms / large.threshold)
    for rep in (small, large):
        # within a factor 2 of the sharp prediction
        assert rep.check.ok


def test_negative_demo_holds_no_dim_sized_array():
    # D = 2**20 with D_rho = 8: one D x D_rho Haar draw would be 128 MiB. A
    # first run takes numpy's one-time set-up, which the bound is not about
    report = None

    def run():
        nonlocal report
        report = fourth_order_negative_demo(2 ** 20, 2, 2 ** 17, n_samples=50, seed=3)

    run()
    assert _peak_traced_bytes(run) < 2 ** 20
    assert report.check.ok


def test_negative_demo_deterministic_and_validated():
    a = fourth_order_negative_demo(32, 2, 4, n_samples=20, seed=1)
    b = fourth_order_negative_demo(32, 2, 4, n_samples=20, seed=1)
    assert a.measured_rms == b.measured_rms
    with pytest.raises(ValueError, match="divide"):
        fourth_order_negative_demo(10, 3, 2)
    with pytest.raises(ValueError, match="samples"):
        fourth_order_negative_demo(16, 2, 4, n_samples=1)
