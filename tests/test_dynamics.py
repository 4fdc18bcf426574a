"""Tests for correlator time series, Haar predictions, and the swap check."""

import tracemalloc

import numpy as np
import pytest

from _dense import (
    dense_correlator_trace,
    dense_embed,
    dense_matrix,
    swap_representation_check,
)
from otoc_thermalize import dynamics, hilbert
from otoc_thermalize.geometry import (
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    Projector,
    UnitarySource,
    conjugate,
    derive_rng,
    embed_isometry,
    evolve,
    evolve_basis,
    evolve_basis_series,
    gue_hamiltonian,
    sample_haar_state,
    sample_haar_unitary,
)
from otoc_thermalize.thermalization import thermal_axes
from otoc_thermalize.dynamics import (
    CorrelatorSeries,
    correlator_series,
    haar_prediction,
    typicality_experiment,
)

SERIES_TOL = 1e-9


def default_setup(n_total, n_observed, n_core):
    """All-|0> product states on the leading observed/core qubits."""
    chi = np.zeros(2 ** n_observed)
    chi[0] = 1.0
    psi = np.zeros(2 ** n_core)
    psi[0] = 1.0
    return ManyBodySetup(n_total, n_observed, n_core, chi, psi)


def assert_angle_route_agrees(setup, source, times, series, tol=SERIES_TOL):
    """Dense oracle: halmos_decompose of P_R and P_t at every time.

    The sorted cos^2 spectrum, and G^2 and G^4 through the angle route, must
    match the series to ``tol``.
    """
    p_r = dense_embed(setup, "observable")
    k = embed_isometry(setup, "core")
    for i, t in enumerate(times):
        geom = halmos_decompose(p_r, Projector.from_isometry(evolve_basis(source, k, t)))
        np.testing.assert_allclose(series.cos2[i], np.sort(geom.cos2), rtol=0, atol=tol)
        for n, direct in ((1, series.g2[i]), (2, series.g4[i])):
            assert abs(correlator_from_angles(geom, n) - direct) <= tol


# ---------------------------------------------------------------------------
# Haar predictions.
# ---------------------------------------------------------------------------

def test_prediction_trivial_observable():
    pred = haar_prediction(16, 1, 4)
    assert pred.mean_g2 == 1.0
    assert pred.sigma2_typ == 0.0
    assert pred.var_g2 == 0.0
    assert pred.mean_g4 == pytest.approx(1.0)


def test_prediction_trivial_core():
    # D_sigma = 1 embeds the full space: G4 averages to the thermal value
    pred = haar_prediction(16, 2, 1)
    assert pred.mean_g4 == pytest.approx(1.0 / 2.0)
    assert pred.var_g2 == 0.0


def test_prediction_reference_values():
    pred = haar_prediction(256, 2, 16)
    assert pred.mean_g2 == 0.5
    assert pred.sigma2_typ == 1.0 / 64.0
    assert pred.var_g2 == pytest.approx(15.0 / ((256 ** 2 - 1) * 4.0))
    assert pred.fluctuation_scale(1) == pytest.approx(2.0 * np.sqrt(32.0) / 256.0)


def test_prediction_nonnegative_and_vanishing_variance_limit():
    for d_sigma in (2, 8, 64):
        pred = haar_prediction(1024, 2, d_sigma)
        assert pred.var_g2 >= 0.0
        assert pred.mean_g4 >= 0.0
        assert pred.sigma2_typ >= 0.0
    # sigma2_typ -> 0 as the core grows at fixed observable
    typ = [haar_prediction(1024, 2, ds).sigma2_typ for ds in (2, 8, 64)]
    assert typ == sorted(typ, reverse=True)


def test_prediction_rejects_non_divisors():
    with pytest.raises(ValueError, match="divide"):
        haar_prediction(10, 3, 2)


# ---------------------------------------------------------------------------
# Correlator series.
# ---------------------------------------------------------------------------

def test_two_qubit_swap_hamiltonian_cosine_law():
    # H = SWAP on two qubits, S = sigma = first qubit in |0>. The first
    # principal angle stays 0 and the second rotates with cos(t), so
    # G2(t) = (1 + cos^2 t)/2 and G4(t) = (1 + cos^4 t)/2.
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1.0
    swap[1, 2] = swap[2, 1] = 1.0
    source = UnitarySource.hamiltonian(swap)
    setup = default_setup(2, 1, 1)
    times = np.linspace(0.0, 3.0, 13)
    series = correlator_series(setup, source, times)
    assert_angle_route_agrees(setup, source, times, series)
    g2_ref = (1.0 + np.cos(times) ** 2) / 2.0
    g4_ref = (1.0 + np.cos(times) ** 4) / 2.0
    np.testing.assert_allclose(series.g2, g2_ref, atol=SERIES_TOL)
    np.testing.assert_allclose(series.g4, g4_ref, atol=SERIES_TOL)


def test_series_commuting_at_time_zero():
    # S inside sigma with product states: the projectors commute at t = 0
    setup = default_setup(6, 1, 3)
    source = UnitarySource.hamiltonian(
        np.diag(np.linspace(-1.0, 1.0, 64)))
    series = correlator_series(setup, source, [0.0])
    assert series.commutator_norm[0] <= SERIES_TOL
    assert abs(series.g2[0] - series.g4[0]) <= SERIES_TOL


def test_series_validates_chain_and_commutator_identity():
    setup = default_setup(6, 2, 3)
    source = UnitarySource.haar_cue(64, seed=11)
    series = correlator_series(setup, source, [0, 1, 2, 3])
    assert_angle_route_agrees(setup, source, [0, 1, 2, 3], series)
    series.validate()  # raises on violation
    assert np.all(series.sigma2 >= 0.0)
    assert np.all(series.g2 <= 1.0 + 1e-12)


def test_series_haar_cue_saturates_to_typical_variance():
    setup = default_setup(10, 1, 5)
    source = UnitarySource.haar_cue(1024, seed=4)
    series = correlator_series(setup, source, [1])
    pred = haar_prediction(1024, 2, 32)
    assert abs(series.sigma2[0] - pred.sigma2_typ) <= 10.0 * pred.fluctuation_scale(4)


def test_series_circuit_source_obeys_invariants():
    setup = default_setup(8, 1, 4)
    source = UnitarySource.circuit(8, seed=2)
    series = correlator_series(setup, source, [0, 1, 2, 4])
    # t=0 commuting layout: the commutator identity pins both sides to zero
    assert series.commutator_norm[0] <= SERIES_TOL
    # operator spreading can only start after the first layer
    assert series.g2[0] == pytest.approx(1.0)


def test_series_rejects_dimension_mismatch():
    setup = default_setup(3, 1, 2)
    source = UnitarySource.haar_cue(4, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        correlator_series(setup, source, [0, 1])


def test_series_validate_detects_corruption():
    series = CorrelatorSeries(
        times=np.array([0.0]), g2=np.array([0.5]), g4=np.array([0.6]),
        sigma2=np.array([0.0]), commutator_norm=np.array([0.0]),
        cos2=np.array([[0.5]]))
    with pytest.raises(ValueError, match="chain"):
        series.validate()
    series = CorrelatorSeries(
        times=np.array([0.0]), g2=np.array([0.5]), g4=np.array([0.4]),
        sigma2=np.array([0.15]), commutator_norm=np.array([0.3]),
        cos2=np.array([[0.5]]))
    with pytest.raises(ValueError, match="commutator"):
        series.validate()


def test_series_validate_rejects_an_all_nan_series():
    nan = np.array([np.nan])
    series = CorrelatorSeries(times=np.array([0.0]), g2=nan, g4=nan, sigma2=nan,
                              commutator_norm=nan, cos2=np.array([[np.nan]]))
    with pytest.raises(ValueError, match="chain"):
        series.validate()
    series = CorrelatorSeries(
        times=np.array([0.0]), g2=np.array([0.5]), g4=np.array([0.25]),
        sigma2=np.array([0.0]), commutator_norm=nan, cos2=np.array([[0.5]]))
    with pytest.raises(ValueError, match="commutator"):
        series.validate()


def spread_setup():
    """D = 128 with non-leading sites and an entangled core state: the core
    basis has support on the last row, so CUE takes the full-support path."""
    return ManyBodySetup(7, 1, 3, np.array([0.6, 0.8]),
                         sample_haar_state(8, seed=31),
                         observed_sites=(5,), core_sites=(6, 2, 5))


def oracle_cases():
    """(setup, source, times) for every source kind, D = 64..256."""
    return [
        (default_setup(6, 1, 3),
         UnitarySource.hamiltonian(gue_hamiltonian(64, seed=41)), [0.0, 0.7, 2.5]),
        (spread_setup(),
         UnitarySource.hamiltonian(gue_hamiltonian(128, seed=42)), [0.0, 1.3]),
        (default_setup(8, 1, 4), UnitarySource.haar_cue(256, seed=43), [0, 1, 3]),
        (spread_setup(), UnitarySource.haar_cue(128, seed=44), [0, 2]),
        (default_setup(8, 2, 4), UnitarySource.circuit(8, seed=45), [0, 1, 4]),
        (spread_setup(), UnitarySource.circuit(7, seed=46), [0, 3]),
    ]


def test_spread_setup_core_basis_has_full_support():
    assert np.any(embed_isometry(spread_setup(), "core")[-1] != 0)


def entangled_pair_setup():
    """D = 128 with an entangled two-site |chi> on out-of-order, non-leading
    observed sites, nested inside a spread core."""
    return ManyBodySetup(7, 2, 3, sample_haar_state(4, seed=32),
                         sample_haar_state(8, seed=33),
                         observed_sites=(4, 1), core_sites=(1, 6, 4))


def series_cases():
    """oracle_cases plus D_eta = 1 (N_sigma = N) and N_S = N_sigma splits and
    an entangled |chi> on out-of-order sites, each for every source kind."""
    return oracle_cases() + [
        (default_setup(6, 1, 6),
         UnitarySource.hamiltonian(gue_hamiltonian(64, seed=47)), [0.0, 0.9]),
        (default_setup(6, 3, 6), UnitarySource.haar_cue(64, seed=48), [0, 2]),
        (default_setup(6, 2, 2), UnitarySource.circuit(6, seed=49), [0, 1, 3]),
        (default_setup(6, 3, 3),
         UnitarySource.hamiltonian(gue_hamiltonian(64, seed=50)), [0.0, 1.7]),
        (default_setup(6, 2, 6), UnitarySource.circuit(6, seed=59), [0, 1, 4]),
        (default_setup(6, 2, 2), UnitarySource.haar_cue(64, seed=61), [0, 3]),
        (entangled_pair_setup(),
         UnitarySource.hamiltonian(gue_hamiltonian(128, seed=54)), [0.0, 0.8]),
        (entangled_pair_setup(), UnitarySource.haar_cue(128, seed=55), [0, 1, 2]),
        (entangled_pair_setup(), UnitarySource.circuit(7, seed=56), [0, 2, 5]),
    ]


@pytest.mark.parametrize("case", range(15))
def test_series_matches_dense_evolution_oracle(case):
    setup, source, times = series_cases()[case]
    series = correlator_series(setup, source, times)
    p_r = dense_embed(setup, "observable")
    p_rho = dense_embed(setup, "core")
    for i, t in enumerate(times):
        p_t = conjugate(p_rho, evolve(source, t))
        r, pt = dense_matrix(p_r), dense_matrix(p_t)
        comm = np.sum(np.abs(r @ pt - pt @ r) ** 2) / (2.0 * setup.d_eta)
        for n, g in ((1, series.g2[i]), (2, series.g4[i])):
            assert abs(g - dense_correlator_trace(p_r, p_t, n)) <= 1e-12
            assert abs(g - correlator_trace(p_r, p_t, n)) <= 1e-12
        assert abs(series.commutator_norm[i] - comm) <= 1e-12


@pytest.mark.parametrize("source, times", [
    (UnitarySource.hamiltonian(gue_hamiltonian(64, seed=63)), [1.5, 3.0]),
    (UnitarySource.haar_cue(64, seed=64), [1, 2]),
    (UnitarySource.circuit(6, seed=65), [4, 6]),
])
def test_commutator_norm_reads_the_residual(monkeypatch, source, times):
    # a basis scaled by 1.01 keeps the chain G2 >= G4 >= G2^2 at these
    # scrambled times but is no isometry; R^dag R = 1 - m would hide that
    evolve_series = dynamics.evolve_basis_series
    monkeypatch.setattr(dynamics, "evolve_basis_series", lambda *a: (
        1.01 * kt for kt in evolve_series(*a)))
    with pytest.raises(ValueError, match="commutator identity"):
        correlator_series(default_setup(6, 1, 3), source, times)


@pytest.mark.parametrize("kind", ["circuit", "cue"])
def test_series_peak_memory_scales_with_the_core_basis(kind):
    # no D x D/D_S array: the n = 10 peak stays within 12 D x D_eta blocks
    setup = default_setup(10, 1, 4)
    source = (UnitarySource.circuit(10, seed=66) if kind == "circuit"
              else UnitarySource.haar_cue(setup.dim, seed=67))
    tracemalloc.start()
    try:
        correlator_series(setup, source, range(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * setup.dim * setup.d_eta * 16


@pytest.mark.parametrize("case", range(15))
def test_series_cos2_matches_dense_decomposition(case):
    setup, source, times = series_cases()[case]
    series = correlator_series(setup, source, times)
    assert series.cos2.shape == (len(times), setup.d_eta)
    assert np.all(np.diff(series.cos2, axis=1) >= 0)
    assert_angle_route_agrees(setup, source, times, series, tol=1e-12)


@pytest.mark.parametrize("split", [(6, 1, 3), (6, 1, 6), (6, 3, 3), (6, 2, 2)])
def test_time_zero_angles_vanish_and_every_axis_is_thermal(split):
    # the core contains the observed qubits, so ran(P_rho) lies in ran(P_R)
    setup = default_setup(*split)
    for source in (UnitarySource.hamiltonian(gue_hamiltonian(64, seed=51)),
                   UnitarySource.haar_cue(64, seed=52),
                   UnitarySource.circuit(6, seed=53)):
        series = correlator_series(setup, source, [0])
        np.testing.assert_allclose(series.cos2[0], 1.0, rtol=0, atol=1e-12)
        for lam in (1e-9, 0.05, 0.5):
            assert np.count_nonzero(thermal_axes(series.cos2[0], lam)) == setup.d_rho


@pytest.mark.parametrize("case", range(6))
def test_evolve_basis_matches_dense_unitary(case):
    setup, source, times = oracle_cases()[case]
    k = embed_isometry(setup, "core")
    for t in times:
        np.testing.assert_allclose(evolve_basis(source, k, t),
                                   evolve(source, t) @ k, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", range(6))
def test_evolve_basis_series_matches_evolve_basis(case):
    setup, source, times = oracle_cases()[case]
    k = embed_isometry(setup, "core")
    # ascending, repeated, ascending again, then back to an earlier time
    grid = list(times) + [times[-1], times[-1] + 2, times[0] + 1]
    for t, kt in zip(grid, evolve_basis_series(source, k, grid), strict=True):
        np.testing.assert_allclose(kt, evolve_basis(source, k, t), rtol=0, atol=1e-12)


def test_circuit_series_applies_each_layer_once(monkeypatch):
    draws = []
    sample = hilbert.sample_haar_unitary
    monkeypatch.setattr(hilbert, "sample_haar_unitary",
                        lambda *a, **kw: draws.append(a) or sample(*a, **kw))
    source = UnitarySource.circuit(6, seed=5)
    k = embed_isometry(default_setup(6, 1, 3), "core")
    list(evolve_basis_series(source, k, range(6)))
    # layers 0..4 of a 6-qubit brickwork hold 3, 2, 3, 2, 3 gates
    assert len(draws) == 13


def test_evolve_basis_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        evolve_basis(UnitarySource.haar_cue(8, seed=0), np.eye(4), 1)


# ---------------------------------------------------------------------------
# Typicality Monte Carlo.
# ---------------------------------------------------------------------------

def test_typicality_experiment_matches_predictions():
    result = typicality_experiment(64, 2, 8, n_samples=1000, seed=17)
    pred = result.prediction
    se = np.sqrt(pred.var_g2 / result.n_samples)
    assert abs(result.mean_g2 - 0.5) <= 4.0 * se
    assert result.mean_g2_ok and result.mean_g4_ok
    assert result.var_g2_ok  # empirical variance within factor 2
    assert result.tails_ok
    assert result.passed


def test_typicality_experiment_deterministic():
    a = typicality_experiment(16, 2, 4, n_samples=50, seed=5)
    b = typicality_experiment(16, 2, 4, n_samples=50, seed=5)
    assert a.mean_g2 == b.mean_g2 and a.mean_g4 == b.mean_g4


def test_typicality_experiment_rejects_tiny_sample():
    with pytest.raises(ValueError, match="samples"):
        typicality_experiment(16, 2, 4, n_samples=1, seed=0)


@pytest.mark.parametrize("kappa", [0.0, -1.0])
def test_typicality_experiment_rejects_nonpositive_kappa(kappa):
    with pytest.raises(ValueError, match="kappa"):
        typicality_experiment(16, 2, 4, n_samples=10, seed=0, kappa=kappa)


def _full_draw_typicality_samples(d, d_s, d_sigma, n_samples, seed):
    """Oracle: G^2 and G^4 from the corner of each full D x D Haar unitary."""
    d_r, d_rho = d // d_s, d // d_sigma
    g2s, g4s = np.empty(n_samples), np.empty(n_samples)
    for i in range(n_samples):
        q = sample_haar_unitary(d, rng=derive_rng(seed, "typicality", i))
        m = q[:d_r, :d_rho].conj().T @ q[:d_r, :d_rho]
        g2s[i] = np.trace(m).real / d_rho
        g4s[i] = np.sum(np.abs(m) ** 2) / d_rho
    return g2s, g4s


def test_typicality_samples_match_the_full_draw():
    result = typicality_experiment(256, 2, 16, n_samples=6, seed=23)
    g2s, g4s = _full_draw_typicality_samples(256, 2, 16, 6, 23)
    np.testing.assert_allclose(result.samples_g2, g2s, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.samples_g4, g4s, rtol=0, atol=1e-12)


def test_typicality_samples_equal_the_full_draw_for_a_trivial_core():
    # D_sigma = 1 reads every column, so the draw is the full unitary
    result = typicality_experiment(32, 2, 1, n_samples=4, seed=8)
    g2s, g4s = _full_draw_typicality_samples(32, 2, 1, 4, 8)
    assert np.array_equal(result.samples_g2, g2s)
    assert np.array_equal(result.samples_g4, g4s)


# ---------------------------------------------------------------------------
# Swap-operator representation of the OTOC.
# ---------------------------------------------------------------------------

def test_swap_check_identical_rank_one():
    p = Projector.coordinate(8, 1)
    lhs, rhs, gap = swap_representation_check(p, p)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert gap <= 1e-12


def test_swap_check_orthogonal_projectors():
    e = np.eye(8, dtype=complex)
    p_r = Projector.from_isometry(e[:, :3])
    p_rho = Projector.from_isometry(e[:, 3:5])
    lhs, rhs, gap = swap_representation_check(p_r, p_rho)
    assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


def test_swap_check_random_pairs_agree():
    rng = np.random.default_rng(23)
    for dim in (8, 32, 128):
        u = sample_haar_unitary(dim, rng=rng)
        v = sample_haar_unitary(dim, rng=rng)
        p_r = conjugate(Projector.coordinate(dim, dim // 2), u)
        p_rho = conjugate(Projector.coordinate(dim, dim // 4), v)
        lhs, rhs, gap = swap_representation_check(p_r, p_rho)
        assert gap <= 1e-10


def test_swap_check_rejects_oversized_dimension():
    p = Projector.coordinate(256, 8)
    with pytest.raises(ValueError, match="cap"):
        swap_representation_check(p, p)
