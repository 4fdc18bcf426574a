"""Tests for correlator time series, Haar predictions, and the swap check."""

import numpy as np
import pytest

from otoc_thermalize import dynamics, hilbert
from otoc_thermalize.geometry import correlator_trace
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    Projector,
    UnitarySource,
    _haar_columns,
    conjugate,
    embed_isometry,
    evolve,
    evolve_basis,
    evolve_basis_series,
    gue_hamiltonian,
    sample_haar_state,
    sample_haar_unitary,
    tensor_embed,
)
from otoc_thermalize.dynamics import (
    CorrelatorSeries,
    correlator_series,
    haar_prediction,
    swap_representation_check,
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
    series = correlator_series(setup, source, times, cross_check=True)
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
    series = correlator_series(setup, source, [0, 1, 2, 3], cross_check=True)
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
        sigma2=np.array([0.0]), commutator_norm=np.array([0.0]))
    with pytest.raises(ValueError, match="chain"):
        series.validate()
    series = CorrelatorSeries(
        times=np.array([0.0]), g2=np.array([0.5]), g4=np.array([0.4]),
        sigma2=np.array([0.15]), commutator_norm=np.array([0.3]))
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


@pytest.mark.parametrize("case", range(6))
def test_series_matches_dense_evolution_oracle(case):
    setup, source, times = oracle_cases()[case]
    series = correlator_series(setup, source, times)
    p_r = tensor_embed(setup, "observable")
    p_rho = tensor_embed(setup, "core")
    for i, t in enumerate(times):
        p_t = conjugate(p_rho, evolve(source, t))
        delta = p_r.entries @ p_t.entries - p_t.entries @ p_r.entries
        comm = np.sum(np.abs(delta) ** 2) / (2.0 * setup.d_eta)
        assert abs(series.g2[i] - correlator_trace(p_r, p_t, 1)) <= 1e-12
        assert abs(series.g4[i] - correlator_trace(p_r, p_t, 2)) <= 1e-12
        assert abs(series.commutator_norm[i] - comm) <= 1e-12


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


def test_haar_columns_are_the_leading_columns_of_the_full_draw():
    for dim, m in ((1, 1), (64, 64), (256, 16), (100, 7)):
        full = sample_haar_unitary(dim, seed=dim)
        assert np.array_equal(full, _haar_columns(dim, dim, np.random.default_rng(dim)))
        np.testing.assert_allclose(_haar_columns(dim, m, np.random.default_rng(dim)),
                                   full[:, :m], rtol=0, atol=1e-12)


def test_series_cross_check_raises_value_error(monkeypatch):
    monkeypatch.setattr(dynamics, "correlator_from_angles", lambda geom, n: 2.0)
    source = UnitarySource.haar_cue(16, seed=0)
    with pytest.raises(ValueError, match="cross-check"):
        correlator_series(default_setup(4, 1, 2), source, [1], cross_check=True)


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
