"""Tests for correlator time series, Haar predictions, and the swap check."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from _dense import (
    completed_eigenbasis,
    dense_correlator_trace,
    dense_embed,
    dense_matrix,
    dense_unitary,
    gue_hamiltonian,
    hamiltonian_source,
    swap_representation_check,
)
from otoc_thermalize import dynamics, hilbert
from otoc_thermalize.geometry import (
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.hilbert import (
    Eigenframe,
    ManyBodySetup,
    Projector,
    UnitarySource,
    derive_rng,
    embed_isometry,
    evolve_basis_series,
    sample_haar_unitary,
)
from otoc_thermalize.thermalization import thermal_axes
from otoc_thermalize.dynamics import (
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


def assert_angle_route_agrees(setup, source, times, series, vecs=None, tol=SERIES_TOL):
    """Dense oracle: halmos_decompose of P_R and P_t at every time.

    The sorted cos^2 spectrum, and G^2 and G^4 through the angle route, must
    match the series to ``tol``. ``vecs`` is an eigenframe source's eigenbasis.
    """
    p_r = dense_embed(setup, "observable")
    k = embed_isometry(setup, "core")
    for i, t in enumerate(times):
        geom = halmos_decompose(p_r, Projector(dense_unitary(source, t, vecs) @ k))
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
    setup = default_setup(2, 1, 1)
    source, vecs = hamiltonian_source(swap, setup)
    times = np.linspace(0.0, 3.0, 13)
    series = correlator_series(setup, source, times)
    assert_angle_route_agrees(setup, source, times, series, vecs)
    g2_ref = (1.0 + np.cos(times) ** 2) / 2.0
    g4_ref = (1.0 + np.cos(times) ** 4) / 2.0
    np.testing.assert_allclose(series.g2, g2_ref, atol=SERIES_TOL)
    np.testing.assert_allclose(series.g4, g4_ref, atol=SERIES_TOL)


def test_series_commuting_at_time_zero():
    # S inside sigma with product states: the projectors commute at t = 0
    setup = default_setup(6, 1, 3)
    source, _ = hamiltonian_source(np.diag(np.linspace(-1.0, 1.0, 64)), setup)
    series = correlator_series(setup, source, [0.0])
    assert series.commutator_norm[0] <= SERIES_TOL
    assert abs(series.g2[0] - series.g4[0]) <= SERIES_TOL


def test_series_validates_chain_and_commutator_identity():
    setup = default_setup(6, 2, 3)
    source = UnitarySource.haar_cue(64, seed=11)
    series = correlator_series(setup, source, [0, 1, 2, 3])
    assert_angle_route_agrees(setup, source, [0, 1, 2, 3], series)
    assert np.all(series.g4 <= series.g2 + SERIES_TOL)
    assert np.all(series.g2 ** 2 <= series.g4 + SERIES_TOL)
    gap = np.abs(series.g2 - series.g4 - series.commutator_norm)
    assert np.all(gap <= SERIES_TOL)
    assert np.all(series.sigma2 >= 0.0)
    assert np.all(series.g2 <= 1.0 + 1e-12)


def test_series_haar_cue_saturates_to_typical_variance():
    setup = default_setup(10, 1, 5)
    source = UnitarySource.haar_cue(1024, seed=4)
    series = correlator_series(setup, source, [1])
    pred = haar_prediction(1024, 2, 32)
    assert abs(series.sigma2[0] - pred.sigma2_typ) <= 10.0 * pred.fluctuation_scale(4)


def test_gue_eigen_law_series_matches_the_dense_gue_stat():
    # [stat] a GUE source drawn as its spectrum and thin Haar eigenframe against
    # the dense H + eigh route: the means and variances of G2, G4 and sigma2
    # at t = 1 and 3 agree within 4 standard errors of their difference
    setup, n, times = default_setup(5, 1, 2), 2000, [1.0, 3.0]

    def moments(source):
        series = correlator_series(setup, source, times)
        return np.stack([series.g2, series.g4, series.sigma2])

    law = np.array([moments(Eigenframe.gue(setup, derive_rng(17, "law", i)))
                    for i in range(n)])
    dense = np.array([moments(hamiltonian_source(
        gue_hamiltonian(32, rng=derive_rng(17, "dense", i)), setup)[0]) for i in range(n)])

    def var_of_var(x):
        centred = x - x.mean(axis=0)
        return (np.mean(centred ** 4, axis=0) - np.mean(centred ** 2, axis=0) ** 2) / n

    var_law, var_dense = law.var(axis=0, ddof=1), dense.var(axis=0, ddof=1)
    mean_gap = np.abs(law.mean(axis=0) - dense.mean(axis=0))
    assert np.all(mean_gap <= 4 * np.sqrt((var_law + var_dense) / n))
    var_gap = np.abs(var_law - var_dense)
    assert np.all(var_gap <= 4 * np.sqrt(var_of_var(law) + var_of_var(dense)))


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


def spread_setup():
    """D = 128 with non-leading sites and an entangled core state: the core
    basis has support on the last row, so CUE takes the full-support path."""
    return ManyBodySetup(7, 1, 3, np.array([0.6, 0.8]),
                         sample_haar_unitary(8, seed=31, columns=1),
                         observed_sites=(5,), core_sites=(6, 2, 5))


def hamiltonian_case(setup, seed, times):
    """(setup, source, times, V) for a dense GUE H read in its eigenframe."""
    source, vecs = hamiltonian_source(gue_hamiltonian(setup.dim, seed=seed), setup)
    return setup, source, times, vecs


def oracle_cases():
    """(setup, source, times, V) for every source kind, D = 64..256; V is the
    eigenbasis of a Hamiltonian and None for the others."""
    return [
        hamiltonian_case(default_setup(6, 1, 3), 41, [0.0, 0.7, 2.5]),
        hamiltonian_case(nested_setup(), 42, [0.0, 1.3]),
        (default_setup(8, 1, 4), UnitarySource.haar_cue(256, seed=43), [0, 1, 3], None),
        (spread_setup(), UnitarySource.haar_cue(128, seed=44), [0, 2], None),
        (default_setup(8, 2, 4), UnitarySource.circuit(8, seed=45), [0, 1, 4], None),
        (spread_setup(), UnitarySource.circuit(7, seed=46), [0, 3], None),
    ]


def test_spread_setup_core_basis_has_full_support():
    assert np.any(embed_isometry(spread_setup(), "core")[-1] != 0)


def entangled_pair_setup():
    """D = 128 with an entangled two-site |chi> on out-of-order, non-leading
    observed sites, nested inside a spread core."""
    return ManyBodySetup(7, 2, 3, sample_haar_unitary(4, seed=32, columns=1),
                         sample_haar_unitary(8, seed=33, columns=1),
                         observed_sites=(4, 1), core_sites=(1, 6, 4))


def series_cases():
    """oracle_cases plus D_eta = 1 (N_sigma = N) and N_S = N_sigma splits and
    an entangled |chi> on out-of-order sites, each for every source kind."""
    return oracle_cases() + [
        hamiltonian_case(default_setup(6, 1, 6), 47, [0.0, 0.9]),
        (default_setup(6, 3, 6), UnitarySource.haar_cue(64, seed=48), [0, 2], None),
        (default_setup(6, 2, 2), UnitarySource.circuit(6, seed=49), [0, 1, 3], None),
        hamiltonian_case(default_setup(6, 3, 3), 50, [0.0, 1.7]),
        (default_setup(6, 2, 6), UnitarySource.circuit(6, seed=59), [0, 1, 4], None),
        (default_setup(6, 2, 2), UnitarySource.haar_cue(64, seed=61), [0, 3], None),
        hamiltonian_case(nested_setup(), 54, [0.0, 0.8]),
        (entangled_pair_setup(), UnitarySource.haar_cue(128, seed=55), [0, 1, 2], None),
        (entangled_pair_setup(), UnitarySource.circuit(7, seed=56), [0, 2, 5], None),
    ]


def assert_dense_route_agrees(setup, source, times, series, vecs=None):
    """Dense oracle: G^2, G^4 by the dense trace and the angle route, and the
    commutator norm from the dense D x D commutator, each to 1e-12."""
    p_r = dense_embed(setup, "observable")
    p_rho = dense_embed(setup, "core")
    for i, t in enumerate(times):
        p_t = Projector(dense_unitary(source, t, vecs) @ p_rho.basis)
        r, pt = dense_matrix(p_r), dense_matrix(p_t)
        comm = np.sum(np.abs(r @ pt - pt @ r) ** 2) / (2.0 * setup.d_rho)
        geom = halmos_decompose(p_r, p_t)
        for n, g in ((1, series.g2[i]), (2, series.g4[i])):
            assert abs(g - dense_correlator_trace(p_r, p_t, n)) <= 1e-12
            assert abs(g - correlator_trace(geom, n)) <= 1e-12
        assert abs(series.commutator_norm[i] - comm) <= 1e-12


@pytest.mark.parametrize("case", range(15))
def test_series_matches_dense_evolution_oracle(case):
    setup, source, times, vecs = series_cases()[case]
    assert_dense_route_agrees(setup, source, times,
                              correlator_series(setup, source, times), vecs)


def nested_setup():
    """D = 64 with a Haar two-site |chi> on out-of-order observed sites and
    |psi> = |chi> (x) |psi'> on a spread core, so ran(P_rho) lies in ran(P_R)."""
    chi = sample_haar_unitary(4, seed=34, columns=1)[:, 0]
    rest = sample_haar_unitary(2, seed=35, columns=1)[:, 0]
    return ManyBodySetup(6, 2, 3, chi, np.kron(chi, rest),
                         observed_sites=(4, 1), core_sites=(4, 1, 5))


@pytest.mark.parametrize("setup", [default_setup(6, 1, 3), nested_setup()],
                         ids=["default", "nested"])
def test_gue_eigenframe_series_matches_the_completed_dense_hamiltonian(setup):
    # the thin frame W = V^dag L, completed to a unitary V^dag, gives a dense
    # H = V diag(E) V^dag; the register-frame dense route on that H, through
    # its own eigh, reproduces the eigenframe series
    times = [0.0, 0.7, 2.5]
    source = Eigenframe.gue(setup, derive_rng(18, "frame"))
    vecs = completed_eigenbasis(setup, source)
    for which, basis in (("observable", source.w), ("core", source.y)):
        np.testing.assert_allclose(vecs.conj().T @ embed_isometry(setup, which),
                                   basis, rtol=0, atol=1e-12)
    dense, dense_vecs = hamiltonian_source((vecs * source.evals) @ vecs.conj().T, setup)
    series = correlator_series(setup, source, times)
    assert_dense_route_agrees(setup, dense, times, series, dense_vecs)
    assert_angle_route_agrees(setup, dense, times, series, dense_vecs, tol=1e-12)


def test_gue_source_needs_the_core_inside_the_observable_range():
    # |psi> is no |chi> (x) |psi'>, so L^dag K is no isometry and Y = W L^dag K
    # would not be V^dag K
    setup = entangled_pair_setup()
    with pytest.raises(ValueError, match="core range inside the observable's"):
        Eigenframe.gue(setup, derive_rng(19, "frame"))
    # a frame drawn for another observable or core rank is refused by the series
    for other in (default_setup(7, 1, 3), default_setup(7, 2, 4)):
        source = Eigenframe.gue(other, derive_rng(19, "frame"))
        with pytest.raises(ValueError, match="eigenframe bases have shapes"):
            correlator_series(default_setup(7, 2, 3), source, [0.0])


@pytest.mark.parametrize("source, times", [
    (hamiltonian_source(gue_hamiltonian(64, seed=63), default_setup(6, 1, 3))[0],
     [1.5, 3.0]),
    (UnitarySource.haar_cue(64, seed=64), [1, 2]),
    (UnitarySource.circuit(6, seed=65), [4, 6]),
])
def test_commutator_norm_reads_the_residual(monkeypatch, source, times):
    # a basis scaled by 1.01 keeps the chain G2 >= G4 >= G2^2 at these
    # scrambled times but is no isometry; R^dag R = 1 - m would hide that,
    # and the commutator identity would hold. A Hamiltonian's core basis is
    # scaled in its eigenframe, as Y
    if isinstance(source, Eigenframe):
        source = dataclasses.replace(source, y=1.01 * source.y)
    else:
        evolve_series = dynamics.evolve_basis_series
        monkeypatch.setattr(dynamics, "evolve_basis_series", lambda *a: (
            1.01 * kt for kt in evolve_series(*a)))
    series = correlator_series(default_setup(6, 1, 3), source, times)
    assert np.all(series.g4 <= series.g2)
    assert np.all(np.abs(series.g2 - series.g4 - series.commutator_norm) > SERIES_TOL)


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
    assert peak < 12 * setup.dim * setup.d_rho * 16


def test_gue_series_peak_memory_scales_with_the_observable_frame():
    # a GUE source draws the thin D x D_R frame, not the D x D eigenbasis: the
    # n = 9 peak stays within 5 D x D_R blocks, where the full draw needs 8
    setup = default_setup(9, 1, 4)
    tracemalloc.start()
    try:
        source = Eigenframe.gue(setup, derive_rng(20, "frame"))
        correlator_series(setup, source, range(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * setup.dim * setup.d_r * 16


@pytest.mark.parametrize("case", range(15))
def test_series_cos2_matches_dense_decomposition(case):
    setup, source, times, vecs = series_cases()[case]
    series = correlator_series(setup, source, times)
    assert series.cos2.shape == (len(times), setup.d_rho)
    assert np.all(np.diff(series.cos2, axis=1) >= 0)
    assert_angle_route_agrees(setup, source, times, series, vecs, tol=1e-12)


@pytest.mark.parametrize("split", [(6, 1, 3), (6, 1, 6), (6, 3, 3), (6, 2, 2)])
def test_time_zero_angles_vanish_and_every_axis_is_thermal(split):
    # the core contains the observed qubits, so ran(P_rho) lies in ran(P_R)
    setup = default_setup(*split)
    for source in (hamiltonian_source(gue_hamiltonian(64, seed=51), setup)[0],
                   UnitarySource.haar_cue(64, seed=52),
                   UnitarySource.circuit(6, seed=53)):
        series = correlator_series(setup, source, [0])
        np.testing.assert_allclose(series.cos2[0], 1.0, rtol=0, atol=1e-12)
        for lam in (1e-9, 0.05, 0.5):
            assert np.count_nonzero(thermal_axes(series.cos2[0], lam)) == setup.d_rho


@pytest.mark.parametrize("case", range(6))
def test_evolve_basis_matches_dense_unitary(case):
    # a Hamiltonian evolves in its eigenframe, U(t) K = V exp(-iEt) Y, so its
    # Y = V^dag K is held against the dense unitary
    setup, source, times, vecs = oracle_cases()[case]
    k = embed_isometry(setup, "core")
    for t in times:
        kt = (vecs @ (np.exp(-1j * t * source.evals)[:, None] * source.y)
              if isinstance(source, Eigenframe)
              else next(evolve_basis_series(source, k, [t])))
        np.testing.assert_allclose(kt, dense_unitary(source, t, vecs) @ k,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", range(6))
def test_evolve_basis_series_matches_evolve_basis(case):
    setup, source, times, _ = oracle_cases()[case]
    k = embed_isometry(setup, "core")
    # ascending, repeated, ascending again, then back to an earlier time; each
    # block must equal a one-time series started afresh from K
    grid = list(times) + [times[-1], times[-1] + 2, times[0] + 1]
    if isinstance(source, Eigenframe):
        # no block is evolved: each time of a series over the grid equals a
        # one-time series
        series = correlator_series(setup, source, grid)
        for i, t in enumerate(grid):
            one = correlator_series(setup, source, [t])
            for name in ("g2", "g4", "commutator_norm", "cos2"):
                np.testing.assert_allclose(getattr(series, name)[i],
                                           getattr(one, name)[0], rtol=0, atol=1e-12)
        return
    for t, kt in zip(grid, evolve_basis_series(source, k, grid), strict=True):
        np.testing.assert_allclose(kt, next(evolve_basis_series(source, k, [t])),
                                   rtol=0, atol=1e-12)


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
        next(evolve_basis_series(UnitarySource.haar_cue(8, seed=0), np.eye(4), [1]))


# ---------------------------------------------------------------------------
# Typicality Monte Carlo.
# ---------------------------------------------------------------------------

def test_typicality_experiment_matches_predictions():
    result = typicality_experiment(64, 2, 8, n_samples=1000, seed=17)
    pred = result.prediction
    se = np.sqrt(pred.var_g2 / 1000)
    assert abs(result.mean_g2 - 0.5) <= 4.0 * se
    checks = result.checks
    assert checks["mean_g2"].ok and checks["mean_g4"].ok
    assert checks["var_g2"].ok  # empirical variance within factor 2
    assert checks["tails"].ok
    assert all(c.ok for c in checks.values())


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


def test_typicality_holds_no_dim_sized_array():
    # D = 2**20 with D_rho = 8: one D x D_rho Haar draw would be 128 MiB
    tracemalloc.start()
    try:
        result = typicality_experiment(2 ** 20, 2, 2 ** 17, n_samples=50, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert all(check.ok for check in result.checks.values())


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
    p_r = Projector(e[:, :3])
    p_rho = Projector(e[:, 3:5])
    lhs, rhs, gap = swap_representation_check(p_r, p_rho)
    assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


def test_swap_check_random_pairs_agree():
    rng = np.random.default_rng(23)
    for dim in (8, 32, 128):
        u = sample_haar_unitary(dim, rng=rng)
        v = sample_haar_unitary(dim, rng=rng)
        p_r = Projector(u[:, :dim // 2])
        p_rho = Projector(v[:, :dim // 4])
        lhs, rhs, gap = swap_representation_check(p_r, p_rho)
        assert gap <= 1e-10


def test_swap_check_rejects_oversized_dimension():
    p = Projector.coordinate(256, 8)
    with pytest.raises(ValueError, match="cap"):
        swap_representation_check(p, p)
