"""End-to-end acceptance checks: reference numbers, zero-violation bound
sweeps, and concentration envelopes at the largest desk-scale dimensions.

Each test pins one externally meaningful guarantee of the package.  The
tolerances and sample counts are part of the contract: do not loosen them
to make a failing run pass.
"""

import math

import numpy as np

from _dense import (
    dense_embed,
    dense_evolved_core,
    gue_hamiltonian,
    hamiltonian_source,
    swap_representation_check,
    to_eigenbasis,
    two_point_operators,
    weighted_autocorrelator,
    weighted_correlator,
)
from otoc_thermalize.dynamics import correlator_series, typicality_experiment
from otoc_thermalize.geometry import (
    angle_variance,
    correlator_from_angles,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    Projector,
    UnitarySource,
    derive_rng,
    sample_haar_unitary,
)
from otoc_thermalize.predictor import (
    WindowPair,
    fourth_order_negative_demo,
    synopsis_bound,
    theorem_bound,
)
from otoc_thermalize.thermalization import (
    core_sizing,
    empirical_nonthermal_fraction,
    nonthermal_witness_bound,
    thermalization_report,
)

BOUND_SLACK = 1e-9
SWAP_TOL = 1e-10


def _product_setup(n, n_s, n_sigma):
    """Qubit register with all-|0> observed and core states."""
    chi = np.zeros(2**n_s)
    chi[0] = 1.0
    psi = np.zeros(2**n_sigma)
    psi[0] = 1.0
    return ManyBodySetup(n, n_s, n_sigma, chi, psi)


def _random_pair(dim, rng):
    """A Haar-random projector pair with ranks drawn uniformly from 1..dim-1."""
    rank_r = int(rng.integers(1, dim))
    rank_rho = int(rng.integers(1, dim))
    u = sample_haar_unitary(dim, rng=rng)
    v = sample_haar_unitary(dim, rng=rng)
    p_r = Projector(u[:, :rank_r])
    p_rho = Projector(v[:, :rank_rho])
    return p_r, p_rho


def _normal_form_pair(dim, angles, rng=None):
    """Projector pair built directly from a prescribed principal-angle list.

    P_R spans the first k coordinate axes; P_rho spans cos(t_j) e_j +
    sin(t_j) e_{k+j}, which realises exactly the requested angles.  An
    optional Haar conjugation hides the coordinate structure.
    """
    angles = np.asarray(angles, dtype=float)
    k = angles.size
    if dim < 2 * k:
        raise ValueError("dimension too small for the requested angle count")
    p_r = Projector.coordinate(dim, k)
    basis = np.zeros((dim, k))
    for j, theta in enumerate(angles):
        basis[j, j] = math.cos(theta)
        basis[k + j, j] = math.sin(theta)
    p_rho = Projector(basis)
    if rng is not None:
        u = sample_haar_unitary(dim, rng=rng)
        p_r = Projector(u @ p_r.basis)
        p_rho = Projector(u @ p_rho.basis)
    return p_r, p_rho


def test_trace_and_angle_correlators_agree_on_random_pairs():
    # 200 Haar pairs across dimensions 8..64, all moments n = 1..4: the
    # trace evaluation and the principal-angle evaluation are the same
    # number to 1e-9.
    rng = derive_rng(1201, "trace-vs-angles")
    dims = [8, 16, 32, 64]
    checked = 0
    for i in range(200):
        dim = dims[i % len(dims)]
        p_r, p_rho = _random_pair(dim, rng)
        geom = halmos_decompose(p_r, p_rho)
        for n in (1, 2, 3, 4):
            via_trace = correlator_trace(geom, n)
            via_angles = correlator_from_angles(geom, n)
            assert abs(via_trace - via_angles) <= 1e-9, (
                f"moment n={n} disagrees at dim {dim}: "
                f"{via_trace!r} vs {via_angles!r}"
            )
            checked += 1
    assert checked == 800


def test_fraction_and_dimension_bounds_hold_with_zero_violations():
    # 100 random instances, each probed in the principal-axes basis and 20
    # Haar-rotated bases, across four thresholds: the variance bound on the
    # non-thermal fraction and the thermal-dimension floor are never
    # violated beyond 1e-9.
    rng = derive_rng(1202, "bound-sweep")
    plan = [64] * 40 + [128] * 40 + [256] * 20
    lambdas = (0.05, 0.1, 0.2, 0.5)
    violations = 0
    instances = 0
    for dim in plan:
        p_r, p_rho = _random_pair(dim, rng)
        instances += 1
        sigma2 = angle_variance(halmos_decompose(p_r, p_rho))
        d_rho = p_rho.rank
        for lam in lambdas:
            rep = thermalization_report(
                p_r, p_rho, lam, n_bases=20, seed=rng
            )
            raw_f_bound = (3.0 / lam) * (sigma2 / 4.0) ** (1.0 / 3.0)
            dim_floor = d_rho * (1.0 - sigma2 / lam**2)
            for f in (rep.worst_basis_f,) + rep.empirical_f:
                if f > raw_f_bound + BOUND_SLACK:
                    violations += 1
            if rep.dim_thermal_achieved < dim_floor - BOUND_SLACK:
                violations += 1
            assert max(rep.worst_basis_f, *rep.empirical_f) <= \
                rep.f_lambda_bound + BOUND_SLACK
            assert rep.dim_thermal_achieved >= rep.dim_thermal_bound - BOUND_SLACK
    assert instances == 100
    assert violations == 0


def test_worst_basis_achieves_witness_floor():
    # For instances whose measured variance exceeds gamma^2, the
    # principal-axes basis exhibits a non-thermal fraction of at least
    # (gamma^2 - lambda^2) / (1 - lambda^2).  Constructed maximal-variance
    # pairs (angles split between 0 and pi/2, sigma^2 = 1/4) and Haar pairs
    # are both covered; zero violations allowed.
    rng = derive_rng(1203, "witness-floor")
    lambdas = (0.05, 0.1, 0.2, 0.4)
    violations = 0

    cases = []
    # maximal-variance constructions: equal numbers of aligned and
    # orthogonal principal axes
    for dim, k in ((32, 8), (64, 16), (128, 32)):
        angles = np.array([0.0] * (k // 2) + [math.pi / 2] * (k - k // 2))
        cases.append(_normal_form_pair(dim, angles, rng=rng))
    # generic Haar instances
    for _ in range(30):
        dim = int(rng.choice([32, 64, 128]))
        cases.append(_random_pair(dim, rng))

    for p_r, p_rho in cases:
        geom = halmos_decompose(p_r, p_rho)
        g2 = correlator_from_angles(geom, 1)
        gamma2 = angle_variance(geom)  # use the measured variance
        basis = np.eye(geom.d_rho)
        for lam in lambdas:
            if lam**2 >= gamma2:
                continue  # witness floor is non-positive: nothing to check
            floor = nonthermal_witness_bound(gamma2, lam)
            f = empirical_nonthermal_fraction(geom.cos2, basis, g2, lam)
            if f < floor - BOUND_SLACK:
                violations += 1
    assert violations == 0


def test_haar_typicality_reference_statistics():
    # 500 Haar samples at dim 256 with a 2-dimensional observable algebra
    # and a 16-dimensional core: the sample mean of G2 sits within 4
    # standard errors of 1/2 (using the exact variance 15/((256^2-1)*4)),
    # the sample mean of G4 within 4 standard errors of the Weingarten
    # value, and the mean variance within 20% of 1/64.
    n_samples = 500
    result = typicality_experiment(256, 2, 16, n_samples, seed=1204)
    pred = result.prediction

    exact_var_g2 = 15.0 / ((256**2 - 1) * 4)
    assert abs(pred.var_g2 - exact_var_g2) <= 1e-18
    se_g2 = math.sqrt(exact_var_g2 / n_samples)
    assert abs(result.mean_g2 - 0.5) <= 4 * se_g2

    se_g4 = math.sqrt(result.samples_g4.var(ddof=1) / n_samples)
    assert abs(result.mean_g4 - pred.mean_g4) <= 4 * se_g4

    assert abs(pred.sigma2_typ - 1.0 / 64.0) <= 1e-18
    assert abs(result.mean_sigma2 - 1.0 / 64.0) <= 0.2 / 64.0

    assert all(c.ok for c in result.checks.values())


def test_concentration_envelope_at_large_dimension():
    # 300 Haar samples at dim 1024: at most 1% of the samples fall outside
    # three fluctuation scales of the mean, for both the second and fourth
    # moments.  (Each sample draws and thin-QRs only the 1024 x 32
    # Gaussians of the columns it reads: about 1.3 s in all on 2 cores.)
    result = typicality_experiment(1024, 2, 32, 300, seed=1205, kappa=3.0)
    assert result.tail_frac_g2 <= 0.01
    assert result.tail_frac_g4 <= 0.01


def test_core_sizing_reference_rows():
    # Worked sizing points.  At relative threshold 0.1 with target fraction
    # 0.1 on a qubit observable, the core needs 24 qubits and the relative
    # variance threshold is ~1.5e-7.  At absolute threshold 0.1 (relative
    # 0.2 on a qubit observable) with target fraction 0.9, 12 qubits
    # suffice and the absolute variance threshold is 1.08e-4.
    tight = core_sizing(0.1, 0.1, 2)
    assert tight.n_sigma == 24
    assert tight.d_sigma_min == 13_500_000
    expected_rel = 4.0 * (0.1 * 0.1 / 3.0) ** 3
    assert abs(tight.sigma2_threshold_rel - expected_rel) <= 1e-21
    assert 1e-7 <= tight.sigma2_threshold_rel < 2e-7

    loose = core_sizing(0.2, 0.9, 2)
    assert loose.lambda_abs == 0.1
    assert loose.n_sigma == 12
    assert loose.d_sigma_min == 2315
    assert abs(loose.sigma2_threshold_abs - 1.08e-4) <= 1e-19


def test_window_bounds_sound_for_gue_ensemble():
    # 20 GUE Hamiltonians at dim 128, 10 window placements each: the
    # weighted cross-correlator never exceeds the auto-to-cross bound, the
    # normalised version never exceeds the synopsis bound, and the
    # canonical window constants match sinc^2(xi) and T_obs/(xi*T) to 1e-9.
    setup = _product_setup(7, 1, 4)
    dim = setup.dim
    assert dim == 128
    d_s, d_sigma = setup.d_s, setup.d_sigma

    # traceless observable-side and core-side operators of the two-point
    # specialisation, with their exact squared Hilbert-Schmidt norms
    a2, b2 = two_point_operators(setup)
    norm_a = (d_s - 1.0) / d_s**2
    norm_b = d_sigma - 1.0

    t_horizon = 150.0
    t_obs = 2.0
    violations = 0
    for i in range(20):
        h = gue_hamiltonian(dim, rng=derive_rng(1207, "window-gue", i))
        evals, evecs = np.linalg.eigh(h)
        a_eig = to_eigenbasis(evecs, a2)
        b_eig = to_eigenbasis(evecs, b2)
        for k in range(10):
            xi = math.pi / 2 if k % 2 == 0 else 1.0
            pair = WindowPair(k * t_obs, t_horizon, t_obs, xi=xi)
            assert abs(pair.W - math.sin(xi) ** 2 / xi**2) <= 1e-9
            assert abs(pair.w0 - t_obs / (xi * t_horizon)) <= 1e-9

            # clamp tiny negative roundoff in the (mathematically
            # nonnegative) weighted autocorrelator
            auto = max(
                0.0, weighted_autocorrelator(evals, a_eig, pair)
            )
            lhs = abs(weighted_correlator(evals, a_eig, b_eig, pair))
            rhs = theorem_bound(auto, norm_a, norm_b, pair)
            if lhs > rhs + BOUND_SLACK:
                violations += 1

            lhs_unit = lhs / math.sqrt(norm_a * norm_b)
            rhs_unit = synopsis_bound(auto / norm_a, pair)
            if lhs_unit > rhs_unit + BOUND_SLACK:
                violations += 1
    assert violations == 0


def test_series_chain_and_commutator_identity():
    # Every correlator series satisfies G2 >= G4 >= (G2)^2 and the gap
    # G2 - G4 equals the normalised commutator Frobenius norm to 1e-9,
    # including the commuting t=0 point where both sides vanish.
    gue_setup = _product_setup(6, 1, 3)
    cases = [
        (
            gue_setup,
            *hamiltonian_source(
                gue_hamiltonian(64, rng=derive_rng(1208, "chain-gue")), gue_setup
            ),
            np.linspace(0.0, 8.0, 17),
        ),
        (
            _product_setup(8, 1, 4),
            UnitarySource.haar_cue(256, seed=12081),
            None,
            np.arange(0, 6),
        ),
        (
            _product_setup(8, 1, 4),
            UnitarySource.circuit(8, seed=12082),
            None,
            np.arange(0, 6),
        ),
    ]
    for setup, source, vecs, times in cases:
        series = correlator_series(setup, source, times)
        # the angle route on dense projectors agrees with the series to 1e-9
        p_r = dense_embed(setup, "observable")
        for i, t in enumerate(times):
            p_t = Projector(dense_evolved_core(setup, source, t, vecs))
            geom = halmos_decompose(p_r, p_t)
            assert np.max(np.abs(series.cos2[i] - np.sort(geom.cos2))) <= 1e-9
            assert abs(correlator_from_angles(geom, 1) - series.g2[i]) <= 1e-9
            assert abs(correlator_from_angles(geom, 2) - series.g4[i]) <= 1e-9
        assert np.all(series.g2 >= series.g4 - 1e-9)
        assert np.all(series.g4 >= series.g2**2 - 1e-9)
        gap = series.g2 - series.g4
        assert np.max(np.abs(gap - series.commutator_norm)) <= 1e-9
        # t = 0: the observable projector commutes with the initial-state
        # projector (the core factors through the observed site), so the
        # gap and the commutator norm are both zero.
        assert times[0] == 0
        assert series.commutator_norm[0] <= 1e-9
        assert gap[0] <= 1e-9


def test_swap_representation_gap_small_on_random_pairs():
    # The doubled-space swap evaluation of G4 agrees with the direct trace
    # to 1e-10 on 50 random pairs up to dim 128.
    rng = derive_rng(1209, "swap-gap")
    dims = [8, 16, 32, 64, 128]
    for i in range(50):
        dim = dims[i % len(dims)]
        p_r, p_rho = _random_pair(dim, rng)
        lhs, rhs, gap = swap_representation_check(p_r, p_rho)
        assert gap <= SWAP_TOL, f"swap gap {gap!r} at dim {dim}"
        assert abs(lhs - rhs) <= SWAP_TOL


def test_fourth_order_premise_fails_at_reference_size():
    # At dim 256 with a 16-dimensional core, the measured fourth-order
    # fluctuation strength exceeds the 1/D_R^2 premise threshold: the
    # scaling premise behind the naive fourth-order argument cannot be
    # satisfied, and the report says so.
    report = fourth_order_negative_demo(256, 2, 16, n_samples=200, seed=1210)
    d_r = 256 // 2
    assert report.threshold == 1.0 / d_r**2
    assert report.measured_rms > report.threshold
    assert report.verdict == "premise unsatisfiable"
