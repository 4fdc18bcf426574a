"""Time series of the correlators and Haar-typicality statistics.

``correlator_series`` evaluates G^2(t), G^4(t), sigma^2(t) and the normalized
commutator norm for a many-body setup under a unitary source. It evolves only
the D x D_eta core basis K (``evolve_basis_series``), never the full unitary:
G^2 and G^4 come from the D_eta x D_eta Gram matrix of the cross-Gram
L^dag K_t, and the commutator norm from the residual (1 - P_R) K_t in C^D,
through
||[P_R, P_t]||_F^2 = 2 ||(1 - P_R) P_t P_R||_F^2, independently of G^2 - G^4.
``haar_prediction`` carries the exact Weingarten moments of the correlators
over the Haar measure, and ``typicality_experiment`` tests them by Monte
Carlo. ``swap_representation_check`` evaluates the OTOC a second way, as a
swap-operator expectation on the doubled space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import correlator_from_angles, correlator_trace, halmos_decompose
from .hilbert import (
    DIM_CAP_DEFAULT,
    ManyBodySetup,
    Projector,
    UnitarySource,
    derive_rng,
    embed_isometry,
    evolve_basis_series,
    sample_haar_unitary,
)

#: Float slack for the pointwise inequality chain and the commutator identity.
SERIES_TOL = 1e-9


@dataclass(frozen=True)
class HaarPrediction:
    """Exact moments of G^2 and G^4 over Haar-random evolution.

    For coordinate projectors of ranks D/D_S and D/D_sigma conjugated by a
    Haar unitary, the first two moments follow from Weingarten calculus:

    * mean_g2   = 1/D_S
    * var_g2    = (D_sigma - 1)(D_S - 1) / ((D^2 - 1) D_S^2)
    * mean_g4   = exact second-moment contraction (see ``mean_g4``)
    * sigma2_typ = (1/(D_sigma D_S)) (1 - 1/D_S), the large-D limit of the
      mean angle variance
    * fluctuation_scale(n) = 2n sqrt(2 D_sigma)/D, the concentration scale of
      G^(2n) around its mean
    """

    d: int
    d_s: int
    d_sigma: int

    @property
    def d_r(self) -> int:
        return self.d // self.d_s

    @property
    def d_rho(self) -> int:
        return self.d // self.d_sigma

    @property
    def mean_g2(self) -> float:
        return 1.0 / self.d_s

    @property
    def var_g2(self) -> float:
        return ((self.d_sigma - 1) * (self.d_s - 1)
                / ((self.d ** 2 - 1) * self.d_s ** 2))

    @property
    def mean_g4(self) -> float:
        # Second Haar moment of Tr[(P_R U P_rho U^dag)^2]/D_rho via the
        # rank-2 Weingarten contraction.
        d, d_r, d_rho = self.d, self.d_r, self.d_rho
        num = (d_r * d_rho ** 2 + d_r ** 2 * d_rho
               - (d_r ** 2 * d_rho ** 2 + d_r * d_rho) / d)
        return num / (d_rho * (d ** 2 - 1))

    @property
    def sigma2_typ(self) -> float:
        return (1.0 / (self.d_sigma * self.d_s)) * (1.0 - 1.0 / self.d_s)

    @property
    def mean_sigma2(self) -> float:
        """Exact ensemble mean of sigma^2 = G^4 - (G^2)^2."""
        return self.mean_g4 - (self.var_g2 + self.mean_g2 ** 2)

    def fluctuation_scale(self, n: int) -> float:
        """Concentration scale of G^(2n) fluctuations: 2n sqrt(2 D_sigma)/D."""
        return 2.0 * n * math.sqrt(2.0 * self.d_sigma) / self.d


def haar_prediction(d: int, d_s: int, d_sigma: int) -> HaarPrediction:
    """Exact Haar-moment predictions for the given dimension split."""
    if d < 1 or d_s < 1 or d_sigma < 1:
        raise ValueError("dimensions must be positive")
    if d % d_s != 0 or d % d_sigma != 0:
        raise ValueError(
            f"d_s={d_s} and d_sigma={d_sigma} must both divide d={d}")
    return HaarPrediction(d=d, d_s=d_s, d_sigma=d_sigma)


@dataclass(frozen=True)
class CorrelatorSeries:
    """G^2, G^4, sigma^2 and the normalized commutator norm on a time grid.

    ``commutator_norm`` is ||[P_R, P_psi(t)]||_F^2 / (2 D_eta), which equals
    G^2(t) - G^4(t) identically when the evolved core basis is an isometry;
    both sides are computed independently so the identity is a genuine
    consistency check of unitarity (see ``validate``).
    """

    times: np.ndarray
    g2: np.ndarray
    g4: np.ndarray
    sigma2: np.ndarray
    commutator_norm: np.ndarray

    def validate(self, tol: float = SERIES_TOL) -> None:
        """Check the pointwise chain and the commutator identity; raise on failure."""
        g2, g4 = self.g2, self.g4
        if np.any(g4 > g2 + tol) or np.any(g2 ** 2 > g4 + tol):
            raise ValueError("inequality chain G2 >= G4 >= (G2)^2 violated")
        gap = np.abs((g2 - g4) - self.commutator_norm)
        if np.any(gap > tol):
            raise ValueError(
                f"commutator identity violated: max gap {gap.max():.3e}")


def correlator_series(setup: ManyBodySetup, source: UnitarySource,
                      times: Sequence[float],
                      cross_check: bool = False) -> CorrelatorSeries:
    """Evaluate the correlator series for ``setup`` under ``source``.

    Parameters
    ----------
    setup : ManyBodySetup
        Defines the embedded observable and core projectors.
    source : UnitarySource
        Must act on the same dimension.
    times : sequence of reals
        Explicit evaluation grid (ensemble sources require integer times).
    cross_check : bool
        When True, additionally recompute G^2 and G^4 at every time through
        the principal-angle route and raise ValueError unless they agree to
        1e-9 (slow; intended for verification runs).

    Returns
    -------
    CorrelatorSeries
        Validated (inequality chain and commutator identity enforced).
    """
    if source.dim != setup.dim:
        raise ValueError(
            f"source dimension {source.dim} does not match setup {setup.dim}")
    k = embed_isometry(setup, "core")          # D x D_eta
    l = embed_isometry(setup, "observable")    # D x D_E
    d_eta = setup.d_eta
    times = np.asarray([float(t) for t in times])
    g2 = np.empty(times.shape)
    g4 = np.empty(times.shape)
    comm = np.empty(times.shape)
    evolved = evolve_basis_series(source, k, times)
    for i, (t, kt) in enumerate(zip(times, evolved)):
        c = l.conj().T @ kt
        m = c.conj().T @ c
        g2[i] = np.trace(m).real / d_eta
        g4[i] = np.sum(np.abs(m) ** 2) / d_eta
        # (1 - P_R) P_t P_R = (K_t - L c) c^dag L^dag, and L^dag drops out of
        # the Frobenius norm because L is an isometry
        residual = (kt - l @ c) @ c.conj().T
        comm[i] = np.sum(np.abs(residual) ** 2) / d_eta
        if cross_check:
            geom = halmos_decompose(
                Projector.from_isometry(l), Projector.from_isometry(kt))
            for n, direct in ((1, g2[i]), (2, g4[i])):
                angle_route = correlator_from_angles(geom, n)
                if abs(angle_route - direct) > 1e-9:
                    raise ValueError(
                        f"angle/trace cross-check failed at t={t}, n={n}")
    sigma2 = np.clip(g4 - g2 ** 2, 0.0, None)
    series = CorrelatorSeries(times=times, g2=g2, g4=g4, sigma2=sigma2,
                              commutator_norm=comm)
    series.validate()
    return series


@dataclass(frozen=True)
class TypicalityResult:
    """Monte Carlo statistics of the correlators against Haar predictions."""

    d: int
    d_s: int
    d_sigma: int
    n_samples: int
    kappa: float
    mean_g2: float
    mean_g4: float
    mean_sigma2: float
    sample_var_g2: float
    tail_frac_g2: float
    tail_frac_g4: float
    prediction: HaarPrediction
    mean_g2_ok: bool
    mean_g4_ok: bool
    var_g2_ok: bool
    sigma2_ok: bool
    tails_ok: bool
    samples_g2: Optional[np.ndarray] = None
    samples_g4: Optional[np.ndarray] = None

    @property
    def passed(self) -> bool:
        return (self.mean_g2_ok and self.mean_g4_ok and self.var_g2_ok
                and self.sigma2_ok and self.tails_ok)


def typicality_experiment(d: int, d_s: int, d_sigma: int, n_samples: int,
                          seed=None, kappa: float = 3.0,
                          keep_samples: bool = False) -> TypicalityResult:
    """Sample Haar-conjugated coordinate projectors and test the predictions.

    Tolerances: sample means of G^2 and G^4 within 4 standard errors (the
    exact var_g2 formula for G^2, the sample variance for G^4); the sample
    variance of G^2 within a factor 2 of the formula; the mean sigma^2 within
    20% of sigma2_typ; and at most 1% of samples outside kappa times the
    concentration scale fluctuation_scale(n), n = 1 for G^2 and 2 for G^4.
    With ``keep_samples`` the result also carries the raw per-sample arrays.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    pred = haar_prediction(d, d_s, d_sigma)
    d_r, d_rho = pred.d_r, pred.d_rho
    g2s = np.empty(n_samples)
    g4s = np.empty(n_samples)
    for i in range(n_samples):
        q = sample_haar_unitary(d, rng=derive_rng(seed, "typicality", i))
        c = q[:d_r, :d_rho]
        m = c.conj().T @ c
        g2s[i] = np.trace(m).real / d_rho
        g4s[i] = np.sum(np.abs(m) ** 2) / d_rho
    sigma2s = g4s - g2s ** 2
    se_g2 = math.sqrt(pred.var_g2 / n_samples)
    se_g4 = g4s.std(ddof=1) / math.sqrt(n_samples)
    tail_g2 = float(np.mean(np.abs(g2s - pred.mean_g2)
                            > kappa * pred.fluctuation_scale(1)))
    tail_g4 = float(np.mean(np.abs(g4s - pred.mean_g4)
                            > kappa * pred.fluctuation_scale(2)))
    return TypicalityResult(
        d=d, d_s=d_s, d_sigma=d_sigma, n_samples=n_samples, kappa=kappa,
        mean_g2=float(g2s.mean()), mean_g4=float(g4s.mean()),
        mean_sigma2=float(sigma2s.mean()),
        sample_var_g2=float(g2s.var(ddof=1)),
        tail_frac_g2=tail_g2, tail_frac_g4=tail_g4, prediction=pred,
        mean_g2_ok=bool(abs(g2s.mean() - pred.mean_g2) <= 4 * se_g2),
        mean_g4_ok=bool(abs(g4s.mean() - pred.mean_g4) <= 4 * se_g4),
        var_g2_ok=bool(0.5 <= g2s.var(ddof=1) / pred.var_g2 <= 2.0),
        sigma2_ok=bool(
            abs(sigma2s.mean() - pred.sigma2_typ) <= 0.2 * pred.sigma2_typ),
        tails_ok=bool(tail_g2 <= 0.01 and tail_g4 <= 0.01),
        samples_g2=g2s if keep_samples else None,
        samples_g4=g4s if keep_samples else None,
    )


def swap_representation_check(p_r: Projector, p_rho_t: Projector,
                              dsq_cap: int = DIM_CAP_DEFAULT):
    """Evaluate the OTOC two ways: direct trace vs swap-operator form.

    The swap form is Tr[(P_R (x) P_R) . SWAP . (P (x) P)] / D_rho, contracted
    as the four-tensor network sum_{abcd} R_ab R_cd P_da P_bc without forming
    the direct product matrices. The doubled space squares the dimension, so
    the check requires D^2 <= ``dsq_cap``.

    Returns
    -------
    (lhs, rhs, gap) : floats
        Direct trace, swap form, and |lhs - rhs|.
    """
    d = p_r.dim
    if d * d > dsq_cap:
        raise ValueError(
            f"doubled dimension {d * d} exceeds cap {dsq_cap}")
    lhs = correlator_trace(p_r, p_rho_t, 2)
    r, p = p_r.entries, p_rho_t.entries
    rhs_c = np.einsum("ab,cd,da,bc->", r, r, p, p, optimize=True)
    if abs(rhs_c.imag) > 1e-10 * d:
        raise ValueError("swap-form OTOC was not real")
    rhs = float(np.clip(rhs_c.real / p_rho_t.rank, 0.0, 1.0))
    return lhs, rhs, abs(lhs - rhs)
