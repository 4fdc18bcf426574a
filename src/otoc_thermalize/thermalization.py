"""Thermal-subspace and nonthermal-fraction bounds from the angle variance.

A small variance sigma^2 of the principal-angle distribution forces almost
every state of the reference subspace to carry a near-thermal expectation
value of the observable projector. This module implements the resulting
bounds: the guaranteed dimension of the thermal subspace, the upper bound on
the fraction of nonthermal basis states (valid for *every* orthonormal basis
of the range), the converse variance bound, the witness lower bound achieved
by the principal-axes basis, and the core-sizing arithmetic that turns a
target resolution and fraction into a minimum core dimension. Basis probes
are taken in the principal-axes frame, where P_R on range(P_rho) is diag(cos^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (correlator_from_angles, correlator_trace, halmos_decompose,
                       variance_from_moments)
from .hilbert import InvariantError, Projector, sample_haar_unitary, derive_rng

#: Absolute float slack allowed when checking exact inequalities.
FLOAT_SLACK = 1e-9

#: Tolerance on the orthonormality defect of a supplied basis.
BASIS_TOL = 1e-8

#: |<b|P_R|b> - G^2| within this of lambda is a tie, and a tie is thermal.
#: cos^2 in [0, 1] comes from the singular values of a cross-Gram of norm <= 1,
#: so its roundoff is a few ulp times the rank, about 4e-12 at D = 2**14.
TIE_TOL = 1e-10


def bound_thermal_dimension(sigma2: float, lam: float, d_rho: int) -> float:
    """Guaranteed thermal-subspace dimension, D_rho (1 - sigma^2 / lambda^2).

    Clamped below at 0. ``lam`` is the resolution at which an expectation
    value counts as thermal.
    """
    if lam <= 0:
        raise ValueError(f"resolution lambda must be positive, got {lam}")
    return max(0.0, d_rho * (1.0 - sigma2 / lam ** 2))


def bound_nonthermal_fraction(sigma2: float, lam: float):
    """Upper bound (3/lambda)(sigma^2/4)^(1/3) on the nonthermal fraction.

    Holds for every orthonormal basis of range(P_rho). Returns
    ``(value, vacuous)`` where the value is clamped into [0, 1] and
    ``vacuous`` flags a clamped (> 1) bound.
    """
    if lam <= 0:
        raise ValueError(f"resolution lambda must be positive, got {lam}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    raw = (3.0 / lam) * (sigma2 / 4.0) ** (1.0 / 3.0)
    return min(1.0, raw), raw > 1.0


def thermal_axes(cos2: np.ndarray, lam: float) -> np.ndarray:
    """Mask of the principal cos^2 theta_k within ``lam`` of their mean G^2.

    A boundary tie, to ``TIE_TOL``, counts as thermal.
    """
    if lam <= 0:
        raise ValueError(f"resolution lambda must be positive, got {lam}")
    g2 = float(np.sum(cos2)) / cos2.size
    return np.abs(cos2 - g2) <= lam + TIE_TOL


def empirical_nonthermal_fraction(cos2: np.ndarray, q: np.ndarray,
                                  g2: float, lam: float) -> float | np.ndarray:
    """Measured fraction of probe states with |<b|P_R|b> - G^2| > lambda.

    ``q`` (d_rho x n) holds a basis of range(P_rho) in the principal axes, so
    state j has <b|P_R|b> = sum_k cos2_k |q_kj|^2; ``q = 1`` is the
    principal-axes basis. The inequality is strict and ``TIE_TOL`` wide, so
    boundary ties count as thermal, as in ``thermal_axes``. The columns of
    ``q`` must be orthonormal (checked; InvariantError otherwise). A stack ``q`` of
    shape (s, d_rho, n) is scored in one pass and gives an array of s
    fractions; a single basis gives a float.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim not in (2, 3) or q.shape[-2] != cos2.size:
        raise ValueError(f"basis shape {q.shape} incompatible with d_rho {cos2.size}")
    n = q.shape[-1]
    if n < 1:
        raise ValueError("basis must contain at least one column")
    defect = np.linalg.norm(q.conj().swapaxes(-1, -2) @ q - np.eye(n), axis=(-2, -1))
    if not np.all(defect <= BASIS_TOL):
        raise InvariantError(f"basis not orthonormal: defect {np.max(defect):.3e}")
    expect = cos2 @ np.abs(q) ** 2
    fractions = np.count_nonzero(np.abs(expect - g2) > lam + TIE_TOL, axis=-1) / n
    return float(fractions) if q.ndim == 2 else fractions


def converse_variance_bound(lam: float, f_max: float) -> float:
    """Converse bound sigma^2 <= lambda^2 + (1 - lambda^2) f_max."""
    if not 0 <= lam < 1:
        raise ValueError(f"lambda must be in [0, 1), got {lam}")
    if not 0 <= f_max <= 1:
        raise ValueError(f"f_max must be in [0, 1], got {f_max}")
    return lam ** 2 + (1.0 - lam ** 2) * f_max


def nonthermal_witness_bound(gamma2: float, lam: float) -> float:
    """Lower bound (gamma^2 - lambda^2)/(1 - lambda^2) on the worst-basis fraction.

    Whenever sigma^2 >= gamma^2, the principal-axes basis must contain at
    least this fraction of nonthermal states.
    """
    if not 0 <= lam < 1:
        raise ValueError(f"lambda must be in [0, 1), got {lam}")
    return max(0.0, (gamma2 - lam ** 2) / (1.0 - lam ** 2))


@dataclass(frozen=True)
class SizingRow:
    """Minimum core size for a target relative resolution and fraction."""

    lambda_rel: float
    f_target: float
    d_s: int
    lambda_abs: float
    d_sigma_min: int
    n_sigma: int
    sigma2_threshold_rel: float
    sigma2_threshold_abs: float


def core_sizing(lambda_rel: float, f_target: float, d_s: int) -> SizingRow:
    """Minimum core dimension D_sigma >= (D_S(D_S-1)/4) (3/(lambda_rel f))^3.

    ``lambda_rel`` is the resolution relative to the thermal value 1/D_S;
    the absolute resolution is lambda_rel / D_S. The returned row carries the
    ceiling of the formula, the qubit count ceil(log2 D_sigma), and the
    variance thresholds 4 (f lambda / 3)^3 in both the relative and absolute
    lambda conventions.
    """
    if lambda_rel <= 0:
        raise ValueError(f"lambda_rel must be positive, got {lambda_rel}")
    if not 0 < f_target <= 1:
        raise ValueError(f"f_target must be in (0, 1], got {f_target}")
    if d_s < 2:
        raise ValueError(f"d_s must be >= 2, got {d_s}")
    v = (d_s * (d_s - 1) / 4.0) * (3.0 / (lambda_rel * f_target)) ** 3
    # snap values a hair above an integer back down before the ceiling
    d_sigma_min = max(1, math.ceil(v * (1.0 - 1e-12)))
    n_sigma = (d_sigma_min - 1).bit_length() if d_sigma_min > 1 else 0
    lambda_abs = lambda_rel / d_s
    return SizingRow(
        lambda_rel=lambda_rel,
        f_target=f_target,
        d_s=d_s,
        lambda_abs=lambda_abs,
        d_sigma_min=d_sigma_min,
        n_sigma=n_sigma,
        sigma2_threshold_rel=4.0 * (f_target * lambda_rel / 3.0) ** 3,
        sigma2_threshold_abs=4.0 * (f_target * lambda_abs / 3.0) ** 3,
    )


@dataclass(frozen=True)
class ThermalizationReport:
    """Bounds and empirical fractions for one projector pair at one lambda."""

    g2: float
    g4: float
    sigma2: float
    lam: float
    dim_thermal_bound: float
    dim_thermal_achieved: int
    f_lambda_bound: float
    worst_basis_f: float
    empirical_f: Sequence[float]
    converse_bound: float

    def sound(self) -> bool:
        """True when every measured fraction respects the bounds to ``FLOAT_SLACK``."""
        fractions = [self.worst_basis_f, *self.empirical_f]
        if any(f > self.f_lambda_bound + FLOAT_SLACK for f in fractions):
            return False
        return self.dim_thermal_achieved >= self.dim_thermal_bound - FLOAT_SLACK


def thermalization_report(p_r: Projector, p_rho: Projector, lam: float,
                          n_bases: int = 20, seed=None) -> ThermalizationReport:
    """Evaluate all bounds for one pair and measure fractions on sampled bases.

    Measures the nonthermal fraction on the principal-axes basis and on
    ``n_bases`` Haar-rotated orthonormal bases of range(P_rho), and packages
    them with the forward bounds and the converse bound computed from the
    largest measured fraction. Probes read the angle-route G^2 of
    ``thermal_axes``, so a tie counts alike in the dimension and the fraction;
    the principal-axes probes have expectations cos^2 theta_k, so their
    fraction is the share of axes that ``thermal_axes`` does not keep.

    The Haar bases are d_rho x d_rho unitaries drawn from ``seed`` (a
    generator is used as given) and scored a stack at a time: one
    ``sample_haar_unitary(d_rho, count=k)`` draw and one stacked
    ``empirical_nonthermal_fraction`` call per stack of k <= max(1,
    D^2 // d_rho^2) bases, so a stack holds at most D^2 numbers. The draws
    equal n_bases single draws from the same generator. The pair enters
    through its D x rank bases only, and no D x D array is formed.
    """
    geom = halmos_decompose(p_r, p_rho)
    g2 = correlator_trace(geom, 1)
    g4 = correlator_trace(geom, 2)
    sigma2 = variance_from_moments(g2, g4)
    f_bound, _ = bound_nonthermal_fraction(sigma2, lam)
    cos2 = geom.cos2
    g2_angles = correlator_from_angles(geom, 1)
    dim_achieved = int(np.count_nonzero(thermal_axes(cos2, lam)))
    worst_f = (geom.d_rho - dim_achieved) / geom.d_rho
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, "report-bases")
    # cap a probe stack at D^2 numbers
    step = max(1, p_rho.dim ** 2 // geom.d_rho ** 2)
    empirical = []
    for start in range(0, n_bases, step):
        stack = sample_haar_unitary(geom.d_rho, rng=rng, count=min(step, n_bases - start))
        empirical += empirical_nonthermal_fraction(cos2, stack, g2_angles, lam).tolist()
    f_max = max([worst_f, *empirical], default=worst_f)
    return ThermalizationReport(
        g2=g2, g4=g4, sigma2=sigma2, lam=lam,
        dim_thermal_bound=bound_thermal_dimension(sigma2, lam, p_rho.rank),
        dim_thermal_achieved=dim_achieved,
        f_lambda_bound=f_bound,
        worst_basis_f=worst_f, empirical_f=tuple(empirical),
        converse_bound=converse_variance_bound(lam, f_max) if lam < 1 else 1.0,
    )
