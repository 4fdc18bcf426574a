"""Two-subspace geometry: the cross-Gram matrix, principal angles and G^(2n).

A projector is its orthonormal range basis V, and a pair (P_R, P_rho) enters
only through the cross-Gram matrix c = V_R^dag V_rho, which
``halmos_decompose`` forms once per pair and keeps. The principal angles are
the singular values of c, clamped into [0, 1] (Bjorck & Golub 1973). The
trace route (1/D_rho) Tr[(c^dag c)^n] takes Gram powers of c and the angle
route (1/D_rho) sum_k cos^(2n) theta_k takes its singular values: two
independent evaluation paths from the same c, cross-checked against each
other throughout the test suite. No D x D array and no principal axes are
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import InvariantError, Projector

#: Maximum correlator order n in G^(2n) (higher moments are out of scope).
MAX_CORRELATOR_ORDER = 8

#: Negative variance beyond this is a numerical error; within it, clamp to 0.
VARIANCE_CLAMP = -1e-12


@dataclass(frozen=True)
class SubspaceGeometry:
    """Cross-Gram matrix and principal angles of a projector pair (P_R, P_rho).

    Attributes
    ----------
    dim : int
        Ambient dimension D.
    d_r, d_rho : int
        Ranks of P_R and P_rho.
    cross : (d_r, d_rho) ndarray
        The cross-Gram matrix c = V_R^dag V_rho of the two range bases.
    angles : (d_rho,) ndarray
        Principal angles theta_k in [0, pi/2], sorted by descending
        cos(theta); when d_rho > d_r the last d_rho - d_r angles are pi/2.
    """

    dim: int
    d_r: int
    d_rho: int
    cross: np.ndarray
    angles: np.ndarray

    @property
    def cos2(self) -> np.ndarray:
        """cos^2 theta_k for each principal angle."""
        return np.cos(self.angles) ** 2


def orthonormal_range_basis(p: Projector) -> np.ndarray:
    """Orthonormal basis of range(P) as columns: the projector's own basis."""
    return p.basis


def halmos_decompose(p_r: Projector, p_rho: Projector) -> SubspaceGeometry:
    """Cross-Gram matrix and principal angles of range(P_rho) relative to range(P_R).

    The one place a pair is reduced: c = V_R^dag V_rho is formed and checked
    here, and the angles are its singular values, computed without singular
    vectors. Roles are never swapped: the geometry always carries d_rho
    angles, and when d_rho > d_r the excess angles are exactly pi/2.
    """
    if p_r.dim != p_rho.dim:
        raise ValueError(f"dimension mismatch: {p_r.dim} vs {p_rho.dim}")
    if p_rho.rank < 1:
        raise ValueError("P_rho must have rank >= 1")
    dim, d_r, d_rho = p_r.dim, p_r.rank, p_rho.rank
    b_r = orthonormal_range_basis(p_r)
    b_rho = orthonormal_range_basis(p_rho)
    # conjugates V_rho, so no D x d_r copy of V_R is made
    cross = (b_r.T @ b_rho.conj()).conj()
    s = np.linalg.svd(cross, compute_uv=False)
    n_pair = min(d_r, d_rho)
    cos = np.zeros(d_rho)
    cos[:n_pair] = np.clip(s[:n_pair], 0.0, 1.0)  # roundoff can exceed 1
    return SubspaceGeometry(dim=dim, d_r=d_r, d_rho=d_rho, cross=cross,
                            angles=np.arccos(cos))


def correlator_trace(g: SubspaceGeometry, n: int) -> float:
    """G^(2n) = (1/D_rho) Tr[(P_R P_rho)^n] = (1/D_rho) Tr[(c^dag c)^n].

    With A = c^dag c (D_rho x D_rho) from the decomposition's cross-Gram c,
    the trace is read as Tr(X Y) = sum(X * Y^T) for X = A^floor(n/2) and
    Y = A^ceil(n/2): Gram powers, sharing no arithmetic with the singular
    values of the angle route.
    """
    if not (1 <= n <= MAX_CORRELATOR_ORDER):
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    a = g.cross.conj().T @ g.cross
    x = np.linalg.matrix_power(a, n // 2)
    y = x @ a if n % 2 else x
    return float(np.clip(np.sum(x * y.T).real / g.d_rho, 0.0, 1.0))


def correlator_from_angles(g: SubspaceGeometry, n: int) -> float:
    """G^(2n) = (1/D_rho) sum_k cos^(2n) theta_k from a decomposition."""
    if not (1 <= n <= MAX_CORRELATOR_ORDER):
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    return float(np.sum(g.cos2 ** n) / g.d_rho)


def variance_from_moments(g2: float, g4: float) -> float:
    """sigma^2 = G^4 - (G^2)^2 >= 0 (Cauchy-Schwarz), roundoff clamped to 0."""
    sigma2 = g4 - g2 * g2
    if not sigma2 >= VARIANCE_CLAMP:  # NaN fails too
        raise InvariantError(f"angle variance {sigma2:.3e} is NaN or negative beyond tolerance")
    return max(sigma2, 0.0)


def angle_variance(g: SubspaceGeometry) -> float:
    """Variance of the principal-angle distribution, through the trace route."""
    return variance_from_moments(correlator_trace(g, 1), correlator_trace(g, 2))
