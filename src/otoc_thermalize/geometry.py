"""Two-subspace geometry: principal angles, axes, and the correlators G^(2n).

A projector is its orthonormal range basis V, and a pair (P_R, P_rho) enters
only through the cross-Gram matrix c = V_R^dag V_rho. The principal angles
are its singular values, clamped into [0, 1] (Bjorck & Golub 1973). The
trace route (1/D_rho) Tr[(c^dag c)^n] and the angle route
(1/D_rho) sum_k cos^(2n) theta_k are kept as two independent evaluation
paths and cross-checked against each other throughout the test suite; no
D x D array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Projector

#: Maximum correlator order n in G^(2n) (higher moments are out of scope).
MAX_CORRELATOR_ORDER = 8

#: Negative variance beyond this is a numerical error; within it, clamp to 0.
VARIANCE_CLAMP = -1e-12


@dataclass(frozen=True)
class SubspaceGeometry:
    """Principal-angle data of a projector pair (P_R, P_rho).

    Attributes
    ----------
    dim : int
        Ambient dimension D.
    d_r, d_rho : int
        Ranks of P_R and P_rho.
    angles : (d_rho,) ndarray
        Principal angles theta_k in [0, pi/2], sorted by descending
        cos(theta); when d_rho > d_r the last d_rho - d_r angles are pi/2.
    axes_w : (dim, d_rho) ndarray
        Orthonormal principal axes |w_k> spanning range(P_rho), with
        <w_k|P_R|w_l> = delta_kl cos^2(theta_k).
    """

    dim: int
    d_r: int
    d_rho: int
    angles: np.ndarray
    axes_w: np.ndarray

    @property
    def cos2(self) -> np.ndarray:
        """cos^2 theta_k for each principal angle."""
        return np.cos(self.angles) ** 2


def orthonormal_range_basis(p: Projector) -> np.ndarray:
    """Orthonormal basis of range(P) as columns: the projector's own basis."""
    return p.basis


def halmos_decompose(p_r: Projector, p_rho: Projector) -> SubspaceGeometry:
    """Principal angles and axes of range(P_rho) relative to range(P_R).

    Roles are never swapped: the geometry always carries d_rho angles, and
    when d_rho > d_r the excess angles are exactly pi/2.
    """
    if p_r.dim != p_rho.dim:
        raise ValueError(f"dimension mismatch: {p_r.dim} vs {p_rho.dim}")
    if p_rho.rank < 1:
        raise ValueError("P_rho must have rank >= 1")
    dim, d_r, d_rho = p_r.dim, p_r.rank, p_rho.rank
    b_r = orthonormal_range_basis(p_r)
    b_rho = orthonormal_range_basis(p_rho)
    _, s, yh = np.linalg.svd(b_r.conj().T @ b_rho, full_matrices=True)
    n_pair = min(d_r, d_rho)
    cos = np.zeros(d_rho)
    cos[:n_pair] = np.clip(s[:n_pair], 0.0, 1.0)  # roundoff can exceed 1
    return SubspaceGeometry(dim=dim, d_r=d_r, d_rho=d_rho, angles=np.arccos(cos),
                            axes_w=b_rho @ yh.conj().T)


def correlator_trace(p_r: Projector, p_rho: Projector, n: int) -> float:
    """G^(2n) = (1/D_rho) Tr[(P_R P_rho)^n] = (1/D_rho) Tr[(c^dag c)^n].

    With c = V_R^dag V_rho and A = c^dag c (D_rho x D_rho), the trace is read
    as Tr(X Y) = sum(X * Y^T) for X = A^floor(n/2) and Y = A^ceil(n/2), so no
    D x D product is formed.
    """
    if p_r.dim != p_rho.dim:
        raise ValueError(f"dimension mismatch: {p_r.dim} vs {p_rho.dim}")
    if not (1 <= n <= MAX_CORRELATOR_ORDER):
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    if p_rho.rank < 1:
        raise ValueError("P_rho must have rank >= 1")
    c = p_r.basis.conj().T @ p_rho.basis
    a = c.conj().T @ c
    x = np.linalg.matrix_power(a, n // 2)
    y = x @ a if n % 2 else x
    tr = np.sum(x * y.T)
    if abs(tr.imag) > 1e-9 * p_r.dim:
        raise ValueError("correlator trace was not real")
    return float(np.clip(tr.real / p_rho.rank, 0.0, 1.0))


def correlator_from_angles(g: SubspaceGeometry, n: int) -> float:
    """G^(2n) = (1/D_rho) sum_k cos^(2n) theta_k from a decomposition."""
    if not (1 <= n <= MAX_CORRELATOR_ORDER):
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    return float(np.sum(g.cos2 ** n) / g.d_rho)


def angle_variance(p_r: Projector, p_rho: Projector) -> float:
    """Variance of the principal-angle distribution, sigma^2 = G^4 - (G^2)^2.

    Evaluated through the trace route. Values in [-1e-12, 0] are clamped to
    zero; more negative values indicate a numerical failure and raise.
    """
    g2 = correlator_trace(p_r, p_rho, 1)
    g4 = correlator_trace(p_r, p_rho, 2)
    sigma2 = g4 - g2 * g2
    if sigma2 < VARIANCE_CLAMP:
        raise ValueError(f"negative angle variance {sigma2:.3e} beyond tolerance")
    return max(sigma2, 0.0)
