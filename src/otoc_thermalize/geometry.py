"""Two-subspace geometry: principal angles, axes, and the correlators G^(2n).

The decomposition of a pair of projectors into principal angles follows the
two-subspace normal form: angles come from the SVD of the cross-Gram matrix
of orthonormal range bases (Bjorck & Golub 1973), with singular values
clamped into [0, 1]. A projector built from an isometry carries its range
basis; only a projector given as a matrix has its basis recovered by a
Hermitian eigendecomposition. The trace route (1/D_rho) Tr[(P_R P_rho)^n]
and the angle route (1/D_rho) sum_k cos^(2n) theta_k are kept as two
independent evaluation paths and cross-checked against each other
throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Projector

#: Below this cosine / sine, the paired axis or residual is flagged undefined.
ANGLE_DEFINED_TOL = 1e-8

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
        Orthonormal principal axes |w_k> spanning range(P_rho).
    axes_u : (dim, d_rho) ndarray
        Paired axes |u_k> in range(P_R) with P_R |w_k> = cos(theta_k)|u_k>;
        columns with cos(theta_k) ~ 0 are zero and flagged in ``u_defined``.
    residuals_v : (dim, d_rho) ndarray
        Unit residuals |v_k> orthogonal to range(P_R) with
        |w_k> = cos(theta_k)|u_k> + sin(theta_k)|v_k>; columns with
        sin(theta_k) ~ 0 are zero and flagged in ``v_defined``.
    u_defined, v_defined : (d_rho,) boolean ndarrays
    """

    dim: int
    d_r: int
    d_rho: int
    angles: np.ndarray
    axes_w: np.ndarray
    axes_u: np.ndarray
    residuals_v: np.ndarray
    u_defined: np.ndarray
    v_defined: np.ndarray

    @property
    def cos2(self) -> np.ndarray:
        """cos^2 theta_k for each principal angle."""
        return np.cos(self.angles) ** 2


def orthonormal_range_basis(p: Projector) -> np.ndarray:
    """Orthonormal basis of range(P) as columns.

    A projector built by ``Projector.from_isometry`` returns the isometry it
    keeps, at no cost. Any other projector (a raw matrix, ``coordinate``,
    ``conjugate``) goes through a Hermitian eigendecomposition that keeps the
    eigenvectors with eigenvalue > 1/2, which is exact for projectors and
    robust to tolerance-level noise; it raises if that count disagrees with
    the stated rank (a projector-invariant violation).
    """
    if p.isometry is not None:
        return p.isometry
    evals, vecs = np.linalg.eigh(p.entries)
    mask = evals > 0.5
    found = int(np.count_nonzero(mask))
    if found != p.rank:
        raise ValueError(
            f"range basis extraction found {found} eigenvalues > 1/2, "
            f"expected rank {p.rank}")
    return vecs[:, mask]


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
    x, s, yh = np.linalg.svd(b_r.conj().T @ b_rho, full_matrices=True)
    n_pair = min(d_r, d_rho)
    cos = np.zeros(d_rho)
    cos[:n_pair] = np.clip(s[:n_pair], 0.0, 1.0)  # roundoff can exceed 1
    angles = np.arccos(cos)

    w = b_rho @ yh.conj().T
    u = np.zeros((dim, d_rho), dtype=complex)
    u[:, :n_pair] = b_r @ x[:, :n_pair]
    u_defined = cos > ANGLE_DEFINED_TOL
    u[:, ~u_defined] = 0.0

    # |v_k> = (|w_k> - cos |u_k>) / sin, the unit residual outside range(P_R).
    # Gate and normalize on the *computed* residual norm: near theta = 0 the
    # arccos of a rounded singular value reports sin(theta) ~ sqrt(eps) even
    # though the true residual is pure noise, so sin itself cannot tell a
    # tiny angle from an exactly-zero one.
    v_defined = np.zeros(d_rho, dtype=bool)
    v = np.zeros((dim, d_rho), dtype=complex)
    for k in range(d_rho):
        resid = w[:, k] - cos[k] * u[:, k]
        nrm = np.linalg.norm(resid)
        if nrm > ANGLE_DEFINED_TOL:
            v_defined[k] = True
            v[:, k] = resid / nrm

    return SubspaceGeometry(dim=dim, d_r=d_r, d_rho=d_rho, angles=angles,
                            axes_w=w, axes_u=u, residuals_v=v,
                            u_defined=u_defined, v_defined=v_defined)


def correlator_trace(p_r: Projector, p_rho: Projector, n: int) -> float:
    """G^(2n) = (1/D_rho) Tr[(P_R P_rho)^n] by direct dense products.

    With A = P_R P_rho, the trace is read as Tr(X Y) = sum(X * Y^T) for
    X = A^floor(n/2) and Y = A^ceil(n/2) (X = P_R, Y = P_rho when n = 1), so
    order n costs at most ceil(n/2) D x D products.
    """
    if p_r.dim != p_rho.dim:
        raise ValueError(f"dimension mismatch: {p_r.dim} vs {p_rho.dim}")
    if not (1 <= n <= MAX_CORRELATOR_ORDER):
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    if p_rho.rank < 1:
        raise ValueError("P_rho must have rank >= 1")
    if n == 1:
        x, y = p_r.entries, p_rho.entries
    else:
        a = p_r.entries @ p_rho.entries
        x = a
        for _ in range(n // 2 - 1):
            x = x @ a
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
