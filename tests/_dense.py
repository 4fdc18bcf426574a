"""Dense reference routes that the tests hold the library against.

Each builds the dense `D x D` operators and works in the ambient space, so it
shares no arithmetic with the basis, contraction and principal-axes routes it
checks. A projector matrix goes back to a ``Projector`` through the
eigendecomposition route ``eigh_range_basis``; ``recording_eigh`` shows
whether a block of code took an eigendecomposition route at all, and
``recording_pools`` how many thread pools it built.
``principal_axes`` is the singular-vector route to the principal axes, which
the library never forms. ``dense_unitary`` is the D x D unitary U(t) of a
source: V exp(-iEt) V^dag for an ``Eigenframe`` with eigenvectors V, the
basis evolution applied to K = 1 for the others. ``gue_hamiltonian`` draws a
dense GUE matrix, whose ``eigh`` the library's eigen-law draw
``sample_gue_eigensystem`` is held against. ``hamiltonian_source`` turns an
explicit Hermitian H into the ``Eigenframe`` the library reads, through its
``eigh``: its Y = V^dag K comes from V, not from the W (L^dag K) of
``Eigenframe.gue``; ``completed_eigenbasis`` completes a GUE frame's thin
W to a full eigenbasis, so its dense H can be formed.
``haar_corner_by_slice`` reads a Haar corner off a D-row Haar draw, the
route the library's Bartlett sampler ``haar_corner_stacks`` is held against.
The windows of a ``predictor.WindowPair`` are defined here twice, by their
time-domain densities (``box_density``, ``tent_density``) and by their
closed-form transforms (``box_transform``, ``tent_transform``), which the
oracle tests hold against quadrature of the densities. ``bohr_sum`` is the
dense Bohr sum of a window average over the D x D frequency grid, for any
operators and any window transform; ``weighted_correlator`` takes it over a
pair's box and ``weighted_autocorrelator`` over its tent, and the blocked
``predictor.window_averages`` is held against both.
"""

import contextlib
import math

import numpy as np

from otoc_thermalize import hilbert
from otoc_thermalize.geometry import (
    MAX_CORRELATOR_ORDER,
    correlator_trace,
    halmos_decompose,
)
from otoc_thermalize.hilbert import (
    DIM_CAP_DEFAULT,
    Eigenframe,
    InvariantError,
    Projector,
    contract_isometry,
    derive_rng,
    embed_isometry,
    evolve_basis_series,
    sample_haar_unitary,
)
from otoc_thermalize.predictor import WindowPair, theorem_bound


def gue_hamiltonian(dim, seed=None, rng=None):
    """Draw a dense GUE Hamiltonian normalized so the spectrum concentrates in [-2, 2].

    Entry variances are E[H_ii^2] = E[|H_ij|^2] = 1/dim, i.e. the density
    exp(-(dim/2) Tr H^2); the semicircle radius is then 2.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2.0 * math.sqrt(dim))


#: Frobenius-norm tolerance of an explicit Hamiltonian's Hermiticity, times D.
HERMITICITY_TOL = 1e-10


def hamiltonian_source(h, setup=None):
    """exp(-iHt) for a Hermitian matrix H, as ``(frame, V)`` with H = V diag(E) V^dag.

    ``eigh`` gives E and V. The frame is the ``Eigenframe`` the library
    reduces: E, W = V^dag L and Y = V^dag K of the setup's observable and
    core isometries L and K (without a setup, of the whole space:
    W = Y = V^dag). V is kept apart for ``dense_unitary``. ``eigh`` reads one
    triangle only, so H is checked for Hermiticity first, and a NaN fails
    that check.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    defect = np.linalg.norm(h - h.conj().T)
    if not defect <= HERMITICITY_TOL * h.shape[0]:
        raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}")
    evals, vecs = np.linalg.eigh(h)
    if setup is None:
        return Eigenframe(evals, vecs.conj().T, vecs.conj().T), vecs
    w, y = (contract_isometry(setup, which, vecs).conj().T
            for which in ("observable", "core"))
    return Eigenframe(evals, w, y), vecs


def dense_unitary(source, t, vecs=None):
    """The D x D unitary U(t) of a source.

    V exp(-iEt) V^dag for an ``Eigenframe`` with eigenvectors ``vecs``;
    for a CUE or circuit source, ``evolve_basis_series`` at one time on K = 1.
    """
    if isinstance(source, Eigenframe):
        return (vecs * np.exp(-1j * t * source.evals)) @ vecs.conj().T
    return next(evolve_basis_series(source, np.eye(source.dim, dtype=complex), [t]))


def completed_eigenbasis(setup, frame):
    """A D x D unitary V whose eigenframe of the observable is a GUE frame's W.

    V^dag = W L^dag + W_perp L_perp^dag, where L is the observable's isometry,
    W = V^dag L the frame's observable basis, and each complement the trailing
    columns of a complete QR. Column j of V goes with ``frame.evals[j]``, so
    H = V diag(E) V^dag is a dense H of the GUE law with V^dag L = W.
    """
    w, l = frame.w, embed_isometry(setup, "observable")
    w_perp, l_perp = (np.linalg.qr(a, mode="complete")[0][:, a.shape[1]:]
                      for a in (w, l))
    return (w @ l.conj().T + w_perp @ l_perp.conj().T).conj().T


def haar_corner_by_slice(dim, rows, columns, rng):
    """The ``rows x columns`` corner of a D x columns Haar isometry, read off
    the full draw: the route the Bartlett sampler ``haar_corner_stacks``
    replaced, and is held against."""
    return sample_haar_unitary(dim, rng=rng, columns=columns)[:rows]


def dense_matrix(p):
    """The D x D matrix V V^dag of a projector kept as its basis V."""
    return p.basis @ p.basis.conj().T


def eigh_range_basis(entries, rank):
    """Orthonormal basis of the range of a dense projector matrix, by ``eigh``.

    Keeps the eigenvectors with eigenvalue > 1/2, which is exact for
    projectors and robust to tolerance-level noise; raises if that count
    disagrees with ``rank`` (a projector-invariant violation).
    """
    evals, vecs = np.linalg.eigh(np.asarray(entries, dtype=complex))
    mask = evals > 0.5
    found = int(np.count_nonzero(mask))
    if found != rank:
        raise ValueError(
            f"range basis extraction found {found} eigenvalues > 1/2, "
            f"expected rank {rank}")
    return vecs[:, mask]


def projector_from_matrix(entries, rank):
    """The ``Projector`` whose basis ``eigh_range_basis`` recovers from a matrix."""
    return Projector(eigh_range_basis(entries, rank))


def dense_correlator_trace(p_r, p_rho, n):
    """G^(2n) = (1/D_rho) Tr[(P_R P_rho)^n] by direct dense products.

    With A = P_R P_rho, the trace is read as Tr(X Y) = sum(X * Y^T) for
    X = A^floor(n/2) and Y = A^ceil(n/2) (X = P_R, Y = P_rho when n = 1).
    """
    if not 1 <= n <= MAX_CORRELATOR_ORDER:
        raise ValueError(f"order n must be in [1, {MAX_CORRELATOR_ORDER}], got {n}")
    r, p = dense_matrix(p_r), dense_matrix(p_rho)
    if n == 1:
        x, y = r, p
    else:
        a = r @ p
        x = a
        for _ in range(n // 2 - 1):
            x = x @ a
        y = x @ a if n % 2 else x
    tr = np.sum(x * y.T)
    if abs(tr.imag) > 1e-9 * p_r.dim:
        raise ValueError("correlator trace was not real")
    return float(np.clip(tr.real / p_rho.rank, 0.0, 1.0))


def principal_axes(p_r, p_rho):
    """Principal axes |w_k> of range(P_rho) relative to range(P_R), as columns.

    Read off the right singular vectors of the full SVD of V_R^dag V_rho, in
    the order of ``halmos_decompose``'s angles, so that
    <w_k|P_R|w_l> = delta_kl cos^2(theta_k).
    """
    _, _, yh = np.linalg.svd(p_r.basis.conj().T @ p_rho.basis, full_matrices=True)
    return p_rho.basis @ yh.conj().T


def dense_embed(setup, which):
    """The embedded observable or core projector, from its isometry."""
    return Projector(embed_isometry(setup, which))


def two_point_operators(setup):
    """Dense A2 = P_R - 1/D_S and B2 = D_sigma P_rho - 1 of the window predictor."""
    eye = np.eye(setup.dim)
    return (dense_matrix(dense_embed(setup, "observable")) - eye / setup.d_s,
            setup.d_sigma * dense_matrix(dense_embed(setup, "core")) - eye)


def to_eigenbasis(vecs, a):
    """Matrix elements V^dag A V of A in the eigenbasis given by the columns of V."""
    return vecs.conj().T @ a @ vecs


def _sinc(x):
    """Unnormalized sinc, sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def box_density(pair, t):
    """The pair's long window 1/t_horizon on [t0, t0 + t_horizon], vectorized."""
    t = np.asarray(t, dtype=float)
    inside = (t >= pair.t0) & (t <= pair.t0 + pair.t_horizon)
    return np.where(inside, 1.0 / pair.t_horizon, 0.0)


def tent_density(pair, t):
    """The pair's short window (1 - |t|/t_obs)/t_obs on [-t_obs, t_obs], vectorized."""
    t = np.asarray(t, dtype=float)
    return np.clip(1.0 - np.abs(t) / pair.t_obs, 0.0, None) / pair.t_obs


def box_transform(pair, e):
    """Integral of box_density(t) exp(-iEt): exp(-iE(t0 + T/2)) sinc(ET/2)."""
    e = np.asarray(e, dtype=float)
    half = 0.5 * pair.t_horizon
    return np.exp(-1j * e * (pair.t0 + half)) * _sinc(e * half)


def tent_transform(pair, e):
    """Integral of tent_density(t) exp(-iEt): sinc^2(E t_obs/2), real and nonnegative."""
    e = np.asarray(e, dtype=float)
    return _sinc(0.5 * e * pair.t_obs) ** 2 + 0j


def bohr_sum(evals, a_eig, b_eig, transform):
    """Window average of <B, U_t(A)> as the dense Bohr sum over D x D grids.

    (1/D) sum_nm conj(B_nm) A_nm w~(E_n - E_m), for any A and B given in the
    Hamiltonian eigenbasis and any window transform ``transform`` = w~.
    """
    omega = evals[:, None] - evals[None, :]
    return complex(np.sum(b_eig.conj() * a_eig * transform(omega)) / evals.size)


def weighted_correlator(evals, a_eig, b_eig, pair):
    """Average of <B, U_t(A)> over the pair's box window, by ``bohr_sum``."""
    return bohr_sum(evals, a_eig, b_eig, lambda e: box_transform(pair, e))


def weighted_autocorrelator(evals, a_eig, pair):
    """Average of the autocorrelator <A, U_t(A)> over the pair's tent window.

    Real for Hermitian A, since a real window has w~(-E) = conj(w~(E)); the
    oracle takes any A, so a non-Hermitian one can make it complex.
    """
    val = bohr_sum(evals, a_eig, a_eig, lambda e: tent_transform(pair, e))
    if abs(val.imag) > 1e-9:
        raise InvariantError("autocorrelator average was not real")
    return val.real


def predictor_demo_rows(setup, seed, n_instances, n_windows, t0, t_horizon,
                        t_obs, xi):
    """(bound, measured) of each ``predictor-demo`` window row, by the dense route.

    Draws the CLI's GUE sources, completes each eigenframe to a dense
    eigenbasis, rotates the dense A2 and B2 into it, and takes their norms as
    Hilbert-Schmidt sums.
    """
    a2, b2 = two_point_operators(setup)
    norm_a, norm_b = (np.vdot(x, x).real / setup.dim for x in (a2, b2))
    rows = []
    for i in range(n_instances):
        frame = Eigenframe.gue(setup, derive_rng(seed, "predictor-gue", i))
        evals, vecs = frame.evals, completed_eigenbasis(setup, frame)
        a_eig, b_eig = to_eigenbasis(vecs, a2), to_eigenbasis(vecs, b2)
        for k in range(n_windows):
            pair = WindowPair(t0 + k * t_obs, t_horizon, t_obs, xi)
            auto = weighted_autocorrelator(evals, a_eig, pair)
            rows.append((theorem_bound(max(0.0, auto), norm_a, norm_b, pair),
                         abs(weighted_correlator(evals, a_eig, b_eig, pair))))
    return rows


def swap_representation_check(p_r, p_rho_t):
    """Evaluate the OTOC two ways: direct trace vs swap-operator form.

    The swap form is Tr[(P_R (x) P_R) . SWAP . (P (x) P)] / D_rho, contracted
    as the four-tensor network sum_{abcd} R_ab R_cd P_da P_bc without forming
    the direct product matrices. The doubled space squares the dimension, so
    the check requires D^2 <= ``DIM_CAP_DEFAULT``.

    Returns
    -------
    (lhs, rhs, gap) : floats
        Direct trace, swap form, and |lhs - rhs|.
    """
    d = p_r.dim
    if d * d > DIM_CAP_DEFAULT:
        raise ValueError(
            f"doubled dimension {d * d} exceeds cap {DIM_CAP_DEFAULT}")
    lhs = correlator_trace(halmos_decompose(p_r, p_rho_t), 2)
    r, p = dense_matrix(p_r), dense_matrix(p_rho_t)
    rhs_c = np.einsum("ab,cd,da,bc->", r, r, p, p, optimize=True)
    if abs(rhs_c.imag) > 1e-10 * d:
        raise ValueError("swap-form OTOC was not real")
    rhs = float(np.clip(rhs_c.real / p_rho_t.rank, 0.0, 1.0))
    return lhs, rhs, abs(lhs - rhs)


def dense_expectations(p_r, basis):
    """<b_j|P_R|b_j> for each column b_j of a D x n basis, by the dense product."""
    basis = np.asarray(basis, dtype=complex)
    return np.einsum("ij,ij->j", basis.conj(), dense_matrix(p_r) @ basis).real


def dense_nonthermal_fraction(p_r, basis, g2, lam):
    """Fraction of the columns of ``basis`` with |<b|P_R|b> - G^2| > lambda."""
    expect = dense_expectations(p_r, basis)
    return float(np.count_nonzero(np.abs(expect - g2) > lam)) / expect.size


@contextlib.contextmanager
def recording_eigh():
    """Yield a list that records the shape of each ``np.linalg.eigh`` argument.

    Calls from every thread are recorded until the block exits.
    """
    calls = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = recorded
    try:
        yield calls
    finally:
        np.linalg.eigh = eigh


@contextlib.contextmanager
def recording_pools():
    """Yield a list that records the width of each thread pool
    ``hilbert._map_ordered`` builds until the block exits."""
    widths = []
    executor = hilbert.ThreadPoolExecutor

    class Recorded(executor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    hilbert.ThreadPoolExecutor = Recorded
    try:
        yield widths
    finally:
        hilbert.ThreadPoolExecutor = executor
