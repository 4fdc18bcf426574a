"""Dense reference routes that the tests hold the library against.

Each builds the dense `D x D` operators and works in the ambient space, so it
shares no arithmetic with the contraction and principal-axes routes it
checks. ``recording_eigh`` shows whether a block of code took the dense
eigendecomposition route at all.
"""

import contextlib

import numpy as np

from otoc_thermalize.geometry import correlator_trace
from otoc_thermalize.hilbert import (
    DIM_CAP_DEFAULT,
    Projector,
    derive_rng,
    embed_isometry,
    gue_hamiltonian,
)
from otoc_thermalize.predictor import (
    canonical_window_pair,
    hs_inner,
    theorem_bound,
    weighted_autocorrelator,
    weighted_correlator,
)


def dense_embed(setup, which):
    """The embedded observable or core projector as a dense ``Projector``."""
    return Projector.from_isometry(embed_isometry(setup, which))


def two_point_operators(setup):
    """Dense A2 = P_R - 1/D_S and B2 = D_sigma P_rho - 1 of the window predictor."""
    eye = np.eye(setup.dim)
    return (dense_embed(setup, "observable").entries - eye / setup.d_s,
            setup.d_sigma * dense_embed(setup, "core").entries - eye)


def to_eigenbasis(vecs, a):
    """Matrix elements V^dag A V of A in the eigenbasis given by the columns of V."""
    return vecs.conj().T @ a @ vecs


def predictor_demo_rows(setup, seed, n_instances, n_windows, t0, t_horizon,
                        t_obs, xi):
    """(bound, measured) of each ``predictor-demo`` window row, by the dense route.

    Draws the CLI's GUE instances, rotates the dense A2 and B2 into each
    eigenbasis, and takes their norms as Hilbert-Schmidt sums.
    """
    a2, b2 = two_point_operators(setup)
    norm_a, norm_b = hs_inner(a2, a2).real, hs_inner(b2, b2).real
    rows = []
    for i in range(n_instances):
        h = gue_hamiltonian(setup.dim, rng=derive_rng(seed, "predictor-gue", i))
        evals, vecs = np.linalg.eigh(h)
        a_eig, b_eig = to_eigenbasis(vecs, a2), to_eigenbasis(vecs, b2)
        for k in range(n_windows):
            pair = canonical_window_pair(t0 + k * t_obs, t_horizon, t_obs, xi=xi)
            auto = weighted_autocorrelator(evals, a_eig, pair.w_plus)
            rows.append((theorem_bound(max(0.0, auto), norm_a, norm_b, pair),
                         abs(weighted_correlator(evals, a_eig, b_eig, pair.w))))
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
    lhs = correlator_trace(p_r, p_rho_t, 2)
    r, p = p_r.entries, p_rho_t.entries
    rhs_c = np.einsum("ab,cd,da,bc->", r, r, p, p, optimize=True)
    if abs(rhs_c.imag) > 1e-10 * d:
        raise ValueError("swap-form OTOC was not real")
    rhs = float(np.clip(rhs_c.real / p_rho_t.rank, 0.0, 1.0))
    return lhs, rhs, abs(lhs - rhs)


def dense_expectations(p_r, basis):
    """<b_j|P_R|b_j> for each column b_j of a D x n basis, by the dense product."""
    basis = np.asarray(basis, dtype=complex)
    return np.einsum("ij,ij->j", basis.conj(), p_r.entries @ basis).real


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
