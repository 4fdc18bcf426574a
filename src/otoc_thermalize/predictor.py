"""Window-averaged correlator bounds: from short-time autocorrelators to
long-time-window cross correlators.

A long weighting window w and a completely positive short window w_plus with
Fourier-window constants (delta_e, w0, W) turn a measured autocorrelator
average into a bound on any windowed cross correlator. ``WindowPair`` is the
one pair used here: a box window of length T against a tent window of
half-width T_obs, with delta_e = 2 xi / T_obs, W = sinc^2(xi),
w0 = T_obs/(xi T). For autonomous dynamics, time averages are evaluated
exactly as sums over Bohr frequencies in the Hamiltonian eigenbasis; for
general dynamics, ``cauchy_schwarz_bound`` takes a Gram kernel on a time
grid and the window's quadrature weights on that grid.

Windows that differ only by a start shift s share one Bohr sum: moving a
window multiplies its transform by exp(-i omega s), which splits over the
eigenvalues as exp(-i E_n s) exp(+i E_m s). ``window_averages`` reads the
two-point operators A = P_R - 1/D_S and B = D_sigma P_rho - 1 off the
eigenframe bases in blocks of rows, on and above the diagonal, and
accumulates every shifted window from each block, so no D x D array is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Eigenframe,
    InvariantError,
    _map_contiguous,
    _map_ordered,
    derive_rng,
    haar_corner_stacks,
)
from .thermalization import Check

#: sin(xi) closer to zero than this makes the window constants singular.
SIN_XI_TOL = 1e-12

#: Tolerated negative part when clamping provably nonnegative quantities.
NEGATIVE_CLAMP = 1e-12

#: Tolerated negative eigenvalue (relative to the largest) of a Gram kernel.
KERNEL_TOL = 1e-9

#: Eigenframe rows per block of ``window_averages``, and windows per GEMM.
BLOCK = 64


def _sinc(x):
    """Unnormalized sinc, sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class WindowPair:
    """A box window of length t_horizon against a tent of half-width t_obs.

    The long window is uniform, 1/t_horizon on [t0, t0 + t_horizon], with
    transform exp(-iE(t0 + t_horizon/2)) sinc(E t_horizon/2). The short
    window is triangular, (1 - |t|/t_obs)/t_obs on [-t_obs, t_obs]; its
    transform sinc^2(E t_obs/2) is nonnegative, so it is completely positive.
    With delta_e = 2 xi / t_obs, the box transform obeys
    |w~(E)| <= 2/(|E| t_horizon) <= t_obs/(xi t_horizon) = w0 outside the
    Fourier window [-delta_e, delta_e], and the tent transform decreases on
    it, so its floor there is W = sinc^2(xi). The constructor requires
    0 < xi < pi, both windows of positive length, and w0 and W strictly in
    (0, 1).
    """

    t0: float
    t_horizon: float
    t_obs: float
    xi: float = 0.5 * math.pi

    def __post_init__(self):
        if not 0.0 < self.xi < math.pi:
            raise ValueError(f"xi must lie in (0, pi), got {self.xi}")
        if abs(math.sin(self.xi)) <= SIN_XI_TOL:
            raise ValueError(f"sin(xi) vanishes at xi={self.xi}")
        if self.t_horizon <= 0:
            raise ValueError(f"box duration must be positive, got {self.t_horizon}")
        if self.t_obs <= 0:
            raise ValueError(f"tent half-width must be positive, got {self.t_obs}")
        if not 0.0 < self.w0 < 1.0:
            raise ValueError(f"w0 must be in (0, 1), got {self.w0}")
        if not 0.0 < self.W < 1.0:
            raise ValueError(f"W must be in (0, 1), got {self.W}")

    @property
    def delta_e(self) -> float:
        """Half-width 2 xi / t_obs of the Fourier window."""
        return 2.0 * self.xi / self.t_obs

    @property
    def w0(self) -> float:
        """Cap t_obs/(xi t_horizon) of |box transform| outside the Fourier window."""
        return self.t_obs / (self.xi * self.t_horizon)

    @property
    def W(self) -> float:
        """Floor sinc^2(xi) of the tent transform inside the Fourier window."""
        return float(_sinc(self.xi)) ** 2


def window_averages(frame: Eigenframe, pair: WindowPair, shifts):
    """Window averages of the two-point operators, from the eigenframe.

    With the spectrum E and the eigenframe bases W (D x D_R) and Y
    (D x D_eta) of ``frame``, the operators A = W W^dag - 1/D_S and
    B = D_sigma Y Y^dag - 1, with D_S = D/D_R and D_sigma = D/D_eta, are
    Hermitian matrices in the Hamiltonian eigenbasis, and each time
    average is a sum over Bohr frequencies omega_nm = E_n - E_m. Returns
    ``(auto, cross)``:

    - auto = (1/D) sum_nm |A_nm|^2 sinc^2(omega t_obs/2), the tent-window
      average of <A, U_t(A)>: a sum of nonnegative terms;
    - cross[k] = (1/D) sum_nm conj(B_nm) A_nm w~(omega) exp(-i omega s_k),
      the average of <B, U_t(A)> over the box window moved by s_k.

    The box transform is exp(-i omega (t0 + T/2)) sinc(omega T/2); its phase
    and the shift's split over the eigenvalues as q_n conj(q_m) with
    q = exp(-i E (s_k + t0 + T/2)), so each window is the quadratic form
    q^T x conj(q) of the real-kernel grid x = conj(B) A sinc(omega T/2). Both
    grids are Hermitian, so both sums are real: only blocks on and above the
    diagonal are formed, each term above it counting twice. Rows go in
    blocks of ``BLOCK`` and windows in chunks of ``BLOCK`` (one GEMM of the
    block against the chunk's phases), so no D x D array is formed. The
    row blocks go to the pool (``hilbert._map_ordered``), one task each, and
    their partial sums are folded in block order, so the sums do not depend
    on the pool; the partial sums of every block, D/``BLOCK`` x (windows + 1)
    floats, are held until the fold.
    """
    evals, w, y = frame.evals, frame.w, frame.y
    d = evals.shape[0]
    d_s, d_sigma = d // w.shape[1], d // y.shape[1]
    half = 0.5 * pair.t_horizon
    centres = (pair.t0 + half) + np.asarray(shifts, dtype=float)

    def block_sums(index):
        # each pool thread holds one block's arrays, so they are formed, and
        # dropped, in the order that keeps the fewest alive at once
        lo = index * BLOCK
        hi = min(lo + BLOCK, d)
        rows = np.arange(hi - lo)
        omega = evals[lo:hi, None] - evals[None, lo:]
        # the columns right of the diagonal block stand for their mirror too
        twice = np.ones(d - lo)
        twice[hi - lo:] = 2.0
        tent_weight = _sinc(0.5 * omega * pair.t_obs) ** 2 * twice
        box_weight = _sinc(omega * half) * twice
        del omega
        # W[lo:hi] W[lo:]^dag as conj(conj(W[lo:hi]) W[lo:]^T): W[lo:].T is a view
        a = w[lo:hi].conj() @ w[lo:].T
        np.conjugate(a, out=a)
        a[rows, rows] -= 1.0 / d_s
        auto = np.sum((a.real ** 2 + a.imag ** 2) * tent_weight)
        del tent_weight
        # x = conj(B) A sinc(omega T/2), in place of conj(B) in the same rows
        # and columns, which is what the sum reads
        x = y[lo:hi].conj() @ y[lo:].T
        x *= d_sigma
        x[rows, rows] -= 1.0
        x *= a
        del a
        x *= box_weight
        del box_weight
        cross = np.empty(centres.size)
        for k in range(0, centres.size, BLOCK):
            # exp(i E c) built in one array, as exp(1j * outer(E, c)) rounds it
            chunk = centres[k:k + BLOCK]
            q_conj = np.empty((d - lo, chunk.size), dtype=complex)
            np.multiply.outer(evals[lo:], chunk, out=q_conj)
            q_conj *= 1j
            np.exp(q_conj, out=q_conj)
            z = x @ q_conj
            # q_conj's top rows are read once more, so conj(q) * z goes in place
            top = np.conjugate(q_conj[:hi - lo], out=q_conj[:hi - lo])
            top *= z
            cross[k:k + BLOCK] = np.sum(top, axis=0).real
        return auto, cross

    auto = 0.0
    cross = np.zeros(centres.size)
    for block_auto, block_cross in _map_ordered(block_sums, -(-d // BLOCK)):
        auto += block_auto
        cross += block_cross
    return float(auto) / d, cross / d


def theorem_bound(autocorr_avg_plus: float, norm_a: float, norm_b: float,
                  pair: WindowPair) -> float:
    """Auto-to-cross bound (sqrt(autocorr/W) + w0 sqrt(<A,A>)) sqrt(<B,B>).

    ``autocorr_avg_plus`` is the w_plus-averaged autocorrelator of A (provably
    nonnegative; tiny negatives are clamped), ``norm_a`` and ``norm_b`` are
    the normalized Hilbert-Schmidt square norms <A,A> and <B,B>.
    """
    if autocorr_avg_plus < -NEGATIVE_CLAMP:
        raise InvariantError(
            f"CP autocorrelator average must be nonnegative, got {autocorr_avg_plus}")
    if norm_a < 0 or norm_b < 0:
        raise ValueError("operator norms must be nonnegative")
    auto = max(0.0, autocorr_avg_plus)
    return (math.sqrt(auto / pair.W) + pair.w0 * math.sqrt(norm_a)) * math.sqrt(norm_b)


def synopsis_bound(autocorr_plus_avg: float, pair: WindowPair) -> float:
    """Normalized form of the bound: t_obs/(xi T) + (xi/|sin xi|) sqrt(autocorr)."""
    xi = pair.xi
    auto = max(0.0, autocorr_plus_avg)
    return pair.w0 + (xi / abs(math.sin(xi))) * math.sqrt(auto)


def time_interval_bound(epsilon: float, kappa_rr: float, pair: WindowPair,
                        d_s: int, d_sigma: int, lam: float):
    """Bound on the fraction of a time interval with nonthermal G^2.

    Returns ``(value, vacuous)``: the raw bound
    (D_sigma/(lambda^2 D_S)) ((xi/|sin xi|) sqrt(eps^2 + 2 kappa_RR)
    + t_obs/(xi T)) clamped into [0, 1], flagged vacuous when clamped.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if epsilon < 0 or kappa_rr < 0:
        raise ValueError("epsilon and kappa_rr must be nonnegative")
    xi = pair.xi
    inner = ((xi / abs(math.sin(xi))) * math.sqrt(epsilon ** 2 + 2.0 * kappa_rr)
             + pair.w0)
    raw = (d_sigma / (lam ** 2 * d_s)) * inner
    return min(1.0, max(0.0, raw)), raw > 1.0


def cauchy_schwarz_bound(gram: np.ndarray, q: np.ndarray,
                         norm_b: float) -> float:
    """General-dynamics bound sqrt(sum_ij q_i q_j K_ij) sqrt(<B,B>).

    ``gram`` is the kernel K_ij = <U_{t_i}(A), U_{t_j}(A)> on a time grid;
    it must be Hermitian positive semidefinite to tolerance (it is a Gram
    matrix). ``q`` holds the window's quadrature weights on the same grid,
    for example its density times trapezoid weights; a single point with
    q = [1] reduces to the plain Cauchy-Schwarz inequality.
    """
    q = np.asarray(q, dtype=float)
    gram = np.asarray(gram)
    n = q.size
    if gram.shape != (n, n):
        raise ValueError(f"gram shape {gram.shape} does not match {n} weights")
    herm_defect = np.linalg.norm(gram - gram.conj().T)
    if not herm_defect <= KERNEL_TOL * max(1.0, np.linalg.norm(gram)):
        raise ValueError(f"kernel not Hermitian: defect {herm_defect:.3e}")
    scale = max(1.0, float(np.abs(np.diagonal(gram)).max(initial=0.0)))
    min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0).min())
    if min_eig < -KERNEL_TOL * scale:
        raise ValueError(f"kernel indefinite: min eigenvalue {min_eig:.3e}")
    val = float(np.real(q @ gram @ q))
    return math.sqrt(max(0.0, val)) * math.sqrt(max(0.0, norm_b))


@dataclass(frozen=True)
class NegativeDemoReport:
    """Measured obstruction to a fourth-order analogue of the window bound.

    Extending the bound to the OTOC through the swap representation would
    require the squared two-point function [G_rho-rho^2(t)]^2 to sit within
    1/D_R^2 of 1/D_sigma^2. ``measured_rms`` is the root-mean-square of the
    premise deviation [G_rho-rho^2]^2 - 1/D_sigma^2 over Haar samples,
    ``threshold`` the required 1/D_R^2, and ``check`` holds ``measured_rms``
    within a factor 2 of its sharp value 2 (D_sigma - 1)/(D_sigma^2 sqrt(D^2 - 1)).
    """

    threshold: float
    measured_rms: float
    check: Check
    verdict: str


def fourth_order_negative_demo(d: int, d_s: int, d_sigma: int,
                               n_samples: int = 200,
                               seed=None) -> NegativeDemoReport:
    """Show that the premise of a fourth-order window bound fails generically.

    Samples Haar-conjugated core projectors and measures the RMS fluctuation
    of [G_rho-rho^2(t)]^2 around 1/D_sigma^2. For a nontrivial core this
    scale sits far above the premise threshold 1/D_R^2 (verdict "premise
    unsatisfiable"); for D_sigma = 1 the two-point function is identically 1
    and the premise holds trivially.

    G_rho-rho^2 is tr(c^dag c)/D_rho for the D_rho x D_rho corner c of the
    sample unitary, so sample i draws a matrix with that corner Gram's law
    from its two Bartlett R factors (``hilbert.haar_corner_stacks``) and the
    generator ``derive_rng(seed, "negative-demo", i)``: O(D_rho^3) time and
    no D-sized array. The samples go to the pool
    (``hilbert._map_contiguous``) in contiguous chunks and are reduced in
    index order, so the report does not depend on the pool.
    """
    if d % d_s != 0 or d % d_sigma != 0:
        raise ValueError("d_s and d_sigma must divide d")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    d_r = d // d_s
    d_rho = d // d_sigma

    def deviations(samples):
        out = []
        rngs = (derive_rng(seed, "negative-demo", i) for i in samples)
        for c in haar_corner_stacks(d, d_rho, d_rho, rngs):
            g = np.sum(np.abs(c) ** 2, axis=(1, 2)) / d_rho
            out += list(g * g - 1.0 / d_sigma ** 2)
        return out

    dev = np.array(_map_contiguous(deviations, n_samples), dtype=float)
    measured = float(np.sqrt(np.mean(dev ** 2)))
    threshold = 1.0 / d_r ** 2
    if d_sigma == 1:
        check = Check("rms premise deviation = 0 for a trivial core",
                      measured, 1e-12, "stat")
    else:
        predicted = 2.0 * (d_sigma - 1) / (d_sigma ** 2 * math.sqrt(d ** 2 - 1.0))
        check = Check("|log2(rms[(G2_rho-rho)^2 - 1/D_sigma^2] / "
                      "(2*(D_sigma-1)/(D_sigma^2*sqrt(D^2-1))))| <= 1",
                      abs(math.log2(measured / predicted))
                      if measured > 0 else math.inf, 1.0, "stat")
    verdict = ("premise satisfiable" if measured <= threshold
               else "premise unsatisfiable")
    return NegativeDemoReport(threshold=threshold, measured_rms=measured,
                              check=check, verdict=verdict)
