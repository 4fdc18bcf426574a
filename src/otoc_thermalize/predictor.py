"""Window-averaged correlator bounds: from short-time autocorrelators to
long-time-window cross correlators.

A long weighting window w and a completely positive short window w_plus with
Fourier-window constants (delta_e, w0, W) turn a measured autocorrelator
average into a bound on any windowed cross correlator. The canonical pair is
a box window of length T against a tent window of half-width T_obs, with
delta_e = 2 xi / T_obs, W = sinc^2(xi), w0 = T_obs/(xi T). For autonomous
dynamics, time averages are evaluated exactly as sums over Bohr frequencies
in the Hamiltonian eigenbasis; for general dynamics a Gram-matrix
Cauchy-Schwarz bound on an explicit time grid is provided instead.

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
from typing import Optional

import numpy as np

from .hilbert import (
    InvariantError,
    _map_contiguous,
    _map_ordered,
    derive_rng,
    sample_haar_unitary,
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
class WeightingFunction:
    """A nonnegative, unit-mass time window.

    Kinds: ``box`` (uniform on [t0, t0 + duration]), ``tent`` (triangular on
    [-t_obs, t_obs]; its Fourier transform sinc^2 is nonnegative, making it
    completely positive), and ``tabulated`` (trapezoid-normalized samples on
    an explicit grid).
    """

    kind: str
    t0: float = 0.0
    duration: float = 0.0
    t_obs: float = 0.0
    times: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @classmethod
    def box(cls, t0: float, duration: float) -> "WeightingFunction":
        """Uniform window 1/duration on [t0, t0 + duration]."""
        if duration <= 0:
            raise ValueError(f"box duration must be positive, got {duration}")
        return cls(kind="box", t0=float(t0), duration=float(duration))

    @classmethod
    def tent(cls, t_obs: float) -> "WeightingFunction":
        """Triangular window (1 - |t|/t_obs)/t_obs on [-t_obs, t_obs]."""
        if t_obs <= 0:
            raise ValueError(f"tent half-width must be positive, got {t_obs}")
        return cls(kind="tent", t_obs=float(t_obs))

    @classmethod
    def tabulated(cls, times, weights) -> "WeightingFunction":
        """Sampled window; weights are clipped at 0 and normalized to unit mass."""
        times = np.asarray(times, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if times.ndim != 1 or times.shape != weights.shape or times.size < 2:
            raise ValueError("need matching 1-d times/weights with >= 2 samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(weights < -NEGATIVE_CLAMP):
            raise ValueError("weights must be nonnegative")
        weights = np.clip(weights, 0.0, None)
        mass = np.trapezoid(weights, times)
        if mass <= 0:
            raise ValueError("window has zero mass")
        return cls(kind="tabulated", times=times, weights=weights / mass)

    def density(self, t):
        """w(t), vectorized."""
        t = np.asarray(t, dtype=float)
        if self.kind == "box":
            inside = (t >= self.t0) & (t <= self.t0 + self.duration)
            return np.where(inside, 1.0 / self.duration, 0.0)
        if self.kind == "tent":
            return np.clip(1.0 - np.abs(t) / self.t_obs, 0.0, None) / self.t_obs
        return np.interp(t, self.times, self.weights, left=0.0, right=0.0)

    def fourier(self, e):
        """Fourier transform w~(E) = integral of w(t) exp(-iEt) dt, vectorized.

        Closed forms: box gives exp(-iE(t0 + T/2)) sinc(ET/2), tent gives
        sinc^2(E t_obs/2); tabulated windows use trapezoid quadrature.
        """
        e = np.asarray(e, dtype=float)
        if self.kind == "box":
            half = 0.5 * self.duration
            return np.exp(-1j * e * (self.t0 + half)) * _sinc(e * half)
        if self.kind == "tent":
            return _sinc(0.5 * e * self.t_obs) ** 2 + 0j
        phases = np.exp(-1j * np.multiply.outer(e, self.times))
        return np.trapezoid(phases * self.weights, self.times, axis=-1)


@dataclass(frozen=True)
class WindowPair:
    """A long window w and CP short window w_plus with Fourier constants.

    ``delta_e`` bounds the Fourier window: outside it |w~| <= w0, inside it
    w~_plus >= W. Both constants must lie strictly in (0, 1).
    """

    w: WeightingFunction
    w_plus: WeightingFunction
    delta_e: float
    w0: float
    W: float
    xi: float

    def __post_init__(self):
        if not 0.0 < self.w0 < 1.0:
            raise ValueError(f"w0 must be in (0, 1), got {self.w0}")
        if not 0.0 < self.W < 1.0:
            raise ValueError(f"W must be in (0, 1), got {self.W}")
        if self.delta_e <= 0:
            raise ValueError(f"delta_e must be positive, got {self.delta_e}")


def canonical_window_pair(t0: float, t_horizon: float, t_obs: float,
                          xi: float = 0.5 * math.pi) -> WindowPair:
    """Box window of length t_horizon vs tent window of half-width t_obs.

    With delta_e = 2 xi / t_obs: the box transform obeys
    |w~(E)| <= 2/(|E| t_horizon) <= t_obs/(xi t_horizon) = w0 outside the
    window, and the tent transform sinc^2(E t_obs / 2) decreases on the
    window, so its floor is W = sinc^2(xi). Requires 0 < xi < pi and
    t_obs < xi * t_horizon (so that w0 < 1).
    """
    if not 0.0 < xi < math.pi:
        raise ValueError(f"xi must lie in (0, pi), got {xi}")
    if abs(math.sin(xi)) <= SIN_XI_TOL:
        raise ValueError(f"sin(xi) vanishes at xi={xi}")
    w = WeightingFunction.box(t0, t_horizon)
    w_plus = WeightingFunction.tent(t_obs)
    return WindowPair(
        w=w, w_plus=w_plus,
        delta_e=2.0 * xi / t_obs,
        w0=t_obs / (xi * t_horizon),
        W=float(_sinc(xi)) ** 2,
        xi=xi,
    )


def window_averages(evals: np.ndarray, w: np.ndarray, y: np.ndarray,
                    d_s: int, d_sigma: int, pair: WindowPair, shifts):
    """Window averages of the two-point operators, from the eigenframe.

    With the spectrum E and the eigenframe bases W (D x D_R) and Y
    (D x D_eta), the operators A = W W^dag - 1/D_S and B = D_sigma Y Y^dag - 1
    are Hermitian matrices in the Hamiltonian eigenbasis, and each time
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
    box, tent = pair.w, pair.w_plus
    if box.kind != "box" or tent.kind != "tent":
        raise ValueError("window_averages takes a box window against a tent")
    d = evals.shape[0]
    half = 0.5 * box.duration
    centres = (box.t0 + half) + np.asarray(shifts, dtype=float)

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
        tent_weight = _sinc(0.5 * omega * tent.t_obs) ** 2 * twice
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
    if pair.W <= 0:
        raise ValueError("window floor W must be positive")
    auto = max(0.0, autocorr_avg_plus)
    return (math.sqrt(auto / pair.W) + pair.w0 * math.sqrt(norm_a)) * math.sqrt(norm_b)


def synopsis_bound(autocorr_plus_avg: float, t_obs: float, t_horizon: float,
                   xi: float) -> float:
    """Normalized form of the bound: t_obs/(xi T) + (xi/|sin xi|) sqrt(autocorr)."""
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    if abs(math.sin(xi)) <= SIN_XI_TOL:
        raise ValueError(f"sin(xi) vanishes at xi={xi}")
    if t_obs <= 0 or t_horizon <= 0:
        raise ValueError("t_obs and t_horizon must be positive")
    auto = max(0.0, autocorr_plus_avg)
    return (t_obs / (xi * t_horizon)
            + (xi / abs(math.sin(xi))) * math.sqrt(auto))


def time_interval_bound(epsilon: float, kappa_rr: float, xi: float,
                        t_obs: float, t_horizon: float, d_s: int,
                        d_sigma: int, lam: float):
    """Bound on the fraction of a time interval with nonthermal G^2.

    Returns ``(value, vacuous)``: the raw bound
    (D_sigma/(lambda^2 D_S)) ((xi/|sin xi|) sqrt(eps^2 + 2 kappa_RR)
    + t_obs/(xi T)) clamped into [0, 1], flagged vacuous when clamped.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if epsilon < 0 or kappa_rr < 0:
        raise ValueError("epsilon and kappa_rr must be nonnegative")
    if xi <= 0 or abs(math.sin(xi)) <= SIN_XI_TOL:
        raise ValueError(f"invalid xi={xi}")
    if t_obs <= 0 or t_horizon <= 0:
        raise ValueError("t_obs and t_horizon must be positive")
    inner = ((xi / abs(math.sin(xi))) * math.sqrt(epsilon ** 2 + 2.0 * kappa_rr)
             + t_obs / (xi * t_horizon))
    raw = (d_sigma / (lam ** 2 * d_s)) * inner
    return min(1.0, max(0.0, raw)), raw > 1.0


def cauchy_schwarz_bound(times: np.ndarray, gram: np.ndarray,
                         w: WeightingFunction, norm_b: float) -> float:
    """General-dynamics bound sqrt(sum_ij q_i q_j K_ij) sqrt(<B,B>).

    ``gram`` is the kernel K_ij = <U_{t_i}(A), U_{t_j}(A)> on the grid
    ``times``; it must be Hermitian positive semidefinite to tolerance
    (it is a Gram matrix). The quadrature vector q combines the window
    density with trapezoid weights; a single-point grid reduces to the plain
    Cauchy-Schwarz inequality.
    """
    times = np.asarray(times, dtype=float)
    gram = np.asarray(gram)
    n = times.size
    if gram.shape != (n, n):
        raise ValueError(f"gram shape {gram.shape} does not match {n} times")
    herm_defect = np.linalg.norm(gram - gram.conj().T)
    if not herm_defect <= KERNEL_TOL * max(1.0, np.linalg.norm(gram)):
        raise ValueError(f"kernel not Hermitian: defect {herm_defect:.3e}")
    scale = max(1.0, float(np.abs(np.diagonal(gram)).max(initial=0.0)))
    min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0).min())
    if min_eig < -KERNEL_TOL * scale:
        raise ValueError(f"kernel indefinite: min eigenvalue {min_eig:.3e}")
    if n == 1:
        q = np.array([1.0])
    else:
        dt = np.zeros(n)
        dt[:-1] += 0.5 * np.diff(times)
        dt[1:] += 0.5 * np.diff(times)
        q = w.density(times) * dt
    val = float(np.real(q @ gram @ q))
    return math.sqrt(max(0.0, val)) * math.sqrt(max(0.0, norm_b))


def cloned_equilibrium_bound(epsilon: float, kappa_plus: float, w0: float,
                             w_floor: float, d_s: int, d_sigma: int) -> float:
    """Equilibrium-deviation bound for the cloned-operator construction.

    eps_c = D_sigma sqrt(eps^2 (1 - kappa_plus)/W + kappa_plus/(W D_S^2))
    + w0 D_sigma (D_S - 1)/D_S^2, where kappa_plus is the short-window weight
    excluded from the measured interval and W the window floor. The fraction
    of nonthermal basis-time pairs is then bounded by eps_c / lambda^2.
    """
    if w_floor <= 0:
        raise ValueError(f"window floor W must be positive, got {w_floor}")
    if not 0.0 <= kappa_plus <= 1.0:
        raise ValueError(f"kappa_plus must be in [0, 1], got {kappa_plus}")
    if epsilon < 0 or w0 < 0:
        raise ValueError("epsilon and w0 must be nonnegative")
    root = math.sqrt(epsilon ** 2 * (1.0 - kappa_plus) / w_floor
                     + kappa_plus / (w_floor * d_s ** 2))
    return d_sigma * root + w0 * d_sigma * (d_s - 1) / d_s ** 2


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

    d: int
    d_s: int
    d_sigma: int
    n_samples: int
    threshold: float
    measured_rms: float
    check: Check
    verdict: str
    trivial_core: bool


def fourth_order_negative_demo(d: int, d_s: int, d_sigma: int,
                               n_samples: int = 200,
                               seed=None) -> NegativeDemoReport:
    """Show that the premise of a fourth-order window bound fails generically.

    Samples Haar-conjugated core projectors and measures the RMS fluctuation
    of [G_rho-rho^2(t)]^2 around 1/D_sigma^2. For a nontrivial core this
    scale sits far above the premise threshold 1/D_R^2 (verdict "premise
    unsatisfiable"); for D_sigma = 1 the two-point function is identically 1
    and the premise holds trivially.

    G_rho-rho^2 reads the D_rho x D_rho corner of the sample unitary, so
    each sample draws only its leading D_rho columns: D x D_rho Gaussians
    and a thin QR, O(D D_rho^2) instead of O(D^3). Sample i draws from
    ``derive_rng(seed, "negative-demo", i)``; the samples go to the pool
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
        for i in samples:
            u = sample_haar_unitary(d, rng=derive_rng(seed, "negative-demo", i),
                                    columns=d_rho)
            # a C-ordered corner: the order of the sum follows the layout
            c = np.ascontiguousarray(u[:d_rho])
            g = np.sum(np.abs(c) ** 2) / d_rho
            out.append(g * g - 1.0 / d_sigma ** 2)
        return out

    dev = np.array(_map_contiguous(deviations, n_samples), dtype=float)
    measured = float(np.sqrt(np.mean(dev ** 2)))
    threshold = 1.0 / d_r ** 2
    trivial = d_sigma == 1
    if trivial:
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
    return NegativeDemoReport(
        d=d, d_s=d_s, d_sigma=d_sigma, n_samples=n_samples,
        threshold=threshold, measured_rms=measured, check=check,
        verdict=verdict, trivial_core=trivial,
    )
