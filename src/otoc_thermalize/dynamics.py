"""Time series of the correlators and Haar-typicality statistics.

``correlator_series`` evaluates G^2(t), G^4(t), sigma^2(t) and the normalized
commutator norm for a many-body setup under a unitary source. At each time it
splits the evolved D x D_eta core basis by the observable P_R = L L^dag into
the cross-Gram c = L^dag K_t (D/D_S x D_eta) and the residual
R = (1 - P_R) K_t, in one of three ways, and never forms the unitary:

* A circuit evolves K in the register (``evolve_basis_series``) and
  applies P_R = |chi><chi| (x) 1 on its own qubits: c is <chi| contracted
  into the observed legs of K_t (``contract_isometry``) and R = K_t - chi (x) c,
  so the D x D/D_S isometry L is never formed. Peak memory is a few
  D x D_eta blocks. A CUE source splits K = K_0 the same way.
* A CUE time t > 0 is an independent Haar U_t, so (L^dag U_t K,
  (1 - P_R) U_t K) are, in a basis [L, L_perp], the top D_R and bottom
  D - D_R rows of a D x D_eta Haar isometry, whatever L and K are. The
  reduction reads them only through c^dag c and R^dag R, whose joint law
  ``haar_corner_stacks`` draws from two Bartlett R factors, up to one common
  diagonal phase conjugation that no quantity below sees: c and R are the
  two row blocks of its thin Q, at O(D_eta^3) and with no D-sized array.
* A Hamiltonian H = V diag(E) V^dag is reduced in its ``Eigenframe``:
  with W = V^dag L and Y = V^dag K, X_t = exp(-iEt) Y, c = W^dag X_t and
  V^dag R = X_t - W c. A GUE frame is drawn as E and W alone, so neither V
  nor H exists.

The reduction that follows is shared. G^2, G^4 and the principal cos^2
spectrum come from the D_eta x D_eta Gram matrix m = c^dag c (its eigenvalues
are the cos^2 of the principal angles, Bjorck & Golub 1973), and the
commutator norm from the residual, through
||[P_R, P_t]||_F^2 = 2 ||(1 - P_R) P_t P_R||_F^2 = 2 tr(R^dag R m),
independently of G^2 - G^4.
``haar_prediction`` carries the exact Weingarten moments of the correlators
over the Haar measure, and ``typicality_experiment`` tests them by Monte
Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .geometry import variance_from_moments
from .hilbert import (
    Eigenframe,
    ManyBodySetup,
    UnitarySource,
    _corner_stack_entries,
    _map_contiguous,
    _on_sites,
    _pool_for,
    _time_step,
    contract_isometry,
    derive_rng,
    embed_isometry,
    evolve_basis_series,
    haar_corner_stacks,
)
from .thermalization import Check

#: Roundoff floor of the typicality checks (double-precision epsilon).
ROUNDOFF = float(np.finfo(float).eps)


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
    both sides are computed independently, so the identity is a genuine
    consistency check of unitarity (``many-body-sweep`` checks it, and
    G^4 <= G^2, row by row). ``cos2`` holds the D_eta principal
    cos^2 theta_k at each time, ascending, clamped to [0, 1].
    """

    times: np.ndarray
    g2: np.ndarray
    g4: np.ndarray
    sigma2: np.ndarray
    commutator_norm: np.ndarray
    cos2: np.ndarray


def _register_split(setup: ManyBodySetup, kt: np.ndarray) -> tuple:
    """(c, R) of a register block K_t, with P_R = |chi><chi| (x) 1 applied on
    its own qubits; R is formed in place of chi (x) c."""
    c = contract_isometry(setup, "observable", kt)
    residual = _on_sites(setup.observed_state, setup.observed_sites,
                         setup.n_total, c)
    np.subtract(kt, residual, out=residual)
    return c, residual


def _observed_splits(setup: ManyBodySetup, source, times: np.ndarray):
    """Yield (c, R) at each time: c = L^dag K_t and the residual R = (1 - P_R) K_t.

    An ``Eigenframe`` yields them in its eigenframe, where R is V^dag R; a
    circuit in the register, from the core basis K evolved by
    ``evolve_basis_series``, and a CUE source at t = 0 from K itself. K_t is
    dropped before the yield. A CUE time t > 0 yields the two row blocks of
    the thin Q of one Bartlett stack, drawn from ``derive_rng(seed, "cue", t)``:
    c, its first min(D_R, D_eta) rows, and R, the other min(D - D_R, D_eta).
    The times' stacks come from one ``haar_corner_stacks`` call, whose draws
    do not depend on how they are stacked.
    """
    if isinstance(source, UnitarySource) and source.kind == "circuit":
        for kt in evolve_basis_series(source, embed_isometry(setup, "core"), times):
            split = _register_split(setup, kt)
            del kt
            yield split
        return
    if isinstance(source, UnitarySource):
        steps = [_time_step(source.kind, t) for t in times]
        rngs = (derive_rng(source.seed, "cue", step) for step in steps if step > 0)
        draws = (q for stack in haar_corner_stacks(setup.dim, setup.d_r, setup.d_rho, rngs)
                 for q in stack)
        rows = min(setup.d_r, setup.d_rho)
        for step in steps:
            if step == 0:
                yield _register_split(setup, embed_isometry(setup, "core"))
            else:
                q = next(draws)
                yield q[:rows], q[rows:]
        return
    evals, w, y = source.evals, source.w, source.y
    for t in times:
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        x = np.exp(-1j * t * evals)[:, None] * y
        # W^dag X as conj(W^T conj(X)): W^T is a view, W.conj() a D x D_R copy
        c = (w.T @ x.conj()).conj()
        yield c, x - w @ c


def _reduce(c: np.ndarray, residual: np.ndarray, d_rho: int) -> tuple:
    """(G2, G4, sigma2, commutator norm, cos2) of one time, from its (c, R)."""
    m = c.conj().T @ c
    g2 = np.trace(m).real / d_rho
    g4 = np.sum(np.abs(m) ** 2) / d_rho
    cos2 = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
    # (1 - P_R) P_t P_R = R c^dag L^dag, so its squared Frobenius norm is
    # tr(R^dag R c^dag c). R^dag R comes from R, not from 1 - m, so the
    # commutator identity still tests that K_t is an isometry
    gram = residual.conj().T @ residual
    comm = np.sum(gram * m.T).real / d_rho
    return g2, g4, variance_from_moments(g2, g4), comm, cos2


def correlator_series(setup: ManyBodySetup, source: Eigenframe | UnitarySource,
                      times: Sequence[float]) -> CorrelatorSeries:
    """Evaluate the correlator series for ``setup`` under ``source``.

    The times of an eigenframe or a CUE source are independent of each
    other, so they go to the pool (``hilbert._map_contiguous``) in
    contiguous chunks when a time's D x D_rho block, or a CUE time's
    Bartlett stack, reaches ``hilbert.POOL_MIN_ENTRIES``, and the rows come
    back in time order. A
    circuit carries its block from one time to the next, so its grid runs in
    order on one thread. Each time is reduced by the same operations on either
    route, so the series does not depend on the pool.

    Parameters
    ----------
    setup : ManyBodySetup
        Defines the embedded observable and core projectors.
    source : Eigenframe or UnitarySource
        An eigenframe drawn for ``setup`` (its bases are D x D_R and
        D x D_eta), or a register source on the same dimension.
    times : sequence of reals
        Explicit evaluation grid (ensemble sources require integer times).

    Returns
    -------
    CorrelatorSeries
        sigma2 is checked by ``variance_from_moments``, which raises
        InvariantError on a NaN or a value below ``VARIANCE_CLAMP``; G^4 <= G^2
        and the commutator identity are left to the caller.
    """
    d_rho = setup.d_rho
    if isinstance(source, Eigenframe):
        shapes = (source.w.shape, source.y.shape)
        needs = ((setup.dim, setup.d_r), (setup.dim, d_rho))
        if shapes != needs:
            raise ValueError(f"eigenframe bases have shapes {shapes}; the setup needs {needs}")
    elif source.dim != setup.dim:
        raise ValueError(
            f"source dimension {source.dim} does not match setup {setup.dim}")
    times = np.asarray([float(t) for t in times])

    def rows(span):
        return [_reduce(c, residual, d_rho) for c, residual in
                _observed_splits(setup, source, times[span.start:span.stop])]

    if isinstance(source, UnitarySource) and source.kind == "circuit":
        reduced = rows(range(len(times)))
    else:
        entries = (setup.dim * d_rho if isinstance(source, Eigenframe)
                   else _corner_stack_entries(setup.dim, setup.d_r, d_rho))
        with _pool_for(entries):
            reduced = _map_contiguous(rows, len(times))
    g2, g4, sigma2, comm = (np.array([r[k] for r in reduced], dtype=float)
                            for k in range(4))
    cos2 = np.array([r[4] for r in reduced]).reshape(times.shape + (d_rho,))
    return CorrelatorSeries(times=times, g2=g2, g4=g4, sigma2=sigma2,
                            commutator_norm=comm, cos2=cos2)


@dataclass(frozen=True)
class TypicalityResult:
    """Monte Carlo statistics of the correlators against Haar predictions."""

    mean_g2: float
    mean_g4: float
    mean_sigma2: float
    sample_var_g2: float
    tail_frac_g2: float
    tail_frac_g4: float
    prediction: HaarPrediction
    checks: Dict[str, Check]
    samples_g2: np.ndarray
    samples_g4: np.ndarray


def typicality_experiment(d: int, d_s: int, d_sigma: int, n_samples: int,
                          seed=None, kappa: float = 3.0) -> TypicalityResult:
    """Sample Haar-conjugated coordinate projectors and test the predictions.

    Tolerances: sample means of G^2 and G^4 within 4 standard errors (the
    exact var_g2 formula for G^2, the sample variance for G^4; both floored
    at ``ROUNDOFF``); the sample variance of G^2 within a factor 2 of var_g2,
    or at most ``ROUNDOFF**2`` when var_g2 = 0 (G^2 is then constant); the
    mean sigma^2 within 20% of sigma2_typ; and at most 1% of samples outside
    kappa times the concentration scale fluctuation_scale(n), n = 1 for G^2
    and 2 for G^4. The result also carries the per-sample G^2 and G^4.

    G^2 and G^4 of coordinate projectors conjugated by a Haar unitary read
    only the Gram m = c^dag c of its D_R x D_rho corner c, through tr m and
    the |m_ij|. Sample i draws a matrix with that Gram's law from its two
    Bartlett R factors (``hilbert.haar_corner_stacks``) and the generator
    ``derive_rng(seed, "typicality", i)``: O(D_rho^3) time and no D-sized
    array. The samples go to the pool (``hilbert._map_contiguous``) in
    contiguous chunks when one draw's stack reaches
    ``hilbert.POOL_MIN_ENTRIES``, each reduced to its moments stack by
    stack, and the moments are reduced in index order, so the result does
    not depend on the pool.

    Raises
    ------
    ValueError
        If ``n_samples < 2`` or ``kappa <= 0``.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    pred = haar_prediction(d, d_s, d_sigma)
    d_r, d_rho = pred.d_r, pred.d_rho

    def moments(samples):
        out = []
        rngs = (derive_rng(seed, "typicality", i) for i in samples)
        for q in haar_corner_stacks(d, d_r, d_rho, rngs):
            c = np.ascontiguousarray(q[:, :min(d_r, d_rho)])
            m = c.conj().swapaxes(1, 2) @ c
            out += zip(np.trace(m, axis1=1, axis2=2).real / d_rho,
                       np.sum(np.abs(m) ** 2, axis=(1, 2)) / d_rho)
        return out

    # contiguous rows: a sum over a strided view may take another order
    with _pool_for(_corner_stack_entries(d, d_r, d_rho)):
        g2s, g4s = np.array(_map_contiguous(moments, n_samples), dtype=float).T.copy()
    mean_g2, mean_g4 = float(g2s.mean()), float(g4s.mean())
    mean_sigma2 = float((g4s - g2s ** 2).mean())
    var_g2 = float(g2s.var(ddof=1))
    se_g2 = max(math.sqrt(pred.var_g2 / n_samples), ROUNDOFF)
    se_g4 = max(float(g4s.std(ddof=1)) / math.sqrt(n_samples), ROUNDOFF)
    if pred.var_g2 == 0:
        var_check = Check("var(G2) <= eps^2 (var_pred = 0)", var_g2, ROUNDOFF ** 2, "stat")
    else:
        var_check = Check("|log2(var(G2)/var_pred)| <= 1",
                          abs(math.log2(var_g2 / pred.var_g2))
                          if var_g2 > 0 else math.inf, 1.0, "stat")
    tail_g2 = float(np.mean(np.abs(g2s - pred.mean_g2)
                            > kappa * pred.fluctuation_scale(1)))
    tail_g4 = float(np.mean(np.abs(g4s - pred.mean_g4)
                            > kappa * pred.fluctuation_scale(2)))
    return TypicalityResult(
        mean_g2=mean_g2, mean_g4=mean_g4, mean_sigma2=mean_sigma2,
        sample_var_g2=var_g2, tail_frac_g2=tail_g2, tail_frac_g4=tail_g4,
        prediction=pred,
        checks={
            "mean_g2": Check("|mean(G2) - 1/D_S| <= 4*SE",
                             abs(mean_g2 - pred.mean_g2), 4 * se_g2, "stat"),
            "mean_g4": Check("|mean(G4) - haar_mean(G4)| <= 4*SE",
                             abs(mean_g4 - pred.mean_g4), 4 * se_g4, "stat"),
            "var_g2": var_check,
            "sigma2": Check("|mean(sigma2) - sigma2_typ| <= 0.2*sigma2_typ",
                            abs(mean_sigma2 - pred.sigma2_typ),
                            0.2 * pred.sigma2_typ, "stat"),
            "tails": Check("tail fraction beyond kappa*concentration scale <= 0.01",
                           max(tail_g2, tail_g4), 0.01, "stat"),
        },
        samples_g2=g2s, samples_g4=g4s,
    )

