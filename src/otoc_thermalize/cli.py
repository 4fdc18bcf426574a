"""Seeded experiment runner with CSV/JSON emission.

Experiments are configured by a flat ``KEY = VALUE`` text file (``#`` starts
a comment; values parse as int, float, bool, string, or comma-separated
lists) plus command-line flag overrides, and write one record per
(instance, time, lambda) with a fixed column schema so results can be
plotted without custom parsers. Each run also evaluates a block of verdicts,
one per checked inequality, carrying the formula string, the worst-case LHS
and RHS over all rows, and the remaining slack. Exit codes: 0 all verdicts
pass, 1 configuration error, 2 a provable inequality failed (a soundness
bug, never statistics), 3 a statistical tolerance failed. Exit 2 comes only
from a failed ``[sound]`` verdict, an AssertionError or an ``InvariantError``;
any other ValueError of the library rejects an input and exits 1, so the
runner checks only what the library never sees or sees after instance work.

All randomness flows from one master seed through per-instance derived
streams, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .dynamics import correlator_series, typicality_experiment
from .hilbert import (
    DIM_CAP_DEFAULT,
    Eigenframe,
    InvariantError,
    ManyBodySetup,
    Projector,
    UnitarySource,
    _corner_stack_entries,
    _map_ordered,
    _one_blas_thread,
    _pool_for,
    derive_rng,
    haar_corner_stacks,
    sample_haar_unitary,  # noqa: F401  (no call here; bench/tests reads cli's binding)
)
from .predictor import (
    WindowPair,
    fourth_order_negative_demo,
    synopsis_bound,
    theorem_bound,
    time_interval_bound,
    window_averages,
)
from .thermalization import (
    Check,
    bound_thermal_dimension,
    core_sizing,
    thermal_axes,
    thermalization_report,
)

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_SOUND = 2
EXIT_STAT = 3

CSV_COLUMNS = ("experiment", "seed", "N", "N_S", "N_sigma", "t",
               "g2", "g4", "sigma2", "lambda", "bound", "measured", "pass")


class ConfigError(Exception):
    """Invalid configuration; the message names the violated constraint."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment name plus its remaining free parameters."""

    experiment: str
    seed: int
    out: Optional[str]
    fmt: str
    params: Dict[str, object]

    @classmethod
    def from_mapping(cls, mapping: Dict[str, object]) -> "ExperimentConfig":
        params = dict(mapping)
        experiment = params.pop("experiment", None)
        if experiment is None:
            raise ConfigError("config must set 'experiment'")
        if experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"unknown experiment {experiment!r}; known: {known}")
        seed = params.pop("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        out = params.pop("out", None)
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out must be a path string, got {out!r}")
        fmt = params.pop("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
        return cls(experiment=str(experiment), seed=seed, out=out, fmt=fmt,
                   params=params)


# ---------------------------------------------------------------------------
# Config file parsing.
# ---------------------------------------------------------------------------

def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse flat ``KEY = VALUE`` lines into a mapping.

    ``#`` comments and blank lines are skipped; a value containing commas
    becomes a list of scalars, and an empty value an empty list.
    """
    config: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected KEY = VALUE, got {raw!r}")
        if key in config:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if value == "":
            config[key] = []
        elif "," in value:
            config[key] = [_parse_scalar(part.strip())
                           for part in value.split(",") if part.strip() != ""]
        else:
            config[key] = _parse_scalar(value)
    return config


def load_config(path: str) -> Dict[str, object]:
    """Read and parse a config file; missing files are configuration errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _take_int(params, key, default, minimum=None):
    value = params.pop(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _finite_float(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _take_float(params, key, default):
    return _finite_float(key, params.pop(key, default))


def _take_str(params, key, default, choices=None):
    value = params.pop(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key} must be one of {sorted(choices)}, got {value!r}")
    return value


def _take_float_list(params, key, default):
    value = params.pop(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a number or comma list, got {value!r}")
    return [_finite_float(f"{key} values", item) for item in value]


def _reject_leftovers(experiment, params):
    if params:
        keys = ", ".join(sorted(params))
        raise ConfigError(f"unknown config key(s) for {experiment}: {keys}")


def _qubit_counts(params, n_default, n_s_default, n_sigma_default):
    n = _take_int(params, "n", n_default, minimum=1)
    n_s = _take_int(params, "n_s", n_s_default, minimum=1)
    n_sigma = _take_int(params, "n_sigma", n_sigma_default, minimum=0)
    dim_cap = _take_int(params, "dim_cap", DIM_CAP_DEFAULT, minimum=2)
    if n > dim_cap.bit_length() - 1:  # 2**n > dim_cap, without forming 2**n
        raise ConfigError(f"total dimension 2^{n} exceeds dim_cap {dim_cap}")
    if n_s > n or n_sigma > n:
        raise ConfigError(
            f"need N_S <= N and N_sigma <= N, got ({n_s}, {n_sigma}, {n})")
    return n, n_s, n_sigma


def _product_setup(n, n_s, n_sigma) -> ManyBodySetup:
    """Default layout: all-|0> observed/core states on the leading qubits."""
    chi = np.zeros(2 ** n_s)
    chi[0] = 1.0
    psi = np.zeros(2 ** n_sigma)
    psi[0] = 1.0
    return ManyBodySetup(n, n_s, n_sigma, chi, psi)


def _map_instances(fn: Callable[[int], object], count: int) -> List[object]:
    """Run fn(0..count-1) on the package's one pool (``hilbert._map_ordered``).

    Results are collected in index order and every instance draws from its
    own derived stream, so the output is independent of scheduling and of
    the pool's width. Each runner calls it inside ``hilbert._pool_for`` with
    the entries of the basis an instance draws or evolves: D x D_R for
    predictor-demo and a gue sweep, D x D_rho for a circuit sweep, and the
    rows x D_rho of a Bartlett stack for a cue sweep (one per time) and
    verify-theorem. Two or more instances of at least
    ``hilbert.POOL_MIN_ENTRIES`` entries take the pool,
    and the samples, times or row blocks inside each instance then run
    inline on its thread; smaller instances run inline on the caller's
    thread, and so does everything inside them. A single instance runs on
    the caller's thread and leaves the pool to its samples, times or row
    blocks, if they are large enough.
    """
    return _map_ordered(fn, count)


def _row(experiment, seed, n, n_s, n_sigma, t=None, g2=None, g4=None,
         sigma2=None, lam=None, bound=None, measured=None, *, ok):
    """One output row; ``ok`` is its checks' conjunction, None for a row without one."""
    values = (experiment, seed, n, n_s, n_sigma, t, g2, g4, sigma2,
              lam, bound, measured, ok)
    return dict(zip(CSV_COLUMNS, values))


class _Worst:
    """The row check with the least slack of one sound inequality: its verdict."""

    def __init__(self, formula: str):
        self.verdict = Check(formula, -math.inf, math.inf, "sound")

    def update(self, lhs: float, rhs: float) -> bool:
        """Check one row; return its pass cell and keep the check if it is worst."""
        check = self.verdict._replace(lhs=float(lhs), rhs=float(rhs))
        slack = self.verdict.rhs - self.verdict.lhs
        # a NaN side is the worst case: the first one is kept, and it fails
        if not math.isnan(slack) and not check.rhs - check.lhs >= slack:
            self.verdict = check
        return check.ok


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------

def _haar_pair(d: int, d_r: int, d_rho: int, rng):
    """A pair of independent Haar projectors of ranks D_R and D_rho on C^D,
    drawn in the span of its principal vectors, C^D'
    (``hilbert.haar_corner_stacks``): the first min(D_R, D_rho) axes and the
    thin Q of one Bartlett stack. Its cross-Gram has the law of a D-row
    pair's, up to a diagonal phase conjugation of its Gram, and a report
    reads a pair only through that Gram; no D-row array is drawn."""
    q = next(haar_corner_stacks(d, d_r, d_rho, [rng]))[0]
    return Projector.coordinate(len(q), min(d_r, d_rho)), Projector(q)


def _run_verify_theorem(cfg: ExperimentConfig):
    params = dict(cfg.params)
    n, n_s, n_sigma = _qubit_counts(params, 7, 1, 4)
    n_instances = _take_int(params, "n_instances", 50, minimum=1)
    n_bases = _take_int(params, "n_bases", 20, minimum=0)
    lambdas = _take_float_list(params, "lambda_grid", [0.05, 0.1, 0.2, 0.5])
    _reject_leftovers(cfg.experiment, params)
    if not lambdas or any(lam <= 0 for lam in lambdas):
        raise ConfigError("lambda_grid needs at least one positive value")
    d = 2 ** n
    d_r, d_rho = d // 2 ** n_s, d // 2 ** n_sigma

    def one_instance(i):
        rng = derive_rng(cfg.seed, "verify-theorem", i)
        p_r, p_rho = _haar_pair(d, d_r, d_rho, rng)
        return [thermalization_report(p_r, p_rho, lam, n_bases=n_bases, seed=rng)
                for lam in lambdas]

    with _pool_for(_corner_stack_entries(d, d_r, d_rho)):
        reports = _map_instances(one_instance, n_instances)
    fraction = _Worst("f_lambda <= min(1, (3/lambda)*(sigma2/4)^(1/3))")
    dimension = _Worst("dim(H_th) >= D_rho*(1 - sigma2/lambda^2)")
    converse = _Worst("sigma2 <= lambda^2 + (1 - lambda^2)*f_max")
    rows = []
    for per_lambda in reports:
        for rep in per_lambda:
            f_measured = max([rep.worst_basis_f, *rep.empirical_f])
            f_ok = fraction.update(f_measured, rep.f_lambda_bound)
            dim_ok = dimension.update(rep.dim_thermal_bound, rep.dim_thermal_achieved)
            converse.update(rep.sigma2, rep.converse_bound)
            rows.append(_row(
                cfg.experiment, cfg.seed, n, n_s, n_sigma, t=0.0,
                g2=rep.g2, g4=rep.g4, sigma2=rep.sigma2, lam=rep.lam,
                bound=rep.f_lambda_bound, measured=f_measured,
                ok=f_ok and dim_ok))
    return rows, [fraction.verdict, dimension.verdict, converse.verdict]


def _run_haar_typicality(cfg: ExperimentConfig):
    params = dict(cfg.params)
    n, n_s, n_sigma = _qubit_counts(params, 6, 1, 4)
    n_samples = _take_int(params, "n_samples", 200)
    kappa = _take_float(params, "kappa", 3.0)
    _reject_leftovers(cfg.experiment, params)
    d, d_s, d_sigma = 2 ** n, 2 ** n_s, 2 ** n_sigma
    result = typicality_experiment(d, d_s, d_sigma, n_samples, seed=cfg.seed,
                                   kappa=kappa)
    pred = result.prediction
    scale = kappa * pred.fluctuation_scale(1)
    rows = []
    for i in range(n_samples):
        g2 = float(result.samples_g2[i])
        g4 = float(result.samples_g4[i])
        dev = abs(g2 - pred.mean_g2)
        rows.append(_row(
            cfg.experiment, cfg.seed, n, n_s, n_sigma, t=float(i),
            g2=g2, g4=g4, sigma2=g4 - g2 * g2,
            bound=scale, measured=dev, ok=dev <= scale))
    return rows, list(result.checks.values())


def _time_grid(params, source_kind):
    if "times" not in params:
        t_start = _take_float(params, "t_start", 0.0)
        t_stop = _take_float(params, "t_stop", 10.0)
        t_count = _take_int(params, "t_count", 21, minimum=1)
        if t_stop < t_start:
            raise ConfigError(f"t_stop {t_stop} < t_start {t_start}")
        grid = np.linspace(t_start, t_stop, t_count)
    else:
        clash = sorted({"t_start", "t_stop", "t_count"} & params.keys())
        if clash:
            raise ConfigError(f"times conflicts with {', '.join(clash)}; "
                              f"give either times or t_start/t_stop/t_count")
        grid = np.asarray(_take_float_list(params, "times", None))
        if grid.size == 0:
            raise ConfigError("times must be a nonempty comma list")
    if source_kind in ("cue", "circuit"):
        rounded = np.rint(grid)
        if np.any(np.abs(grid - rounded) > 0) or np.any(rounded < 0):
            raise ConfigError(
                f"source {source_kind!r} is an ensemble/circuit and needs "
                f"nonnegative integer times")
        grid = rounded
    return grid


def _run_many_body_sweep(cfg: ExperimentConfig):
    params = dict(cfg.params)
    n, n_s, n_sigma = _qubit_counts(params, 8, 1, 4)
    source_kind = _take_str(params, "source", "gue",
                            choices=("gue", "cue", "circuit"))
    n_instances = _take_int(params, "n_instances", 3, minimum=1)
    times = _time_grid(params, source_kind)
    lambdas = _take_float_list(params, "lambda_grid", [])
    _reject_leftovers(cfg.experiment, params)
    if any(lam <= 0 for lam in lambdas):
        raise ConfigError("lambda_grid values must be positive")
    setup = _product_setup(n, n_s, n_sigma)

    def one_instance(i):
        if source_kind == "gue":
            source = Eigenframe.gue(setup, derive_rng(cfg.seed, "sweep-gue", i))
        else:
            child = int(derive_rng(cfg.seed, "sweep-source", i).integers(1 << 63))
            if source_kind == "cue":
                source = UnitarySource.haar_cue(setup.dim, seed=child)
            else:
                source = UnitarySource.circuit(n, seed=child)
        return correlator_series(setup, source, times)

    if source_kind == "cue":
        entries = _corner_stack_entries(setup.dim, setup.d_r, setup.d_rho)
    else:
        entries = setup.dim * (setup.d_r if source_kind == "gue" else setup.d_rho)
    with _pool_for(entries):
        results = _map_instances(one_instance, n_instances)
    chain = _Worst("G4(t) <= G2(t)")
    identity = _Worst("|G2 - G4 - ||[P_R, P_rho(t)]||_F^2/(2 D_rho)| <= 0")
    dimension = _Worst("dim(H_th)(t) >= D_rho*(1 - sigma2(t)/lambda^2)")
    rows = []
    for series in results:
        for j, t in enumerate(series.times):
            g2, g4 = float(series.g2[j]), float(series.g4[j])
            sigma2 = float(series.sigma2[j])
            # each row check is made, so each verdict sees every row
            chain_ok = chain.update(g4, g2)
            identity_ok = identity.update(
                abs(g2 - g4 - float(series.commutator_norm[j])), 0.0)
            if not lambdas:
                rows.append(_row(cfg.experiment, cfg.seed, n, n_s, n_sigma,
                                 t=float(t), g2=g2, g4=g4, sigma2=sigma2,
                                 ok=chain_ok and identity_ok))
                continue
            for lam in lambdas:
                bound = bound_thermal_dimension(sigma2, lam, setup.d_rho)
                achieved = int(np.count_nonzero(thermal_axes(series.cos2[j], lam)))
                dim_ok = dimension.update(bound, achieved)
                rows.append(_row(
                    cfg.experiment, cfg.seed, n, n_s, n_sigma, t=float(t),
                    g2=g2, g4=g4, sigma2=sigma2, lam=lam, bound=bound,
                    measured=float(achieved),
                    ok=chain_ok and identity_ok and dim_ok))
    verdicts = [chain.verdict, identity.verdict]
    if lambdas:
        verdicts.append(dimension.verdict)
    return rows, verdicts


def _run_predictor_demo(cfg: ExperimentConfig):
    params = dict(cfg.params)
    n, n_s, n_sigma = _qubit_counts(params, 7, 1, 4)
    n_instances = _take_int(params, "n_instances", 5, minimum=1)
    n_windows = _take_int(params, "n_windows", 10, minimum=1)
    t0 = _take_float(params, "t0", 0.0)
    t_horizon = _take_float(params, "t_horizon", 200.0)
    t_obs = _take_float(params, "t_obs", 2.0)
    xi = _take_float(params, "xi", 0.5 * math.pi)
    epsilon = _take_float(params, "epsilon", 0.01)
    kappa_rr = _take_float(params, "kappa_rr", 0.0)
    lambdas = _take_float_list(params, "lambda_grid", [])
    _reject_leftovers(cfg.experiment, params)
    last_end = t0 + (n_windows - 1) * t_obs + t_horizon
    if not math.isfinite(last_end):
        raise ConfigError(
            f"the last window ends at t0 + (n_windows-1)*t_obs + t_horizon "
            f"= {last_end}; it must be finite")
    if epsilon < 0 or kappa_rr < 0:
        raise ConfigError(f"epsilon and kappa_rr must be nonnegative, got "
                          f"epsilon={epsilon}, kappa_rr={kappa_rr}")
    if any(lam <= 0 for lam in lambdas):
        raise ConfigError("lambda_grid values must be positive")
    setup = _product_setup(n, n_s, n_sigma)
    d_s, d_sigma = setup.d_s, setup.d_sigma
    # A2 = P_R - 1/D_S and B2 = D_sigma P_rho - 1 are read off the eigenframe
    # a block of rows at a time (window_averages); their norms are closed forms
    norm_a = (1.0 / d_s) * (1.0 - 1.0 / d_s)
    norm_b = d_sigma - 1.0
    # the windows share one length and differ only in their start, so each
    # is the first one shifted by k*t_obs; w0 and W do not depend on t0
    pair = WindowPair(t0, t_horizon, t_obs, xi)
    shifts = t_obs * np.arange(n_windows)

    def one_instance(i):
        # V^dag P_R V = W W^dag and V^dag P_rho V = Y Y^dag in the eigenframe
        frame = Eigenframe.gue(setup, derive_rng(cfg.seed, "predictor-gue", i))
        # a finite window time can still overflow a phase E*t; that is a
        # config out of numeric range, not a NaN row
        with np.errstate(over="raise"):
            auto, cross = window_averages(frame, pair, shifts)
        return auto, np.abs(cross).tolist()

    with _pool_for(setup.dim * setup.d_r):
        results = _map_instances(one_instance, n_instances)
    theorem = _Worst("|avg_w <B2,U_t(A2)>| <= "
                     "(sqrt(auto/W) + w0*sqrt(<A2,A2>))*sqrt(<B2,B2>)")
    synopsis = _Worst("normalized: |avg| <= t_obs/(xi*T) "
                      "+ (xi/|sin xi|)*sqrt(auto_normalized)")
    positive = _Worst("CP-window autocorrelator >= 0")
    rows = []
    scale = math.sqrt(norm_a * norm_b)
    for auto, lhs_list in results:
        positive.update(0.0, auto)
        auto_clamped = max(0.0, auto)
        rhs = theorem_bound(auto_clamped, norm_a, norm_b, pair)
        normalized_rhs = synopsis_bound(auto_clamped / norm_a, pair)
        for k, lhs in enumerate(lhs_list):
            synopsis.update(lhs / scale, normalized_rhs)
            rows.append(_row(
                cfg.experiment, cfg.seed, n, n_s, n_sigma,
                t=t0 + k * t_obs, bound=rhs, measured=lhs,
                ok=theorem.update(lhs, rhs)))
    vacuous = []
    for lam in lambdas:
        value, clamped = time_interval_bound(epsilon, kappa_rr, pair, d_s,
                                             d_sigma, lam)
        if clamped:
            vacuous.append(repr(lam))
        # a bound to read, with no checked inequality: the pass cell is empty
        rows.append(_row(cfg.experiment, cfg.seed, n, n_s, n_sigma,
                         lam=lam, bound=value, ok=None))
    note = (f"time-interval bound vacuous (clamped to 1) at lambda = "
            f"{', '.join(vacuous)}" if vacuous else None)
    return rows, [theorem.verdict, synopsis.verdict, positive.verdict], note


def _run_sizing_table(cfg: ExperimentConfig):
    params = dict(cfg.params)
    lambda_grid = _take_float_list(params, "lambda_rel_grid",
                                   [0.1, 0.2, 0.5, 0.9])
    f_grid = _take_float_list(params, "f_grid", [0.1, 0.2, 0.5, 0.9])
    d_s = _take_int(params, "d_s", 2)
    _reject_leftovers(cfg.experiment, params)
    if not lambda_grid or not f_grid:
        raise ConfigError("lambda_rel_grid and f_grid must be nonempty")
    n_s = d_s.bit_length() - 1 if d_s & (d_s - 1) == 0 else None
    floor = _Worst("D_sigma_min >= (D_S*(D_S-1)/4)*(3/(lambda_rel*f))^3")
    rounding = _Worst("2^N_sigma >= D_sigma_min")
    rows = []
    for lam_rel in lambda_grid:
        for f_target in f_grid:
            sizing = core_sizing(lam_rel, f_target, d_s)
            exact = (d_s * (d_s - 1) / 4.0) * (3.0 / (lam_rel * f_target)) ** 3
            floor_ok = floor.update(exact * (1.0 - 1e-9), float(sizing.d_sigma_min))
            rounding_ok = rounding.update(float(sizing.d_sigma_min),
                                          float(2 ** sizing.n_sigma))
            # t carries the target fraction f; bound is the sigma^2 threshold
            # in the relative-lambda convention, measured the minimal D_sigma
            rows.append(_row(
                cfg.experiment, cfg.seed, None, n_s, sizing.n_sigma,
                t=f_target, lam=lam_rel, bound=sizing.sigma2_threshold_rel,
                measured=float(sizing.d_sigma_min), ok=floor_ok and rounding_ok))
    return rows, [floor.verdict, rounding.verdict]


def _run_negative_demo(cfg: ExperimentConfig):
    params = dict(cfg.params)
    n, n_s, n_sigma = _qubit_counts(params, 8, 1, 4)
    n_samples = _take_int(params, "n_samples", 200)
    _reject_leftovers(cfg.experiment, params)
    report = fourth_order_negative_demo(
        2 ** n, 2 ** n_s, 2 ** n_sigma, n_samples=n_samples, seed=cfg.seed)
    # the verdict is the library's check; the satisfiability conclusion is the note
    rows = [_row(cfg.experiment, cfg.seed, n, n_s, n_sigma,
                 bound=report.threshold, measured=report.measured_rms,
                 ok=report.check.ok)]
    note = (f"{report.verdict} (rms {report.measured_rms:.6e} vs "
            f"threshold {report.threshold:.6e})")
    return rows, [report.check], note


EXPERIMENTS = {
    "verify-theorem": (
        _run_verify_theorem,
        "thermal-dimension and nonthermal-fraction bounds on random pairs"),
    "haar-typicality": (
        _run_haar_typicality,
        "Monte Carlo correlator statistics against exact Haar moments"),
    "many-body-sweep": (
        _run_many_body_sweep,
        "correlator time series under GUE, CUE, or circuit dynamics"),
    "predictor-demo": (
        _run_predictor_demo,
        "window-averaged correlator bounds for GUE Hamiltonians"),
    "sizing-table": (
        _run_sizing_table,
        "minimal core sizes for target nonthermal fractions"),
    "negative-demo": (
        _run_negative_demo,
        "measured obstruction to a fourth-order window bound"),
}


# ---------------------------------------------------------------------------
# Output emission.
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[dict], verdicts: Sequence[Check]) -> str:
    payload = {
        "rows": list(rows),
        "verdicts": [
            {"anchor": v.formula, "kind": v.kind, "passed": v.ok,
             "lhs": float(v.lhs), "rhs": float(v.rhs), "slack": float(v.rhs - v.lhs)}
            for v in verdicts
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _check_out(path: str) -> None:
    """Reject an ``out`` path before the run, with the error ``_emit`` would
    meet: one that names a directory, or whose directory is missing or not
    writable. Nothing is created or truncated."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    exc = OSError(code, os.strerror(code), path)
    raise ConfigError(f"cannot write output {path!r}: {exc}")


def _emit(cfg: ExperimentConfig, rows, verdicts) -> None:
    text = (render_csv(rows) if cfg.fmt == "csv"
            else render_json(rows, verdicts))
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        # ``_check_out`` passed before the run; the path may have changed since
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out!r}: {exc}") from exc


def _print_verdicts(experiment: str, verdicts: Sequence[Check],
                    note: Optional[str] = None) -> None:
    for v in verdicts:
        status = "PASS" if v.ok else "FAIL"
        print(f"[{v.kind}] {status} {v.formula} | lhs={v.lhs!r} rhs={v.rhs!r} "
              f"slack={v.rhs - v.lhs!r}", file=sys.stderr)
    if note:
        print(f"{experiment}: {note}", file=sys.stderr)


def run(config: Dict[str, object]) -> int:
    """Execute the experiment a config mapping names; returns the exit code.

    numpy's OpenBLAS runs on one thread while the experiment runs, so the
    output depends on the config and seed alone; the caller's thread count
    is restored on return. The only parallelism is the one pool
    (``hilbert._map_ordered``), one level deep: instances, or else the
    samples, times or row blocks of a single one, whose results are reduced
    in index order, so the output does not depend on the pool's width. A map
    whose tasks each work on fewer than ``hilbert.POOL_MIN_ENTRIES`` array
    entries runs inline (``_map_instances`` gives the sizes). An ``out``
    path that names a directory, or whose directory is missing or not
    writable, is a config error before the experiment runs.
    """
    try:
        cfg = ExperimentConfig.from_mapping(dict(config))
        runner, _ = EXPERIMENTS[cfg.experiment]
        if cfg.out is not None:
            _check_out(cfg.out)
        with _one_blas_thread():
            rows, verdicts, *note = runner(cfg)
        _emit(cfg, rows, verdicts)
    except (AssertionError, InvariantError) as exc:
        # a checked statement of proven math failed: a soundness bug
        print(f"soundness failure: {exc}", file=sys.stderr)
        return EXIT_SOUND
    except (ConfigError, ValueError) as exc:  # any other ValueError rejects an input
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # a finite config number overflowed a formula
        print(f"config error: {exc}: a value is out of numeric range", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a config size no allocation can hold
        print(f"config error: {exc}: the config asks for more memory than there is",
              file=sys.stderr)
        return EXIT_CONFIG
    _print_verdicts(cfg.experiment, verdicts, *note)
    if any(v.kind == "sound" and not v.ok for v in verdicts):
        return EXIT_SOUND
    if any(v.kind == "stat" and not v.ok for v in verdicts):
        return EXIT_STAT
    return EXIT_PASS


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code.

    argparse exits with status 2 by default, which this tool reserves for
    soundness failures; bad flags are configuration errors.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="otoc-thermalize",
        description="Correlator-geometry thermalization experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a configured experiment")
    run_parser.add_argument("--config", required=True,
                            help="flat KEY = VALUE config file")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="master seed (overrides the config)")
    run_parser.add_argument("--out", default=None,
                            help="output path (default: stdout)")
    run_parser.add_argument("--format", dest="fmt", default=None,
                            choices=("csv", "json"),
                            help="output format (overrides the config)")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            _, description = EXPERIMENTS[name]
            print(f"{name}: {description}")
        return EXIT_PASS

    try:
        mapping = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # flags win over config-file values
    if args.seed is not None:
        mapping["seed"] = args.seed
    if args.out is not None:
        mapping["out"] = args.out
    if args.fmt is not None:
        mapping["format"] = args.fmt
    return run(mapping)


if __name__ == "__main__":
    sys.exit(main())
