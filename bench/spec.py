"""Workloads and metrics of the benchmark, in one place.

``run.py`` and ``worker.py`` read the job mixes from here, and the committed
``BENCHMARK.json`` (at the repository root) and ``bench/reference.json`` are
generated from it:

    python3 bench/spec.py        # rewrite both files

``BENCHMARK.json`` carries only the keys the benchmark contract allows;
``reference.json`` adds, for every workload, its job mix and configs, and for
every metric its layer and the end-to-end metrics and workloads it should
move. Later changes cite metrics and workloads by the names defined here.

This module uses the standard library only: the orchestrator imports it
before any numerical package is loaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: Seconds of closed-loop jobs per run. Every run measures at least two whole
#: cycles: the machine's speed drifts by about 10% over tens of seconds, and
#: sweep's cycle alone takes about 20 s. At 25 s the longest run (sweep: two
#: cycles, plus set-up samples and the re-run job) takes about 55 s.
RUN_SECONDS = 25

LAYERS = ("hilbert", "geometry", "thermalization", "dynamics", "predictor",
          "cli")


@dataclass(frozen=True)
class Job:
    """One ``otoc_thermalize.cli.run`` call: its config and its row count."""

    label: str
    config: Dict[str, object]
    rows: int


@dataclass(frozen=True)
class Workload:
    """A job mix run back to back, one whole cycle at a time."""

    name: str
    why: str
    full: Tuple[Job, ...]
    small: Tuple[Job, ...]

    def cycle(self, size: str) -> Tuple[Job, ...]:
        return self.full if size == "full" else self.small


def _verify(n, n_instances, n_bases, lambdas):
    config = dict(experiment="verify-theorem", n=n, n_s=1, n_sigma=4,
                  n_instances=n_instances, n_bases=n_bases,
                  lambda_grid=list(lambdas))
    return Job("verify-theorem", config, n_instances * len(lambdas))


def _sweep(source, n, n_instances, t_stop):
    # cue and circuit sources accept integer times only
    config = dict(experiment="many-body-sweep", n=n, n_s=1, n_sigma=4,
                  source=source, n_instances=n_instances, t_start=0.0,
                  t_stop=float(t_stop), t_count=t_stop + 1)
    return Job(f"sweep-{source}", config, n_instances * (t_stop + 1))


def _typicality(n, n_samples):
    config = dict(experiment="haar-typicality", n=n, n_s=1, n_sigma=4,
                  n_samples=n_samples)
    return Job("haar-typicality", config, n_samples)


def _negative(n, n_sigma, n_samples):
    config = dict(experiment="negative-demo", n=n, n_s=1, n_sigma=n_sigma,
                  n_samples=n_samples)
    return Job("negative-demo", config, 1)


def _predictor(n, n_instances, n_windows):
    config = dict(experiment="predictor-demo", n=n, n_s=1, n_sigma=4,
                  n_instances=n_instances, n_windows=n_windows)
    return Job("predictor-demo", config, n_instances * n_windows)


LAMBDAS = (0.05, 0.1, 0.2, 0.5)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "pairs",
            "verify-theorem at defaults: the only workload that runs geometry "
            "and thermalization (eigh in halmos_decompose, D=128 Haar draws, "
            "basis probes); no correlator_series or predictor",
            full=(_verify(7, 50, 20, LAMBDAS),),
            small=(_verify(5, 4, 3, LAMBDAS),)),
        Workload(
            "sweep",
            "many-body-sweep at D=1024 rotating gue, cue and circuit: dense "
            "commutator in correlator_series and hilbert.evolve; bypasses "
            "geometry and thermalization",
            full=tuple(_sweep(s, 10, 2, 10) for s in ("gue", "cue", "circuit")),
            small=tuple(_sweep(s, 5, 2, 3) for s in ("gue", "cue", "circuit"))),
        Workload(
            "ensemble",
            "Haar Monte Carlo and window jobs: full D=256 QR of which a corner "
            "is read, plus predictor sums; bypasses geometry and "
            "correlator_series",
            full=(_typicality(8, 200), _negative(8, 4, 200),
                  _predictor(9, 5, 10)),
            small=(_typicality(6, 200), _negative(5, 2, 200),
                   _predictor(5, 2, 3))),
    )
}


def job_seed(workload_seed: int, workload: str, index: int) -> int:
    """CLI seed of job ``index``, derived from the workload seed only."""
    digest = hashlib.sha256(f"{workload}:{workload_seed}:{index}".encode())
    return int.from_bytes(digest.digest()[:4], "big")


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (end-to-end metric, workloads)
    meaning: str
    bound: float = 0.0   # end-to-end metrics only


_ALL = ("pairs", "sweep", "ensemble")

END_TO_END = (
    Metric("job_s.p50", "s", "lower", "end_to_end", (),
           "median wall time of one cli.run job (untraced cycles)", 0.25),
    Metric("rows_per_s", "rows/s", "higher", "end_to_end", (),
           "verdict-table rows emitted per second of job wall time", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "end_to_end", (),
           "maximum resident set size of the workload process", 0.15),
    Metric("setup_s", "s", "lower", "end_to_end", (),
           "workload-process start to first job ready: interpreter, numpy "
           "and package import, input generation (median of 8 set-ups per "
           "run, 4 before and 4 after the loop)", 0.25),
)


def _layer_metrics() -> List[Metric]:
    time_moves = {
        "hilbert.sample_haar_unitary": (("job_s.p50", ("ensemble", "pairs")),
                                        ("rows_per_s", ("ensemble", "pairs"))),
        "hilbert.evolve": (("job_s.p50", ("sweep",)),
                           ("rows_per_s", ("sweep",)),
                           ("peak_rss_mb", ("sweep",))),
        "hilbert.conjugate": (("job_s.p50", ("pairs",)),
                              ("rows_per_s", ("pairs",))),
        "hilbert.gue_hamiltonian": (("job_s.p50", ("sweep", "ensemble")),),
        "hilbert": (("job_s.p50", _ALL), ("rows_per_s", _ALL),
                    ("peak_rss_mb", ("sweep",))),
        "geometry": (("job_s.p50", ("pairs",)), ("rows_per_s", ("pairs",))),
        "thermalization": (("job_s.p50", ("pairs",)),),
        "dynamics.correlator_series": (("job_s.p50", ("sweep",)),
                                       ("peak_rss_mb", ("sweep",))),
        "dynamics.typicality_experiment": (("job_s.p50", ("ensemble",)),),
        "dynamics": (("job_s.p50", ("sweep", "ensemble")),
                     ("peak_rss_mb", ("sweep",))),
        "predictor": (("job_s.p50", ("ensemble",)),),
        "cli": (("job_s.p50", _ALL),),
    }
    time_moves["hilbert.UnitarySource.eigensystem"] = time_moves["hilbert.evolve"]
    time_moves["hilbert.Projector.validate"] = time_moves["hilbert.conjugate"]

    def moves(span: str):
        # the most specific entry: the span itself, else its layer
        return time_moves.get(span, time_moves[span.split(".", 1)[0]])

    table = (
        # span name, computed counts (besides self_s)
        ("hilbert.sample_haar_unitary", ("calls", "entries")),
        ("hilbert.evolve", ("calls",)),
        ("hilbert.UnitarySource.eigensystem", ()),
        ("hilbert.conjugate", ()),
        ("hilbert.Projector.validate", ("calls",)),
        ("hilbert.gue_hamiltonian", ()),
        ("geometry.halmos_decompose", ("calls", "calls_per_instance")),
        ("geometry.orthonormal_range_basis", ("dim3",)),
        ("geometry.correlator_trace", ("calls",)),
        ("thermalization.thermalization_report", ("calls",)),
        ("thermalization.empirical_nonthermal_fraction", ()),
        ("thermalization.haar_rotated_basis", ()),
        ("thermalization.thermal_subspace", ()),
        ("dynamics.correlator_series", ("calls", "points")),
        ("dynamics.typicality_experiment", ()),
        ("predictor.weighted_correlator", ("calls",)),
        ("predictor.weighted_autocorrelator", ()),
        ("predictor.to_eigenbasis", ()),
        ("predictor.fourth_order_negative_demo", ()),
        ("cli.run", ()),
        ("cli.render_csv", ()),
    )
    counted = {
        "calls": ("count", "lower", "calls per job (computed)"),
        "entries": ("count", "lower",
                    "sum of dim^2 over calls, per job (computed)"),
        "dim3": ("count", "lower", "sum of D^3 over calls, per job (computed)"),
        "points": ("count", "lower",
                   "instances x times per job (computed); fixed by the config"),
        "calls_per_instance": ("ratio", "lower",
                               "calls per CLI instance task (computed); 4 is "
                               "one per lambda, 1 is the useful minimum"),
    }
    out = []
    for span, counts in table:
        layer = span.split(".", 1)[0]
        m = moves(span)
        for count in counts:
            unit, better, meaning = counted[count]
            out.append(Metric(f"{span}.{count}", unit, better, layer, m, meaning))
        meaning = "self seconds per job (span minus child spans)"
        if span == "cli.run":
            meaning += ("; includes the instance closures run on pool "
                        "threads, e.g. the inline eigh of predictor-demo")
        out.append(Metric(f"{span}.self_s", "s", "lower", layer, m, meaning))
    out.append(Metric(
        "cli.instance_concurrency", "ratio", "higher", "cli", moves("cli"),
        "summed span self time across threads / job wall time"))
    for layer in LAYERS:
        out.append(Metric(
            f"{layer}.self_share", "ratio", "lower", layer, moves(layer),
            f"self time of all {layer} spans / job wall time"))
    out.append(Metric(
        "trace.overhead", "ratio", "lower", "trace", (),
        "traced job_s.p50 / untraced job_s.p50, same run, interleaved cycles"))
    return out


PER_LAYER = tuple(_layer_metrics())


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def reference_json() -> dict:
    """The contents of bench/reference.json: BENCHMARK.json plus the why."""
    def metric(m: Metric) -> dict:
        entry = {"name": m.name, "unit": m.unit, "better": m.better,
                 "layer": m.layer, "meaning": m.meaning,
                 "moves": [{"metric": e2e, "workloads": list(ws)}
                           for e2e, ws in m.moves]}
        if m.layer == "end_to_end":
            entry["bound"] = m.bound
        return entry

    def jobs(cycle):
        return [{"label": j.label, "config": j.config, "rows": j.rows}
                for j in cycle]

    return {
        "workloads": [{"name": w.name, "why": w.why, "jobs": jobs(w.full),
                       "small_jobs": jobs(w.small)}
                      for w in WORKLOADS.values()],
        "end_to_end": [metric(m) for m in END_TO_END],
        "per_layer": [metric(m) for m in PER_LAYER],
    }


def render(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render(benchmark_json()))
    (BENCH_DIR / "reference.json").write_text(render(reference_json()))
