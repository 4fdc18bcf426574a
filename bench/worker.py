"""The workload process: one client running CLI jobs back to back.

Started by ``run.py`` with BLAS pinned to one thread in its environment and
``src/`` on its path. It imports numpy and the package, builds the job plan
from the workload seed, prints ``ready`` (the end of set-up), then runs at
least two whole cycles of the workload's job mix, stopping at the cycle
boundary nearest to ``--seconds``. Each
job is one ``otoc_thermalize.cli.run(mapping)`` call writing CSV to a file in
``--work-dir``; its output is checked after the job's clock stops. The last
line of stdout is a JSON report that ``run.py`` turns into metrics.

With ``--trace 1`` odd cycles run under the span tracer and even cycles run
untraced, so the tracing overhead is measured within one run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import spec


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="exit once set-up is done (set-up time samples)")
    return p.parse_args(argv)


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _pool_width(cli):
    """Threads the CLI's instance pool actually uses, by probing it."""
    def probe(_):
        time.sleep(0.02)
        return threading.get_ident()
    return len(set(cli._map_instances(probe, 8)))


def _manifest(np, cli, args):
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cli_pool_threads": _pool_width(cli),
        "workload_seed": args.seed,
        "size": args.size,
    }


def check_output(job: spec.Job, code: int, text: str, columns) -> str:
    """Why a job failed its output check, or '' when it passed."""
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if not lines or lines[0].split(",") != list(columns):
        return "missing or wrong CSV header"
    rows = lines[1:]
    if len(rows) != job.rows:
        return f"{len(rows)} rows, expected {job.rows}"
    failed = sum(1 for row in rows if row.rsplit(",", 1)[-1] != "true")
    if failed:
        return f"{failed} rows with pass=false"
    return ""


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_job(cli, job: spec.Job, seed: int, out: Path):
    """Run one job; returns (wall seconds, exit code or None, output bytes, stderr)."""
    mapping = dict(job.config, seed=seed, out=str(out), format="csv")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.run(mapping)
        except Exception as exc:  # a raising job is a failed job, not a crash
            code = None
            print(f"raised {type(exc).__name__}: {exc}", file=err)
    wall = time.perf_counter() - start
    data = out.read_bytes() if out.exists() else b""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    return wall, code, data, err.getvalue()


def main(argv=None) -> int:
    args = _parse(argv)
    import numpy as np
    import otoc_thermalize
    from otoc_thermalize import cli, dynamics, geometry, hilbert, predictor, thermalization

    src = spec.ROOT / "src"
    if Path(otoc_thermalize.__file__).resolve().parent.parent != src:
        print(f"otoc_thermalize imported from {otoc_thermalize.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workload = spec.WORKLOADS[args.workload]
    cycle = workload.cycle(args.size)

    def plan(index):
        return cycle[index % len(cycle)], spec.job_seed(args.seed, workload.name, index)

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer([hilbert, geometry, thermalization, dynamics,
                         predictor, cli])
    jobs = []
    digest = hashlib.sha256()
    first_output = b""
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        out = Path(tmp) / "job.csv"
        start = time.perf_counter()
        cycles = 0
        while True:
            traced = tracer is not None and cycles % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                for k in range(len(cycle)):
                    index = cycles * len(cycle) + k
                    job, seed = plan(index)
                    if traced:
                        tracer.job = index
                    wall, code, data, err = run_job(cli, job, seed, out)
                    reason = ("raised" if code is None
                              else check_output(job, code, data.decode(),
                                                cli.CSV_COLUMNS))
                    if cycles == 0:
                        digest.update(data)
                        if index == 0:
                            first_output = data
                    jobs.append({
                        "index": index, "label": job.label, "seed": seed,
                        "traced": traced, "wall_s": wall,
                        "rows": max(0, data.count(b"\n") - 1),
                        "failure": f"{reason} ({_last_line(err)})" if reason else None,
                        "sha256": hashlib.sha256(data).hexdigest(),
                    })
            cycles += 1
            elapsed = time.perf_counter() - start
            # stop at the cycle boundary nearest to the requested duration
            if cycles >= 2 and elapsed + elapsed / cycles / 2 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        job, seed = plan(0)
        _, _, again, _ = run_job(cli, job, seed, out)
    report = {
        "cycles": cycles,
        "cycle_len": len(cycle),
        "loop_s": elapsed,
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb,
        "digest_first_cycle": digest.hexdigest(),
        "rerun": {"index": 0, "identical": again == first_output,
                  "sha256": hashlib.sha256(again).hexdigest()},
        "manifest": _manifest(np, cli, args),
    }
    if tracer is not None:
        traced_jobs = [j for j in jobs if j["traced"]]
        names = [m.name for m in spec.PER_LAYER if m.name != "trace.overhead"]
        layer = tracer.metrics(len(traced_jobs),
                               sum(j["wall_s"] for j in traced_jobs), names)
        untraced = [j["wall_s"] for j in jobs if not j["traced"]]
        layer["trace.overhead"] = (
            statistics.median(j["wall_s"] for j in traced_jobs)
            / statistics.median(untraced))
        report["per_layer"] = layer
        spans_file = work_dir / f"spans-{args.workload}-seed{args.seed}-{args.size}.csv"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(spec.ROOT))
        report["span_count"] = len(tracer.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
