"""Seeded end-to-end benchmark of the otoc-thermalize CLI.

    python3 bench/run.py --workload pairs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --size small --seconds 1 --trace 1

Each workload runs in a worker process of its own (``worker.py``) as a
closed loop with one client: CLI jobs run back to back, at least two whole
cycles of the workload's job mix, each job seeded from ``--seed``. The worker's environment
pins BLAS to one thread (see README.md for why). Set-up time is sampled from
several extra worker starts. Every job's output is checked, and job 0 is run
again and must be byte-identical.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``). The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Full
results, with the environment manifest and output digests, go to
``.bench_work/results/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import spec  # noqa: E402  (after the bytecode switch)

#: Extra worker starts per run that only measure set-up time. With the
#: measured worker's own start they make 8 samples, 4 before the loop and 4
#: after it, so when the machine's speed changes during a run the median
#: falls between the two states instead of on one of them.
SETUP_SAMPLES = 7

#: Worker wall-clock limit beyond the measured duration, in seconds.
WORKER_GRACE_S = 120

#: Thread pinning for the workload process: the CLI already runs instances
#: on a thread pool, and BLAS threads on top of it oversubscribe the cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

WORK_DIR = spec.ROOT / ".bench_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: tiny configs that exercise every layer fast")
    return p.parse_args(argv)


def _worker_env():
    env = dict(os.environ, **PINNED, PYTHONDONTWRITEBYTECODE="1")
    src = str(spec.ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class WorkerError(RuntimeError):
    pass


def _start_worker(args, workload, setup_only):
    """Start a worker and wait for its ``ready`` line: (process, set-up s)."""
    cmd = [sys.executable, str(spec.BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", str(WORK_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=spec.ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker failed during set-up "
                          f"(exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout):
    """Wait for a worker; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _setup_sample(args, workload):
    proc, setup = _start_worker(args, workload, setup_only=True)
    _finish(proc, timeout=60)
    return setup


def run_workload(args, workload):
    """Run one workload; returns (final-line payload, full results)."""
    setups = [_setup_sample(args, workload) for _ in range(SETUP_SAMPLES // 2)]
    proc, setup = _start_worker(args, workload, setup_only=False)
    setups.append(setup)
    out = _finish(proc, timeout=args.seconds + WORKER_GRACE_S)
    report = json.loads(out.strip().splitlines()[-1])
    setups += [_setup_sample(args, workload)
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    jobs = report["jobs"]
    failed = [j for j in jobs if j["failure"]]
    untraced = [j for j in jobs if not j["traced"]]
    wall = sum(j["wall_s"] for j in untraced)
    e2e = {
        "job_s.p50": statistics.median(j["wall_s"] for j in untraced),
        "rows_per_s": sum(j["rows"] for j in untraced) / wall,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    chosen = report["per_layer"] if args.trace else e2e
    units = {m.name: m.unit for m in (*spec.END_TO_END, *spec.PER_LAYER)}
    correct = not failed and report["rerun"]["identical"]
    payload = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }
    manifest = dict(report.pop("manifest"), git_sha=_git_sha())
    results = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "manifest": manifest,
        "end_to_end": e2e, "fail_frac": len(failed) / len(jobs),
        "setup_samples_s": setups, **report, **payload,
    }
    return payload, results


def _print_block(workload, results, payload):
    e2e = results["end_to_end"]
    jobs = results["jobs"]
    untraced = sum(1 for j in jobs if not j["traced"])
    m = results["manifest"]
    print(f"== {workload} (seed {results['seed']}, {results['size']}, "
          f"trace {results['trace']}): {len(jobs)} jobs in "
          f"{results['cycles']} cycles of {results['cycle_len']}, "
          f"{results['loop_s']:.1f} s")
    print(f"  setup_s      {e2e['setup_s']:.4f} s "
          f"(median of {len(results['setup_samples_s'])})")
    print(f"  job_s.p50    {e2e['job_s.p50']:.4f} s (n={untraced} untraced jobs)")
    print(f"  rows_per_s   {e2e['rows_per_s']:.2f} rows/s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {results['fail_frac']:.4f} ratio "
          f"({payload['failed']}/{payload['attempted']} jobs failed)")
    for j in jobs:
        if j["failure"]:
            print(f"  FAILED job {j['index']} {j['label']} seed {j['seed']}: "
                  f"{j['failure']}")
    rerun = results["rerun"]
    print(f"  re-run job 0 byte-identical: {rerun['identical']}; "
          f"first-cycle digest {results['digest_first_cycle'][:16]}")
    print(f"  env: python {m['python']}, numpy {m['numpy']}, {m['blas']} "
          f"threads={m['blas_threads']}, nproc={m['nproc']}, "
          f"cli pool={m['cli_pool_threads']}, git {m['git_sha']}")
    if results["trace"]:
        for name, value in results["per_layer"].items():
            print(f"  {name:<52} {value:.6g} {payload['metrics'][name]['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (spec.ROOT / "src" / "otoc_thermalize" / "__init__.py").is_file():
        print("bench: src/otoc_thermalize not found beside bench/; run from a "
              "full checkout", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    payloads = {}
    for workload in workloads:
        try:
            payload, results = run_workload(args, workload)
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        path = results_dir / (f"{workload}-seed{args.seed}-{args.size}"
                              f"-trace{args.trace}.json")
        path.write_text(json.dumps(results, indent=1) + "\n")
        _print_block(workload, results, payload)
        print(f"  results: {path.relative_to(spec.ROOT)}")
        payloads[workload] = payload
    if len(payloads) == 1:
        final = payloads[workloads[0]]
    else:
        final = {
            "correct": all(p["correct"] for p in payloads.values()),
            "attempted": sum(p["attempted"] for p in payloads.values()),
            "failed": sum(p["failed"] for p in payloads.values()),
            "metrics": {f"{w}.{name}": metric for w, p in payloads.items()
                        for name, metric in p["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
