"""Self-test of the benchmark, on the small-size mode of the one command.

    python -m pytest bench/tests -q

It takes under a minute: each workload runs untraced once and traced twice
with the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from worker import check_output  # noqa: E402

COLUMNS = ("experiment", "seed", "pass")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def final_line(done):
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout[-4000:]
    return result


def small(trace, seed=5):
    return final_line(run_bench("--size", "small", "--seconds", "1",
                                "--trace", str(trace), "--seed", str(seed)))


@pytest.fixture(scope="module")
def traced_twice():
    return small(1), small(1)


def value(result, workload, name):
    return result["metrics"][f"{workload}.{name}"]["value"]


def test_benchmark_json_and_reference_are_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert json.loads((BENCH / "reference.json").read_text()) == spec.reference_json()


def test_untraced_run_emits_every_end_to_end_metric():
    result = small(0)
    expected = {f"{w}.{m.name}" for w in spec.WORKLOADS for m in spec.END_TO_END}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_emits_every_per_layer_metric(traced_twice):
    expected = {f"{w}.{m.name}" for w in spec.WORKLOADS for m in spec.PER_LAYER}
    for result in traced_twice:
        assert set(result["metrics"]) == expected


def test_computed_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    counts = [m.name for m in spec.PER_LAYER
              if m.unit == "count" or m.name.endswith(".calls_per_instance")]
    assert counts
    for workload in spec.WORKLOADS:
        for name in counts:
            assert value(first, workload, name) == value(second, workload, name), \
                (workload, name)
    assert value(first, "pairs", "geometry.halmos_decompose.calls_per_instance") == 4


def test_bypass_predictions_hold(traced_twice):
    for result in traced_twice:
        for m in spec.PER_LAYER:
            if m.layer in ("geometry", "thermalization") and m.name.endswith(".calls"):
                assert value(result, "pairs", m.name) > 0, m.name
                for workload in ("sweep", "ensemble"):
                    assert value(result, workload, m.name) == 0, (workload, m.name)
        series = "dynamics.correlator_series.calls"
        assert value(result, "sweep", series) > 0
        for workload in ("pairs", "ensemble"):
            assert value(result, workload, series) == 0, workload


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_patches_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from otoc_thermalize import cli, dynamics, geometry, hilbert, predictor, thermalization

    modules = [hilbert, geometry, thermalization, dynamics, predictor, cli]
    before = [dict(vars(m)) for m in modules]
    validate = hilbert.Projector.validate
    tracer = Tracer(modules)
    with tracer.installed():
        assert cli.sample_haar_unitary is hilbert.sample_haar_unitary
        assert hilbert.sample_haar_unitary is not before[0]["sample_haar_unitary"]
        geometry.halmos_decompose(hilbert.Projector.coordinate(4, 2),
                                  hilbert.Projector.coordinate(4, 1))
        hilbert.sample_haar_unitary(3, seed=0)
    assert [dict(vars(m)) for m in modules] == before
    assert hilbert.Projector.validate is validate
    by_name = {s.name: s for s in tracer.spans}
    # geometry calls orthonormal_range_basis as a module global
    basis = by_name["geometry.orthonormal_range_basis"]
    assert basis.parent == by_name["geometry.halmos_decompose"].id
    assert basis.work == 4 ** 3
    assert by_name["hilbert.sample_haar_unitary"].work == 3 ** 2


def test_self_time_subtracts_the_union_of_children_across_threads():
    tracer = Tracer([])
    tracer.spans = [
        Span(0, None, "cli.run", "cli", 0, 1, 0.0, 10.0, 0),
        # two pool-thread children overlapping in [3, 4]
        Span(1, 0, "cli.run.instance", "cli", 0, 2, 1.0, 4.0, 0),
        Span(2, 0, "cli.run.instance", "cli", 0, 3, 3.0, 6.0, 0),
        Span(3, 1, "hilbert.evolve", "hilbert", 0, 2, 2.0, 3.0, 0),
    ]
    assert tracer.self_times() == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    metrics = tracer.metrics(1, 10.0, ["cli.run.self_s", "hilbert.self_share",
                                       "cli.instance_concurrency",
                                       "hilbert.evolve.calls"])
    assert metrics == {"cli.run.self_s": 10.0, "hilbert.self_share": 0.1,
                       "cli.instance_concurrency": 1.1,
                       "hilbert.evolve.calls": 1.0}


@pytest.mark.parametrize("code, text, reason", [
    (0, "experiment,seed,pass\nx,1,true\nx,2,true\n", ""),
    (3, "experiment,seed,pass\nx,1,true\nx,2,true\n", "exit code 3"),
    (0, "experiment,seed,pass\nx,1,true\n", "1 rows, expected 2"),
    (0, "experiment,seed,pass\nx,1,true\nx,2,false\n", "1 rows with pass=false"),
    (0, "", "missing or wrong CSV header"),
])
def test_output_check_counts_every_failure_kind(code, text, reason):
    job = spec.Job("x", {}, rows=2)
    assert check_output(job, code, text, COLUMNS) == reason
