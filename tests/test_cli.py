"""Tests for the experiment runner: config parsing, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _dense import (
    completed_eigenbasis,
    dense_embed,
    dense_evolved_core,
    pool_at_any_size,
    predictor_demo_rows,
    recording_eigh,
    recording_pools,
)
from otoc_thermalize import cli, dynamics, hilbert, predictor, thermalization
from otoc_thermalize.geometry import halmos_decompose
from otoc_thermalize.hilbert import (
    Eigenframe,
    InvariantError,
    Projector,
    UnitarySource,
    derive_rng,
)
from otoc_thermalize.thermalization import Check, thermal_axes
from otoc_thermalize.cli import (
    CSV_COLUMNS,
    ConfigError,
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_SOUND,
    EXIT_STAT,
    ExperimentConfig,
    parse_config_text,
)


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------

def test_parse_config_scalars_and_lists():
    cfg = parse_config_text(
        "# header comment\n"
        "experiment = sizing-table  # trailing comment\n"
        "seed = 12\n"
        "kappa = 2.5\n"
        "flag = true\n"
        "name = gue\n"
        "lambda_grid = 0.1, 0.2,0.5\n"
        "empty =\n")
    assert cfg["experiment"] == "sizing-table"
    assert cfg["seed"] == 12 and isinstance(cfg["seed"], int)
    assert cfg["kappa"] == 2.5
    assert cfg["flag"] is True
    assert cfg["name"] == "gue"
    assert cfg["lambda_grid"] == [0.1, 0.2, 0.5]
    assert cfg["empty"] == []


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="KEY = VALUE"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_mapping({})
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_mapping({"experiment": "bogus"})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_mapping({"experiment": "sizing-table", "seed": -1})
    with pytest.raises(ConfigError, match="format"):
        ExperimentConfig.from_mapping({"experiment": "sizing-table",
                                       "format": "xml"})


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = haar-typicality\nwobble = 3\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "wobble" in capsys.readouterr().err


def test_missing_config_file_is_config_error(capsys):
    assert cli.main(["run", "--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"experiment = sizing-table\n# caf\xe9\n")
    assert cli.main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config")


@pytest.mark.parametrize("where", ["missing-dir", "directory", "read-only-dir"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch, where):
    # the path is checked before the experiment runs: the runner is never
    # called, run returns the code rather than raising, no verdict line
    # follows, and nothing is created
    out = {"missing-dir": tmp_path / "missing" / "x.csv", "directory": tmp_path,
           "read-only-dir": tmp_path / "x.csv"}[where]
    if where == "read-only-dir":
        # root may write to a mode-0o500 directory, so access is denied here
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            os.path.abspath(path) != str(tmp_path) and access(path, mode, **kw)))
    cfg = write_config(tmp_path, "experiment = sizing-table\n")
    before = sorted(tmp_path.iterdir())

    def never_runs(_cfg):
        raise AssertionError("the runner ran before its output path was checked")

    monkeypatch.setitem(cli.EXPERIMENTS, "sizing-table", (never_runs, "not run"))
    config = {"experiment": "sizing-table", "lambda_rel_grid": [0.5],
              "f_grid": [0.5], "out": str(out)}
    assert cli.run(config) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output {str(out)!r}")
    assert len(captured.err.splitlines()) == 1
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot write output")
    assert sorted(tmp_path.iterdir()) == before


def test_usage_error_exits_with_config_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # --config is required
    assert exc.value.code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# list subcommand.
# ---------------------------------------------------------------------------

def test_list_enumerates_experiments(capsys):
    assert cli.main(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    names = [line.split(":")[0] for line in out.strip().splitlines()]
    assert names == sorted(cli.EXPERIMENTS)
    assert "sizing-table" in names and "negative-demo" in names


# ---------------------------------------------------------------------------
# Determinism and output formats.
# ---------------------------------------------------------------------------

def test_haar_typicality_byte_identical(tmp_path):
    # D = 64 with the same seed twice must emit identical bytes
    cfg = write_config(tmp_path, "experiment = haar-typicality\n"
                                 "n = 6\nn_samples = 60\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", "--config", cfg, "--seed", "1",
                     "--out", str(out1)]) == EXIT_PASS
    assert cli.main(["run", "--config", cfg, "--seed", "1",
                     "--out", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert len(rows) == 60
    assert rows[0]["seed"] == "1" and rows[0]["N"] == "6"
    # float cells round-trip and the pass column is true/false
    for row in rows:
        float(row["g2"]), float(row["g4"]), float(row["sigma2"])
        assert row["pass"] in ("true", "false")
        assert row["lambda"] == ""  # no lambda axis in this experiment


def test_json_format_mirrors_rows_and_verdicts(tmp_path):
    cfg = write_config(tmp_path, "experiment = sizing-table\nformat = json\n")
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    payload = json.loads(out.read_text())
    assert set(payload) == {"rows", "verdicts"}
    assert set(payload["rows"][0]) == set(CSV_COLUMNS)
    for verdict in payload["verdicts"]:
        assert verdict["kind"] in ("sound", "stat")
        assert verdict["slack"] == pytest.approx(verdict["rhs"] - verdict["lhs"])


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, "experiment = sizing-table\n"
                                 "seed = 7\nformat = json\n")
    out = tmp_path / "r.out"
    assert cli.main(["run", "--config", cfg, "--seed", "9",
                     "--format", "csv", "--out", str(out)]) == EXIT_PASS
    rows = read_rows(out)  # csv despite the config saying json
    assert rows[0]["seed"] == "9"


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, "experiment = sizing-table\n")
    proc = subprocess.run(
        [sys.executable, "-m", "otoc_thermalize.cli", "run", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_PASS
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "[sound] PASS" in proc.stderr


# ---------------------------------------------------------------------------
# Reference content.
# ---------------------------------------------------------------------------

def test_sizing_table_reference_rows(tmp_path):
    cfg = write_config(tmp_path, "experiment = sizing-table\n")
    out = tmp_path / "sz.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    rows = {(row["lambda"], row["t"]): row for row in read_rows(out)}
    tight = rows[("0.1", "0.1")]
    assert tight["N_sigma"] == "24"
    assert float(tight["measured"]) == 13500000.0
    assert float(tight["bound"]) == pytest.approx(1.4814814814814815e-07)
    relaxed = rows[("0.2", "0.9")]
    assert relaxed["N_sigma"] == "12"
    assert float(relaxed["measured"]) == 2315.0


def test_verdict_lines_carry_anchor_strings(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = verify-theorem\n"
                                 "n = 5\nn_instances = 3\nn_bases = 3\n")
    out = tmp_path / "vt.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    err = capsys.readouterr().err
    assert "f_lambda <= min(1, (3/lambda)*(sigma2/4)^(1/3))" in err
    assert "dim(H_th) >= D_rho*(1 - sigma2/lambda^2)" in err
    assert "[sound] PASS" in err


def test_many_body_sweep_rejects_fractional_ensemble_times(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = many-body-sweep\n"
                                 "n = 4\nsource = cue\ntimes = 0, 0.5, 1\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "integer times" in capsys.readouterr().err


def test_many_body_sweep_rejects_one_qubit_circuit(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = many-body-sweep\nn = 1\n"
                                 "n_s = 1\nn_sigma = 1\nsource = circuit\n"
                                 "times = 0, 1\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "circuit" in err


@pytest.mark.parametrize("key", ["t_start", "t_stop", "t_count"])
def test_many_body_sweep_times_conflict_with_a_linspace_bound(capsys, key):
    code = cli.run({"experiment": "many-body-sweep", "n": 4, "n_instances": 1,
                    "times": [0, 1], key: 2})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (f"config error: times conflicts with {key}; "
                   f"give either times or t_start/t_stop/t_count\n")


@pytest.mark.parametrize("timing, message", [
    ("t_stop = nan", "finite"), ("t_start = -inf", "finite"),
    ("times = 0, inf", "finite"), ("times = 0, x", "number"),
])
def test_many_body_sweep_time_grid_needs_finite_numbers(tmp_path, capsys,
                                                        timing, message):
    cfg = write_config(tmp_path, "experiment = many-body-sweep\n"
                                 f"n = 4\nn_instances = 1\n{timing}\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("grid", ["0.1, nan", "inf"])
def test_verify_theorem_rejects_non_finite_lambda(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, "experiment = verify-theorem\nn = 4\n"
                                 "n_sigma = 2\nn_instances = 2\nn_bases = 1\n"
                                 f"lambda_grid = {grid}\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "lambda_grid" in err


def _sweep_source(kind, seed, i, setup):
    """(source, V) for the source many-body-sweep builds for instance i; V is a
    GUE eigenframe completed to a full eigenbasis, None for the others."""
    n = setup.n_total
    if kind == "gue":
        gue = Eigenframe.gue(setup, derive_rng(seed, "sweep-gue", i))
        return gue, completed_eigenbasis(setup, gue)
    child = int(derive_rng(seed, "sweep-source", i).integers(1 << 63))
    if kind == "cue":
        return UnitarySource.haar_cue(2 ** n, seed=child), None
    return UnitarySource.circuit(n, seed=child), None


@pytest.mark.parametrize("source", ["gue", "cue", "circuit"])
def test_many_body_sweep_thermal_dimensions_match_dense_route(tmp_path, source):
    n, seed, lambdas = 5, 4, (0.05, 0.2)
    cfg = write_config(tmp_path, f"experiment = many-body-sweep\nn = {n}\n"
                                 f"n_s = 1\nn_sigma = 2\nsource = {source}\n"
                                 "n_instances = 2\ntimes = 0, 1, 3\n"
                                 "lambda_grid = 0.05, 0.2\n")
    out = tmp_path / "sw.csv"
    assert cli.main(["run", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]) == EXIT_PASS
    setup = cli._product_setup(n, 1, 2)
    p_r = dense_embed(setup, "observable")
    expected = []
    for i in range(2):
        src, vecs = _sweep_source(source, seed, i, setup)
        for t in (0, 1, 3):
            geom = halmos_decompose(p_r, Projector(dense_evolved_core(setup, src, t, vecs)))
            expected += [float(np.count_nonzero(thermal_axes(geom.cos2, lam)))
                         for lam in lambdas]
    assert [float(row["measured"]) for row in read_rows(out)] == expected


def test_circuit_lambda_sweep_draws_each_layer_once(tmp_path, monkeypatch):
    draws = []
    sample = hilbert.sample_haar_unitary
    monkeypatch.setattr(hilbert, "sample_haar_unitary",
                        lambda *a, **kw: draws.append(a) or sample(*a, **kw))
    cfg = write_config(tmp_path, "experiment = many-body-sweep\nn = 6\n"
                                 "n_s = 1\nn_sigma = 3\nsource = circuit\n"
                                 "n_instances = 1\ntimes = 0, 1, 2, 3, 4, 5\n"
                                 "lambda_grid = 0.05, 0.2\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_PASS
    # layers 0..4 of a 6-qubit brickwork hold 3, 2, 3, 2, 3 gates
    assert len(draws) == 13


def test_verify_theorem_draws_probes_one_stack_per_report(tmp_path, monkeypatch):
    # per instance: one stack of D_rho x D_rho probes per lambda report, and no
    # D-row draw, since the pair comes from one Bartlett stack
    draws = []
    sample = hilbert.sample_haar_unitary
    for module in (hilbert, cli, thermalization):
        monkeypatch.setattr(module, "sample_haar_unitary",
                            lambda *a, **kw: draws.append(a) or sample(*a, **kw))
    cfg = write_config(tmp_path, "experiment = verify-theorem\nn = 5\n"
                                 "n_instances = 3\nlambda_grid = 0.05, 0.1, 0.2, 0.5\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "v.csv")]) == EXIT_PASS
    assert draws == [(2 ** 5 // 2 ** 4,)] * (3 * 4)


@pytest.mark.parametrize("n, n_s", [(6, 1), (4, 2)])
def test_haar_typicality_one_dimensional_core_passes(tmp_path, n, n_s):
    # D_sigma = 1: G2 and G4 are the same in every sample and var_pred = 0
    cfg = write_config(tmp_path, f"experiment = haar-typicality\nn = {n}\n"
                                 f"n_s = {n_s}\nn_sigma = 0\n")
    out = tmp_path / "ht.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", cfg, "--format", "json",
                         "--out", str(out)]) == EXIT_PASS
    verdicts = json.loads(out.read_text())["verdicts"]
    assert len(verdicts) == 5
    for v in verdicts:
        assert v["passed"] == (v["slack"] >= 0), v


@pytest.mark.parametrize("kappa", ["0", "-1.5"])
def test_haar_typicality_rejects_nonpositive_kappa(tmp_path, capsys, kappa):
    cfg = write_config(tmp_path, "experiment = haar-typicality\n"
                                 f"n = 4\nn_samples = 10\nkappa = {kappa}\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "kappa" in err


def test_negative_demo_note_and_row(tmp_path, capsys):
    cfg = write_config(tmp_path, "experiment = negative-demo\n"
                                 "n = 6\nn_sigma = 2\nn_samples = 60\n")
    out = tmp_path / "nd.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    err = capsys.readouterr().err
    assert "premise unsatisfiable" in err
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["measured"]) > float(rows[0]["bound"])


# ---------------------------------------------------------------------------
# Exit codes from verdict outcomes.
# ---------------------------------------------------------------------------

def test_statistical_failure_exits_three(tmp_path, capsys):
    # rank-one embedded core: every sample has sigma2 = 0 exactly, so the
    # asymptotic typicality tolerance legitimately fails
    cfg = write_config(tmp_path, "experiment = haar-typicality\n"
                                 "n = 2\nn_s = 1\nn_sigma = 2\nn_samples = 50\n")
    out = tmp_path / "st.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == EXIT_STAT
    assert "[stat] FAIL" in capsys.readouterr().err


def test_soundness_failure_exits_two(monkeypatch, capsys):
    def stub(cfg):
        return [], [Check("1 <= 0", 1.0, 0.0, "sound")]

    monkeypatch.setitem(cli.EXPERIMENTS, "stub-experiment", (stub, "stub"))
    assert cli.run({"experiment": "stub-experiment"}) == EXIT_SOUND
    assert "[sound] FAIL" in capsys.readouterr().err


def test_library_error_reports_soundness(monkeypatch, capsys):
    # only a broken invariant is a soundness failure; any other library
    # ValueError rejects an input
    for error, code, prefix in [
            (AssertionError("correlator trace was not real"), EXIT_SOUND,
             "soundness failure"),
            (InvariantError("inequality chain violated"), EXIT_SOUND,
             "soundness failure"),
            (ValueError("lambda must be positive"), EXIT_CONFIG, "config error")]:
        def stub(cfg):
            raise error

        monkeypatch.setitem(cli.EXPERIMENTS, "stub-experiment", (stub, "stub"))
        assert cli.run({"experiment": "stub-experiment"}) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{prefix}: {error}\n"


def test_verify_theorem_negative_variance_exits_two(monkeypatch, capsys):
    # G4 >= G2^2 is proven, so a report whose moments break it is a soundness
    # failure, never a variance silently clamped to 0
    monkeypatch.setattr(thermalization, "correlator_trace",
                        lambda geom, n: 0.5 if n == 1 else 0.25 - 2e-12)
    config = {"experiment": "verify-theorem", "seed": 1, "n": 4, "n_instances": 1}
    assert cli.run(config) == EXIT_SOUND
    out, err = capsys.readouterr()
    assert out == ""
    assert "soundness failure: angle variance" in err


def test_many_body_sweep_negative_variance_exits_two(monkeypatch, capsys):
    # a series whose G4 falls 2e-12 below G2^2 breaks a proven inequality:
    # a soundness failure, never a variance silently clamped to 0
    check = dynamics.variance_from_moments
    monkeypatch.setattr(dynamics, "variance_from_moments",
                        lambda g2, g4: check(g2, g2 * g2 - 2e-12))
    config = {"experiment": "many-body-sweep", "seed": 1, "n": 4, "n_sigma": 2,
              "source": "cue", "n_instances": 1, "times": [0, 1]}
    assert cli.run(config) == EXIT_SOUND
    out, err = capsys.readouterr()
    assert out == ""
    assert "soundness failure: angle variance" in err


def test_a_row_and_its_verdict_fail_alike_at_the_rounding_edge(monkeypatch, capsys):
    # a floor 1e-9 above the achieved dimension, whose difference rounds just
    # past -1e-9: the row's pass cell and the verdict are one check
    monkeypatch.setattr(cli, "bound_thermal_dimension",
                        lambda sigma2, lam, d_rho: d_rho + 1e-9)
    config = {"experiment": "many-body-sweep", "seed": 1, "n": 8,
              "n_instances": 1, "times": 0, "lambda_grid": 0.1}
    assert cli.run(config) == EXIT_SOUND
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert rows and all(row.endswith(",false") for row in rows)
    assert "[sound] FAIL dim(H_th)(t) >= " in err


IDENTITY_VERDICT = "|G2 - G4 - ||[P_R, P_rho(t)]||_F^2/(2 D_rho)| <= 0"
SWEEP_CONFIG = {"experiment": "many-body-sweep", "seed": 1, "n": 4, "n_sigma": 2,
                "source": "cue", "n_instances": 1, "times": [0, 1, 2]}


def _corrupt_series(monkeypatch, j, **changes):
    """Make many-body-sweep read series whose arrays change at time index j;
    each change maps a series field to a function of that field's array."""
    series_of = cli.correlator_series

    def corrupted(*args):
        series = series_of(*args)
        fields = {}
        for name, change in changes.items():
            values = getattr(series, name).copy()
            values[j] = change(series)[j]
            fields[name] = values
        return dataclasses.replace(series, **fields)

    monkeypatch.setattr(cli, "correlator_series", corrupted)


def _pass_cells(out):
    return [row.rpartition(",")[2] for row in out.splitlines()[1:]]


def test_sweep_identity_gap_fails_its_verdict_and_rows(monkeypatch, capsys):
    # a gap of 1.5e-9 exceeds the identity's one 1e-9 rule; each of the two
    # lambda rows of that time fails, and no other row does
    _corrupt_series(monkeypatch, 1,
                    commutator_norm=lambda s: s.commutator_norm + 1.5e-9)
    assert cli.run({**SWEEP_CONFIG, "lambda_grid": [0.1, 0.5]}) == EXIT_SOUND
    out, err = capsys.readouterr()
    assert _pass_cells(out) == ["true", "true", "false", "false", "true", "true"]
    assert f"[sound] FAIL {IDENTITY_VERDICT} | " in err
    assert "[sound] PASS G4(t) <= G2(t) | " in err


def test_sweep_nan_commutator_norm_fails_the_identity(monkeypatch, capsys):
    _corrupt_series(monkeypatch, 2, commutator_norm=lambda s: s.commutator_norm * np.nan)
    assert cli.run(SWEEP_CONFIG) == EXIT_SOUND
    out, err = capsys.readouterr()
    assert _pass_cells(out) == ["true", "true", "false"]
    assert f"[sound] FAIL {IDENTITY_VERDICT} | lhs=nan rhs=0.0" in err


def test_sweep_chain_violation_fails_only_its_row(monkeypatch, capsys):
    # G4 moves 2e-6 above G2 and the commutator norm with it, so the identity
    # still holds and the chain alone fails
    _corrupt_series(monkeypatch, 1, g4=lambda s: s.g2 + 2e-6,
                    commutator_norm=lambda s: s.commutator_norm - (s.g2 + 2e-6 - s.g4))
    assert cli.run(SWEEP_CONFIG) == EXIT_SOUND
    out, err = capsys.readouterr()
    assert _pass_cells(out) == ["true", "false", "true"]
    assert "[sound] FAIL G4(t) <= G2(t) | " in err
    assert f"[sound] PASS {IDENTITY_VERDICT} | " in err


def test_sizing_row_too_small_a_core_fails_its_cell_and_the_rounding(monkeypatch, capsys):
    # one grid point sized one core qubit short: 2^11 < D_sigma_min = 2315
    sizing_of = cli.core_sizing

    def short(lam_rel, f_target, d_s):
        sizing = sizing_of(lam_rel, f_target, d_s)
        if (lam_rel, f_target) == (0.2, 0.9):
            sizing = dataclasses.replace(sizing, n_sigma=sizing.n_sigma - 1)
        return sizing

    monkeypatch.setattr(cli, "core_sizing", short)
    assert cli.run({"experiment": "sizing-table"}) == EXIT_SOUND
    out, err = capsys.readouterr()
    rows = [row.split(",") for row in out.splitlines()[1:]]
    failed = [(row[9], row[5], row[4]) for row in rows if row[-1] == "false"]
    assert failed == [("0.2", "0.9", "11")]
    assert sum(row[-1] == "true" for row in rows) == len(rows) - 1
    assert "[sound] FAIL 2^N_sigma >= D_sigma_min | lhs=2315.0 rhs=2048.0" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_predictor_demo_lambda_rows_have_an_empty_pass_cell(capsys, fmt):
    # a lambda row carries the time-interval bound, which no check decides
    code = cli.run({"experiment": "predictor-demo", "n": 4, "n_sigma": 2,
                    "n_instances": 1, "n_windows": 2, "lambda_grid": [0.2, 0.5],
                    "format": fmt})
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    if fmt == "csv":
        cells = [(row.split(",")[9], row.rpartition(",")[2])
                 for row in out.splitlines()[1:]]
    else:
        cells = [("" if row["lambda"] is None else str(row["lambda"]), row["pass"])
                 for row in json.loads(out)["rows"]]
    empty = "" if fmt == "csv" else None
    ok = "true" if fmt == "csv" else True
    assert cells == [("", ok), ("", ok), ("0.2", empty), ("0.5", empty)]


def test_predictor_demo_names_the_lambdas_whose_bound_is_vacuous(capsys):
    # at the defaults the raw bound is about 0.18/lambda^2, over 1 at both
    code = cli.run({"experiment": "predictor-demo", "lambda_grid": [0.05, 0.2]})
    out, err = capsys.readouterr()
    assert code == EXIT_PASS
    bounds = [row.split(",")[10] for row in out.splitlines()[1:]
              if row.split(",")[9]]
    assert bounds == ["1.0", "1.0"]
    assert err.splitlines()[-1] == ("predictor-demo: time-interval bound vacuous "
                                    "(clamped to 1) at lambda = 0.05, 0.2")
    assert cli.run({"experiment": "predictor-demo", "n": 4, "n_instances": 1,
                    "lambda_grid": [2.0]}) == EXIT_PASS
    assert "vacuous" not in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("f_grid = 0, 0.5", "f_target"),
    ("lambda_rel_grid = -1", "lambda_rel"),
], ids=["f_grid = 0, 0.5-f_grid", "lambda_rel_grid = -1-lambda_rel_grid"])
def test_sizing_table_out_of_range_grid_is_config_error(tmp_path, capsys,
                                                         grid, message):
    cfg = write_config(tmp_path, f"experiment = sizing-table\n{grid}\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("config", [
    "experiment = verify-theorem\nn = 4\nn_sigma = 2\nn_instances = 1\n"
    "n_bases = 1\nlambda_grid = 1e200\n",
    "experiment = many-body-sweep\nn = 4\nn_sigma = 2\nn_instances = 1\n"
    "t_count = 2\nlambda_grid = 1e200\n",
    "experiment = predictor-demo\nn = 4\nn_sigma = 2\nn_instances = 1\n"
    "n_windows = 2\nlambda_grid = 1e-200\n",
    "experiment = predictor-demo\nn = 4\nn_sigma = 2\nn_instances = 1\n"
    "n_windows = 2\nepsilon = 1e200\nlambda_grid = 0.5\n",
    "experiment = sizing-table\nlambda_rel_grid = 1e-120\n",
], ids=["verify-lambda", "sweep-lambda", "predictor-lambda",
        "predictor-epsilon", "sizing-lambda"])
def test_finite_config_number_out_of_float_range_is_config_error(
        tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error") and "out of numeric range" in err


@pytest.mark.parametrize("config, message", [
    ({"t0": 1e308, "t_obs": 1e307, "t_horizon": 1e308, "n_windows": 12},
     "last window"),
    ({"t0": -1.5e308, "t_obs": 1.0, "t_horizon": 1.5e308}, "w0"),
    ({"t0": 1e308, "t_obs": 1e300, "t_horizon": 1e307, "n_windows": 3},
     "numeric range"),
    ({"epsilon": -0.1, "lambda_grid": [0.5]}, "epsilon"),
    ({"kappa_rr": -1.0, "lambda_grid": [0.5]}, "kappa_rr"),
    ({"xi": math.pi - 1e-15}, "sin(xi)"),
    # sinc^2(xi) rounds to 1, and w0 = 2e-4 passes
    ({"xi": 1e-8, "t_horizon": 1e12}, "W must be in (0, 1)"),
    ({"t_obs": 0.0}, "half-width"),
    ({"t_horizon": -1.0}, "duration"),
], ids=["window-end-overflow", "horizon-overflow", "phase-overflow",
        "negative-epsilon", "negative-kappa-rr", "vanishing-sin-xi",
        "unit-window-floor", "zero-half-width", "negative-duration"])
def test_predictor_demo_window_and_bound_config_errors(capsys, config, message):
    code = cli.run({"experiment": "predictor-demo", "n": 5,
                    "n_instances": 1, **config})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error") and message in err


@pytest.mark.parametrize("lhs, rhs", [
    (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf),
])
def test_worst_fails_on_a_nan_slack(lhs, rhs):
    worst = cli._Worst("lhs <= rhs")
    worst.update(0.0, 1.0)
    worst.update(lhs, rhs)
    worst.update(0.5, 0.75)
    verdict = worst.verdict
    assert not verdict.ok
    assert (verdict.lhs, verdict.rhs) == pytest.approx((lhs, rhs), nan_ok=True)


DETERMINISM_CONFIGS = {
    "verify-theorem": {"n": 4, "n_sigma": 2, "n_instances": 3, "n_bases": 2},
    "haar-typicality": {"n": 5, "n_sigma": 2, "n_samples": 20},
    "many-body-sweep": {"n": 5, "n_sigma": 2, "n_instances": 3,
                        "t_count": 4, "lambda_grid": [0.1, 0.5]},
    "predictor-demo": {"n": 5, "n_sigma": 2, "n_instances": 3,
                       "n_windows": 4, "lambda_grid": [0.5]},
    "sizing-table": {},
    "negative-demo": {"n": 5, "n_sigma": 2, "n_samples": 20},
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_stdout_is_byte_identical_on_repeat_and_serial_runs(
        monkeypatch, capsys, experiment):
    config = {"experiment": experiment, "seed": 5,
              **DETERMINISM_CONFIGS[experiment]}

    def stdout_of_run():
        code = cli.run(config)
        return code, capsys.readouterr().out

    first = stdout_of_run()
    assert first == stdout_of_run()
    monkeypatch.setattr(cli, "_map_instances",
                        lambda fn, count: [fn(i) for i in range(count)])
    assert first == stdout_of_run()
    assert first[1].startswith(",".join(CSV_COLUMNS))


POOL_WIDTH_CONFIGS = [
    *({"experiment": name, **config} for name, config in DETERMINISM_CONFIGS.items()),
    *({"experiment": "many-body-sweep", "source": source, "n": 6, "n_sigma": 3,
       "n_instances": 1, "times": [0, 1, 2, 3, 5], "lambda_grid": [0.1, 0.5]}
      for source in ("gue", "cue", "circuit")),
    {"experiment": "predictor-demo", "n": 7, "n_sigma": 3, "n_instances": 1,
     "n_windows": 70, "lambda_grid": [0.5]},
]

#: Thread pools a config builds at a pool width of 2: one for the instances,
#: or one for the samples, times or row blocks of a single instance; none for
#: sizing-table and a single circuit instance, whose grid stays serial.
POOLS_AT_WIDTH_2 = [1, 1, 1, 1, 0, 1, 1, 1, 0, 1]


def _pool_id(config):
    name = config.get("source", config["experiment"])
    return f"{name}-one-instance" if config.get("n_instances") == 1 else name


@pytest.fixture
def built_pools():
    with recording_pools() as widths:
        yield widths


@pytest.mark.parametrize("config, pools", zip(POOL_WIDTH_CONFIGS, POOLS_AT_WIDTH_2),
                         ids=[_pool_id(c) for c in POOL_WIDTH_CONFIGS])
def test_output_does_not_depend_on_the_pool_width(monkeypatch, pool_at_any_size,
                                                  built_pools, config, pools):
    # the pool's width comes from os.cpu_count; at 1 every task runs inline
    runs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        built_pools.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run({**config, "seed": 5})
        runs[cpus] = (code, out.getvalue(), err.getvalue())
        assert len(built_pools) == (0 if cpus == 1 else pools)
    assert runs[1] == runs[2] == runs[3]
    assert runs[1][0] == EXIT_PASS


@pytest.mark.parametrize("config", [
    {"experiment": "many-body-sweep", "source": "gue", "n": 6, "n_instances": 2,
     "t_count": 5},
    {"experiment": "predictor-demo", "n": 7, "n_instances": 5, "n_windows": 3},
    {"experiment": "verify-theorem", "n": 5, "n_instances": 4, "n_bases": 2},
    {"experiment": "haar-typicality", "n": 6, "n_samples": 20},
], ids=lambda c: c["experiment"])
def test_a_run_builds_one_thread_pool(monkeypatch, capsys, pool_at_any_size,
                                      built_pools, config):
    # instances that fill the pool leave every inner map inline: no nested pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.run({**config, "seed": 3}) == EXIT_PASS
    capsys.readouterr()
    assert built_pools == [2]


#: Configs on either side of ``hilbert.POOL_MIN_ENTRIES``, with the pools each
#: builds at a pool width of 2: the ``ensemble`` benchmark's Monte Carlo jobs
#: draw 32 x 16 Bartlett stacks, 512 entries, and run inline, and so do the
#: instances of verify-theorem at n = 8 (its 32 x 16 Bartlett stack) and of a
#: cue sweep at n = 9 (a time's 64 x 32 stack, 2048 entries); the instances of
#: a cue sweep at n = 10 (a 128 x 64 stack, 8192 entries) and of
#: verify-theorem at n = 12 (a 512 x 256 stack, 131072 entries) take the pool.
POOL_GATE_CONFIGS = [
    pytest.param({"experiment": "haar-typicality", "n": 8, "n_s": 1, "n_sigma": 4,
                  "n_samples": 200}, [], id="haar-typicality"),
    pytest.param({"experiment": "negative-demo", "n": 8, "n_s": 1, "n_sigma": 4,
                  "n_samples": 200}, [], id="negative-demo"),
    pytest.param({"experiment": "many-body-sweep", "source": "cue", "n": 10,
                  "n_instances": 2, "times": [0, 1]}, [2], id="cue"),
    pytest.param({"experiment": "many-body-sweep", "source": "cue", "n": 9,
                  "n_instances": 2, "times": [0, 1]}, [], id="cue-inline"),
    pytest.param({"experiment": "verify-theorem", "n": 12, "n_instances": 2,
                  "n_bases": 0}, [2], id="verify-theorem"),
    pytest.param({"experiment": "verify-theorem", "n": 8, "n_instances": 2,
                  "n_bases": 2}, [], id="verify-theorem-inline"),
]


@pytest.mark.parametrize("config, pools", POOL_GATE_CONFIGS)
def test_only_tasks_of_pool_min_entries_take_the_pool(monkeypatch, capsys, built_pools,
                                                      config, pools):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        built_pools.clear()
        assert cli.run({**config, "seed": 4}) == EXIT_PASS
        runs.append(capsys.readouterr().out)
    assert built_pools == pools
    assert runs[0] == runs[1]


def test_a_phase_overflow_on_a_pool_thread_is_a_config_error(monkeypatch, capsys,
                                                             pool_at_any_size):
    # n = 7 has two row blocks, so the Bohr sums reach the pool, and the
    # caller's np.errstate(over="raise") must hold on its threads
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = cli.run({"experiment": "predictor-demo", "n": 7, "n_instances": 1,
                    "t0": 1e308, "t_obs": 1e300, "t_horizon": 1e307, "n_windows": 3})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error") and "numeric range" in err


def test_verify_theorem_runs_without_an_eigendecomposition(capsys):
    # the projector pairs are drawn as isometries, so no eigh recovers a basis
    config = {"experiment": "verify-theorem", "seed": 3, "n": 4, "n_sigma": 2,
              "n_instances": 3, "lambda_grid": [0.1, 0.5]}
    with recording_eigh() as calls:
        code = cli.run(config)
    recorded = capsys.readouterr().out
    assert code == EXIT_PASS
    assert calls == []
    assert cli.run(config) == EXIT_PASS
    assert capsys.readouterr().out == recorded


GUE_CONFIGS = [
    {"experiment": "many-body-sweep", "source": "gue", "n": 5, "n_instances": 2,
     "times": [0.0, 1.5]},
    {"experiment": "predictor-demo", "n": 5, "n_instances": 2, "n_windows": 2},
]


@pytest.mark.parametrize("config", GUE_CONFIGS)
def test_gue_experiments_run_no_eigh(capsys, config):
    # a GUE instance is drawn as its spectrum and its Haar eigenframe, so no
    # Hamiltonian is formed and no Hermitian eigh runs
    with recording_eigh() as calls:
        code = cli.run({"seed": 2, **config})
    capsys.readouterr()
    assert code == EXIT_PASS
    assert calls == []


@pytest.mark.parametrize("config", GUE_CONFIGS)
def test_gue_experiments_draw_only_the_observable_eigenframe(capsys, monkeypatch,
                                                             config):
    # each instance draws the D x D/D_S frame W = V^dag L, never the D x D V
    draws = []
    sample = hilbert.sample_haar_unitary
    monkeypatch.setattr(hilbert, "sample_haar_unitary", lambda dim, **kw: (
        draws.append((dim, kw.get("columns"))) or sample(dim, **kw)))
    assert cli.run({"seed": 2, **config}) == EXIT_PASS
    capsys.readouterr()
    d, d_s = 2 ** 5, 2 ** 1
    assert draws == [(d, d // d_s)] * 2


def test_verify_theorem_holds_no_dim_squared_array(capsys):
    # D = 2048 with rank-2 subspaces: one D x D complex array is 64 MiB
    config = {"experiment": "verify-theorem", "seed": 1, "n": 11, "n_s": 10,
              "n_sigma": 10, "n_instances": 2, "n_bases": 3, "lambda_grid": [0.5]}
    tracemalloc.start()
    try:
        code = cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_PASS
    assert peak < 16 * 2 ** 20


def test_verify_theorem_at_the_dim_cap_holds_no_d_row_array(capsys):
    # D = 2**14 with D_R = 2**13: one D x D_R basis would be 2 GiB, and the
    # pair in the span of its principal vectors is 32 x 16. A first run takes
    # the one-time imports and caches of numpy's linalg, about 0.9 MiB traced
    config = {"experiment": "verify-theorem", "seed": 1, "n": 14, "n_sigma": 10,
              "n_instances": 2, "n_bases": 2}
    assert cli.run(config) == EXIT_PASS
    tracemalloc.start()
    try:
        code = cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_PASS
    assert peak < 2 ** 20


def test_run_accepts_plain_mapping(capsys):
    code = cli.run({"experiment": "sizing-table",
                    "lambda_rel_grid": [0.5], "f_grid": [0.5]})
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(out.splitlines()) == 2


def test_predictor_demo_rejects_a_register_over_dim_cap(capsys):
    code = cli.run({"experiment": "predictor-demo", "n": 7, "n_sigma": 3,
                    "n_instances": 1, "n_windows": 1, "dim_cap": 64})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert "exceeds dim_cap 64" in err


def test_a_huge_qubit_count_is_rejected_without_forming_its_dimension(capsys):
    code = cli.run({"experiment": "verify-theorem", "n": 10 ** 12})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == ("config error: total dimension 2^1000000000000 exceeds "
                   "dim_cap 16384\n")


def test_a_time_grid_too_large_to_allocate_is_a_config_error(monkeypatch, capsys):
    # the MemoryError is injected: numpy would raise it for 10**15 float64s
    linspace = np.linspace

    def guarded(start, stop, num, **kw):
        if num > 10 ** 9:
            raise MemoryError("Unable to allocate 7.11 PiB for an array with "
                              f"shape ({num},) and data type float64")
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(np, "linspace", guarded)
    code = cli.run({"experiment": "many-body-sweep", "n": 4, "t_count": 10 ** 15})
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: Unable to allocate 7.11 PiB")
    assert err.count("\n") == 1


needs_openblas = pytest.mark.skipif(
    hilbert._openblas() is None,
    reason="numpy's bundled ILP64 OpenBLAS (libscipy_openblas64_) is not loaded, "
           "so the command line leaves the BLAS thread count unpinned")


@needs_openblas
def test_gue_sweep_is_byte_identical_under_one_and_two_blas_threads(tmp_path):
    # the README's counterexample: at 2 BLAS threads an unpinned run moves
    # the last digits of stdout from the t = 1 row on
    cfg = write_config(tmp_path, "experiment = many-body-sweep\nsource = gue\n"
                                 "n = 10\nn_instances = 2\nt_start = 0\n"
                                 "t_stop = 10\nt_count = 11\n")
    runs = [subprocess.run(
        [sys.executable, "-m", "otoc_thermalize.cli", "run", "--config", cfg,
         "--seed", "5"], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads}) for threads in "12"]
    assert [run.returncode for run in runs] == [EXIT_PASS] * 2
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    assert len(runs[0].stdout.splitlines()) == 1 + 2 * 11  # a row per instance and time


@needs_openblas
@pytest.mark.parametrize("error, code", [(None, EXIT_PASS),
                                         (ValueError("bad input"), EXIT_CONFIG)])
def test_run_pins_one_blas_thread_and_restores_the_callers_count(
        monkeypatch, capsys, error, code):
    blas = hilbert._openblas()
    seen = []

    def stub(cfg):
        seen.append(blas.get_num_threads())
        if error is not None:
            raise error
        return [], []

    monkeypatch.setitem(cli.EXPERIMENTS, "stub-experiment", (stub, "stub"))
    before = blas.get_num_threads()
    blas.set_num_threads(2)
    try:
        assert cli.run({"experiment": "stub-experiment"}) == code
        after = blas.get_num_threads()
    finally:
        blas.set_num_threads(before)
    capsys.readouterr()
    assert seen == [1]
    assert after == 2


CROSS_ROUTE_CONFIGS = [
    {"experiment": "verify-theorem", "n": 6, "n_sigma": 3, "n_instances": 3,
     "n_bases": 2, "lambda_grid": [0.1, 0.5]},
    {"experiment": "haar-typicality", "n": 6, "n_sigma": 2, "n_samples": 20},
    *({"experiment": "many-body-sweep", "source": source, "n": 6, "n_sigma": 3,
       "n_instances": 2, "times": [0, 1, 3], "lambda_grid": [0.1, 0.5]}
      for source in ("gue", "cue", "circuit")),
    {"experiment": "predictor-demo", "n": 6, "n_sigma": 3, "n_instances": 2,
     "n_windows": 3, "lambda_grid": [0.05, 0.5]},
    {"experiment": "sizing-table"},
    {"experiment": "negative-demo", "n": 6, "n_sigma": 2, "n_samples": 20},
]


@needs_openblas
@pytest.mark.parametrize("config", CROSS_ROUTE_CONFIGS,
                         ids=lambda c: c.get("source", c["experiment"]))
def test_in_place_and_numpy_qr_draws_give_byte_identical_runs(monkeypatch, config):
    # a single draw is factored in place, column-major; a one-draw stack takes
    # np.linalg.qr, row-major. BLAS stays pinned, so only the QR route differs
    def runs():
        outputs = []
        for seed in (1, 2, 3):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run({**config, "seed": seed})
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    in_place_calls = []
    qr_in_place = hilbert._qr_in_place
    with monkeypatch.context() as patch:
        patch.setattr(hilbert, "_qr_in_place", lambda blas, a: (
            in_place_calls.append(a.shape) or qr_in_place(blas, a)))
        in_place = runs()
    sample = hilbert.sample_haar_unitary

    def numpy_qr_draw(dim, count=None, **kw):
        return sample(dim, count=1, **kw)[0] if count is None else sample(dim, count=count, **kw)

    for module in (hilbert, cli, dynamics, predictor, thermalization):
        if hasattr(module, "sample_haar_unitary"):
            monkeypatch.setattr(module, "sample_haar_unitary", numpy_qr_draw)
    assert runs() == in_place
    # haar-typicality, negative-demo, verify-theorem and a cue sweep draw
    # Bartlett R factors, not a D-row isometry; verify-theorem's probes are
    # stacks. A gue frame and a circuit's gates are single draws
    draws_isometries = (config["experiment"] == "predictor-demo"
                        or config.get("source") in ("gue", "circuit"))
    assert bool(in_place_calls) == draws_isometries


@pytest.mark.parametrize("n, n_s, n_sigma", [(5, 1, 2), (6, 2, 3), (7, 1, 4)])
def test_predictor_demo_rows_match_the_dense_operators(tmp_path, n, n_s, n_sigma):
    # the CLI applies A2 and B2 by contraction; the oracle forms them densely
    # and rotates them as V^dag A V, one window pair per row
    window = {"t0": 1.0, "t_horizon": 40.0, "t_obs": 1.5, "xi": 1.2}
    out = tmp_path / "pd.csv"
    code = cli.run({"experiment": "predictor-demo", "seed": 8, "n": n,
                    "n_s": n_s, "n_sigma": n_sigma, "n_instances": 2,
                    "n_windows": 3, "out": str(out), **window})
    assert code == EXIT_PASS
    rows = read_rows(out)
    expected = predictor_demo_rows(cli._product_setup(n, n_s, n_sigma), 8,
                                   n_instances=2, n_windows=3, **window)
    assert len(rows) == len(expected) == 6
    for row, (bound, measured) in zip(rows, expected):
        assert float(row["bound"]) == pytest.approx(bound, rel=1e-12, abs=0)
        assert float(row["measured"]) == pytest.approx(measured, rel=1e-12, abs=0)


@pytest.mark.parametrize("experiment, source", [
    ("haar-typicality", None), ("many-body-sweep", "gue"),
    ("many-body-sweep", "cue"), ("many-body-sweep", "circuit"),
    ("predictor-demo", None), ("sizing-table", None), ("negative-demo", None)])
def test_experiments_other_than_verify_theorem_build_no_projector(
        monkeypatch, capsys, experiment, source):
    config = {"experiment": experiment, "seed": 5, **DETERMINISM_CONFIGS[experiment]}
    if source is not None:
        del config["t_count"]
        config.update(source=source, times=[0, 1, 2])
    built = []
    post_init = hilbert.Projector.__post_init__
    monkeypatch.setattr(hilbert.Projector, "__post_init__",
                        lambda self: built.append(self.rank) or post_init(self))
    assert cli.run(config) == EXIT_PASS
    capsys.readouterr()
    assert built == []


# ---------------------------------------------------------------------------
# Config fuzz: a bad input is a config error, never a soundness failure.
# ---------------------------------------------------------------------------

#: the invalid kinds of a key's value: 0, a negative number, a non-finite
#: float, a string, a bool or a list
_BAD_VALUES = st.one_of(st.just(0), st.sampled_from([-1, -2.5]),
                        st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.just("x"), st.booleans(),
                        st.sampled_from([[], [1, 2], [0.5, -1.0]]))
_QUBITS = {"n_s": st.integers(1, 2), "n_sigma": st.integers(0, 4),
           "dim_cap": st.sampled_from([2, 16, 64])}
_LAMBDAS = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2)
# keys always set, so that a valid draw stays at D <= 16 and 3 instances
FUZZ_REQUIRED = {
    "verify-theorem": {"n": st.integers(1, 4), "n_instances": st.integers(1, 3),
                       "n_bases": st.integers(0, 3)},
    "haar-typicality": {"n": st.integers(1, 4), "n_samples": st.integers(2, 3)},
    "many-body-sweep": {"n": st.integers(1, 4), "n_instances": st.integers(1, 3)},
    "predictor-demo": {"n": st.integers(1, 4), "n_instances": st.integers(1, 3),
                       "n_windows": st.integers(1, 3)},
    "sizing-table": {},
    "negative-demo": {"n": st.integers(1, 4), "n_samples": st.integers(2, 3)},
}
FUZZ_OPTIONAL = {
    "verify-theorem": {**_QUBITS, "lambda_grid": _LAMBDAS},
    "haar-typicality": {**_QUBITS, "kappa": st.floats(0.5, 4.0)},
    "many-body-sweep": {
        **_QUBITS, "source": st.sampled_from(["gue", "cue", "circuit"]),
        "times": st.lists(st.integers(0, 4), min_size=1, max_size=3),
        "t_start": st.integers(0, 2), "t_stop": st.integers(2, 4),
        "t_count": st.integers(1, 3), "lambda_grid": _LAMBDAS},
    "predictor-demo": {
        **_QUBITS, "t0": st.floats(-5.0, 5.0), "t_horizon": st.floats(1.0, 50.0),
        "t_obs": st.floats(0.5, 3.0), "xi": st.floats(0.1, 3.0),
        "epsilon": st.floats(0.0, 0.1), "kappa_rr": st.floats(0.0, 0.1),
        "lambda_grid": _LAMBDAS},
    "sizing-table": {"lambda_rel_grid": _LAMBDAS, "f_grid": _LAMBDAS,
                     "d_s": st.integers(2, 8)},
    "negative-demo": dict(_QUBITS),
}
_COMMON = {"seed": st.integers(0, 3), "format": st.sampled_from(["csv", "json"])}


def _one_time_grid(params):
    """Keep ``times`` or the t_start/t_stop/t_count grid, which conflict."""
    if "times" not in params:
        return params
    return {key: value for key, value in params.items()
            if key not in ("t_start", "t_stop", "t_count")}


def _fuzz_config(experiment):
    """A valid small config of ``experiment`` with up to two keys made bad."""
    optional = {**FUZZ_OPTIONAL[experiment], **_COMMON}
    keys = sorted({**FUZZ_REQUIRED[experiment], **optional})
    valid = st.fixed_dictionaries(FUZZ_REQUIRED[experiment],
                                  optional=optional).map(_one_time_grid)
    bad = st.dictionaries(st.sampled_from(keys), _BAD_VALUES, max_size=2)
    return st.tuples(valid, bad).map(
        lambda pair: {"experiment": experiment, **pair[0], **pair[1]})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(config=st.sampled_from(sorted(FUZZ_REQUIRED)).flatmap(_fuzz_config))
@example(config={"experiment": "predictor-demo", "n": 4, "n_instances": 1,
                 "n_windows": 1, "xi": math.pi - 1e-15})
def test_fuzzed_config_exits_pass_config_or_stat(config):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(config)
    assert code in (EXIT_PASS, EXIT_CONFIG, EXIT_STAT), (code, err.getvalue())
    if code == EXIT_CONFIG:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error: ")
