"""Tests for the experiment runner: config parsing, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from otoc_thermalize import cli
from otoc_thermalize.geometry import halmos_decompose
from otoc_thermalize.hilbert import (
    UnitarySource,
    conjugate,
    derive_rng,
    evolve,
    gue_hamiltonian,
    tensor_embed,
)
from otoc_thermalize.thermalization import thermal_subspace
from otoc_thermalize.cli import (
    CSV_COLUMNS,
    ConfigError,
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_SOUND,
    EXIT_STAT,
    ExperimentConfig,
    Verdict,
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


def _sweep_source(kind, seed, i, n):
    """The source many-body-sweep builds for instance i."""
    if kind == "gue":
        h = gue_hamiltonian(2 ** n, rng=derive_rng(seed, "sweep-gue", i))
        return UnitarySource.hamiltonian(h)
    child = int(derive_rng(seed, "sweep-source", i).integers(1 << 63))
    if kind == "cue":
        return UnitarySource.haar_cue(2 ** n, seed=child)
    return UnitarySource.circuit(n, seed=child)


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
    p_r = tensor_embed(setup, "observable")
    p_rho = tensor_embed(setup, "core")
    expected = []
    for i in range(2):
        src = _sweep_source(source, seed, i, n)
        for t in (0, 1, 3):
            geom = halmos_decompose(p_r, conjugate(p_rho, evolve(src, t)))
            expected += [float(thermal_subspace(geom, lam)[1]) for lam in lambdas]
    assert [float(row["measured"]) for row in read_rows(out)] == expected


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
        return [], [Verdict("1 <= 0", "sound", False, 1.0, 0.0)]

    monkeypatch.setitem(cli.EXPERIMENTS, "stub-experiment", (stub, "stub"))
    assert cli.run({"experiment": "stub-experiment"}) == EXIT_SOUND
    assert "[sound] FAIL" in capsys.readouterr().err


def test_library_error_reports_soundness(monkeypatch, capsys):
    def stub(cfg):
        raise AssertionError("correlator trace was not real")

    monkeypatch.setitem(cli.EXPERIMENTS, "stub-experiment", (stub, "stub"))
    assert cli.run({"experiment": "stub-experiment"}) == EXIT_SOUND
    assert "soundness failure" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("f_grid = 0, 0.5", "f_grid"),
    ("lambda_rel_grid = -1", "lambda_rel_grid"),
])
def test_sizing_table_out_of_range_grid_is_config_error(tmp_path, capsys,
                                                         grid, message):
    cfg = write_config(tmp_path, f"experiment = sizing-table\n{grid}\n")
    assert cli.main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_run_accepts_plain_mapping(capsys):
    code = cli.run({"experiment": "sizing-table",
                    "lambda_rel_grid": [0.5], "f_grid": [0.5]})
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(out.splitlines()) == 2
