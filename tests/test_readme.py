"""The README's examples run, and print what the README says they print."""

import contextlib
import io
import re
from pathlib import Path

from otoc_thermalize import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# a number or boolean not glued to a name, so "G2" and "sigma2" are skipped
VALUE = re.compile(r"(?<![\w.])(\d+(?:\.\d+)?|True|False)\b")


def _block_after(heading, fence):
    """The body of the first ``fence`` code block after ``heading``."""
    rest = README[README.index(heading):]
    start = rest.index(f"```{fence}\n") + len(fence) + 4
    return rest[start:rest.index("```", start)]


def _matches(printed, claimed):
    if claimed in ("True", "False"):
        return printed == claimed
    decimals = len(claimed.partition(".")[2])
    return f"{float(printed):.{decimals}f}" == claimed


def test_quick_start_prints_the_values_in_its_comments():
    code = _block_after("## Quick start", "python")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(prints)
    # a line that prints k values claims the first k numbers of its comment
    claims = [VALUE.findall(line.partition("#")[2])[:len(values)]
              for line, values in zip(prints, printed)]
    assert claims == [["0.486"], ["0.032"], ["5.14"], ["8"], ["0.0", "1.0"]]
    for values, claimed in zip(printed, claims):
        assert len(values) == len(claimed)
        for value, claim in zip(values, claimed):
            assert _matches(value, claim), (value, claim)


def test_sweep_session_prints_the_rows_and_verdicts_shown(tmp_path, capsys):
    session = _block_after("A minimal session:", "")
    config, _, shown = session.partition("\n\n$ otoc-thermalize run")
    command, _, shown = shown.partition("\n")
    assert command == " --config sweep.cfg --seed 7"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config.partition("$ cat sweep.cfg\n")[2] + "\n")
    assert cli.main(["run", "--config", str(cfg), "--seed", "7"]) == cli.EXIT_PASS
    out, err = capsys.readouterr()
    rows = shown.splitlines()
    assert rows[-1] == "..." and len(rows) == 4
    assert out.splitlines()[:3] == rows[:3]
    verdicts = _block_after("with the verdicts on stderr:", "").splitlines()
    assert len(verdicts) == 3
    lines = err.splitlines()
    for shown_line in verdicts:
        if shown_line.endswith("..."):
            prefix = shown_line.removesuffix("...")
            assert any(line.startswith(prefix) for line in lines), shown_line
        else:
            assert shown_line in lines
