"""The README's examples run, and print what the README says they print."""

import ast
import contextlib
import io
import re
from pathlib import Path

from otoc_thermalize import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

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


def _invariant_error_sites():
    """(names, raising): the functions and methods in ``src/``, each by its
    qualified name and by that name after its module's, mapped to the
    qualified name, and the qualified names of those that ``raise
    InvariantError``."""
    names, raising = {}, set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                qual = prefix + child.name
                names[qual] = names[f"{module}.{qual}"] = qual
                for raised in ast.walk(child):
                    exc = getattr(raised, "exc", None) if isinstance(raised, ast.Raise) else None
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    if isinstance(exc, ast.Name) and exc.id == "InvariantError":
                        raising.add(qual)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names, raising


def test_invariant_error_sites_are_the_readme_list():
    # the bullets after "checks its own math:" name, before their colon,
    # every function that raises InvariantError, and only functions that exist
    rest = README[README.index("checks its own math:\n\n"):].split("\n\n")[1]
    bullets = [line[2:] for line in rest.splitlines() if line.startswith("* ")]
    named = [name for bullet in bullets
             for name in re.findall(r"`([\w.]+)`", bullet.partition(": ")[0])]
    names, raising = _invariant_error_sites()
    assert raising, "no raise InvariantError found in src/"
    missing = sorted(name for name in named if name not in names)
    assert not missing, f"README names functions that are not in src/: {missing}"
    unlisted = sorted(raising - {names[name] for name in named})
    assert not unlisted, f"README does not list these InvariantError sites: {unlisted}"
