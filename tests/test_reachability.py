"""Every function and method defined in ``src/`` is reached from the command line.

The six experiments run at small sizes, in both formats, with every source
and with and without a ``lambda_grid``, and ``cli.main`` runs a config file,
``list`` and a usage error. ``sys.setprofile`` and ``threading.setprofile``
record the code object of every Python call, on the caller's thread and on
pool threads. A function that no run reaches is dead code, or waits for the
open ROADMAP direction that ``NOT_YET_REACHED`` names: that list only
shrinks, and a name on it that a run reaches fails the test too.
"""

import contextlib
import inspect
import io
import sys
import threading

import pytest

from otoc_thermalize import cli, dynamics, geometry, hilbert, predictor, thermalization

MODULES = (cli, dynamics, geometry, hilbert, predictor, thermalization)

#: Functions no run reaches yet, each with the open ROADMAP direction that
#: gives it a caller or deletes it.
NOT_YET_REACHED = {
    "dynamics.HaarPrediction.mean_sigma2": "direction 9: the exact finite-D sigma2 target",
    "geometry.angle_variance": "direction 2: only tests call it",
    "hilbert._check_sites": "direction 14: custom site layouts, deleted or exposed",
    "predictor.WindowPair.delta_e": "direction 14: used in no formula, deleted or used",
    "predictor.cauchy_schwarz_bound": "direction 10: the windowed verdict of a sweep",
    "thermalization.nonthermal_witness_bound": "direction 6: the sweep's witness floor",
}

#: Called only where ``hilbert._openblas`` finds numpy's bundled OpenBLAS.
OPENBLAS_ONLY = {"hilbert._lapack_qr", "hilbert._qr_in_place", "hilbert._qr_work_size",
                 "hilbert._OpenBLAS.__init__"}

RUNS = [
    {"experiment": "verify-theorem", "n": 4, "n_sigma": 2, "n_instances": 2,
     "n_bases": 2},
    {"experiment": "haar-typicality", "n": 4, "n_sigma": 2, "n_samples": 10},
    *({"experiment": "many-body-sweep", "source": source, "n": 4, "n_sigma": 2,
       "n_instances": 2, "times": [0, 1, 2], **grid}
      for source in ("gue", "cue", "circuit") for grid in ({}, {"lambda_grid": [0.3]})),
    *({"experiment": "predictor-demo", "n": 4, "n_sigma": 2, "n_instances": 2,
       "n_windows": 2, **grid} for grid in ({}, {"lambda_grid": [0.5]})),
    {"experiment": "sizing-table", "lambda_rel_grid": [0.5], "f_grid": [0.5]},
    {"experiment": "negative-demo", "n": 4, "n_sigma": 2, "n_samples": 10},
]


def defined_functions():
    """``{"module.name": code}`` of every function and method written in ``src/``:
    those whose code lives in their module's file, so not the methods that
    ``dataclass`` and ``NamedTuple`` generate."""
    found = {}
    for mod in MODULES:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            members = {name: obj}
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                members = {f"{name}.{attr}": member for attr, member in vars(obj).items()}
            for label, member in members.items():
                if isinstance(member, property):
                    member = member.fget
                fn = inspect.unwrap(getattr(member, "__func__", member))
                if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                    found[f"{layer}.{label}"] = fn.__code__
    return found


@contextlib.contextmanager
def recording_calls():
    """Yield the set of code objects that Python calls until the block exits."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def test_every_src_function_is_reached_from_the_command_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = verify-theorem  # a comment\nn = 4\n"
                   "lambda_grid = 0.1, 0.5\nn_instances = 1\n", encoding="utf-8")
    # the cached handles are looked up again, so their first calls are seen
    hilbert._openblas.cache_clear()
    hilbert._qr_work_size.cache_clear()
    with recording_calls() as called:
        for config in RUNS:
            for fmt in ("csv", "json"):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run({**config, "seed": 1, "format": fmt})
                assert code == cli.EXIT_PASS, config
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["run", "--config", str(cfg), "--seed", "2",
                             "--out", str(tmp_path / "out.json"),
                             "--format", "json"]) == cli.EXIT_PASS
            assert cli.main(["list"]) == cli.EXIT_PASS
            with pytest.raises(SystemExit) as usage:
                cli.main(["run"])
    assert usage.value.code == cli.EXIT_CONFIG
    functions = defined_functions()
    assert set(NOT_YET_REACHED) <= set(functions)
    expected = set(NOT_YET_REACHED)
    if hilbert._openblas() is None:
        expected |= {name for name in OPENBLAS_ONLY if functions[name] not in called}
    unreached = {name for name, code in functions.items() if code not in called}
    assert unreached == expected
