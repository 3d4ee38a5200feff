"""How the program starts, in a fresh interpreter each.

Each half of the package loads only where a command uses it: importing
the CLI and running ``--help``, ``expand``, ``verify`` or a ``gravity``
run whose options or fixture are refused leave numpy out of
``sys.modules``, and importing the CLI, ``--help`` and ``gravity`` leave
the exact layer out of it.

The program's one entry point, ``cli.run``, behind both the ``affgrav``
script and ``python -m affgrav``, caps OpenBLAS at one thread unless
``OPENBLAS_NUM_THREADS`` is already set, so a ``gravity`` run exits with
one native thread; importing the package and calling ``cli.main``
in-process leave the environment as it is."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXACT_LAYER = {f"affgrav.{name}" for name in ("diffpoly", "scalar", "powerseries", "expansion")}
BLAS = "OPENBLAS_NUM_THREADS"
# Prints, as the interpreter exits (after a command's SystemExit too),
# sys.modules, OPENBLAS_NUM_THREADS and the number of native threads
# (None without /proc/self/task).
REPORT = (
    "import atexit, json, os, sys\n"
    "atexit.register(lambda: print(json.dumps({\n"
    "    'modules': sorted(sys.modules),\n"
    f"    'blas_threads': os.environ.get({BLAS!r}),\n"
    "    'threads': len(os.listdir(t)) if os.path.isdir(t := '/proc/self/task') else None,\n"
    "})))\n"
)


# fixture texts that gravity refuses before it builds a curve
REFUSED_FIXTURES = ["foo:x", "ellipse:2", "kappa-poly:", "kappa-poly:1,,2"]


def report_after(statement: str, blas_threads: str | None = None) -> dict:
    """REPORT's record once ``statement`` has run in a fresh interpreter,
    whose OPENBLAS_NUM_THREADS is ``blas_threads`` (None: unset)."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    env.pop(BLAS, None)
    if blas_threads is not None:
        env[BLAS] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", REPORT + statement],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(statement: str) -> set[str]:
    """Modules loaded once ``statement`` has run in a fresh interpreter."""
    return set(report_after(statement)["modules"])


def command(*args: str) -> str:
    """The statement that runs ``python -m affgrav <args>``."""
    return (
        f"import runpy; sys.argv = ['affgrav', *{list(args)!r}]; "
        "runpy.run_module('affgrav', run_name='__main__')"
    )


def refused(*args: str) -> str:
    """The statement that runs a gravity command and expects exit code 2."""
    run = command("gravity", *args)
    return f"try:\n    {run}\nexcept SystemExit as exc:\n    assert exc.code == 2"


@pytest.mark.parametrize(
    "statement",
    [
        "import affgrav.cli",
        command("--help"),
        command("gravity", "--help"),
        command("expand", "--order", "6"),
        command("verify", "--order", "6"),
        refused("--point", "nan"),
        *(refused("--fixture", f) for f in REFUSED_FIXTURES),
    ],
    ids=[
        "import", "help", "gravity-help", "expand", "verify", "gravity-refused", *REFUSED_FIXTURES
    ],
)
def test_symbolic_start_does_not_import_numpy(statement):
    modules = modules_after(statement)
    assert "affgrav.cli" in modules
    assert "numpy" not in modules and "affgrav.numcurve" not in modules


def test_numeric_layer_still_loads_where_it_is_used():
    gravity = command("gravity", "--fixture", "ellipse:2,1", "--sweep", "3")
    assert {"numpy", "affgrav.numcurve"} <= modules_after(gravity)
    lazy = "from affgrav import NumCurve, numcurve\nassert numcurve.NumCurve is NumCurve"
    assert "numpy" in modules_after(lazy)


@pytest.mark.parametrize(
    "statement",
    [
        "import affgrav.cli",
        command("--help"),
        command("gravity", "--help"),
        command("gravity", "--fixture", "ellipse:2,1", "--sweep", "3"),
    ],
    ids=["import", "help", "gravity-help", "gravity"],
)
def test_numeric_start_does_not_import_the_exact_layer(statement):
    modules = modules_after(statement)
    assert "affgrav.cli" in modules
    assert not EXACT_LAYER & modules, sorted(EXACT_LAYER & modules)


@pytest.mark.parametrize(
    "statement",
    [command("expand", "--order", "6"), command("verify", "--order", "6")],
    ids=["expand", "verify"],
)
def test_exact_layer_still_loads_where_it_is_used(statement):
    assert EXACT_LAYER <= modules_after(statement)


GRAVITY = ["gravity", "--fixture", "ellipse:2,1", "--sweep", "3"]


def test_program_caps_openblas_at_one_thread():
    report = report_after(command(*GRAVITY))
    assert "numpy" in report["modules"]
    assert report["blas_threads"] == "1"
    if report["threads"] is not None:
        assert report["threads"] == 1


def test_program_keeps_a_blas_thread_count_already_set():
    assert report_after(command(*GRAVITY), blas_threads="3")["blas_threads"] == "3"


def test_library_use_leaves_the_environment_alone():
    call = f"affgrav.cli.main({GRAVITY!r}, standalone_mode=False)"
    report = report_after(f"import affgrav.cli\n{call}")
    assert "numpy" in report["modules"]
    assert report["blas_threads"] is None


def test_module_run_goes_through_the_entry_point(monkeypatch):
    from affgrav import cli

    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("affgrav", run_name="__main__")
    assert calls == ["run"]


def test_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"affgrav": "affgrav.cli:run"}


def test_every_listed_name_resolves():
    import affgrav

    names = dir(affgrav)
    assert {"build_pipeline", "NumCurve", "expansion", "numcurve"} <= set(names)
    for name in names:
        getattr(affgrav, name)
    # the lazy table lists each module's public names, constants aside;
    # errors has no __all__, and its public names are its exception classes
    for module, listed in affgrav._EXPORTS.items():
        m = getattr(affgrav, module)
        if module == "errors":
            public = [
                n for n, v in vars(m).items() if isinstance(v, type) and issubclass(v, Exception)
            ]
        else:
            public = [n for n in m.__all__ if not n.isupper()]
        assert sorted(listed) == sorted(public), module


def test_cli_names_of_the_exact_layer_are_the_modules_own():
    from affgrav import cli, expansion, powerseries

    assert cli.build_pipeline is expansion.build_pipeline
    assert cli.expansion is expansion and cli.bell is powerseries.bell
