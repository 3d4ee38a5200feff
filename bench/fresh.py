"""Fresh-process measurements: interpreter start-up, importing the CLI,
and one cold run of a CLI command.

Each child runs alone and is waited for.  PYTHONDONTWRITEBYTECODE keeps
the checkout free of bytecode caches, so every child compiles the
package from source as the first run in a fresh checkout does.  Process
start-up on a shared machine is noisy from one child to the next, so each
sample is divided by the wall time of a reference process run just
before it (``calibrate.py`` run as a script).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

TIMEOUT_S = 120
_REFERENCE = [str(Path(calibrate.__file__).resolve())]

_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import affgrav.cli; "
    "print(time.perf_counter() - t)"
)


def child_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra or {})
    return env


def run(root: Path, args: list[str], extra_env: dict | None = None):
    """Run ``python <args>`` in the checkout; returns (wall seconds, process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=child_env(root, extra_env),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def wall(root: Path, args: list[str]) -> float:
    """Wall seconds of one ``python <args>`` that must succeed."""
    secs, proc = run(root, args)
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {proc.stderr.strip()}")
    return secs


def import_seconds(root: Path) -> float:
    """Time to import affgrav.cli, measured inside a fresh interpreter."""
    _, proc = run(root, ["-c", _TIMED_IMPORT])
    if proc.returncode != 0:
        raise RuntimeError(f"importing affgrav.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def numpy_import_seconds(root: Path) -> float:
    """Cumulative import time of numpy while importing affgrav.cli, read
    from ``python -X importtime``; 0.0 when the import does not load it."""
    _, proc = run(root, ["-X", "importtime", "-c", "import affgrav.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"importing affgrav.cli failed: {proc.stderr.strip()}")
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def paired(root: Path, measure, reps: int) -> tuple[float, float]:
    """(scaled, raw) medians of ``measure()`` seconds over ``reps``
    samples; a sample is scaled by the reference process run before it."""
    raw, ratios = [], []
    for _ in range(reps):
        reference_s = wall(root, _REFERENCE)
        secs = measure()
        raw.append(secs)
        ratios.append(secs / reference_s)
    return statistics.median(ratios) * calibrate.REFERENCE_PROCESS_S, statistics.median(raw)
