"""affgrav benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload expand-deep --seed 1 --seconds 25 --trace 0

Workloads (one in-process caller, closed loop, no threads):
  expand-deep    build_pipeline(16) rendered as ``expand --format json``
  verify-mid     ``verify --order 14`` with AFFGRAV_SEED set to the seed
  gravity-sweep  a conic sweep, the curvature-bump sweep and the
                 linear-curvature point through the gravity command

With ``--trace 0`` the run measures set-up and cold-start in fresh
processes, then times ops for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it reports per-layer metrics from span
records instead (see ``traced.py``).  Every op's output passes a
correctness gate; the last stdout line is the JSON result and the line
before it holds run metadata.  ``--smoke`` shrinks every size so the
benchmark's own tests can run it quickly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before the benchmark's own modules are imported, so that neither
# they nor the program leave bytecode caches in the checkout.
sys.dont_write_bytecode = True

import calibrate  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

SETUP_REPS = 7
COLD_REPS = 7
BARE_REPS = 3
# op_s_tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("cold_cli_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Tally:
    """Counts gated checks; a check that fails or raises is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def gate(self, check) -> None:
        try:
            check()
        except Exception as exc:
            self.fail(exc)
        else:
            self.attempted += 1

    def fail(self, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        print("check failed:\n" + "".join(traceback.format_exception(exc)), file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest nearest-rank
    percentile that leaves at least TAIL_BEYOND samples above it; with too
    few samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], 0
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, xs[rank - 1], n - rank


def run_metadata(args, wl) -> dict:
    from importlib.metadata import version

    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "affgrav").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": wl.seed_used,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def timed_run(args, wl, tally: Tally, meta: dict) -> dict:
    import fresh
    import workloads

    smoke = args.smoke
    reps = (lambda n: 1) if smoke else (lambda n: n)

    # Set-up and cold start, one fresh process at a time.
    def cold_run() -> float:
        secs, proc = fresh.run(ROOT, ["-m", "affgrav", *wl.cold_args], wl.cold_env)
        tally.gate(lambda: wl.check_cold(proc.returncode, proc.stdout))
        return secs

    meta["bare_interpreter_s"] = statistics.median(
        fresh.wall(ROOT, ["-c", "pass"]) for _ in range(reps(BARE_REPS))
    )
    setup_s, meta["setup_wall_s"] = fresh.paired(
        ROOT, lambda: fresh.wall(ROOT, ["-c", "import affgrav.cli"]), reps(SETUP_REPS)
    )
    cold_cli_s, meta["cold_cli_wall_s"] = fresh.paired(ROOT, cold_run, reps(COLD_REPS))
    meta["cold_cli_command"] = " ".join(["affgrav", *wl.cold_args])

    if isinstance(wl, workloads.VerifyMid):
        workloads.reset_process_state()
        tally.gate(lambda: workloads.check_self_test(*wl.self_test()))

    # Warm-up op: gated, not timed.
    workloads.reset_process_state()
    tally.gate(lambda: wl.check(wl.op(0)))

    times, op_kernels = [], []
    i = 1
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        op_kernels.append(calibrate.seconds())
        workloads.reset_process_state()
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # an op that raises counts as failed
            times.append(time.perf_counter() - t0)
            tally.fail(exc)
        else:
            times.append(time.perf_counter() - t0)
            tally.gate(lambda: wl.check(out))
        i += 1

    scaled = [calibrate.scale(t, k) for t, k in zip(times, op_kernels)]
    pct, tail_value, beyond = tail(scaled)
    meta.update(
        {
            "ops": len(times),
            "op_s_tail_percentile": pct,
            "op_s_tail_samples_beyond": beyond,
            "setup_reps": reps(SETUP_REPS),
            "cold_cli_reps": reps(COLD_REPS),
            "kernel_s_p50": statistics.median(op_kernels),
            "op_wall_s_p50": statistics.median(times),
            "op_wall_s_tail": tail(times)[1],
        }
    )
    return {
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": tail_value,
        "setup_s": setup_s,
        "cold_cli_s": cold_cli_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, tally: Tally, meta: dict) -> dict:
    import traced

    run = traced.TracedRun(ROOT, args.workload, args.seed, args.smoke, tally)
    result = run.run(args.seconds)
    meta["rounds"] = len(run.rounds)
    meta["ladder"] = list(run.ladder)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    run.write(path, meta, result["coverage"])
    meta["trace_file"] = str(path.relative_to(ROOT))
    metrics = result["metrics"]
    if not args.smoke:
        expected = {name for name, _ in traced.per_layer_names()}
        if set(metrics) != expected:
            raise RuntimeError(f"per-layer metrics differ from the list: {sorted(set(metrics) ^ expected)}")
    return metrics


def units(smoke: bool) -> dict:
    import traced

    return dict(END_TO_END) | dict(traced.per_layer_names(traced.SMOKE_LADDER if smoke else traced.LADDER))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["expand-deep", "verify-mid", "gravity-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "affgrav" / "__init__.py").is_file():
        print(f"error: {SRC / 'affgrav'} not found; run from the root of an affgrav checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ROOT)
    meta = run_metadata(args, wl)
    tally = Tally()
    if args.trace:
        values = traced_run(args, tally, meta)
    else:
        values = timed_run(args, wl, tally, meta)
    meta["failed_fraction"] = tally.failed / tally.attempted
    unit = units(args.smoke)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
