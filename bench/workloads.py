"""The benchmark's workloads: one op each, its correctness gate, and the
fresh-process command that stands for it.

Every op is a closed loop with one caller.  Ops take an optional span
recorder (see ``spans.py``); untimed bookkeeping such as cache clearing
happens in ``run.py``, outside the op.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
from pathlib import Path

from click.testing import CliRunner

from affgrav import cli, expansion, numcurve

# sha256 of the expand-deep rendering at order 16, recorded at the commit
# that introduced this benchmark.  The rendering is exact, so any change
# to a coefficient or to the JSON layout shows here.
EXPAND_DEEP_DIGEST = "f17e075173dddb2c36b8e85af9579d3a03abfb7e56fd792a63984795c1ddab45"
GOLDEN_FILE = Path("tests") / "data" / "expand_order8.json"

VERIFY_SUITES = (
    "grading_closure",
    "bell_identity",
    "wronskian_series",
    "lemma4",
    "h_leading_law",
    "theorem1",
    "theorem2",
)

CONICS = ("parabola", "circle", "ellipse:2,1", "hyperbola")
BUMP = "kappa-poly:1,0,1"
LINEAR = "kappa-poly:0,1"
# kappa(s) = s has kappa' = 1, so the flatness fit predicts b = -1/10.
LINEAR_B = -0.1
LINEAR_B_TOL = 0.005
# max_dev of a straight midpoint curve stays below this share of the
# largest chord height (the CLI's own default straightness tolerance).
STRAIGHT_FACTOR = 1e-6

# The two lru caches that every fresh CLI process starts without.
_CACHES = (expansion.build_frame, expansion.build_pipeline)
_RUNNER = CliRunner()


class GateError(Exception):
    """An op's output failed its correctness gate."""


class NullRecorder:
    """Stands in for ``spans.Recorder`` when an op runs untraced."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL = NullRecorder()


def reset_process_state() -> None:
    """Clear the pipeline caches and collect garbage, then check that the
    caches really are empty, so the next op pays the full pipeline cost
    as a fresh CLI process would."""
    for fn in _CACHES:
        fn.cache_clear()
    gc.collect()
    for fn in _CACHES:
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"{fn.__name__} cache not empty after cache_clear")


def invoke(args: list[str], env: dict | None = None) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    result = _RUNNER.invoke(cli.main, args, env=env)
    return result.exit_code, result.stdout


# -- gates --------------------------------------------------------------------


def check_expand(text: str, digest: str | None, golden: dict) -> None:
    """The rendering matches the recorded digest (when given) and its
    prefix through the golden file's order matches the golden file."""
    if digest is not None:
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != digest:
            raise GateError(f"expand rendering digest {got} != recorded {digest}")
    data = json.loads(text)
    for name, ref in golden["series"].items():
        n = min(golden["order"], data["order"]) + 1
        if data["series"][name]["coeffs"][:n] != ref["coeffs"][:n]:
            raise GateError(f"series {name} differs from the golden file below order {n}")


def check_verify(code: int, stdout: str, suites=VERIFY_SUITES) -> None:
    """Exit 0, a PASS line for every named suite, no FAIL line."""
    if code != 0:
        raise GateError(f"verify exited {code}")
    lines = stdout.splitlines()
    missing = [s for s in suites if f"PASS {s}" not in lines]
    if missing:
        raise GateError(f"verify suites without PASS: {missing}")
    if any(line.startswith("FAIL") for line in lines) or not lines[-1].startswith("PASS:"):
        raise GateError("verify reported a failure")


def check_self_test(code: int, stdout: str) -> None:
    if code != 0 or "SELF-TEST OK" not in stdout:
        raise GateError("verify --self-test did not detect the injected fault")


def check_conic(code: int, stdout: str, max_delta: float) -> None:
    if code != 0:
        raise GateError(f"conic sweep exited {code}")
    data = json.loads(stdout)
    if not data["straight_everywhere"]:
        raise GateError(f"conic {data['fixture']} not straight everywhere")
    bound = STRAIGHT_FACTOR * max_delta
    worst = max(p["max_dev"] for p in data["points"])
    if worst > bound:
        raise GateError(f"conic {data['fixture']} max_dev {worst:.3g} > {bound:.3g}")


def check_bump(code: int, stdout: str) -> None:
    if code != 0:
        raise GateError(f"bump sweep exited {code}")
    if json.loads(stdout)["straight_everywhere"]:
        raise GateError("bump curvature reported straight")


def check_linear(code: int, stdout: str, expected_b: float = LINEAR_B) -> None:
    if code != 0:
        raise GateError(f"linear-curvature point exited {code}")
    b = json.loads(stdout)["fit_coeffs"][1]
    if abs(b - expected_b) > LINEAR_B_TOL:
        raise GateError(f"linear-curvature fit b={b:.6g}, want {expected_b} +- {LINEAR_B_TOL}")


# -- workloads ------------------------------------------------------------------


class ExpandDeep:
    """build_pipeline(16) rendered as ``expand --format json`` prints it.

    The construction path at the order the order-ceiling goal is about;
    the library is driven directly because the CLI caps --order at 14.
    The seed is unused: the op has no input to vary.
    """

    name = "expand-deep"
    seed_used = False

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.order = 8 if smoke else 16
        self.digest = None if smoke else EXPAND_DEEP_DIGEST
        self.golden = json.loads((root / GOLDEN_FILE).read_text())
        self.cold_args = ["expand", "--order", "6" if smoke else "14", "--format", "json"]
        self.cold_env: dict = {}

    def op(self, i: int, rec=NULL) -> str:
        pipe = expansion.build_pipeline(self.order)
        series = {
            "f": pipe.f,
            "g": pipe.g,
            "u": pipe.u,
            "v": pipe.v,
            "h": pipe.h,
            "gravity_x": pipe.gravity_x,
        }
        rendered = {name: s.to_json_dict() for name, s in series.items()}
        with rec.span("bench.render_json"):
            return json.dumps({"order": self.order, "series": rendered}, sort_keys=True, indent=2)

    def check(self, out: str) -> None:
        check_expand(out, self.digest, self.golden)

    def check_cold(self, code: int, stdout: str) -> None:
        if code != 0:
            raise GateError(f"expand exited {code}")
        check_expand(stdout, None, self.golden)


class VerifyMid:
    """``verify --order 14`` in-process, with AFFGRAV_SEED set to the seed.

    The same algebra layers check series instead of building them, so a
    representation change that speeds construction but slows the checks
    shows here.
    """

    name = "verify-mid"
    seed_used = True

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.order = "6" if smoke else "14"
        self.cold_args = ["verify", "--order", self.order]
        self.cold_env = {"AFFGRAV_SEED": str(seed)}

    def op(self, i: int, rec=NULL) -> tuple[int, str]:
        with rec.span("cli.verify"):
            return invoke(self.cold_args, env=self.cold_env)

    def check(self, out: tuple[int, str]) -> None:
        check_verify(*out)

    def check_cold(self, code: int, stdout: str) -> None:
        check_verify(code, stdout)

    def self_test(self) -> tuple[int, str]:
        return invoke(["verify", "--order", self.order, "--self-test"])


class GravitySweep:
    """Three gravity commands per op: a conic sweep, the curvature bump
    sweep and the linear-curvature flatness point.

    Nearly all of the op runs in ``numcurve``; nothing symbolic runs.  The
    seed fixes the order in which ops cycle through the conics.
    """

    name = "gravity-sweep"
    seed_used = True

    def __init__(self, seed: int, smoke: bool, root: Path):
        conics = list(CONICS)
        random.Random(seed).shuffle(conics)
        self.conics = conics
        self.smoke = smoke
        self.sweep = "2" if smoke else "8"
        self.max_delta = float(max(numcurve.default_deltas()))
        self.cold_args = ["gravity", "--fixture", "ellipse:2,1", "--sweep", self.sweep, "--format", "json"]
        self.cold_env: dict = {}

    def commands(self, i: int) -> list[tuple[str, list[str]]]:
        conic = self.conics[i % len(self.conics)]
        cmds = [("conic", ["gravity", "--fixture", conic, "--sweep", self.sweep, "--format", "json"])]
        if not self.smoke:
            cmds.append(("bump", ["gravity", "--fixture", BUMP, "--sweep", "8", "--format", "json"]))
            cmds.append(("linear", ["gravity", "--fixture", LINEAR, "--point", "0", "--format", "json"]))
        return cmds

    def op(self, i: int, rec=NULL) -> list[tuple[str, int, str]]:
        out = []
        for kind, args in self.commands(i):
            with rec.span("cli.gravity"):
                out.append((kind, *invoke(args)))
        return out

    def check(self, out: list[tuple[str, int, str]]) -> None:
        for kind, code, stdout in out:
            if kind == "conic":
                check_conic(code, stdout, self.max_delta)
            elif kind == "bump":
                check_bump(code, stdout)
            else:
                check_linear(code, stdout)

    def check_cold(self, code: int, stdout: str) -> None:
        check_conic(code, stdout, self.max_delta)


WORKLOADS = {w.name: w for w in (ExpandDeep, VerifyMid, GravitySweep)}
