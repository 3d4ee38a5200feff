"""Command-line front end: symbolic expansion, identity verification,
and chord-midpoint experiments on built-in curve fixtures.

Each half of the package loads where a command uses it: the gravity code
paths import ``numcurve`` (and with it numpy), and ``expand``, ``verify``
and their suites import the exact layer (``expansion``, ``powerseries``,
``diffpoly``, ``scalar``).  So ``--help`` starts with neither, ``expand``
and ``verify`` without numpy, and ``gravity`` without the exact layer.

``run`` is the program's entry point, for the ``affgrav`` script and
``python -m affgrav``: it sets ``OPENBLAS_NUM_THREADS=1`` unless the
variable is already set, then calls ``main``.  No command runs a BLAS
kernel, and numpy's OpenBLAS otherwise starts a worker thread at import
that busy-waits beside the importing thread, at the cost of a cold
``gravity`` run.
Importing this module or calling ``main`` in-process leaves
``os.environ`` as it is.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from itertools import chain, starmap
from typing import TYPE_CHECKING

import click

from .defaults import (
    DEFAULT_DELTA0,
    DEFAULT_DELTA_COUNT,
    DEFAULT_DELTA_RATIO,
    DEFAULT_ORDER,
    DEFAULT_STEP,
    DEFAULT_TOL_FLAT,
    MAX_ORDER,
    MIN_FIT_SAMPLES,
    MIN_ORDER,
    STRAIGHT_TOL_FLOOR,
    TOL_STRAIGHT_FACTOR,
)
from .errors import AffGravError, BracketingError, VerificationError

if TYPE_CHECKING:
    import random

    import numpy as np

    from .diffpoly import DiffPoly

__all__ = ["main", "run", "Config", "parse_fixture"]

# Exact-layer names that read as attributes of this module, resolved
# through the package on each access, so a name patched in its own module
# reads patched here too.  They stay because the benchmark's span test
# (bench/tests/test_bench.py) and tests/test_startup.py read them through
# ``cli``.
_EXACT_LAYER_NAMES = frozenset(
    {"expansion", "build_pipeline", "DiffPoly", "GradedClass", "Series", "bell"}
)


def __getattr__(name: str):
    if name in _EXACT_LAYER_NAMES:
        return getattr(import_module(__package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_ORDER_OPTION = click.IntRange(MIN_ORDER, MAX_ORDER)
# Upper bounds of the gravity work sizes, checked before anything is built.
MAX_SWEEP = 1000
MAX_DELTA_COUNT = 1000


@dataclass(frozen=True)
class Config:
    """Validated bundle of the numeric experiment parameters."""

    step: float
    delta0: float
    delta_ratio: float
    delta_count: int
    tol_flat: float
    tol_straight: float | None
    output: str
    fixture: str
    point: float
    sweep: int

    def validate(self) -> None:
        """Raise ValueError naming the first unmet precondition of the
        command line.  What only the built curve shows, a curve that is
        not finite or a base point too near its grid's ends, ``numcurve``
        refuses."""
        single = self.sweep == 0  # a sweep reads neither --point nor --tol-flat
        reals = {
            "step": self.step,
            "delta0": self.delta0,
            "delta-ratio": self.delta_ratio,
            "tol-flat": self.tol_flat if single else None,
            "tol-straight": self.tol_straight,
            "point": self.point if single else None,
        }
        for name, value in reals.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.delta0 <= 0 or self.delta_ratio <= 1 or self.delta_count < 1:
            raise ValueError("height schedule needs delta0 > 0, ratio > 1, count >= 1")
        if self.delta_count > MAX_DELTA_COUNT:
            raise ValueError(f"--delta-count must be at most {MAX_DELTA_COUNT}")
        try:
            top = self.delta0 * self.delta_ratio ** (self.delta_count - 1)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError("the largest height delta0 * ratio^(count-1) is not finite")
        if self.sweep < 0 or self.sweep == 1:
            raise ValueError("--sweep takes 0 (single point) or at least 2 base points")
        if self.sweep > MAX_SWEEP:
            raise ValueError(f"--sweep must be at most {MAX_SWEEP}")
        if single and self.delta_count < MIN_FIT_SAMPLES:
            raise ValueError(
                f"a single-point flatness fit needs --delta-count >= {MIN_FIT_SAMPLES}"
            )
        if single and self.tol_flat <= 0:
            raise ValueError("tol-flat must be positive")
        if self.tol_straight is not None and self.tol_straight <= 0:
            raise ValueError("tol-straight must be positive")
        tol = TOL_STRAIGHT_FACTOR * top if self.tol_straight is None else self.tol_straight
        if self.sweep and tol < STRAIGHT_TOL_FLOOR:  # no curve could pass it
            raise ValueError(
                f"straightness tolerance {tol:.3g} is below the roundoff floor"
                f" {STRAIGHT_TOL_FLOOR:.3g} of max_dev; raise --delta0 or --tol-straight"
            )

    def deltas(self) -> np.ndarray:
        from .numcurve import default_deltas

        return default_deltas(self.delta0, self.delta_ratio, self.delta_count)

    def base_points(self) -> list[float]:
        """The sweep's evenly spaced points on [-0.5, 0.5], or the single point."""
        if self.sweep:
            import numpy as np

            return [float(p) for p in np.linspace(-0.5, 0.5, self.sweep)]
        return [self.point]


# -- fixtures -------------------------------------------------------------------

def _ellipse_jet(np, a, b):
    """The jet of (a cos u, b sin u): one cosine and one sine per
    abscissa, the derivatives sign flips and products of them."""

    def jet(u):
        c, s = np.cos(u), np.sin(u)
        return (a * c, b * s), (-a * s, b * c), (-a * c, -b * s), (a * s, -b * c)

    return jet


def _hyperbola_jet(np):
    """The jet of (cosh u, -sinh u): its derivatives repeat with period
    two, each a sign flip of the point's pair.  cosh and sinh come from
    the math module, whose values numpy's own do not reproduce bit for
    bit on every platform."""

    def jet(u):
        u = np.asarray(u, dtype=float)
        flat = memoryview(u.ravel())  # yields floats one at a time, unlike tolist()
        both = np.fromiter(
            chain(map(math.cosh, flat), map(math.sinh, flat)), float, count=2 * len(flat)
        ).reshape(2, *u.shape)
        x, y = both[0], -both[1]
        return (x, y), (-y, -x), (x, y), (-y, -x)

    return jet


# Conics plotted on u in [-1, 1]: name -> (jet maker, its default
# arguments, what it takes).  A conic has constant affine curvature.  A
# jet maker takes numpy, then the arguments, and returns the plot's
# exact jet (``numcurve.ParametricCurveSpec``).
_CONICS = {
    "parabola": (
        lambda np: lambda u: ((u, u * u / 2), (1.0, u), (0.0, 1.0), (0.0, 0.0)),
        (),
        "no arguments",
    ),
    "circle": (lambda np: _ellipse_jet(np, 1.0, 1.0), (), "no arguments"),
    "ellipse": (_ellipse_jet, (2.0, 1.0), "two positive semi-axes, e.g. ellipse:2,1"),
    "hyperbola": (_hyperbola_jet, (), "no arguments"),
}


def parse_fixture(text: str):
    """Resolve a fixture name into (curve spec, curvature derivative fn).

    Supported: parabola, circle, ellipse[:a,b], hyperbola,
    kappa-poly:c0,c1,...  The second return value maps a base point to
    the analytic derivative of the affine curvature there.  numpy and
    ``numcurve`` load only once the text has passed its checks.
    """
    name, _, argtext = text.partition(":")
    if name != "kappa-poly" and name not in _CONICS:
        raise ValueError(f"unknown fixture {text!r}")
    try:  # an empty item, as in ellipse:2,,1, is no number either
        args = [float(v) for v in argtext.split(",")] if argtext else []
    except ValueError:
        raise ValueError(f"fixture arguments must be numbers, got {text!r}") from None
    if not all(math.isfinite(a) for a in args):
        raise ValueError(f"fixture arguments must be finite, got {text!r}")
    if name in _CONICS:
        make_jet, defaults, takes = _CONICS[name]
        if args and (len(args) != len(defaults) or min(args) <= 0):
            raise ValueError(f"{name} takes {takes}")
    elif not args:
        raise ValueError("kappa-poly needs coefficients, e.g. kappa-poly:0,1")
    elif not all(math.isfinite(i * c) for i, c in enumerate(args)):
        raise ValueError(f"fixture {text!r} has a curvature derivative that is not finite")
    import numpy as np

    from .numcurve import KappaCurveSpec, ParametricCurveSpec

    if name in _CONICS:
        spec = ParametricCurveSpec(make_jet(np, *(args or defaults)), (-1.0, 1.0))
        return spec, lambda p: 0.0
    derivative = [i * c for i, c in enumerate(args)][1:]
    return KappaCurveSpec(partial(_horner, args), half_width=1.0), partial(_horner, derivative)


def _horner(coeffs: list[float], s):
    """sum_i coeffs[i] s^i by Horner's rule from 0.0, at a float or,
    elementwise, a float array."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * s + c
    return total


# -- verification suites -----------------------------------------------------------


def _random_poly_in_class(rng: random.Random, k: int, sigma: int) -> DiffPoly:
    """Random nonzero member of the graded class (k, sigma), k >= 1.

    Each of one to three monomials is a coefficient in {-2, -1, 1, 2}
    times zero to three factors k0..k<k>, with one more factor k1 when
    the count of odd orders has the wrong parity.  The terms are drawn
    first and summed in one constructor call.
    """
    from .diffpoly import DiffPoly

    randint = rng.randint
    terms = []
    for _ in range(randint(1, 3)):
        coeff = randint(1, 5) - 3 or 1
        orders = [randint(0, k) for _ in range(randint(0, 3))]
        if sum(orders) % 2 != sigma % 2:  # the parity of the count of odd orders
            orders.append(1)
        terms.append((coeff, orders))
    poly = DiffPoly._from_factor_lists(terms)
    if poly.is_zero:
        return DiffPoly.kappa(1) if sigma % 2 else DiffPoly.kappa(0)
    return poly


def _suite_grading_closure(seed: int) -> None:
    import random

    from .diffpoly import GradedClass

    rng = random.Random(seed)
    for case in range(40):
        k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
        s1, s2 = rng.randint(0, 1), rng.randint(0, 1)
        p = _random_poly_in_class(rng, k1, s1)
        q = _random_poly_in_class(rng, k2, s2)
        pq, dp = p * q, p.differentiate()
        bound = GradedClass(k1, s1) * GradedClass(k2, s2)
        if not pq.in_class(bound):
            raise VerificationError(
                "grading.product", f"case {case}: ({p})*({q}) escapes {bound}"
            )
        if not dp.in_class(GradedClass(k1 + 1, s1 + 1)):
            raise VerificationError(
                "grading.derivative", f"case {case}: ({p})' escapes class"
            )
        if pq.differentiate() != dp * q + p * q.differentiate():
            raise VerificationError("grading.leibniz", f"case {case}: {p}, {q}")


def _suite_bell_identity() -> None:
    # B_{k,l}(a) = (k!/l!) [s^k] A^l with A = sum a_i s^i / i!
    from fractions import Fraction

    from .diffpoly import DiffPoly
    from .powerseries import Series, bell

    # k <= 9 reads a_1..a_9 and coefficients of A^l through s^9 alone
    generic = [DiffPoly.zero()] + [DiffPoly.kappa(i) for i in range(9)]
    big_a = Series(a * Fraction(1, math.factorial(i)) for i, a in enumerate(generic))
    powers = [None, big_a]
    for _ in range(2, 10):
        powers.append(powers[-1].mul(big_a))
    for k in range(1, 10):
        for l in range(1, k + 1):
            if bell(k, l, generic) != powers[l][k] * (math.factorial(k) // math.factorial(l)):
                raise VerificationError("bell.identity", f"k={k}, l={l}")


def run_verification(order: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run the seven suites in order on one pipeline built at ``order``:
    one (name, ok, detail) row each, the columns ``verify`` prints."""
    from . import expansion

    pipe = expansion.build_pipeline(order)
    suites = [
        ("grading_closure", lambda: _suite_grading_closure(seed)),
        ("bell_identity", _suite_bell_identity),
        ("wronskian_series", lambda: expansion.wronskian_series(pipe)),
        ("lemma4", lambda: expansion.lemma4_check(pipe.f_full, pipe.g_full)),
        ("h_leading_law", lambda: expansion.h_leading_law(pipe)),
        ("theorem1", lambda: expansion.theorem1_criterion(pipe)),
        ("theorem2", lambda: expansion.theorem2_symbolic(pipe)),
    ]
    rows = []
    for name, check in suites:
        try:
            check()
            rows.append((name, True, ""))
        except VerificationError as exc:
            rows.append((name, False, f"{exc.check}: {exc.detail}"))
    return rows


# -- output helpers ------------------------------------------------------------------


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current stdout, or stderr.

    click.echo's default stream lookup caches each stream it meets in a
    weak-keyed map whose value is that same stream, so every stream that an
    in-process runner (tests, embedding code) swaps in stays alive with all
    it captured.  Naming the stream on each call caches nothing.
    """
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(message, file=stream)


def _echo_json(obj) -> None:
    _echo(json.dumps(obj, sort_keys=True, indent=2))


def _suite_line(name: str, ok: bool, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")


def _seed_from_env() -> int:
    raw = os.environ.get("AFFGRAV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"AFFGRAV_SEED must be an integer, got {raw!r}")


# -- commands ---------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Exact expansion machinery and chord-midpoint experiments for
    non-degenerate plane curves in affine arclength."""


@main.command("expand")
@click.option("--order", type=_ORDER_OPTION, default=DEFAULT_ORDER, show_default=True)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
def cmd_expand(order: int, fmt: str) -> None:
    """Print the pipeline series f, g, u, v, h and the midpoint-curve
    abscissa through the given order."""
    from .expansion import build_pipeline

    pipe = build_pipeline(order)
    series = {
        "f": pipe.f,
        "g": pipe.g,
        "u": pipe.u,
        "v": pipe.v,
        "h": pipe.h,
        "gravity_x": pipe.gravity_x,
    }
    if fmt == "json":
        _echo_json(
            {
                "order": order,
                "series": {name: s.to_json_dict() for name, s in series.items()},
            }
        )
        return
    for name, s in series.items():
        for k in range(s.order + 1):
            _echo(f"{name}[{k}] = {s[k]}")
        _echo("")


@main.command("verify")
@click.option("--order", type=_ORDER_OPTION, default=DEFAULT_ORDER, show_default=True)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
@click.option(
    "--self-test",
    is_flag=True,
    help="Inject a sign fault into the frame recursion and confirm the checks catch it.",
)
@click.pass_context
def cmd_verify(ctx: click.Context, order: int, fmt: str, self_test: bool) -> None:
    """Run the symbolic identity suite; nonzero exit on any failure."""
    seed = _seed_from_env()
    if self_test:
        from . import expansion

        frame = expansion.build_frame(order, corrupt=True)
        try:
            expansion.lemma4_check(*expansion.component_series(frame))
        except VerificationError as exc:
            if fmt == "json":
                _echo_json({"order": order, "self_test": True, "detected": exc.check})
            else:
                _echo(f"SELF-TEST OK: detected {exc.check}")
            ctx.exit(0)
        _echo("SELF-TEST FAILED: injected fault was not detected", err=True)
        ctx.exit(1)

    rows = run_verification(order, seed)
    failed = sum(not ok for _, ok, _ in rows)
    tail = f"FAIL: {failed} of {len(rows)} suites" if failed else f"PASS: {len(rows)} suites"
    table = ("suites", ("name", "ok", "detail"), rows)
    text = ([f"seed: {seed}"], _suite_line, [tail])
    _render(fmt, {"order": order, "seed": seed, "pass": not failed}, table, text)
    ctx.exit(1 if failed else 0)


@main.command("gravity")
@click.option("--fixture", default="parabola", show_default=True)
@click.option("--point", type=float, default=0.0, show_default=True)
@click.option("--sweep", type=int, default=0, help="Number of base points; 0 = single point.")
@click.option("--step", type=float, default=DEFAULT_STEP, show_default=True)
@click.option("--delta0", type=float, default=DEFAULT_DELTA0, show_default=True)
@click.option("--delta-ratio", type=float, default=DEFAULT_DELTA_RATIO, show_default=True)
@click.option("--delta-count", type=int, default=DEFAULT_DELTA_COUNT, show_default=True)
@click.option("--tol-flat", type=float, default=DEFAULT_TOL_FLAT, show_default=True)
@click.option("--tol-straight", type=float, default=None)
@click.option(
    "--format",
    "output",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
)
@click.pass_context
def cmd_gravity(ctx: click.Context, **params) -> None:
    """Sample the chord-midpoint curve of a fixture and judge flatness
    and straightness."""
    cfg = Config(**params)
    try:
        cfg.validate()
        spec, kappa_prime = parse_fixture(cfg.fixture)
        from . import numcurve  # after the checks: refused input never loads numpy

        curve = numcurve.build_curve(spec, step=cfg.step)
        if cfg.sweep > 0:
            _gravity_sweep(cfg, curve)
        else:
            _gravity_single(cfg, curve, kappa_prime)
    except BracketingError as exc:
        _echo(f"bracketing failure: {exc}", err=True)
        ctx.exit(2)
    except VerificationError as exc:
        _echo(f"verification failure: {exc}", err=True)
        ctx.exit(1)
    except (ValueError, AffGravError) as exc:
        # bad input, also where only the run shows it: a rank-deficient fit
        raise click.UsageError(str(exc))


def _gravity_single(cfg: Config, curve, kappa_prime) -> None:
    from . import numcurve

    samples = numcurve.gravity_samples(curve, cfg.point, cfg.deltas())
    kp = float(kappa_prime(cfg.point))
    flat = numcurve.fit_flatness(samples, kp, tol_flat=cfg.tol_flat)
    max_dev, straight = numcurve.straightness_test(samples, cfg.tol_straight)
    fields = {
        "fixture": cfg.fixture,
        "point": cfg.point,
        **flat._asdict(),
        "max_dev": max_dev,
        "is_straight": bool(straight),
    }
    head = [
        f"fixture {cfg.fixture} at point {cfg.point}",
        "delta          s_minus        s_plus         midpoint_x",
    ]
    tail = [
        f"flat: {flat.is_flat} (b={flat.fit_coeffs[1]:.6g}, predicted {flat.predicted_b:.6g})",
        f"straight: {straight} (max_dev={max_dev:.3e})",
    ]
    line = "{:<14.6g} {:<14.8g} {:<14.8g} {: .6e}".format
    table = ("samples", numcurve.GravitySample._fields, samples)
    _render(cfg.output, fields, table, (head, line, tail))


def _gravity_sweep(cfg: Config, curve) -> None:
    from . import numcurve

    rows: list[tuple[float, float, bool]] = []
    overall = numcurve.corollary_sweep(
        curve, cfg.base_points(), cfg.deltas(), cfg.tol_straight, rows=rows
    )
    fields = {"fixture": cfg.fixture, "sweep": cfg.sweep, "straight_everywhere": bool(overall)}
    head = [f"fixture {cfg.fixture}, sweep over {cfg.sweep} base points"]
    tail = [f"straight everywhere: {overall}"]
    line = "point {: .4f}: max_dev={:.3e} straight={}".format
    table = ("points", ("point", "max_dev", "is_straight"), rows)
    _render(cfg.output, fields, table, (head, line, tail))


def _render(output: str, fields: dict, table: tuple, text: tuple) -> None:
    """Print one gravity or verify run: its fields and table as JSON, its
    table alone as CSV (floats by repr, bools as 0/1), or its text lines
    with one line per table row, made by the text's line function.
    ``expand`` prints on its own, as its JSON is a dict of series, not
    rows of a table."""
    name, columns, rows = table
    if output == "json":
        _echo_json({**fields, name: [dict(zip(columns, row)) for row in rows]})
    elif output == "csv":
        _echo(",".join(columns))
        for row in rows:
            _echo(",".join(repr(int(v) if isinstance(v, bool) else v) for v in row))
    else:
        head, line, tail = text
        for text_line in chain(head, starmap(line, rows), tail):
            _echo(text_line)


def run() -> None:
    """Run the program as a process: cap OpenBLAS at one thread, unless
    the caller chose a count, before anything can load numpy, then run
    ``main``."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    main()


if __name__ == "__main__":
    run()
