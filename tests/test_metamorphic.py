"""Metamorphic relations of the chord-midpoint experiment: pairs of runs
that the paper's equi-affine invariance makes equal, so neither needs a
reference solution.

Shift: a curve is fixed by its affine curvature up to an equi-affine
motion, which renormalizing removes, so the samples of kappa at p are
those of kappa(. + p) at 0.  At a grid node the two runs step the same
frame through the same curvature values, and they agree to roundoff.
Off a node they do not: the sampler renormalizes at the nearest node,
whatever p it was asked for, which is ROADMAP defect (j).
"""

from fractions import Fraction
from math import comb

import pytest

from affgrav import build_curve, default_deltas, gravity_samples
from affgrav.cli import parse_fixture

COEFFS = ["0.5,0.2,-0.3", "0.5,0.2,-0.3,0.4", "-3,2,5,-1"]
# multiples of the default step 1e-3
ON_NODE = [-0.5, -0.357, 0.2, 0.25, 0.3]
# -5/14 and -3/14, two points of a default --sweep 8
OFF_NODE = [
    pytest.param(
        p,
        marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP defect (j): samples are taken at the nearest grid node"
        ),
        id=f"off-node-{p:.6g}",
    )
    for p in (-5 / 14, -3 / 14)
]
SHIFT_TOL = 1e-13


def _shifted(coeffs: str, p: float) -> str:
    """The kappa-poly fixture of kappa(. + p): each coefficient the exact
    binomial sum over the Fractions of the floats, rounded once."""
    c = [Fraction(float(x)) for x in coeffs.split(",")]
    q = Fraction(p)
    shifted = [
        sum(c[i] * comb(i, k) * q ** (i - k) for i in range(k, len(c))) for k in range(len(c))
    ]
    return "kappa-poly:" + ",".join(repr(float(x)) for x in shifted)


@pytest.mark.parametrize("p", [*ON_NODE, *OFF_NODE])
@pytest.mark.parametrize("coeffs", COEFFS)
def test_shift_relation(coeffs, p):
    deltas = default_deltas()
    at_p = gravity_samples(build_curve(parse_fixture(f"kappa-poly:{coeffs}")[0]), p, deltas)
    at_0 = gravity_samples(build_curve(parse_fixture(_shifted(coeffs, p))[0]), 0.0, deltas)
    assert [s.delta for s in at_p] == [s.delta for s in at_0]
    for field in ("s_minus", "s_plus", "midpoint_x"):
        gap = max(abs(getattr(a, field) - getattr(b, field)) for a, b in zip(at_p, at_0))
        assert gap <= SHIFT_TOL, (field, gap)


def test_shifted_coefficients_are_exact():
    # kappa(s) = s^2 shifted by 1/2 is 1/4 + s + s^2
    assert _shifted("0,0,1", 0.5) == "kappa-poly:0.25,1.0,1.0"
    assert _shifted("0.5,0.2,-0.3", 0.0) == "kappa-poly:0.5,0.2,-0.3"
