"""Exact expansion machinery and chord-midpoint experiments for
non-degenerate plane curves in affine arclength.

The symbolic half computes with rational differential-polynomial
coefficients, applies sqrt2 once when the pipeline is assembled, and
proves the structural identities of the expansion pipeline by exact
computation.  The numeric half realizes curves from a
prescribed curvature or a parametric plot and measures flatness and
straightness of the chord-midpoint curve; it is the only part that
imports numpy, and it loads when one of its names is first used.
"""

from importlib import import_module as _import_module

from .diffpoly import DiffMonomial, DiffPoly, GradedClass, class_product_bound
from .errors import (
    AffGravError,
    BracketingError,
    DegenerateCurveError,
    MissingAssignmentError,
    VerificationError,
)
from .expansion import (
    FrameCoefficients,
    Lemma4Report,
    Pipeline,
    build_frame,
    build_pipeline,
    h_leading_law,
    lemma4_check,
    theorem1_criterion,
    theorem2_symbolic,
    wronskian_series,
)
from .powerseries import ExplicitnessReport, Series, bell, bell_via_conv, conv
from .scalar import QR2Scalar

__version__ = "0.1.0"

# The numeric half needs numpy; its names load on first access, so the
# symbolic half and the command line start without it.
_NUMERIC = frozenset(
    {
        "FlatnessResult",
        "GravitySample",
        "KappaCurveSpec",
        "NumCurve",
        "ParametricCurveSpec",
        "affine_curvature",
        "corollary_sweep",
        "default_deltas",
        "fit_flatness",
        "gravity_samples",
        "integrate_from_kappa",
        "renormalize",
        "reparametrize_affine",
        "straightness_test",
        "wronskian_drift",
    }
)


def __getattr__(name: str):
    if name == "numcurve" or name in _NUMERIC:
        numcurve = _import_module(".numcurve", __name__)
        return numcurve if name == "numcurve" else getattr(numcurve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _NUMERIC | {"numcurve"})
