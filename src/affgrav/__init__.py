"""Exact expansion machinery and chord-midpoint experiments for
non-degenerate plane curves in affine arclength.

The symbolic half computes with rational differential-polynomial
coefficients, applies sqrt2 once when the pipeline is assembled, and
proves the structural identities of the expansion pipeline by exact
computation.  The numeric half realizes curves from a
prescribed curvature or a parametric plot and measures flatness and
straightness of the chord-midpoint curve; it is the only part that
imports numpy.

Every public name loads its module on first access, so importing the
package, or ``affgrav.cli``, loads neither half: the numeric command
runs without the exact layer and the symbolic commands without numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.  A submodule, and with it
# each of its names, is imported on first access.
_EXPORTS = {
    "diffpoly": ("DiffMonomial", "DiffPoly", "GradedClass"),
    "errors": (
        "AffGravError",
        "BracketingError",
        "DegenerateCurveError",
        "VerificationError",
    ),
    "expansion": (
        "FrameCoefficients",
        "Lemma4Report",
        "Pipeline",
        "build_frame",
        "build_pipeline",
        "h_leading_law",
        "lemma4_check",
        "theorem1_criterion",
        "theorem2_symbolic",
        "wronskian_series",
    ),
    "powerseries": ("ExplicitnessReport", "Series", "bell"),
    "scalar": ("QR2Scalar",),
    "numcurve": (
        "FlatnessResult",
        "GravitySample",
        "KappaCurveSpec",
        "NumCurve",
        "ParametricCurveSpec",
        "affine_curvature",
        "build_curve",
        "corollary_sweep",
        "default_deltas",
        "fit_flatness",
        "gravity_samples",
        "integrate_from_kappa",
        "renormalize",
        "reparametrize_affine",
        "straightness_test",
        "wronskian_drift",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
