"""Exception types shared across the package."""

from __future__ import annotations


class AffGravError(Exception):
    """Base class for errors raised by this package."""


class DegenerateCurveError(AffGravError):
    """A parametric curve failed the non-degeneracy test det[c_u, c_uu] > 0."""

    def __init__(self, u: float, det: float):
        self.u = u
        self.det = det
        super().__init__(f"curve degenerate at u={u}: det[c_u, c_uu]={det}")


class BracketingError(AffGravError):
    """A chord line did not intersect the sampled curve on both sides."""

    def __init__(self, delta: float, side: str):
        self.delta = delta
        self.side = side
        super().__init__(f"no bracket for height delta={delta} on {side} side of base point")


class VerificationError(AffGravError):
    """An identity or invariant check failed.

    ``check`` is a stable dotted name for the failing item, e.g.
    ``lemma4.leading.f``; ``detail`` carries the first counterexample.
    """

    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}")
