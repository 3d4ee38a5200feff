"""Span recording for the traced run.

While a traced op runs, the public entry points of each layer are
replaced by wrappers from this file that record a span per call: name,
start, end, parent span and op id.  The op itself is the same code the
timed run executes, so the spans cover exactly the work it does,
including calls one layer makes into another.  Spans stay in memory;
``traced.py`` writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from affgrav import numcurve
from affgrav.powerseries import Series

# Layer functions wrapped for a traced op, wherever the program binds
# them (a module that imported the name gets the wrapper too).  A name
# the program no longer defines records no spans.
LAYER_FUNCTIONS = (
    ("expansion", "build_frame"),
    ("expansion", "component_series"),
    ("expansion", "build_pipeline"),
    ("expansion", "wronskian_series"),
    ("expansion", "lemma4_check"),
    ("expansion", "h_leading_law"),
    ("expansion", "theorem1_criterion"),
    ("expansion", "theorem2_symbolic"),
    ("powerseries", "bell"),
    ("powerseries", "bell_via_conv"),
    ("numcurve", "reparametrize_affine"),
    ("numcurve", "integrate_from_kappa"),
    ("numcurve", "renormalize"),
    ("numcurve", "gravity_samples"),
    ("numcurve", "fit_flatness"),
    ("numcurve", "straightness_test"),
    ("numcurve", "affine_curvature"),
    ("numcurve", "corollary_sweep"),
    ("cli", "parse_fixture"),
    ("cli", "run_verification"),
)
SERIES_METHODS = ("sqrt", "compositional_inverse", "compose", "mul", "explicitness", "to_json_dict")


def _curve_sizes(curve) -> dict:
    return {"nodes": len(curve), "drift": numcurve.wronskian_drift(curve)}


# Work sizes read off a call's result after its span has closed.
SIZES = {
    "numcurve.reparametrize_affine": _curve_sizes,
    "numcurve.integrate_from_kappa": _curve_sizes,
    "numcurve.gravity_samples": lambda samples: {"roots": 2 * len(samples)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same recorder, -1 for the root
    op: int
    sizes: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one op, in the order they opened."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        s = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        except Exception as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        sizes = SIZES.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if sizes is not None:
                s.sizes = sizes(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["inclusive_s"] += s.duration
            row["self_s"] += own
        return out

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]


@contextmanager
def installed(rec: Recorder):
    """Route every layer function through ``rec`` for the block's duration."""
    modules = [m for n, m in list(sys.modules.items()) if n == "affgrav" or n.startswith("affgrav.")]
    patches = []
    try:
        for modname, fname in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"affgrav.{modname}"], fname, None)
            if original is None:
                continue
            wrapper = rec.wrap(f"{modname}.{fname}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for meth in SERIES_METHODS:
            original = Series.__dict__.get(meth)
            if original is None:
                continue
            patches.append((Series, meth, original))
            setattr(Series, meth, rec.wrap(f"powerseries.{meth}", original))
        yield rec
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
