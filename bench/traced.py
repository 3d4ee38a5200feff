"""The traced run: per-layer metrics for every layer.

Each round runs one op of every workload twice, untraced and then with
span-recording wrappers installed (``spans.py``), checks that both give
the same gated output, and then builds the pipeline along the order
ladder.  Metrics are medians over rounds, with times scaled to the
reference machine speed (``calibrate.py``); ``trace.overhead_s``, the
traced minus the untraced op time, belongs to the workload the run was
started for.  Spans, a self-time table and the per-workload wall
timings are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import calibrate
import fresh
import spans
import workloads
from affgrav import expansion

LADDER = (10, 14, 18)
SMOKE_LADDER = (6, 8, 10)
LADDER_STAGES = (
    "expansion.build_frame",
    "expansion.component_series",
    "powerseries.sqrt",
    "powerseries.compositional_inverse",
    "powerseries.compose",
)
IMPORT_REPS = 3
# Frame-determinant drift budget of the acceptance tests.
WRONSKIAN_DRIFT_TOL = 1e-8
# Bench glue outside any layer span may take at most this share of an op.
UNATTRIBUTED_SHARE = 0.05

ROOT_SPAN = "op"


def per_layer_names(ladder=LADDER) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    names = [
        ("expansion.build_frame_s", "s"),
        ("expansion.component_series_s", "s"),
    ]
    for n in ladder:
        names.append((f"expansion.build_pipeline_s.N{n}", "s"))
        names += [(f"{stage}_s.N{n}", "s") for stage in LADDER_STAGES]
    names += [
        ("expansion.growth_per_2_orders", "ratio"),
        ("expansion.wronskian_series_s", "s"),
        ("expansion.lemma4_check_s", "s"),
        ("expansion.h_leading_law_s", "s"),
        ("expansion.theorem1_criterion_s", "s"),
        ("expansion.theorem2_symbolic_s", "s"),
        ("powerseries.sqrt_s", "s"),
        ("powerseries.compositional_inverse_s", "s"),
        ("powerseries.compose_s", "s"),
        ("powerseries.to_json_s", "s"),
        ("powerseries.mul_s", "s"),
        ("powerseries.explicitness_s", "s"),
        ("powerseries.bell_identity_s", "s"),
        ("diffpoly.h_terms", "count"),
        ("diffpoly.v_terms", "count"),
        ("scalar.h_max_num_bits", "bits"),
        ("scalar.h_max_den_bits", "bits"),
        ("numcurve.reparametrize_affine_s", "s"),
        ("numcurve.integrate_from_kappa_s", "s"),
        ("numcurve.renormalize_s", "s"),
        ("numcurve.gravity_samples_s", "s"),
        ("numcurve.fit_flatness_s", "s"),
        ("numcurve.affine_curvature_s", "s"),
        ("numcurve.corollary_sweep_s", "s"),
        ("numcurve.grid_nodes", "count"),
        ("numcurve.rk4_steps", "count"),
        ("numcurve.chord_roots", "count"),
        ("numcurve.bracketing_failures", "count"),
        ("numcurve.wronskian_drift_margin", "ratio"),
        ("numcurve.flat_b_margin", "ratio"),
        ("numcurve.max_dev_margin", "ratio"),
        ("cli.import_s", "s"),
        ("cli.import_numpy_s", "s"),
        ("cli.verify_self_s", "s"),
        ("cli.gravity_overhead_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def _incl(table: dict, name: str) -> float:
    return table.get(name, {}).get("inclusive_s", 0.0)


def _sizes(rec: spans.Recorder, name: str, key: str) -> list:
    return [s.sizes[key] for s in rec.spans if s.name == name and s.sizes]


# -- per-workload layer metrics ---------------------------------------------------


def expand_metrics(rec: spans.Recorder, order: int) -> dict:
    t = rec.table()
    pipe = expansion.build_pipeline(order)  # cached by the op just traced
    h_coeffs = [m.coeff for c in pipe.h.coeffs for m in c.monomials()]
    parts = [x for q in h_coeffs for x in (q.a, q.b)]
    return {
        "expansion.build_frame_s": _incl(t, "expansion.build_frame"),
        "expansion.component_series_s": _incl(t, "expansion.component_series"),
        "powerseries.sqrt_s": _incl(t, "powerseries.sqrt"),
        "powerseries.compositional_inverse_s": _incl(t, "powerseries.compositional_inverse"),
        "powerseries.compose_s": _incl(t, "powerseries.compose"),
        "powerseries.to_json_s": _incl(t, "powerseries.to_json_dict"),
        "diffpoly.h_terms": len(h_coeffs),
        "diffpoly.v_terms": sum(len(c.monomials()) for c in pipe.v.coeffs),
        "scalar.h_max_num_bits": max(abs(x.numerator).bit_length() for x in parts),
        "scalar.h_max_den_bits": max(x.denominator.bit_length() for x in parts),
    }


def verify_metrics(rec: spans.Recorder) -> dict:
    t = rec.table()
    return {
        "expansion.wronskian_series_s": _incl(t, "expansion.wronskian_series"),
        "expansion.lemma4_check_s": _incl(t, "expansion.lemma4_check"),
        "expansion.h_leading_law_s": _incl(t, "expansion.h_leading_law"),
        "expansion.theorem1_criterion_s": _incl(t, "expansion.theorem1_criterion"),
        "expansion.theorem2_symbolic_s": _incl(t, "expansion.theorem2_symbolic"),
        "powerseries.mul_s": _incl(t, "powerseries.mul"),
        "powerseries.explicitness_s": _incl(t, "powerseries.explicitness"),
        "powerseries.bell_identity_s": _incl(t, "powerseries.bell")
        + _incl(t, "powerseries.bell_via_conv"),
        # the verify command minus its suites: parsing, dispatch, output
        "cli.verify_self_s": _incl(t, "cli.verify") - _incl(t, "cli.run_verification"),
    }


# Numeric calls that corollary_sweep repeats internally for every base point.
_SWEEP_PASS = {"numcurve.renormalize", "numcurve.gravity_samples", "numcurve.straightness_test"}


def gravity_overhead(rec: spans.Recorder) -> float:
    """Gravity command time minus one pass of its numeric calls.

    A command's own numeric calls are its direct numcurve child spans.
    When one of them is corollary_sweep, that call is a full pass by
    itself, so the command's direct per-point calls are a second pass and
    count as overhead.
    """
    total = 0.0
    for index, cmd in enumerate(rec.spans):
        if cmd.name != "cli.gravity":
            continue
        kids = [k for k in rec.children(index) if k.name.startswith("numcurve.")]
        has_sweep = any(k.name == "numcurve.corollary_sweep" for k in kids)
        one_pass = sum(
            k.duration for k in kids if not (has_sweep and k.name in _SWEEP_PASS)
        )
        total += cmd.duration - one_pass
    return total


def gravity_metrics(rec: spans.Recorder, out, wl: workloads.GravitySweep) -> dict:
    t = rec.table()
    curves = ("numcurve.reparametrize_affine", "numcurve.integrate_from_kappa")
    drifts = [d for name in curves for d in _sizes(rec, name, "drift")]
    m = {
        f"numcurve.{fn}_s": _incl(t, f"numcurve.{fn}")
        for fn in (
            "reparametrize_affine",
            "integrate_from_kappa",
            "renormalize",
            "gravity_samples",
            "fit_flatness",
            "affine_curvature",
            "corollary_sweep",
        )
    }
    m["numcurve.grid_nodes"] = sum(n for name in curves for n in _sizes(rec, name, "nodes"))
    m["numcurve.rk4_steps"] = sum(
        n - 1 for n in _sizes(rec, "numcurve.integrate_from_kappa", "nodes")
    )
    m["numcurve.chord_roots"] = sum(_sizes(rec, "numcurve.gravity_samples", "roots"))
    m["numcurve.bracketing_failures"] = sum(
        1 for s in rec.spans if s.name == "numcurve.gravity_samples" and s.error == "BracketingError"
    )
    m["numcurve.wronskian_drift_margin"] = max(drifts, default=0.0) / WRONSKIAN_DRIFT_TOL
    m["cli.gravity_overhead_s"] = gravity_overhead(rec)
    for kind, _, stdout in out:
        data = json.loads(stdout)
        if kind == "conic":
            worst = max(p["max_dev"] for p in data["points"])
            m["numcurve.max_dev_margin"] = worst / (workloads.STRAIGHT_FACTOR * wl.max_delta)
        elif kind == "linear":
            b, predicted = data["fit_coeffs"][1], data["predicted_b"]
            # fit_flatness accepts |b - predicted| up to max(1e-3, 5 %)
            m["numcurve.flat_b_margin"] = abs(b - predicted) / max(1e-3, 0.05 * abs(predicted))
    return m


def ladder_metrics(rec: spans.Recorder, n: int) -> dict:
    t = rec.table()
    m = {f"expansion.build_pipeline_s.N{n}": _incl(t, "expansion.build_pipeline")}
    m.update({f"{stage}_s.N{n}": _incl(t, stage) for stage in LADDER_STAGES})
    return m


# -- the run ------------------------------------------------------------------------


class TracedRun:
    def __init__(self, root: Path, target: str, seed: int, smoke: bool, tally):
        self.root = root
        self.target = target
        self.tally = tally
        self.wls = {name: cls(seed, smoke, root) for name, cls in workloads.WORKLOADS.items()}
        self.ladder = SMOKE_LADDER if smoke else LADDER
        self.units = dict(per_layer_names(self.ladder))
        self.recorders: list[tuple[str, int, spans.Recorder]] = []
        self.rounds: list[dict] = []  # per round: metrics and per-workload timings

    def _traced(self, label: str, round_no: int, fn):
        rec = spans.Recorder(len(self.recorders))
        self.recorders.append((label, round_no, rec))
        workloads.reset_process_state()
        with spans.installed(rec), rec.span(ROOT_SPAN):
            out = fn(rec)
        return rec, out

    def _untraced(self, fn):
        workloads.reset_process_state()
        start = time.perf_counter()
        out = fn()
        return time.perf_counter() - start, out

    def _scaled(self, metrics: dict, kernel_s: float) -> dict:
        """Time metrics at reference machine speed (see calibrate.py)."""
        return {
            k: calibrate.scale(v, kernel_s) if self.units[k] == "s" else v
            for k, v in metrics.items()
        }

    def one_round(self, r: int) -> dict:
        metrics: dict = {}
        timing: dict = {}
        for name, wl in self.wls.items():
            kernel_s = calibrate.seconds()
            untraced_s, plain = self._untraced(lambda: wl.op(r))
            rec, out = self._traced(name, r, lambda rec: wl.op(r, rec))
            self.tally.gate(lambda: wl.check(plain))
            self.tally.gate(lambda: wl.check(out))
            self.tally.gate(lambda: _same(plain, out))
            root = rec.spans[0]
            timing[name] = {
                "kernel_s": kernel_s,
                "untraced_s": untraced_s,
                "traced_s": root.duration,
                "layer_self_s": root.duration - rec.self_times()[0],
            }
            if name == "expand-deep":
                m = expand_metrics(rec, wl.order)
            elif name == "verify-mid":
                m = verify_metrics(rec)
            else:
                m = gravity_metrics(rec, out, wl)
            if name == self.target:
                m["trace.overhead_s"] = root.duration - untraced_s
            metrics.update(self._scaled(m, kernel_s))
        for n in self.ladder:
            kernel_s = calibrate.seconds()
            rec, _ = self._traced(f"ladder.N{n}", r, lambda rec: expansion.build_pipeline(n))
            metrics.update(self._scaled(ladder_metrics(rec, n), kernel_s))
        lo, hi = self.ladder[0], self.ladder[-1]
        metrics["expansion.growth_per_2_orders"] = (
            metrics[f"expansion.build_pipeline_s.N{hi}"] / metrics[f"expansion.build_pipeline_s.N{lo}"]
        ) ** (2 / (hi - lo))
        return {"metrics": metrics, "timing": timing}

    def run(self, seconds: float) -> dict:
        import_s, _ = fresh.paired(self.root, lambda: fresh.import_seconds(self.root), IMPORT_REPS)
        numpy_s, _ = fresh.paired(self.root, lambda: fresh.numpy_import_seconds(self.root), IMPORT_REPS)
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < seconds:
            self.rounds.append(self.one_round(len(self.rounds)))
        metrics = {
            name: statistics.median(r["metrics"][name] for r in self.rounds)
            for name in self.rounds[0]["metrics"]
        }
        metrics["cli.import_s"] = import_s
        metrics["cli.import_numpy_s"] = numpy_s
        return {"metrics": metrics, "coverage": self._coverage()}

    def _coverage(self) -> dict:
        """Median wall timings per workload, checked so that the layer
        spans' self times account for the untraced op up to the trace
        overhead."""
        coverage = {}
        for name in self.wls:
            rows = [r["timing"][name] for r in self.rounds]
            med = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
            overhead = abs(med["traced_s"] - med["untraced_s"])
            gap = abs(med["layer_self_s"] - med["untraced_s"])
            if gap > overhead + UNATTRIBUTED_SHARE * med["untraced_s"]:
                raise RuntimeError(f"{name}: layer spans leave {gap:.4f} s of the op unaccounted")
            coverage[name] = med
        return coverage

    def self_time_table(self) -> dict:
        """Per workload and span name, the median over rounds of calls,
        inclusive and self seconds."""
        tables: dict[str, list[dict]] = {}
        for label, _, rec in self.recorders:
            tables.setdefault(label, []).append(rec.table())
        out = {}
        for label, per_round in tables.items():
            names = sorted({n for t in per_round for n in t})
            out[label] = {
                n: {
                    k: statistics.median(t.get(n, {}).get(k, 0) for t in per_round)
                    for k in ("calls", "inclusive_s", "self_s")
                }
                for n in names
            }
        return out

    def write(self, path: Path, meta: dict, coverage: dict) -> None:
        ops = []
        for label, round_no, rec in self.recorders:
            t0 = rec.spans[0].start
            ops.append(
                {
                    "op": rec.op,
                    "label": label,
                    "round": round_no,
                    "spans": [
                        {
                            "name": s.name,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "parent": s.parent,
                            "op": s.op,
                            **({"sizes": s.sizes} if s.sizes else {}),
                            **({"error": s.error} if s.error else {}),
                        }
                        for s in rec.spans
                    ],
                }
            )
        doc = {"meta": meta, "coverage": coverage, "self_time": self.self_time_table(), "ops": ops}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))


def _same(plain, traced) -> None:
    if plain != traced:
        raise workloads.GateError("traced op output differs from the untraced op")
