import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import _oracles as oracle
import numpy as np
import pytest
from click.testing import CliRunner

from affgrav import DiffPoly, GradedClass, Series, cli, expansion, powerseries
from affgrav.cli import MAX_DELTA_COUNT, MAX_SWEEP, _random_poly_in_class, main, parse_fixture
from affgrav.expansion import MAX_ORDER
from affgrav.numcurve import (
    FlatnessResult,
    GravitySample,
    KappaCurveSpec,
    ParametricCurveSpec,
    build_curve,
    default_deltas,
    fit_flatness,
    gravity_samples,
)

GOLDEN = Path(__file__).parent / "data" / "expand_order8.json"
_RANK_DEFICIENT = "rank-deficient flatness fit; spread the heights wider or raise them"
# The three gravity golden files were printed once RK4 stepped the frame
# by one transfer map per step, and then once the heights were formed
# in Python floats rather than by numpy's CPU-dependent power; both
# moved their values by roundoff only.
# ``gravity --fixture kappa-poly:0.5,0.2,-0.3 --point 0 --format csv``
GRAVITY_GOLDEN = Path(__file__).parent / "data" / "gravity_kappa_point0.csv"
# ``gravity --fixture kappa-poly:0,1 --point 0 --format csv``
GRAVITY_LINEAR_GOLDEN = Path(__file__).parent / "data" / "gravity_linear_point0.csv"
# ``gravity --fixture kappa-poly:0.5,0.2,-0.3 --sweep 4 --format csv``;
# its base points are off 0, so the frame inverse, the map and the
# flatness fit (no BLAS or LAPACK kernel) reach its bits
GRAVITY_SWEEP_GOLDEN = Path(__file__).parent / "data" / "gravity_kappa_sweep.csv"
# ``verify --order 8`` with AFFGRAV_SEED=0, in text and in JSON
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_order8.txt"
# sha256 of ``expand --order N --format json`` without its final newline,
# the exact rendering the pipeline produced before its rational rewrite
# (orders 16 and 22) and before its packed monomial keys (order 26).
ORDER16_DIGEST = "f17e075173dddb2c36b8e85af9579d3a03abfb7e56fd792a63984795c1ddab45"
ORDER22_DIGEST = "f7a5e14a49951d1423e4f0f3b5d928e296f951fdf7cfffe5b52d9791ba0410ce"
ORDER26_DIGEST = "f0cea7e92d427f82305b55baf9e5aaa4e3831a0e9f0237917208408c77bbc311"
# sha256 of ``expand --order N`` text output without its final newline,
# recorded before each polynomial's text was built once and kept.
ORDER16_TEXT_DIGEST = "9b1718e9ebf4ba5c675fabda8b0b4712df819e829b06cc64cb938dcba8e715f4"
ORDER26_TEXT_DIGEST = "4da9e4ea47e91c93d73fc14507659089dbaf246a85d6c78dbda4271cd5db9c81"


def _drop_last_term(poly: DiffPoly) -> DiffPoly:
    terms = poly.monomials()
    if len(terms) < 2:
        return poly
    return DiffPoly({m.exponents: m.coeff for m in terms[:-1]})


@pytest.fixture()
def runner():
    return CliRunner()


class TestExpand:
    def test_json_quartic_coefficient(self, runner):
        result = runner.invoke(main, ["expand", "--order", "8", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["series"]["h"]["coeffs"][4] == "(-1/10)*k1"

    def test_text_mode_lists_inverse_series(self, runner):
        result = runner.invoke(main, ["expand", "--order", "6"])
        assert result.exit_code == 0
        assert "v[6] = (2/315)*k3 + (11/315)*k0*k1" in result.output

    def test_order_below_minimum_is_usage_error(self, runner):
        result = runner.invoke(main, ["expand", "--order", "5"])
        assert result.exit_code == 2

    def test_golden_file(self, runner):
        result = runner.invoke(main, ["expand", "--order", "8", "--format", "json"])
        assert result.exit_code == 0
        if os.environ.get("AFFGRAV_REGEN_GOLDEN") == "1":
            GOLDEN.write_text(result.output)
        assert result.output == GOLDEN.read_text()

    def test_order16_rendering_digest(self, runner):
        for order, digest in (
            ("16", ORDER16_DIGEST),
            ("22", ORDER22_DIGEST),
            ("26", ORDER26_DIGEST),
        ):
            result = runner.invoke(main, ["expand", "--order", order, "--format", "json"])
            assert result.exit_code == 0
            text = result.output.removesuffix("\n")
            assert hashlib.sha256(text.encode()).hexdigest() == digest, order

    def test_text_rendering_digest(self, runner):
        for order, digest in (("16", ORDER16_TEXT_DIGEST), ("26", ORDER26_TEXT_DIGEST)):
            result = runner.invoke(main, ["expand", "--order", order])
            assert result.exit_code == 0
            text = result.output.removesuffix("\n")
            assert hashlib.sha256(text.encode()).hexdigest() == digest, order

    def test_order_range_ends_at_max_order(self, runner):
        assert MAX_ORDER == 26
        result = runner.invoke(main, ["expand", "--order", "26", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["series"]["h"]["order"] == 26
        result = runner.invoke(main, ["expand", "--order", "27"])
        assert result.exit_code == 2

    def test_json_is_byte_deterministic(self, runner):
        one = runner.invoke(main, ["expand", "--order", "7", "--format", "json"]).output
        two = runner.invoke(main, ["expand", "--order", "7", "--format", "json"]).output
        assert one == two


class TestVerify:
    def test_default_run_passes(self, runner):
        result = runner.invoke(main, ["verify", "--order", "8"])
        assert result.exit_code == 0
        assert "PASS: 7 suites" in result.output
        assert "seed: 0" in result.output

    def test_order_twelve_leading_law(self, runner):
        result = runner.invoke(main, ["verify", "--order", "12", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["pass"] is True
        # the suite names, in order, that the benchmark's verify gate reads
        assert [s["name"] for s in data["suites"]] == [
            "grading_closure",
            "bell_identity",
            "wronskian_series",
            "lemma4",
            "h_leading_law",
            "theorem1",
            "theorem2",
        ]

    def test_all_suites_pass_at_max_order(self, runner):
        result = runner.invoke(main, ["verify", "--order", str(MAX_ORDER)])
        assert result.exit_code == 0
        assert "PASS: 7 suites" in result.output

    def test_order_above_max_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--order", str(MAX_ORDER + 1)])
        assert result.exit_code == 2

    def test_self_test_detects_injected_fault(self, runner):
        result = runner.invoke(main, ["verify", "--order", "8", "--self-test"])
        assert result.exit_code == 0
        assert "SELF-TEST OK: detected lemma4.leading.f" in result.output

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_self_test_prints_its_detection_in_the_asked_format(self, runner, fmt):
        args = ["verify", "--order", "6", "--self-test", "--format", fmt]
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stderr == ""
        if fmt == "json":
            want = {"order": 6, "self_test": True, "detected": "lemma4.leading.f"}
            assert result.stdout == json.dumps(want, sort_keys=True, indent=2) + "\n"
        else:
            assert result.stdout == "SELF-TEST OK: detected lemma4.leading.f\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_self_test_that_detects_nothing_fails(self, runner, monkeypatch, fmt):
        monkeypatch.setattr(expansion, "lemma4_check", lambda f, g: None)
        args = ["verify", "--order", "6", "--self-test", "--format", fmt]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "SELF-TEST FAILED: injected fault was not detected\n"

    @pytest.mark.parametrize("fmt,suffix", [("text", ".txt"), ("json", ".json")])
    def test_golden_files(self, runner, fmt, suffix):
        args = ["verify", "--order", "8", "--format", fmt]
        result = runner.invoke(main, args, env={"AFFGRAV_SEED": "0"})
        assert result.exit_code == 0
        assert result.stdout_bytes == VERIFY_GOLDEN.with_suffix(suffix).read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failing_run_prints_the_golden_with_its_failure(self, runner, monkeypatch, fmt):
        # the passing run's bytes with the Bell suite's row failed and the
        # verdict turned, in either format
        _break_bell(monkeypatch)
        args = ["verify", "--order", "8", "--format", fmt]
        result = runner.invoke(main, args, env={"AFFGRAV_SEED": "0"})
        assert result.exit_code == 1
        detail = "bell.identity: k=4, l=2"
        if fmt == "json":
            want = json.loads(VERIFY_GOLDEN.with_suffix(".json").read_text())
            want["pass"] = False
            want["suites"][1].update(ok=False, detail=detail)
            assert result.output == json.dumps(want, sort_keys=True, indent=2) + "\n"
        else:
            want = VERIFY_GOLDEN.read_text()
            want = want.replace("PASS bell_identity", f"FAIL bell_identity: {detail}")
            assert result.output == want.replace("PASS: 7 suites", "FAIL: 1 of 7 suites")

    def test_wrong_bell_polynomial_fails_the_identity(self, runner, monkeypatch):
        _break_bell(monkeypatch)
        result = runner.invoke(main, ["verify", "--order", "8"])
        assert result.exit_code == 1
        assert "FAIL bell_identity: bell.identity: k=4, l=2" in result.output.splitlines()
        assert "PASS theorem2" in result.output.splitlines()

    def test_fault_in_the_top_frame_coefficient_fails_lemma4(
        self, runner, monkeypatch, cold_caches
    ):
        # + k9 in psi_15 keeps q_15's class and g's leading law but breaks
        # the recursion; only the order-15 frame that builds the order-14
        # pipeline carries it, so u[14] and h[14] change with it
        true_frame = expansion.build_frame

        def faulty_frame(order, corrupt=False):
            frame = true_frame(order, corrupt)
            if order != 15:
                return frame
            psi = frame.psi[:15] + (frame.psi[15] + DiffPoly.kappa(9),)
            return expansion.FrameCoefficients(order, frame.phi, psi)

        monkeypatch.setattr(expansion, "build_frame", faulty_frame)
        result = runner.invoke(main, ["verify", "--order", "14"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert len(fails) == 1 and fails[0].startswith("FAIL lemma4: lemma4.induction.q: k=15")
        assert len([line for line in lines if line.startswith("PASS ")]) == 6
        assert lines[-1] == "FAIL: 1 of 7 suites"

    @pytest.mark.parametrize("order", [6, 14, 26])
    def test_cold_verify_builds_one_frame(self, runner, monkeypatch, cold_caches, order):
        true_frame = expansion.build_frame
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return true_frame(*args, **kwargs)

        monkeypatch.setattr(expansion, "build_frame", spy)
        result = runner.invoke(main, ["verify", "--order", str(order)])
        assert result.exit_code == 0
        assert calls == [((order + 1,), {})]
        pipe = expansion.build_pipeline(order)
        assert (pipe.f_full, pipe.g_full) == expansion.component_series(true_frame(order + 1))

    @pytest.mark.parametrize("order", [6, 14, 26])
    def test_cold_verify_derives_f_and_g_once(self, runner, monkeypatch, cold_caches, order):
        true_series = expansion.component_series
        calls = []

        def spy(frame):
            calls.append(frame.order)
            return true_series(frame)

        monkeypatch.setattr(expansion, "component_series", spy)
        result = runner.invoke(main, ["verify", "--order", str(order)])
        assert result.exit_code == 0
        assert calls == [order + 1]

    @pytest.mark.parametrize("order", [6, 14, 26])
    def test_cold_verify_takes_one_explicitness_report(
        self, runner, monkeypatch, cold_caches, order
    ):
        # h's, for theorem2; lemma4 and h_leading_law read the leading
        # coefficients off the series
        true_explicitness = Series.explicitness
        calls = []

        def spy(series, n):
            calls.append((series.order, n))
            return true_explicitness(series, n)

        monkeypatch.setattr(Series, "explicitness", spy)
        result = runner.invoke(main, ["verify", "--order", str(order)])
        assert result.exit_code == 0
        assert calls == [(order, 3)]

    @pytest.mark.parametrize(
        "method, fault, check",
        [
            # every product gains k9, which lies outside each class the suite draws
            ("__mul__", lambda true: lambda p, q: true(p, q) + DiffPoly.kappa(9), "grading.product"),
            # no derivative: the parity stays, so p' misses its class
            ("differentiate", lambda true: lambda p: p, "grading.derivative"),
            # drops the last term of a derivative with two or more
            (
                "differentiate",
                lambda true: lambda p: _drop_last_term(true(p)),
                "grading.leibniz",
            ),
        ],
        ids=["product", "derivative", "leibniz"],
    )
    def test_grading_fault_is_reported(self, runner, monkeypatch, method, fault, check):
        expansion.build_pipeline(6)  # built before the fault, so only the suites see it
        monkeypatch.setattr(DiffPoly, method, fault(getattr(DiffPoly, method)))
        result = runner.invoke(main, ["verify", "--order", "6"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"FAIL grading_closure: {check}: case 0" in result.output.splitlines()[1]

    def test_seed_env_is_reported(self, runner):
        result = runner.invoke(main, ["verify", "--order", "8"], env={"AFFGRAV_SEED": "7"})
        assert result.exit_code == 0
        assert "seed: 7" in result.output

    def test_seed_env_must_be_an_integer(self, runner):
        result = runner.invoke(main, ["verify", "--order", "6"], env={"AFFGRAV_SEED": "x"})
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == "Error: AFFGRAV_SEED must be an integer, got 'x'"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_random_poly_is_nonzero_class_member(self, k, sigma):
        for seed in range(60):
            poly = _random_poly_in_class(random.Random(seed), k, sigma)
            assert poly and poly.in_class(GradedClass(k, sigma)), (seed, str(poly))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_random_poly_matches_the_product_built_oracle(self, k, sigma):
        # the same polynomial from the same random state, and the same
        # state left behind, so the suite's later draws agree too
        for seed in range(250):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for draw in range(3):
                got = _random_poly_in_class(rng, k, sigma)
                want = oracle.random_poly_in_class(oracle_rng, k, sigma)
                assert got == want and str(got) == str(want), (seed, draw)
                assert rng.getstate() == oracle_rng.getstate(), (seed, draw)

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_grading_cases_are_built_without_monomials_or_sums(self, monkeypatch, seed):
        # the suite's own Leibniz check adds, so the spies count apart the
        # calls made while a case is being built
        calls = {"monomial": [0, 0], "__add__": [0, 0]}  # [all, while building]
        building = [False]

        def counting(name, true):
            def spy(*args, **kwargs):
                calls[name][0] += 1
                calls[name][1] += building[0]
                return true(*args, **kwargs)

            return spy

        monkeypatch.setattr(DiffPoly, "monomial", counting("monomial", DiffPoly.monomial))
        monkeypatch.setattr(DiffPoly, "__add__", counting("__add__", DiffPoly.__add__))
        true_build = cli._random_poly_in_class
        cases = []

        def build(*args):
            building[0] = True
            try:
                cases.append(true_build(*args))
            finally:
                building[0] = False
            return cases[-1]

        monkeypatch.setattr(cli, "_random_poly_in_class", build)
        cli._suite_grading_closure(seed)
        assert len(cases) == 80
        assert calls["monomial"] == [0, 0]
        assert calls["__add__"] == [40, 0]  # one Leibniz sum per case, none in the cases


def _break_bell(monkeypatch) -> None:
    """Make B_{4,2} one too large; the Bell suite reads ``bell`` from
    powerseries when it runs."""
    true_bell = powerseries.bell

    def wrong_bell(k, l, a):
        value = true_bell(k, l, a)
        return value + 1 if (k, l) == (4, 2) else value

    monkeypatch.setattr(powerseries, "bell", wrong_bell)


def _run_without_avx512(args: list[str]) -> bytes:
    """stdout of ``python -m affgrav *args`` in a subprocess with numpy's
    AVX-512 loops switched off; skips where numpy refuses the switch."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES: {probe.stderr[-300:]!r}")
    proc = subprocess.run(
        [sys.executable, "-m", "affgrav", *args], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestGravity:
    def test_parabola_is_straight(self, runner):
        result = runner.invoke(
            main, ["gravity", "--fixture", "parabola", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["is_straight"] is True
        assert data["is_flat"] is True
        assert abs(data["max_dev"]) < 1e-12

    def test_linear_curvature_quadratic_coefficient(self, runner):
        result = runner.invoke(
            main,
            ["gravity", "--fixture", "kappa-poly:0,1", "--point", "0", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["fit_coeffs"][1] == pytest.approx(-0.1, abs=0.005)
        assert data["predicted_b"] == -0.1

    def test_ellipse_sweep(self, runner):
        result = runner.invoke(
            main,
            ["gravity", "--fixture", "ellipse:2,1", "--sweep", "8", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["straight_everywhere"] is True
        assert len(data["points"]) == 8

    @pytest.mark.parametrize("a", [1e-160, 1e-3, 1e3])
    def test_equi_affine_ellipse_reads_as_the_circle(self, runner, a):
        # ellipse:a,1/a is the circle under a map of det 1; its exact jet
        # keeps the frames finite however far apart the semi-axes are
        fixture = f"ellipse:{a!r},{1 / a!r}"
        result = runner.invoke(
            main, ["gravity", "--fixture", fixture, "--sweep", "8", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["straight_everywhere"] is True

    def test_csv_output_shape(self, runner):
        result = runner.invoke(
            main, ["gravity", "--fixture", "parabola", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "delta,s_minus,s_plus,midpoint_x"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 1e-3
        assert float(first[1]) == pytest.approx(-float(first[2]), abs=1e-14)

    def test_kappa_point_golden_file(self, runner):
        # at p = 0 the renormalizing frame is exactly the identity, so the
        # printed bits come from RK4 and the chord kernels alone
        args = ["--fixture", "kappa-poly:0.5,0.2,-0.3", "--point", "0", "--format", "csv"]
        result = runner.invoke(main, ["gravity", *args])
        assert result.exit_code == 0
        assert result.stdout_bytes == GRAVITY_GOLDEN.read_bytes()

    def test_linear_point_golden_file(self, runner):
        # the benchmark's linear-curvature command, bits from RK4 and the chord kernels alone
        args = ["--fixture", "kappa-poly:0,1", "--point", "0", "--format", "csv"]
        result = runner.invoke(main, ["gravity", *args])
        assert result.exit_code == 0
        assert result.stdout_bytes == GRAVITY_LINEAR_GOLDEN.read_bytes()

    @pytest.mark.parametrize(
        "fixture,golden",
        [("kappa-poly:0.5,0.2,-0.3", GRAVITY_GOLDEN), ("kappa-poly:0,1", GRAVITY_LINEAR_GOLDEN)],
    )
    def test_point_golden_files_without_avx512(self, fixture, golden):
        # numpy's AVX-512 power loop is not libm's pow; with it switched off
        # the heights and the fit still print the same bytes
        args = ["gravity", "--fixture", fixture, "--point", "0", "--format", "csv"]
        assert _run_without_avx512(args) == golden.read_bytes()

    def test_conic_sweep_without_avx512(self, runner):
        # a plot goes through reparametrize_affine, which still takes
        # det^(1/3) and z^(-k/3) by numpy's power: its sweep prints the
        # same bytes with the AVX-512 loops off
        args = ["gravity", "--fixture", "ellipse:2,1", "--sweep", "8", "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert _run_without_avx512(args) == result.stdout_bytes

    def test_kappa_sweep_golden_file(self, runner):
        args = ["--fixture", "kappa-poly:0.5,0.2,-0.3", "--sweep", "4", "--format", "csv"]
        result = runner.invoke(main, ["gravity", *args])
        assert result.exit_code == 0
        assert result.stdout_bytes == GRAVITY_SWEEP_GOLDEN.read_bytes()

    @pytest.mark.parametrize(
        "args,golden",
        [
            (["--point", "0"], "gravity_kappa_point0.txt"),
            (["--point", "0", "--format", "json"], "gravity_kappa_point0.json"),
            (["--sweep", "4"], "gravity_kappa_sweep.txt"),
            (["--sweep", "4", "--format", "json"], "gravity_kappa_sweep.json"),
        ],
        ids=["point-text", "point-json", "sweep-text", "sweep-json"],
    )
    def test_text_and_json_golden_files(self, runner, args, golden):
        # the two commands whose CSV is golden, in their other two formats
        result = runner.invoke(main, ["gravity", "--fixture", "kappa-poly:0.5,0.2,-0.3", *args])
        assert result.exit_code == 0
        assert result.stdout_bytes == GRAVITY_GOLDEN.with_name(golden).read_bytes()

    @pytest.mark.parametrize(
        "fixture", ["ellipse:2,1", "hyperbola", "kappa-poly:0,1", "kappa-poly:1,0,1"]
    )
    @pytest.mark.parametrize(
        "mode,table",
        [(["--point", "0"], "samples"), (["--sweep", "4"], "points")],
        ids=["point", "sweep"],
    )
    def test_csv_table_matches_json_table(self, runner, fixture, mode, table):
        # CSV prints floats by repr and bools as 0/1, so its table reads
        # back to the JSON table, value and type alike; a point run prints
        # the GravitySample fields as its columns and the FlatnessResult
        # fields under their own names
        args = ["gravity", "--fixture", fixture, *mode, "--format"]
        csv_run, json_run = (runner.invoke(main, [*args, fmt]) for fmt in ("csv", "json"))
        assert csv_run.exit_code == json_run.exit_code == 0
        header, *lines = csv_run.output.splitlines()
        columns = header.split(",")
        if table == "samples":
            assert columns == list(GravitySample._fields)
            spec, kappa_prime = parse_fixture(fixture)
            samples = gravity_samples(build_curve(spec), 0.0, default_deltas())
            flat = fit_flatness(samples, float(kappa_prime(0.0)))
            doc = json.loads(json_run.output)
            assert {k: doc[k] for k in FlatnessResult._fields} == {
                **flat._asdict(),
                "fit_coeffs": list(flat.fit_coeffs),
            }
        parsed = [
            {k: v == "1" if v in ("0", "1") else float(v) for k, v in zip(columns, cells)}
            for cells in (line.split(",") for line in lines)
        ]
        want = json.loads(json_run.output)[table]
        assert all(list(row) == sorted(columns) for row in want)

        def typed(rows):
            return [{k: (type(v), v) for k, v in row.items()} for row in rows]

        assert typed(parsed) == typed(want)

    @pytest.mark.parametrize(
        "args",
        [
            ["--fixture", "ellipse:2,1", "--sweep", "8"],
            ["--fixture", "kappa-poly:1,0,1", "--sweep", "8"],
            ["--fixture", "kappa-poly:0,1", "--point", "0"],
        ],
    )
    def test_gravity_runs_without_numpy_linalg(self, runner, monkeypatch, args):
        # the benchmark's three gravity commands print the same bytes
        # with the LAPACK entry points of numpy.linalg made to raise
        args = ["gravity", *args, "--format", "json"]
        before = runner.invoke(main, args)
        assert before.exit_code == 0

        def refuse(*_args, **_kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("inv", "lstsq", "solve", "svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        after = runner.invoke(main, args)
        assert after.exit_code == 0, after.exception
        assert after.stdout_bytes == before.stdout_bytes

    @pytest.mark.parametrize("ratio", ["1.001", "1.01"])
    def test_heights_spread_enough_are_fitted(self, runner, ratio):
        args = ["gravity", "--fixture", "kappa-poly:0,1", "--delta-ratio", ratio, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert json.loads(result.output)["fit_coeffs"][1] == pytest.approx(-0.1, abs=2e-3)

    def test_csv_is_deterministic(self, runner):
        args = ["gravity", "--fixture", "circle", "--format", "csv"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_bracketing_failure_exit_code(self, runner):
        result = runner.invoke(
            main, ["gravity", "--fixture", "parabola", "--delta0", "0.4"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [[], ["--delta0", "1e-9"]])
    def test_sweep_heights_above_the_roundoff_floor_pass(self, runner, args):
        result = runner.invoke(main, ["gravity", "--sweep", "3", *args])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "straight everywhere: True"

    @pytest.mark.parametrize(
        "args", [["--point", "nan"], ["--tol-flat", "-1"], ["--point", "1e308", "--tol-flat", "nan"]]
    )
    def test_sweep_ignores_point_and_tol_flat(self, runner, args):
        # a sweep reads neither value, so neither is checked
        base = ["gravity", "--fixture", "ellipse:2,1", "--sweep", "3", "--format", "json"]
        result, plain = runner.invoke(main, [*base, *args]), runner.invoke(main, base)
        assert result.exit_code == plain.exit_code == 0
        assert result.stdout_bytes == plain.stdout_bytes
        assert result.stderr_bytes == plain.stderr_bytes == b""

    def test_sweep_verification_failure_exit_code(self, runner):
        # two symmetric points see the same curvature, so the constant-curvature
        # cross-check contradicts the not-straight verdict
        result = runner.invoke(main, ["gravity", "--fixture", "kappa-poly:1,0,1", "--sweep", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.splitlines() == [
            "verification failure: corollary.cross_check: "
            "straight everywhere=False but curvature spread=0"
        ]

    def test_unknown_fixture(self, runner):
        result = runner.invoke(main, ["gravity", "--fixture", "nosuch"])
        assert result.exit_code == 2

    def test_invalid_schedule(self, runner):
        result = runner.invoke(
            main, ["gravity", "--fixture", "parabola", "--delta-ratio", "0.5"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--point", "5"], "base point 5.0 is not inside the grid"),
            (["--point", "1e308"], "base point 1e+308 is not inside the grid"),
            (["--point", "-1e308"], "base point -1e+308 is not inside the grid"),
            (["--point", "nan"], "--point must be finite"),
            (["--delta-count", "3"], "needs --delta-count >= 6"),
            (["--delta0", "nan"], "--delta0 must be finite"),
            (["--step", "nan"], "--step must be finite"),
            (["--tol-flat", "nan"], "--tol-flat must be finite"),
            (["--tol-flat", "0"], "tol-flat must be positive"),
            (["--tol-flat", "-1"], "tol-flat must be positive"),
            (["--tol-straight", "0"], "tol-straight must be positive"),
            (["--sweep", "3", "--tol-straight", "-1"], "tol-straight must be positive"),
            (["--fixture", "ellipse:2"], "ellipse takes two positive semi-axes"),
            (["--sweep", "-3"], "--sweep takes 0 (single point) or at least 2"),
            (["--sweep", "1"], "--sweep takes 0 (single point) or at least 2"),
            (["--fixture", "ellipse:0.1,0.1", "--sweep", "3"], "base point -0.5 is not inside"),
            (["--fixture", "kappa-poly:1", "--step", "0.4", "--sweep", "3"], "base point -0.5"),
            (["--fixture", "foo:x"], "unknown fixture 'foo:x'"),
            (["--fixture", "kappa-poly:nan"], "fixture arguments must be finite"),
            (["--fixture", "kappa-poly:1,,2"], "must be numbers, got 'kappa-poly:1,,2'"),
            (["--fixture", "ellipse:2,,1"], "must be numbers, got 'ellipse:2,,1'"),
            (["--fixture", "ellipse:,2,1"], "must be numbers, got 'ellipse:,2,1'"),
            (["--fixture", "parabola:5", "--sweep", "3"], "parabola takes no arguments"),
            (["--fixture", "circle:1,2"], "circle takes no arguments"),
            (["--fixture", "hyperbola:3"], "hyperbola takes no arguments"),
            (["--fixture", "kappa-poly:1e300"], "kappa-poly:1e300 gives a curve that is not finite"),
            (["--fixture", "kappa-poly:1e200,1"], "gives a curve that is not finite"),
            (["--fixture", "kappa-poly:1e308,1e308"], "gives a curve that is not finite"),
            (["--fixture", "kappa-poly:0,1", "--step", "1e-9"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e300,1"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e308,1e308"], "plot too large: max |det[c_u, c_uu]| = inf overflows"),
            (["--fixture", "ellipse:1e12,1"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e200,1e200"], "plot too large: max |det[c_u, c_uu]| = inf"),
            (["--fixture", "ellipse:1e160,1e160"], "plot too large"),
            (["--delta-count", f"{MAX_DELTA_COUNT + 1}"], f"at most {MAX_DELTA_COUNT}"),
            (["--fixture", "circle", "--sweep", f"{MAX_SWEEP + 1}"], f"at most {MAX_SWEEP}"),
            (["--delta-ratio", "1e300"], "the largest height"),
            (["--delta0", "1e300", "--delta-ratio", "1e10"], "is not finite"),
            (["--delta-ratio", "1.0000001"], "rank-deficient flatness fit"),
            (["--delta0", "1e-300"], "delta^2 and delta^3 underflow at heights up to 2.68e-299"),
            (["--delta0", "1e-300", "--sweep", "3"], "below the roundoff floor"),
            (["--delta0", "1e-12", "--sweep", "3"], "tolerance 2.68e-17 is below the roundoff"),
            (["--sweep", "3", "--tol-straight", "1e-15"], "tolerance 1e-15 is below the roundoff"),
            (["--fixture", "ellipse:1e-320,1"], "plot too small"),
            (["--fixture", "ellipse:1e-300,1e-300"], "plot too small"),
            # the whole message of a rank-deficient fit, at two close height ratios
            (["--delta-ratio", "1.0000001"], _RANK_DEFICIENT),
            (["--delta-ratio", "1.00001"], _RANK_DEFICIENT),
        ],
    )
    def test_invalid_input_is_usage_error(self, runner, args, message):
        result = runner.invoke(main, ["gravity", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        last = result.stderr.splitlines()[-1]
        assert last.startswith("Error: ") and message in last

    @pytest.mark.parametrize(
        "fixture",
        [
            "kappa-poly:1e300",
            "kappa-poly:1e200,1",
            "kappa-poly:1e308,1e308",
            # finite kappa, overflowing frame and positions
            "kappa-poly:0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1e300",
        ],
    )
    def test_non_finite_curve_is_refused_before_any_warning(self, runner, recwarn, fixture):
        # RK4 overflows on these (kappa-poly:1e308,1e308 already in kappa
        # itself); the curve is refused before the sampler would invert
        # its non-finite frame
        result = runner.invoke(main, ["gravity", "--fixture", fixture])
        assert result.exit_code == 2
        assert not recwarn.list


class TestInProcessRuns:
    def test_runs_release_their_output_streams(self, runner):
        # click.echo's default stream lookup would cache, and so keep alive,
        # every stdout and stderr that CliRunner swaps in
        def live_streams():
            gc.collect()
            return sum(type(o).__name__ == "_NamedTextIOWrapper" for o in gc.get_objects())

        before = live_streams()
        for args in (["expand", "--order", "6"], ["verify", "--order", "6"]):
            assert runner.invoke(main, args).exit_code == 0
        args = ["gravity", "--fixture", "kappa-poly:1,0,1", "--sweep", "2"]
        assert runner.invoke(main, args).exit_code == 1  # writes to stderr
        assert live_streams() == before


def _defect(letter: str, what: str, args: str, key: str, want: bool):
    """A register case: ``gravity *args --format json`` should exit 0 and
    print ``key`` as ``want``; it xfails while ROADMAP defect ``letter``
    stands.  Its id is the letter and the fixture."""
    args = args.split()
    mark = pytest.mark.xfail(strict=True, reason=f"ROADMAP defect ({letter}): {what}")
    return pytest.param(args, key, want, marks=mark, id=f"{letter}-{args[1]}")


# Each command prints a wrong verdict, or exits 1 for a right curve; the
# case asserts the right outcome.  A change that mends a defect sees its
# cases XPASS, and drops them here.  Defect (e)'s command is also the
# exit-1 run of test_sweep_verification_failure_exit_code and
# TestInProcessRuns.test_runs_release_their_output_streams: mending (e)
# means pointing both at a true verification failure.  Defects (i) and
# (j) have no exact answer at the command line yet, so they are not here.
DEFECTS = [
    *(
        _defect(
            "a",
            "conic max_dev above the default tolerance at small heights",
            f"--fixture {fixture} --delta0 1e-9 --sweep 8",
            "straight_everywhere",
            True,
        )
        for fixture in ("hyperbola", "circle", "ellipse:2,1")
    ),
    _defect(
        "b",
        "signal under the tolerance at small heights",
        "--fixture kappa-poly:1,0,1 --delta0 1e-7 --sweep 8",
        "straight_everywhere",
        False,
    ),
    _defect(
        "c",
        "the absolute flatness band does not scale with the heights",
        "--fixture kappa-poly:1,0,0,1 --point 0 --delta0 1e-2",
        "is_flat",
        True,
    ),
    _defect(
        "e",
        "two symmetric points cannot show that kappa is constant",
        "--fixture kappa-poly:1,0,1 --sweep 2",
        "straight_everywhere",
        False,
    ),
    *(
        _defect(
            "f",
            "curvature spread and straightness tolerances not calibrated to each other",
            f"--fixture kappa-poly:1,{eps} --sweep 8",
            "straight_everywhere",
            False,
        )
        for eps in ("1.5e-4", "2e-4", "3e-4")
    ),
    *(
        _defect(
            "g",
            "a single point's straightness is not checked against Theorem 2",
            f"--fixture {fixture} --point 0",
            "is_straight",
            False,
        )
        for fixture in ("kappa-poly:1,0,0,1e-2", "kappa-poly:1,2e-4")
    ),
    _defect(
        "h",
        "renormalizing far from s = 0 loses the digits of a frame grown like e^(sqrt|k| |s|)",
        "--fixture kappa-poly:-1000 --sweep 8",
        "straight_everywhere",
        True,
    ),
]


@pytest.mark.parametrize("args,key,want", DEFECTS)
def test_defect_register(runner, args, key, want):
    result = runner.invoke(main, ["gravity", *args, "--format", "json"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.output)[key] is want


class TestFixtureParsing:
    def test_kappa_poly(self):
        spec, kprime = parse_fixture("kappa-poly:1,0,2")
        assert isinstance(spec, KappaCurveSpec)
        assert spec.kappa(0.5) == pytest.approx(1.5)   # 1 + 2 s^2
        assert kprime(0.5) == pytest.approx(2.0)       # 4 s

    def test_ellipse_defaults(self):
        for text in ("ellipse", "ellipse:"):
            spec, _ = parse_fixture(text)
            assert isinstance(spec, ParametricCurveSpec)
            point, tangent, _, _ = spec.jet(0.0)
            assert point == (2.0, 0.0) and tangent == (0.0, 1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fixture("kappa-poly:")
        with pytest.raises(ValueError):
            parse_fixture("ellipse:-1,1")
