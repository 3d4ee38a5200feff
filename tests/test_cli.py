import gc
import hashlib
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from affgrav.cli import MAX_DELTA_COUNT, MAX_SWEEP, main, parse_fixture
from affgrav.expansion import MAX_ORDER
from affgrav.numcurve import KappaCurveSpec, ParametricCurveSpec

GOLDEN = Path(__file__).parent / "data" / "expand_order8.json"
# sha256 of ``expand --order 16 --format json`` without its final newline,
# the exact rendering the pipeline produced before its rational rewrite.
ORDER16_DIGEST = "f17e075173dddb2c36b8e85af9579d3a03abfb7e56fd792a63984795c1ddab45"


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
        result = runner.invoke(main, ["expand", "--order", "16", "--format", "json"])
        assert result.exit_code == 0
        text = result.output.removesuffix("\n")
        assert hashlib.sha256(text.encode()).hexdigest() == ORDER16_DIGEST

    def test_order_range_ends_at_max_order(self, runner):
        assert MAX_ORDER == 22
        result = runner.invoke(main, ["expand", "--order", "22", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["series"]["h"]["order"] == 22
        result = runner.invoke(main, ["expand", "--order", "23"])
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
        assert {s["name"] for s in data["suites"]} >= {"h_leading_law", "theorem2"}

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

    def test_seed_env_is_reported(self, runner):
        result = runner.invoke(main, ["verify", "--order", "8"], env={"AFFGRAV_SEED": "7"})
        assert result.exit_code == 0
        assert "seed: 7" in result.output


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

    def test_csv_is_deterministic(self, runner):
        args = ["gravity", "--fixture", "circle", "--format", "csv"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_bracketing_failure_exit_code(self, runner):
        result = runner.invoke(
            main, ["gravity", "--fixture", "parabola", "--delta0", "0.4"]
        )
        assert result.exit_code == 2

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
            (["--point", "nan"], "--point must be finite"),
            (["--delta-count", "3"], "needs --delta-count >= 6"),
            (["--delta0", "nan"], "--delta0 must be finite"),
            (["--step", "nan"], "--step must be finite"),
            (["--tol-flat", "nan"], "--tol-flat must be finite"),
            (["--fixture", "ellipse:2"], "ellipse takes two positive semi-axes"),
            (["--sweep", "-3"], "--sweep takes 0 (single point) or at least 2"),
            (["--sweep", "1"], "--sweep takes 0 (single point) or at least 2"),
            (["--fixture", "ellipse:0.1,0.1", "--sweep", "3"], "base point -0.5 is not inside"),
            (["--fixture", "kappa-poly:1", "--step", "0.4", "--sweep", "3"], "base point -0.5"),
            (["--fixture", "kappa-poly:nan"], "fixture arguments must be finite"),
            (["--fixture", "parabola:5", "--sweep", "3"], "parabola takes no arguments"),
            (["--fixture", "circle:1,2"], "circle takes no arguments"),
            (["--fixture", "hyperbola:3"], "hyperbola takes no arguments"),
            (["--fixture", "kappa-poly:1e300"], "kappa-poly:1e300 gives a curve that is not finite"),
            (["--fixture", "kappa-poly:1e200,1"], "gives a curve that is not finite"),
            (["--fixture", "kappa-poly:0,1", "--step", "1e-9"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e300,1"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e308,1e308"], "a grid of nan nodes exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e12,1"], "exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e200,1e200"], "a grid of nan nodes exceeds MAX_GRID_NODES"),
            (["--fixture", "ellipse:1e-160,1e160"], "gives a curve that is not finite"),
            (["--delta-count", f"{MAX_DELTA_COUNT + 1}"], f"at most {MAX_DELTA_COUNT}"),
            (["--fixture", "circle", "--sweep", f"{MAX_SWEEP + 1}"], f"at most {MAX_SWEEP}"),
            (["--delta-ratio", "1e300"], "the largest height"),
            (["--delta0", "1e300", "--delta-ratio", "1e10"], "is not finite"),
        ],
    )
    def test_invalid_input_is_usage_error(self, runner, args, message):
        result = runner.invoke(main, ["gravity", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        last = result.stderr.splitlines()[-1]
        assert last.startswith("Error: ") and message in last

    @pytest.mark.parametrize("fixture", ["kappa-poly:1e300", "kappa-poly:1e200,1"])
    def test_non_finite_curve_is_refused_before_any_warning(self, runner, recwarn, fixture):
        # RK4 overflows on these; the curve is refused before renormalize
        # would invert its non-finite frame
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


class TestFixtureParsing:
    def test_kappa_poly(self):
        spec, kprime = parse_fixture("kappa-poly:1,0,2")
        assert isinstance(spec, KappaCurveSpec)
        assert spec.kappa(0.5) == pytest.approx(1.5)   # 1 + 2 s^2
        assert kprime(0.5) == pytest.approx(2.0)       # 4 s

    def test_ellipse_defaults(self):
        spec, _ = parse_fixture("ellipse")
        assert isinstance(spec, ParametricCurveSpec)
        x, y = spec.xy(0.0)
        assert (x, y) == (2.0, 0.0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fixture("kappa-poly:")
        with pytest.raises(ValueError):
            parse_fixture("ellipse:-1,1")
