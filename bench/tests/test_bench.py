"""Tests of the benchmark itself: every correctness gate rejects a wrong
reference, the metric lists match BENCHMARK.json, span bookkeeping is
sound, and the smoke mode of every workload runs end to end.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.dont_write_bytecode = True
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from workloads import GateError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric lists ----------------------------------------------------------------


def test_benchmark_json_lists_every_metric_the_runs_emit():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == traced.per_layer_names()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    pct, value, beyond = run.tail(samples)
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


# -- gates reject wrong references -------------------------------------------------


@pytest.fixture(scope="module")
def expand_smoke():
    wl = workloads.ExpandDeep(0, True, ROOT)
    workloads.reset_process_state()
    return wl, wl.op(0)


def test_expand_gate_accepts_the_golden_rendering(expand_smoke):
    wl, text = expand_smoke
    assert text + "\n" == (ROOT / workloads.GOLDEN_FILE).read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    workloads.check_expand(text, digest, wl.golden)


def test_expand_gate_rejects_a_wrong_digest(expand_smoke):
    wl, text = expand_smoke
    with pytest.raises(GateError, match="digest"):
        workloads.check_expand(text, "0" * 64, wl.golden)


def test_expand_gate_rejects_a_wrong_golden_coefficient(expand_smoke):
    wl, text = expand_smoke
    golden = json.loads(json.dumps(wl.golden))
    golden["series"]["h"]["coeffs"][4] = "(1/10)*k1"
    with pytest.raises(GateError, match="series h"):
        workloads.check_expand(text, None, golden)


@pytest.fixture(scope="module")
def verify_smoke():
    wl = workloads.VerifyMid(0, True, ROOT)
    workloads.reset_process_state()
    return wl, wl.op(0)


def test_verify_gate_accepts_the_real_output(verify_smoke):
    wl, (code, stdout) = verify_smoke
    workloads.check_verify(code, stdout)


def test_verify_gate_rejects_wrong_references(verify_smoke):
    _, (code, stdout) = verify_smoke
    with pytest.raises(GateError, match="without PASS"):
        workloads.check_verify(code, stdout, workloads.VERIFY_SUITES + ("no_such_suite",))
    with pytest.raises(GateError, match="exited"):
        workloads.check_verify(1, stdout)
    with pytest.raises(GateError, match="failure"):
        workloads.check_verify(code, stdout + "FAIL theorem2: injected\n")


def test_self_test_gate(verify_smoke):
    wl, _ = verify_smoke
    workloads.check_self_test(*wl.self_test())
    with pytest.raises(GateError):
        workloads.check_self_test(0, "SELF-TEST FAILED")


@pytest.fixture(scope="module")
def gravity_outputs():
    wl = workloads.GravitySweep(0, True, ROOT)
    (kind, code, stdout), = wl.op(0)
    assert kind == "conic"
    # a 2-point sweep of the even bump sees equal curvature at both points
    # and trips the sweep's cross-check, so it takes 3 points
    bump = workloads.invoke(["gravity", "--fixture", workloads.BUMP, "--sweep", "3", "--format", "json"])
    linear = workloads.invoke(["gravity", "--fixture", workloads.LINEAR, "--point", "0", "--format", "json"])
    return wl, (code, stdout), bump, linear


def test_gravity_gates_accept_the_real_outputs(gravity_outputs):
    wl, conic, bump, linear = gravity_outputs
    wl.check([("conic", *conic), ("bump", *bump), ("linear", *linear)])


def test_gravity_gates_reject_wrong_references(gravity_outputs):
    wl, conic, bump, linear = gravity_outputs
    with pytest.raises(GateError, match="max_dev"):
        workloads.check_conic(*conic, max_delta=1e-12)
    with pytest.raises(GateError, match="not straight"):
        workloads.check_conic(*bump, max_delta=wl.max_delta)
    with pytest.raises(GateError, match="reported straight"):
        workloads.check_bump(*conic)
    with pytest.raises(GateError, match="fit b"):
        workloads.check_linear(*linear, expected_b=0.1)
    with pytest.raises(GateError, match="exited"):
        workloads.check_linear(2, linear[1])


def test_traced_output_must_equal_untraced():
    traced._same("a", "a")
    with pytest.raises(GateError):
        traced._same("a", "b")


def test_a_failing_gate_counts_as_failed():
    tally = run.Tally()
    tally.gate(lambda: None)
    tally.gate(lambda: workloads.check_self_test(1, ""))
    tally.gate(lambda: json.loads("not json"))
    assert (tally.attempted, tally.failed) == (3, 2)


# -- spans ----------------------------------------------------------------------------


def test_self_time_subtracts_children():
    rec = spans.Recorder(0)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    outer, a, b = rec.spans
    assert (a.parent, b.parent, outer.parent) == (0, 0, -1)
    self_times = rec.self_times()
    assert self_times[0] == pytest.approx(outer.duration - a.duration - b.duration)
    table = rec.table()
    assert table["inner"]["calls"] == 2


def test_installed_wrappers_record_layer_calls_and_are_removed():
    from affgrav import cli, expansion

    original = expansion.build_pipeline
    rec = spans.Recorder(0)
    workloads.reset_process_state()
    with spans.installed(rec), rec.span("op"):
        assert cli.build_pipeline is not original
        expansion.build_pipeline(6)
    assert expansion.build_pipeline is original and cli.build_pipeline is original
    names = [s.name for s in rec.spans]
    assert names[:3] == ["op", "expansion.build_pipeline", "expansion.build_frame"]
    assert "powerseries.compositional_inverse" in names


def test_gravity_overhead_drops_the_duplicate_pass():
    rec = spans.Recorder(0)

    def add(name, start, end, parent):
        rec.spans.append(spans.Span(name, start, end, parent, 0))

    add("cli.gravity", 0.0, 10.0, -1)
    add("numcurve.reparametrize_affine", 0.0, 1.0, 0)
    add("numcurve.gravity_samples", 1.0, 4.0, 0)  # repeated inside corollary_sweep
    add("numcurve.corollary_sweep", 4.0, 8.0, 0)
    add("numcurve.gravity_samples", 4.0, 7.0, 3)
    assert traced.gravity_overhead(rec) == pytest.approx(10.0 - 1.0 - 4.0)


# -- end to end -------------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    meta = json.loads(meta_line)["meta"]
    assert meta["seed"] == 2 and meta["smoke"]
    if trace == "0":
        assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        expected = {name for name, _ in traced.per_layer_names(traced.SMOKE_LADDER)}
        assert set(result["metrics"]) <= expected
        assert "trace.overhead_s" in result["metrics"]
        doc = json.loads((ROOT / meta["trace_file"]).read_text())
        span = doc["ops"][0]["spans"][0]
        assert {"name", "start", "end", "parent", "op"} <= set(span)
        assert set(doc["coverage"]) == set(workloads.WORKLOADS)


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bench-only"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "expand-deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
