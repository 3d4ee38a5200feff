"""Fuzz the gravity input checks: whatever the text or values, a check
either passes or raises ValueError.  No curve is built here."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affgrav.cli import _CONICS, MAX_DELTA_COUNT, MAX_SWEEP, Config, parse_fixture

NAMES = sorted(_CONICS) + ["kappa-poly"]
EDGES = [0.0, -0.0, -1.0, 1.0, 1.6, 1e-300, 5e-324, 1e300, 1.7976931348623157e308]
reals = st.floats() | st.sampled_from(EDGES + [math.nan, math.inf, -math.inf])
counts = st.integers(-(10**30), 10**30) | st.sampled_from(
    [-1, 0, 1, 2, 5, 6, MAX_DELTA_COUNT, MAX_DELTA_COUNT + 1, MAX_SWEEP, MAX_SWEEP + 1]
)
argument = st.one_of(
    st.floats().map(repr), st.sampled_from(["", "x", "1e999", "-0", " 2"]), st.text()
)
fixture_text = st.one_of(
    st.text(),
    st.builds(
        lambda name, args: f"{name}:{','.join(args)}" if args else name,
        st.sampled_from(NAMES) | st.text(),
        st.lists(argument, max_size=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(fixture_text)
def test_parse_fixture_passes_or_raises_value_error(text):
    try:
        spec, kappa_prime = parse_fixture(text)
    except ValueError:
        return
    assert math.isfinite(kappa_prime(0.0))


@settings(max_examples=300, deadline=None)
@given(
    step=reals,
    delta0=reals,
    delta_ratio=reals,
    delta_count=counts,
    tol_flat=reals,
    tol_straight=st.none() | reals,
    point=reals,
    sweep=counts,
)
def test_config_validate_passes_or_raises_value_error(
    step, delta0, delta_ratio, delta_count, tol_flat, tol_straight, point, sweep
):
    cfg = Config(
        step=step,
        delta0=delta0,
        delta_ratio=delta_ratio,
        delta_count=delta_count,
        tol_flat=tol_flat,
        tol_straight=tol_straight,
        output="text",
        fixture="parabola",
        point=point,
        sweep=sweep,
    )
    try:
        cfg.validate()
    except ValueError:
        return
    # what passes is bounded and finite
    deltas = cfg.deltas()
    assert len(deltas) == delta_count <= MAX_DELTA_COUNT
    assert np.isfinite(deltas).all() and (deltas > 0).all()
    assert len(cfg.base_points()) == max(sweep, 1) <= MAX_SWEEP
