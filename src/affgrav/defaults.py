"""Constants that the command line needs before it runs a command: the
order bounds of the exact pipeline and the defaults of the numeric
experiment.

They live apart from ``expansion`` and ``numcurve`` so that ``--help``,
option parsing and the input checks of ``Config.validate`` run without
the exact layer or numpy; ``expansion`` and ``numcurve`` re-export the
ones they use.
"""

import sys

# Series orders the pipeline builds: MIN_ORDER <= N <= MAX_ORDER.
DEFAULT_ORDER = 10
MIN_ORDER = 6
MAX_ORDER = 26

DEFAULT_STEP = 1e-3
DEFAULT_TOL_FLAT = 1e-3
# Chord heights delta0 * ratio^i for i < count.
DEFAULT_DELTA0 = 1e-3
DEFAULT_DELTA_RATIO = 1.6
DEFAULT_DELTA_COUNT = 8
# Fewest chord heights a single-point flatness fit takes.
MIN_FIT_SAMPLES = 6
# The default straightness tolerance is this factor times the largest height.
TOL_STRAIGHT_FACTOR = 1e-6
# Roundoff floor of max_dev: no straightness tolerance below it can be met.
# At vanishing heights the chord roots s = +-sqrt(2 delta) close in on the
# base node, and an error c*s in the sampled g there moves both roots by
# -c, so every midpoint abscissa tends to -c however small the heights.
# The residual slope c of a renormalized curve is rounding noise of
# unit-scale nodes and frames; over the built-in fixtures it holds
# max_dev at 38 (kappa-poly:1) to 669 (hyperbola) ulps of 1.  Below 32
# ulps of 1 no curve reads straight.
STRAIGHT_TOL_FLOOR = 32 * sys.float_info.epsilon
