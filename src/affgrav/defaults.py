"""Defaults of the numeric experiment that the command line shows.

They live apart from ``numcurve`` so that ``gravity --help`` can print
them without importing numpy; ``numcurve`` re-exports both names.
"""

DEFAULT_STEP = 1e-3
DEFAULT_TOL_FLAT = 1e-3
