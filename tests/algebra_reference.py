"""The solve of the log-power identity as one call, kept as a reference:
the package reads the rows of ``log_power_rows`` from its map tables and
applies them with ``back_substitute``, so it needs no such function."""

from diffreg.algebra import back_substitute, log_power_rows


def log_power_solve(y, d):
    """The nonzero x[k] with sum_k log_power_map(x[k], k, d) = sum_j y[j] L^j:
    the rows of log_power_rows up to the top log power of y, applied."""
    return back_substitute(y, log_power_rows(d, max(y, default=-1)))
