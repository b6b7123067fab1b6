"""Exception hierarchy shared by all diffreg modules."""


class DiffRegError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(DiffRegError):
    """Two functions with different space dimensions were combined."""


class DistributionProductError(DiffRegError):
    """Pointwise product requested for a function with delta-type terms."""


class EvaluationError(DiffRegError):
    """Numeric evaluation requested outside the valid domain."""


class FourierWindowError(DiffRegError):
    """A radial term falls outside the open convergence window of the
    exact transform formula."""


class SymbolSetError(DiffRegError):
    """An exact transform would need constants outside the supported
    symbol set {pi, gammaE, ln2, zeta3}; use the numeric oracle instead."""


class NotRepresentableError(DiffRegError):
    """No operator/seed pair reproduces the target within the search class."""


class NonIntegrableError(DiffRegError):
    """Integrand is not absolutely integrable at the origin."""


class ConvergenceError(DiffRegError):
    """Numeric quadrature failed to meet its tolerance budget."""

    def __init__(self, message, partial=None, err_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.err_estimate = err_estimate


class ParseError(DiffRegError):
    """Syntax or semantic error in the expression language."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
