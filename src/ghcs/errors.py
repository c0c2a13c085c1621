"""Exception types shared across the package."""


class GHSError(Exception):
    """Base class for all library-specific errors."""


class PoleError(GHSError, ValueError):
    """Evaluation requested at a pole (gamma at a non-positive integer,
    pFq with a non-positive-integer denominator parameter, ...)."""


class DivergenceError(GHSError, ValueError):
    """Argument lies outside the convergence domain of the series/state."""


class ConvergenceError(GHSError, RuntimeError):
    """An iterative scheme (series, quadrature, cutoff search) hit its cap
    before reaching the requested tolerance."""


class RangeError(GHSError, OverflowError):
    """A value or table would leave the double range or a size cap (an
    OverflowError, so handlers written for the builtin still catch it)."""


class ParameterError(GHSError, ValueError):
    """A parameter list violates the positivity constraints.

    Attributes identify the first offending entry and the rule it broke,
    so callers (and the CLI) can produce a machine-readable report.
    """

    def __init__(self, message, which=None, index=None, rule=None):
        super().__init__(message)
        self.which = which    # "a" or "b"
        self.index = index    # position in the offending list, or None
        self.rule = rule      # short rule identifier


class CircleNoGoError(GHSError, ValueError):
    """Structured refusal: states on the unit circle admit no resolution of
    unity (all off-diagonal Fourier components of a candidate weight must
    vanish, forcing a constant that cannot reproduce varying moments),
    except for the exact phase-state limit."""
