"""Exception and warning types shared across the package."""


class GridMismatch(ValueError):
    """Two operands live on different grids."""


class ModeOutOfRange(ValueError, IndexError):
    """A mode lies outside the resolved set ``[-n/2, n/2)``: a bad value and a bad index alike."""


class HermitianViolation(RuntimeError):
    """A nominally real field came back with a non-negligible imaginary part."""


class UnderResolved(ValueError):
    """Grid too coarse for the requested closed-form coefficient."""


class NegativeLambda(ValueError):
    """Shrinkage threshold must be nonnegative."""


class NonpositiveDt(ValueError):
    """Time step must be positive and finite."""


class CflViolation(RuntimeError):
    """Time step exceeds the stability guard (raised only in strict mode)."""


class SolverDiverged(RuntimeError):
    """A time step produced a non-finite coefficient."""


class CflWarning(RuntimeWarning):
    """Time step exceeds the stability guard (default, warning-level)."""


class NotTwoDimensional(ValueError):
    """Operation requires a 2-D grid."""


class NotOneDimensional(ValueError):
    """Operation requires a 1-D grid."""


class UnknownInitialSpec(ValueError):
    """Initial-condition name not recognized."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""
