"""Exception taxonomy shared across the package.

Every exception carries a ``category`` string so the CLI can map failures
to stable exit codes (validation -> 2, infeasible -> 3, io -> 4).
"""


class PcBitAllocError(Exception):
    category = "error"


class ValidationError(PcBitAllocError):
    """Bad input values or violated preconditions."""

    category = "validation"


class DegenerateProbesError(ValidationError):
    """Probe encodings that cannot identify the model (equal or collinear steps)."""


class NonMonotoneRateError(ValidationError):
    """Fitted rate exponent is not negative, so rate would not shrink with the step."""


class SccUndefinedError(ValidationError):
    """Squared correlation requested against a constant reference sequence."""


class InfeasibleBudgetError(PcBitAllocError):
    """No grid pair fits the budget, not even the coarsest one."""

    category = "infeasible"


class ConvergenceError(PcBitAllocError):
    """Newton inner loop failed to converge within its iteration cap."""

    category = "infeasible"


class PlyError(PcBitAllocError):
    category = "io"


class PlyHeaderError(PlyError):
    """Header is missing, malformed, or describes an unsupported layout."""


class PlyBodyError(PlyError):
    """Vertex data ends early or cannot be decoded."""


class PlyPropertyError(PlyError):
    """Required vertex properties (x,y,z,red,green,blue) are absent."""
