"""Exception taxonomy shared across the package: one class per way to fail.

Every exception carries a ``category`` string that the CLI maps to its
exit code: ``ValidationError`` -> 2, ``InfeasibleBudgetError`` and
``ConvergenceError`` -> 3, ``PlyError`` -> 4. All of them are
``PcBitAllocError``s, and each message names the fault.
"""


class PcBitAllocError(Exception):
    category = "error"


class ValidationError(PcBitAllocError):
    """Bad input values or violated preconditions, such as probes that cannot
    identify the model or a fitted rate exponent that is not negative."""

    category = "validation"


class InfeasibleBudgetError(PcBitAllocError):
    """No grid pair fits the budget, not even the coarsest one."""

    category = "infeasible"


class ConvergenceError(PcBitAllocError):
    """The barrier root was not found within its cap of Newton steps."""

    category = "infeasible"


class PlyError(PcBitAllocError):
    """A PLY file whose header, vertex properties or body cannot be read."""

    category = "io"
