"""Exception types shared across the package."""


class NumericalError(ArithmeticError):
    """A computation broke down numerically.

    Raised when an algorithm cannot continue at working precision: a
    computed recurrence coefficient falls outside double range, a
    conjugated matrix fails its structural check, a determinant is too
    close to singular, and so on.  Input-contract violations (bad shapes,
    unsorted data, duplicate points) raise ``ValueError`` instead.
    """
