"""Exception types shared across the package."""


class MobiusKitError(Exception):
    """Base class for all library errors."""


class DivisionByZero(MobiusKitError):
    pass


class DegreeMismatch(MobiusKitError):
    pass


class RigMismatch(MobiusKitError):
    pass


class UnsupportedRig(MobiusKitError):
    """Operation requires rig structure (negation, division, ...) that is absent."""


class MalformedInput(MobiusKitError):
    pass


class UnknownObject(MobiusKitError):
    pass


class BudgetExceeded(MobiusKitError):
    pass


class NotNerveFinite(MobiusKitError):
    pass


class NotAnInverse(MobiusKitError):
    pass


class NotInvertible(MobiusKitError):
    """Zeta (or a general element/matrix) has no two-sided inverse.

    Carries a human-readable witness: the singular pivot column, the
    non-integral entry, or the failing convolution equation.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
