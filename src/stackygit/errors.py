"""Exception hierarchy.

Every error carries a machine-readable ``code`` (stable across releases,
used verbatim in CLI JSON payloads) and an ``exit_status`` matching the
command-line convention: 2 for bad input, 3 for an exceeded internal bound
or a failed exact-arithmetic check.
"""


class StackygitError(Exception):
    code = "error"
    exit_status = 2


class BoundExceededError(StackygitError):
    """An internal safety bound was hit (order cap, closure size, parser
    nesting, form degree, coefficient size, product size)."""

    exit_status = 3


class OrderCapExceededError(BoundExceededError):
    code = "order-cap-exceeded"


class ClosureBoundExceededError(BoundExceededError):
    code = "closure-bound-exceeded"


class NestingTooDeepError(BoundExceededError):
    code = "nesting-too-deep"


class DegreeTooLargeError(BoundExceededError):
    code = "degree-too-large"


class CoefficientTooLargeError(BoundExceededError):
    code = "coefficient-too-large"


class ProductTooLargeError(BoundExceededError):
    code = "product-too-large"


class ExactArithmeticError(StackygitError, ArithmeticError):
    """An exact-arithmetic check failed: a division that must be exact in
    the coefficient ring left a remainder.  Other ArithmeticErrors reaching
    the command line are reported with the same code."""

    code = "arithmetic-error"
    exit_status = 3


class IncompatibleOrderError(StackygitError):
    code = "incompatible-order"


class VariableMismatchError(StackygitError):
    code = "variable-mismatch"


class ArityError(StackygitError):
    code = "arity-error"


class ZeroFormError(StackygitError):
    code = "zero-form"


class IndivisibleWeightError(StackygitError):
    code = "indivisible-weight"


class EmptyPresentationError(StackygitError):
    code = "empty-presentation"


class CommonFactorError(StackygitError):
    code = "common-factor"


class ShapeError(StackygitError):
    code = "relation-shape"


class ConditionViolationError(StackygitError):
    """A weight condition for the two-sheeted ring shape fails."""

    code = "condition-violation"

    def __init__(self, condition, message):
        super().__init__(message)
        self.condition = condition


class NotWellFormedError(StackygitError):
    code = "not-well-formed"


class UnknownGeneratorError(StackygitError):
    code = "unknown-generator"


class InhomogeneousError(StackygitError):
    code = "inhomogeneous"


class WeightMismatchError(StackygitError):
    code = "weight-mismatch"


class NoGroundFormsError(StackygitError):
    code = "no-ground-forms"


class InfiniteStabilizerError(StackygitError):
    code = "infinite-stabilizer"


class UnknownCaseError(StackygitError):
    code = "unknown-case"


class UnknownFamilyError(StackygitError):
    code = "unknown-family"


class WrongDegreeError(StackygitError):
    code = "wrong-degree"


class NonStableError(StackygitError):
    code = "non-stable"


class ZeroParameterError(StackygitError):
    code = "zero-parameter"


class OrderTooLargeError(StackygitError):
    code = "transvectant-order"


class UnderDeterminedError(StackygitError):
    code = "under-determined"


class ParseError(StackygitError):
    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(StackygitError):
    code = "unknown-identifier"


class RingSpecError(StackygitError):
    code = "ringspec-error"
