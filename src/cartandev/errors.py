"""Exception hierarchy shared by all cartandev modules."""


class CartandevError(Exception):
    """Base class for all library errors."""


class MalformedSpec(CartandevError):
    """An input description (algebra or manifold spec) is structurally invalid."""


class JacobiViolation(CartandevError):
    """Structure constants fail the Jacobi identity; names the offending triple."""


class GradingViolation(CartandevError):
    """A bracket lands outside the layer prescribed by the grading."""


class NotBracketGenerating(CartandevError):
    """Layer-1 brackets fail to span a higher layer."""


class DimensionMismatch(CartandevError):
    """Coefficient vectors disagree with the algebra dimension."""


class SurjectivityFailure(CartandevError):
    """The iterated-bracket map onto a layer is not surjective."""


class ClosureFailure(CartandevError):
    """An exact closure or complement certificate failed (internal bug guard)."""


class IntersectionNonTrivial(CartandevError):
    """The feasibility precondition of the Popp normal module fails.

    Carries a witness element of the nontrivial intersection.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExprSyntaxError(CartandevError):
    """Parse error in an expression string; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(CartandevError):
    """An expression references a name that is not a chart coordinate."""


class SingularFrame(CartandevError):
    """The frame matrix is singular at a sample point."""


class RankDrop(CartandevError):
    """The filtration ranks do not match the declared growth vector."""


class ModelMismatch(CartandevError):
    """Graded structure constants disagree with the declared model algebra."""


class Inconsistent(CartandevError):
    """The Popp divergence does not annihilate ker h: no connection develops.

    This is the necessity direction of the development theorem surfacing
    numerically. witness is (direction, point, value): a rational basis
    direction of ker h over X_1..X_k1, a sample point and the divergence
    contracted with the direction there; index is the 1-based frame index
    of the direction's largest entry.
    """

    def __init__(self, message, index=None, witness=None):
        super().__init__(message)
        self.index = index
        self.witness = witness


class StepTooLarge(CartandevError):
    """Group-law operations are only available through step 4."""


class NonFinite(CartandevError):
    """A Monte Carlo sample evaluated to NaN or infinity."""
