"""Exception hierarchy for kinterp."""


class KinterpError(Exception):
    """Base class for all kinterp errors."""


class RangeError(KinterpError):
    """A value left the representable positive range (overflow/underflow)."""


class DivergentIntegralError(KinterpError):
    """An integral required to be finite was detected to diverge."""


class MembershipError(KinterpError):
    """min(1, t) does not belong to the requested function-norm space."""


class InvariantViolation(KinterpError):
    """A profile or report failed a structural invariant check."""


class EmptyCandidateError(KinterpError):
    """Every candidate decomposition had infinite cost."""


class ScenarioError(KinterpError):
    """A scenario file failed validation; message carries the field path."""
