"""Exception types shared across the package."""


class GuasCertError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GuasCertError):
    """Operands have incompatible shapes."""


class NonFiniteInput(GuasCertError):
    """An input matrix has a NaN or infinite entry."""


class NotPositiveDefinite(GuasCertError):
    """A candidate Lyapunov matrix is not symmetric positive definite."""


class NoCommonWeakLyapunov(GuasCertError):
    """The supplied P is not a common weak quadratic Lyapunov matrix."""


class NotHurwitz(GuasCertError):
    """A system matrix fails the Hurwitz precondition."""


class StructureViolation(GuasCertError):
    """The block decomposition does not have the expected structure.

    Usually a sign that the pair was not properly normalized, or that a
    kernel rank decision was wrong.
    """


class InNullSpace(GuasCertError):
    """The feedback parameter is not unique (point lies in ker C0 ∩ ker C1)."""


class NotInF(GuasCertError):
    """Point is not in the vanishing-output cone."""


class DimensionTooLarge(GuasCertError):
    """Classification only applies to small kernel dimensions."""


class StepTooLarge(GuasCertError):
    """Integrator step failed its post-hoc error bound."""


class NoOutputs(GuasCertError):
    """Trajectory carries no recorded outputs."""


class BadSignalSpec(GuasCertError):
    """Unparseable switching-signal specification."""


class UnknownExample(GuasCertError):
    """Unrecognized built-in example name."""


class InternalInconsistency(GuasCertError):
    """Simulation evidence contradicts a theorem-backed certificate."""
