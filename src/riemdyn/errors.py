"""Exception types shared across the package.

Every error raised by riemdyn derives from RiemdynError so callers can
catch the whole family at an API boundary. Subclasses are grouped by the
kind of precondition that failed rather than by the module that noticed.
"""

from __future__ import annotations


class RiemdynError(Exception):
    """Base class for all errors raised by this package."""


class ChartDomainError(RiemdynError):
    """A base point lies outside the chart's coordinate domain."""


class NonFiniteStateError(ChartDomainError):
    """A point has an infinite or NaN coordinate, so it lies in no chart."""


class SingularMetricError(RiemdynError):
    """The metric matrix at a point is singular or indefinite."""


class NumericOverflowError(RiemdynError):
    """A value computed at a finite point overflows the float range.

    Raised for a metric, a conformal factor or a determinant test whose
    Python float arithmetic overflowed.
    """


class NegativeNormError(RiemdynError):
    """A squared norm came out negative (indefinite metric data)."""


class ParseError(RiemdynError):
    """Expression source text could not be parsed.

    Attributes:
        offset: byte offset into the source where parsing failed.
        expected: sorted tuple of token descriptions that were legal there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(sorted(expected))


class EvalDomainError(RiemdynError):
    """An expression was evaluated outside its real domain.

    Raised for log of a non-positive value, sqrt of a negative value,
    division by zero, zero to a negative power, and non-integer powers
    of negative bases.
    """


class UnboundVariableError(RiemdynError):
    """An expression references a variable missing from its environment."""


class RankMismatchError(RiemdynError):
    """Tensor slots passed to a contraction do not pair up or variance clashes."""


class FDStepError(RiemdynError):
    """A finite-difference stencil would leave the chart domain."""


class InsufficientSamplesError(RiemdynError):
    """A curve operation needs at least three uniformly spaced samples."""


class MissingAccelError(RiemdynError):
    """A curve sample lacks the covariant acceleration a check requires."""


class ForceSingularError(RiemdynError):
    """A force field is undefined at the requested state."""


class SingularSetError(ForceSingularError):
    """A state lies on the declared singular set of a Lagrangian."""


class ZeroVelocityError(SingularSetError):
    """The velocity modulus is below the zero-velocity floor."""


class DegenerateLagrangianError(SingularSetError):
    """A radial derivative of the Lagrangian profile vanishes where it must not."""


class DegenerateWError(ForceSingularError):
    """The fiber derivative of a shift profile W vanishes at the state."""


class SingularAError(RiemdynError):
    """The fiber Hessian matrix is numerically singular at the state."""


class NonConvergenceError(RiemdynError):
    """An iterative solve exhausted its iteration budget.

    Attributes:
        residual: norm of the final residual when known.
        iterations: iterations performed.
    """

    def __init__(self, message: str, residual: float = float("nan"), iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConfigError(RiemdynError):
    """A CLI configuration document is malformed.

    Attributes:
        pointer: JSON-pointer-style path to the offending entry.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer
