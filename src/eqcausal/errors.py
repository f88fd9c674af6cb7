"""Exception types shared across the package."""


class EqcausalError(Exception):
    """Base class for all library errors."""


# --- expression graphs ---

class UnboundSlot(EqcausalError):
    """An input slot required by a graph was not bound at evaluation time."""


class ShapeMismatch(EqcausalError):
    """A vector or matrix does not have the declared dimension."""


class DomainError(EqcausalError):
    """An operation was evaluated outside its mathematical domain."""


# --- fixed-point solvers ---

class NonFiniteIterate(EqcausalError):
    """A solver iterate contains NaN or Inf (divergence)."""


class SingularLeastSquares(EqcausalError):
    """The unregularized Anderson least-squares system is singular."""


class ZeroNorm(EqcausalError):
    """Relative error is undefined at the zero vector."""


# --- models and implicit differentiation ---

class SpecValidationError(EqcausalError):
    """A model spec failed validation; diagnostics attached."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class NotConverged(EqcausalError):
    """A forward equilibrium required by a downstream computation did not converge."""


class ClampedModelSingular(EqcausalError):
    """The base model does not converge, or the clamped model's I - df/dx is ill-conditioned."""


# --- interventions ---

class InvalidGroupElement(EqcausalError, ValueError):
    """A Lie-group element lies outside its group, e.g. a non-positive multiplicative value."""


class MismatchedTargets(EqcausalError):
    """Group elements act on different target sets or group kinds."""


class PolicyArityMismatch(EqcausalError):
    """An auxiliary policy's input slots do not match the node it replaces."""


class InvalidPartition(EqcausalError):
    """A compartment plan's node sets do not partition the model."""


class TopologyViolation(EqcausalError):
    """A model's graph does not satisfy a constructor's structural requirements."""


# --- model zoo ---

class DimensionMismatch(EqcausalError):
    """Matrix/vector dimensions are inconsistent."""


class SingularMatrix(EqcausalError):
    """A dense linear solve hit a singular matrix."""


class SingularAdjoint(SingularMatrix):
    """The adjoint system I - df/dx is singular, ill-conditioned or gave a non-finite solution."""


class SingularParameterization(EqcausalError):
    """Model parameters sit exactly on a non-solvable manifold."""


# --- optimization ---

class NonFiniteGradient(EqcausalError):
    """A gradient passed to the optimizer contains NaN or Inf."""


class SolveFailedDuringOptimization(EqcausalError):
    """Equilibrium solving kept failing during an optimization run."""


# --- ingestion / configuration ---

class ParseError(EqcausalError):
    """A CSV or JSON input failed to parse; carries line/column context."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NegativeEntry(EqcausalError):
    """A table that must be nonnegative contains a negative cell."""


class SchemaError(EqcausalError):
    """An experiment config violates the published schema."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
