"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have invalid or incompatible dimensions."""


class OperatorError(ValueError):
    """A matrix fails a required operator property (Hermitian, unitary)."""


class NotAStateError(ValueError):
    """A matrix is not a valid density matrix."""


class NormalizationError(ValueError):
    """Coefficients or weights are not normalized."""


class NotCyclicError(ValueError):
    """A unitary does not commute with the reduced state it must preserve."""


class MergedLevelsError(NotCyclicError):
    """Levels of rho_B merged by eps_deg break the rotation form's cross-check."""


class ConsistencyError(RuntimeError):
    """Two quantities that must agree disagree beyond tolerance."""


class RecoveryError(RuntimeError):
    """Measurement-based reconstruction is ambiguous or inconsistent."""
