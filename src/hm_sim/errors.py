"""Exception types shared across the package."""


class HmSimError(Exception):
    """Base class for all errors raised by hm_sim."""


class DimensionError(HmSimError, ValueError):
    """Invalid Hilbert-space dimension, or mismatched dimensions between objects."""


class InvalidStateError(HmSimError, ValueError):
    """A candidate state violates a state-space invariant.

    For Bloch vectors that do not map to a positive operator the offending
    minimum eigenvalue is attached as ``min_eigenvalue``.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ObservableError(HmSimError, ValueError):
    """Eigenstates fail orthogonality, or labels are inconsistent."""


class GeometryError(HmSimError, ValueError):
    """A point lies outside the expected geometric locus (affine hull, simplex)."""


class InvalidMembranePointError(GeometryError):
    """A point that should lie on the measurement membrane falls outside it."""


class ImpossibleOutcomeError(HmSimError, RuntimeError):
    """An outcome with zero quantum probability was sampled; signals a bug."""


class OracleMismatchError(HmSimError, RuntimeError):
    """The geometric and Hilbert-space probability routes disagree; signals a bug."""


class ConfigError(HmSimError, ValueError):
    """Malformed experiment configuration or command-line usage."""


class ReportSchemaError(HmSimError, RuntimeError):
    """A report fails its schema, or a schema holds a keyword left unchecked; signals a bug."""
