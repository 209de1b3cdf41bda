"""Exception types shared across the package."""


class QsobpError(Exception):
    """Base class for all package-specific errors."""


class NegativeEntryError(QsobpError):
    """A probability entry is below the negativity tolerance."""


class NotNormalizedError(QsobpError):
    """Probability entries do not sum to one within tolerance."""


class DimensionMismatchError(QsobpError):
    """Operands have incompatible dimensions."""


class SizeOverflowError(QsobpError):
    """A run's arrays, such as a configuration space's operator tensors or a grid's
    rows, would exceed their memory bound."""


class PartitionIndexError(QsobpError):
    """A cell index does not belong to the expected partition class."""


class FixedPointInputError(QsobpError):
    """A limit predictor was called with an initial point that is already fixed."""


class SchemaError(QsobpError):
    """A JSON document does not match the expected schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
