"""Exception types shared across the package."""


class TSMambaError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(TSMambaError):
    pass


class InvalidConfig(TSMambaError):
    pass


class GraphError(TSMambaError):
    """Backward pass invoked on a tensor that is not a recorded scalar."""


class MissingGrad(TSMambaError):
    """Optimizer step on a trainable parameter whose grad slot is empty."""


class NonFiniteLoss(TSMambaError):
    """A training step's loss is NaN or infinite; raised before the update."""


class DegenerateWindow(TSMambaError):
    pass


class PatchLengthMismatch(TSMambaError):
    pass


class InsufficientPatches(TSMambaError):
    pass


class DataError(TSMambaError):
    pass


class ParseError(DataError):
    pass


class RaggedRows(DataError):
    pass


class CheckpointMismatch(TSMambaError):
    pass


class CorruptCheckpoint(TSMambaError):
    pass


class VersionMismatch(CorruptCheckpoint):
    pass


class ZeroVariance(UserWarning):
    """Train split channel with zero variance; std clamped to eps."""
