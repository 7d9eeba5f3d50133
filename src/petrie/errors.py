"""Exception types shared across the package."""


class PetrieError(Exception):
    """Base class for all library errors."""


class MalformedPartition(PetrieError):
    """Input does not describe a partition (weakly decreasing positive parts)."""


class SizeMismatch(PetrieError):
    """Two partitions were expected to have the same size."""


class NotARimHook(PetrieError):
    """Skew shape is not a rim hook (edge-connected, no 2x2 block)."""


class NotASizeKRimHook(PetrieError):
    """Skew shape is not a rim hook of the required size."""


class TooManyParts(PetrieError):
    """Partition has too many parts for the requested abacus encoding."""


class PreconditionViolated(PetrieError):
    """Operation called outside its documented domain."""


class InternalInvariantFailure(PetrieError):
    """A structural property the code relies on failed; indicates a defect."""


class BlockViolation(InternalInvariantFailure):
    """Transition-matrix entry crosses two distinct k-core blocks."""
