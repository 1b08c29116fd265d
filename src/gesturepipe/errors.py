"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


# --- ingestion ---

class MalformedJson(PipelineError):
    pass


class NoPerson(PipelineError):
    pass


class WrongArity(PipelineError):
    pass


class IoError(PipelineError):
    pass


# --- geometry / features ---

class DegenerateExtent(PipelineError):
    pass


class MissingKeypoint(PipelineError):
    """A keypoint required by the operation has confidence 0."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"keypoint {index} is missing")


class ZeroLengthRay(PipelineError):
    pass


# --- model ---

class ShapeMismatch(PipelineError):
    pass


class LabelOutOfRange(PipelineError):
    pass


class NonFiniteGradient(PipelineError):
    pass


class EmptyDataset(PipelineError):
    pass


class InconsistentShapes(PipelineError):
    pass


# --- streaming / speed measurement ---

class EncodingMismatch(PipelineError):
    pass


class LengthMismatch(PipelineError):
    pass


class TooShort(PipelineError):
    pass


class NotCyclic(PipelineError):
    pass


class NoPeriod(PipelineError):
    pass


# --- augmentation / synthesis ---

class UnknownLabel(PipelineError):
    pass


class InvalidConfig(PipelineError):
    pass


class NonPositiveRatio(PipelineError):
    pass
