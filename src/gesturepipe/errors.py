"""Exception types shared across the pipeline.

Each class names one kind of refusal, and every stage raises the class that
names its failure, whatever the function. The CLI maps ``NonFiniteGradient``
to exit 4 and every other ``PipelineError`` to exit 3.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


# --- ingestion ---

class MalformedJson(PipelineError):
    pass


class NoPerson(PipelineError):
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


class EncodingMismatch(PipelineError):
    pass


# --- speed measurement ---

class TooShort(PipelineError):
    pass


class NoPeriod(PipelineError):
    pass


# --- augmentation / synthesis ---

class UnknownLabel(PipelineError):
    pass


class InvalidConfig(PipelineError):
    pass
