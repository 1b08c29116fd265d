"""Exception types shared across the pipeline.

Each class names one kind of refusal, and every stage raises the class that
names its failure, whatever the function. The CLI maps ``NonFiniteGradient``
to exit 4 and every other ``PipelineError`` to exit 3.

Where a refusal happened is three fields, not text: ``path``, ``frame``
(counted from 0) and ``place`` (a reader's ``line j`` or ``<name>.json``),
each None until the one layer that knows it sets it with :func:`at`:

* the encoders (``features``), ``augment.rotate_sequence`` and the
  ``Sequence`` check set ``frame``; the check's ValueError carries it too,
  with the cause alone as its text, and a refusal that wraps that
  ValueError takes its ``frame`` over;
* the two keypoint readers (``skeleton``) set all three;
* the CLI sets ``path`` to the input file it was working on, and for
  ``stream``, which encodes one frame at a time, ``frame`` as well.

``PipelineError.__str__`` is the one place that words them:
"<path>: frame <i> (<place>): <cause>", leaving out what is unset; a
``place`` is worded only beside its frame.
"""


def at(error: Exception, **where) -> Exception:
    """``error`` with each field in ``where`` (``path``, ``frame`` or ``place``) set on it.
    ``at(new, **vars(cause))`` carries the fields of a refusal's cause over to it."""
    vars(error).update(where)
    return error


class PipelineError(Exception):
    """Base class for every error raised by this package."""

    path = frame = place = None

    def __str__(self) -> str:
        frame = None if self.frame is None else f"frame {self.frame}" + (f" ({self.place})" if self.place else "")
        return ": ".join(str(part) for part in (self.path, frame, super().__str__()) if part is not None)


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

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"keypoint {index} is missing")


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
