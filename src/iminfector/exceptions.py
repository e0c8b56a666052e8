"""Exception types shared across the pipeline.

The CLI maps these onto exit codes: format errors (3), numeric failures (4),
degenerate data (5).
"""


class CascadeFormatError(ValueError):
    """Base class for cascade/edge file format problems."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MalformedLine(CascadeFormatError):
    """Line does not match the expected field layout."""


class TimeOrderViolation(CascadeFormatError):
    """An event is stamped earlier than the cascade's start time."""


class EmptyCascade(CascadeFormatError):
    """A cascade has no events left after validation."""


class DegenerateSplit(ValueError):
    """A temporal split would leave the train or test side empty."""


class NonFiniteUpdate(ArithmeticError):
    """Training produced a non-finite loss or parameter; the run is aborted."""

    def __init__(self, message, epoch=None, step=None):
        loc = []
        if epoch is not None:
            loc.append(f"epoch {epoch}")
        if step is not None:
            loc.append(f"step {step}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.epoch = epoch
        self.step = step


class FormatVersionMismatch(IOError):
    """Binary artifact does not start with the expected magic bytes."""


class CorruptFile(IOError):
    """Binary artifact is truncated or internally inconsistent."""


class NonFiniteMatrix(ValueError):
    """A candidate's norm or diffusion probabilities overflow float64."""


class AllZeroNorms(ValueError):
    """Every candidate influencer embedding has zero norm; budgets undefined."""


class EmptyMatrix(ValueError):
    """Seed selection was asked to run over a matrix with no candidates."""
