"""Exception hierarchy shared across the package.

Every error raised by library code derives from SorimirError so the CLI can
turn any failure into a machine-readable JSON report with a stable type name.
"""


class SorimirError(Exception):
    """Base class for all library errors."""


# -- score ------------------------------------------------------------------

class MusicXmlParseError(SorimirError):
    """Malformed XML; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class StructureError(SorimirError):
    """Document is valid XML but violates the supported score structure."""


class UnsupportedStructureError(SorimirError):
    """Document uses an element outside the supported subset."""


class DanglingTieError(SorimirError):
    """A tie was started but never ended."""


# -- pitch tracks -----------------------------------------------------------

class EmptyTrackError(SorimirError):
    """No samples / no frames where at least one is required."""


class ConfigurationError(SorimirError):
    """Analysis parameters are inconsistent with each other or the input."""


class FormatError(SorimirError):
    """A text input (CSV) violates its format; carries the 1-based data row."""

    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)


class DomainError(SorimirError):
    """Numeric argument outside the mathematical domain of an operation."""


# -- beat grids -------------------------------------------------------------

class BeatValidationError(SorimirError):
    """Beat annotations do not form a complete grid; lists bad measures."""

    def __init__(self, message, measures=()):
        self.measures = tuple(measures)
        super().__init__(message)


class OrderingError(FormatError):
    """Annotation times are not strictly increasing."""


class BeatRangeError(SorimirError):
    """Queried beat/time lies outside the annotated grid (no extrapolation)."""


# -- analysis ---------------------------------------------------------------

class UndefinedAffinityError(SorimirError):
    """Mode affinity is undefined for a zero-mass histogram."""


class NotEnoughDataError(SorimirError):
    """Too little voiced data for a metric."""


class DependencyError(SorimirError):
    """A required per-daemok input (grid or track) is missing."""


# -- reporting --------------------------------------------------------------

class IncompatibleHistogramError(SorimirError):
    """Histograms cannot be drawn together (different bin kinds)."""


class IncompatibleContourError(SorimirError):
    """Contours cannot be overlaid (different sample counts)."""


class PipelineError(SorimirError):
    """A pipeline stage failed; names the stage and the daemok."""

    def __init__(self, stage, daemok_id, cause):
        self.stage = stage
        self.daemok_id = daemok_id
        self.cause = cause
        super().__init__(f"stage '{stage}' failed for daemok '{daemok_id}': {cause}")

    def __reduce__(self):  # pickled as its three arguments, which `args` does not hold
        return type(self), (self.stage, self.daemok_id, self.cause)


# The errors a pipeline stage or a CLI command reports; any other exception is a bug and keeps
# its traceback.
RECOVERABLE_ERRORS = (SorimirError, OSError, ValueError, MemoryError)
