"""Exception taxonomy shared by all tdl modules.

Validation-style failures (bad files, bad configs, bad shapes) map to CLI
exit code 1; numeric failures (divergence, gradient-check) map to exit
code 2.
"""


class TdlError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TdlError):
    """A binary or JSON artifact does not conform to its on-disk format."""


class ValidationError(TdlError):
    """A value violates a documented invariant (non-finite entries,
    nonzero padding, empty input, ...)."""


class ShapeError(TdlError):
    """Array shapes or sizes are inconsistent with the operation."""


class ConfigError(TdlError):
    """A configuration is internally inconsistent or degenerate."""


class AnnotationError(TdlError):
    """Segment annotations overlap, leave gaps, or are otherwise malformed."""


class MetricError(TdlError):
    """A metric is undefined for the given pool (e.g. single-class EER)."""


class NumericError(TdlError):
    """A computation produced non-finite values."""


def brief(value, width: int = 80) -> str:
    """repr(value) for an error message, cut to ``width`` characters plus
    "..." so that a huge input cannot make a huge message."""
    text = repr(value)
    return text if len(text) <= width else text[:width] + "..."
