"""Exception types shared across the package."""


class KochError(Exception):
    """Base class for all package errors."""


class LabelFormatError(KochError, ValueError):
    """Raised when a label string violates the grammar or an index bound."""


class LabelDomainError(KochError, ValueError):
    """Raised when an operation is undefined for the given label (e.g. father of a hub)."""


class UnknownLabelError(KochError, KeyError):
    """Raised when a label does not resolve to a vertex of the graph at hand."""


class SizeCapError(KochError, ValueError):
    """Raised when a requested build would exceed the vertex cap."""


class SettingError(KochError, ValueError):
    """Raised when an environment setting holds a value the package cannot use."""


class AnalysisError(KochError, ValueError):
    """Raised when an analysis has too little data to be meaningful."""
