"""Exception types shared across the package."""


class SeriesLMError(Exception):
    """Base class for all package errors."""


class InputError(SeriesLMError):
    """Malformed user input: bad CSV, bad config, unknown variables."""


class DesignError(SeriesLMError):
    """A design matrix cannot be built as requested."""


class RankDeficiencyError(SeriesLMError):
    """A regressor matrix is rank deficient at the working tolerance."""

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = list(columns) if columns is not None else []


class SingularMomentMatrixError(SeriesLMError):
    """The inner moment matrix of a quadratic-form statistic is singular."""


class ExactFitError(SeriesLMError):
    """The response is constant or fit by the null design to rounding level."""
