"""Exception types shared across the package."""


class PrMimoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PrMimoError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(PrMimoError, RuntimeError):
    """A dense linear-algebra routine failed to converge or collapsed.

    Carries the Frobenius norm of the offending matrix when available,
    so failures on badly scaled inputs can be diagnosed from logs.
    """

    def __init__(self, message, matrix_norm=None):
        super().__init__(message)
        self.matrix_norm = matrix_norm


class DegenerateChannelError(PrMimoError):
    """A channel combination collapsed to zero and cannot be power-scaled."""


class CampaignError(PrMimoError, RuntimeError):
    """Too many Monte Carlo trials failed, or one raised a non-package error."""
