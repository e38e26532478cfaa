"""Exception types shared across the package."""


class PrMimoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PrMimoError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(PrMimoError, RuntimeError):
    """A dense linear-algebra routine failed to converge.

    The message states the Frobenius norm of the offending matrix, so
    failures on badly scaled inputs can be diagnosed from logs.
    """


class DegenerateChannelError(PrMimoError):
    """A channel combination cancels to zero and cannot be power-scaled."""


class CampaignError(PrMimoError, RuntimeError):
    """Too many Monte Carlo trials failed, or one raised a non-package error."""
