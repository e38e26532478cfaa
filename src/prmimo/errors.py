"""Exception types shared across the package."""


class PrMimoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PrMimoError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(PrMimoError, RuntimeError):
    """The one error a Monte Carlo trial may fail with.

    An eigensolve that does not converge (the message states the matrix's
    Frobenius norm, so badly scaled inputs can be diagnosed from logs), or
    a weighted subchannel sum that cancels to zero.
    """


class CampaignError(PrMimoError, RuntimeError):
    """Too many Monte Carlo trials failed numerically, or one raised any other error."""
