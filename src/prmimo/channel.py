"""Uniform linear arrays, multi-path path sets and their steering.

The channel formula that combines them is ``pattern``'s, and the random
path sets are drawn by ``montecarlo.draw_paths``. All angles are
azimuths in radians; spacings are normalized to the carrier wavelength.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import require_integer, require_real

HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts and normalized element spacings at both ends.

    The transmit array is assumed at least as large as the receive array.
    The counts are integers; numpy integers become ``int``, and a
    ``bool`` or a float is rejected. The spacings are stored as ``float``.
    """

    n_t: int
    n_r: int
    spacing_t: float = 0.5
    spacing_r: float = 0.5

    def __post_init__(self):
        for name in ("n_t", "n_r"):
            # Through object, as the dataclass is frozen.
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n_r < 1 or self.n_t < self.n_r:
            raise InvalidInputError(f"need n_t >= n_r >= 1, got n_t={self.n_t}, n_r={self.n_r}")
        # Steering and coupling phases reach 2*pi*d*(n-1) times a sine
        # difference of up to 2; past that they overflow in every trial.
        for name, n in (("spacing_t", self.n_t), ("spacing_r", self.n_r)):
            spacing = require_real(getattr(self, name), name)
            if spacing <= 0:
                raise InvalidInputError(f"{name} must be positive")
            if not np.isfinite(4.0 * np.pi * spacing * (n - 1)):
                raise InvalidInputError(f"{name} is too large: its phase 4*pi*d*(n-1) overflows")
            object.__setattr__(self, name, spacing)


@dataclass
class PathSet:
    """Complex path gains with their departure and arrival azimuths (or T stacked).

    Gains are integers, floats or complex, azimuths integers or floats.
    """

    gains: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray

    def __post_init__(self):
        # Each array's type before its conversion, as ``Scenario`` checks its grid's.
        for name, number in (("gains", "real or complex"), ("aod", "real"), ("aoa", "real")):
            try:
                values = np.atleast_1d(np.asarray(getattr(self, name)))
            except ValueError:  # a ragged list, such as [[1, 2], [1]], fails the length rule
                values = np.empty(0)
            if values.dtype.kind not in ("iufc" if name == "gains" else "iuf"):
                raise InvalidInputError(f"path {name} must be {number}, got dtype {values.dtype}")
            setattr(self, name, values.astype(complex if name == "gains" else float, copy=False))
        shapes = {self.gains.shape, self.aod.shape, self.aoa.shape}
        if len(shapes) != 1 or self.gains.ndim > 2 or self.gains.size < 1:
            raise InvalidInputError("gains, aod and aoa must share one length >= 1")
        for name, values in (("gains", self.gains), ("aod", self.aod), ("aoa", self.aoa)):
            if not np.isfinite(values).all():
                raise InvalidInputError(f"path {name} must be finite")
        for name, angles in (("aod", self.aod), ("aoa", self.aoa)):
            if np.any(np.abs(angles) > HALF_PI):
                raise InvalidInputError(f"{name} angles must lie in [-pi/2, pi/2]")

    def __len__(self):
        return self.gains.shape[-1]


def steering_phases(n, spacing, angles):
    """Entry (..., k, l) is ``exp(-j*2*pi*spacing*k*sin(angles[..., l]))``.

    Over sqrt(n), the unit-norm steering matrices of the channel formula;
    the factored Gram matrix of ``prmimo.sof`` takes them unnormalized.
    """
    return np.exp(-2j * np.pi * spacing * (np.arange(n)[:, None] * np.sin(angles)[..., None, :]))
