"""Analytic domain transformation models G(x, e).

A model is two methods: `sample_codes(n, rng)` draws n environment codes
from the model's code distribution, and `apply_batch(X, codes)`
transforms row i of X under code i into an instance of the same
dimension: a rotation code is an angle, a colour code the colour's
scaled one-hot row.  `generate_batch` pairs each row with a freshly
sampled code, the way `constraints.dist_reg` uses G; training draws a
block of steps' codes with one `sample_codes` call and applies each
step's slice of them with `apply_batch`.  Learned (GAN-based)
transforms are out of scope; they would expose the same two methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictors import DimensionError


@dataclass(frozen=True)
class RotationModel:
    """Rotate the (i, j) coordinate plane by the code angle."""

    plane: tuple = (0, 1)
    angle_range: tuple = (0.0, 6.2831853)

    def __post_init__(self):
        if len(self.plane) != 2 or self.plane[0] == self.plane[1]:
            raise ValueError("plane must name two distinct coordinates")
        # a finite width hi - lo needs finite ends, and `uniform` needs it
        # finite and not negative
        if len(self.angle_range) != 2 or not 0.0 <= float(
                self.angle_range[1]) - float(self.angle_range[0]) < np.inf:
            raise ValueError("angle_range must be two finite numbers, "
                             "low first, with a finite width")

    def sample_codes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.angle_range
        return rng.uniform(lo, hi, size=(n, 1))

    def apply_batch(self, X: np.ndarray, codes: np.ndarray) -> np.ndarray:
        i, j = self.plane
        if i >= X.shape[1] or j >= X.shape[1]:
            raise DimensionError("rotation plane outside feature dimension")
        angles = codes[:, 0]
        c, s = np.cos(angles), np.sin(angles)
        out = X.copy()
        out[:, i] = c * X[:, i] - s * X[:, j]
        out[:, j] = s * X[:, i] + c * X[:, j]
        return out


@dataclass(frozen=True)
class ColorResampleModel:
    """Overwrite the color coordinates with a freshly sampled code.

    A code is the color's scaled one-hot row: one entry per color
    coordinate, `scale` at the color and 0 times `scale` elsewhere, and
    each coordinate is set to its entry.
    """

    indices: tuple
    scale: float = 1.0

    def sample_codes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        k = len(self.indices)
        # row j of scale * I is the code of color j
        return (self.scale * np.eye(k)).take(rng.integers(0, k, size=n),
                                             axis=0)

    def apply_batch(self, X: np.ndarray, codes: np.ndarray) -> np.ndarray:
        if max(self.indices) >= X.shape[1]:
            raise DimensionError("color index outside feature dimension")
        out = X.copy()
        for k, idx in enumerate(self.indices):
            out[:, idx] = codes[:, k]
        return out


def generate_batch(model, X: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """G(x, e) for each row x of X, with a fresh code e per row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return model.apply_batch(X, model.sample_codes(X.shape[0], rng))
