"""Samplers for the distribution families the posteriors are built from.

Student-t draws use the precision-mixture construction: if G ~ Gamma(df/2,
rate df/2) and Z is standard normal, then loc + sqrt(scale_sq) * Z / sqrt(G)
is t_df(loc, scale_sq).  This is exact for every df > 0, including the df in
(0, 2] range where inverse-CDF tables get delicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, InvalidParameterError
from .rng import RngStream

__all__ = [
    "TComponent",
    "sample_student_t",
    "sample_student_t_each",
    "sample_convolution",
    "sample_quantile",
]


@dataclass(frozen=True)
class TComponent:
    """Student-t distributions t_df(location, scale_sq) sharing one df.

    location and scale_sq are numbers, or arrays of one shape that hold one
    distribution per entry.  scale_sq = 0 denotes a point mass at the location.
    """

    df: float
    location: float | np.ndarray
    scale_sq: float | np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.df) and self.df > 0):
            raise InvalidParameterError(f"TComponent.df must be positive and finite, got {self.df}")
        if np.shape(self.location) != np.shape(self.scale_sq):
            raise InvalidParameterError("TComponent.location and scale_sq must have equal shapes")
        if not (np.isfinite(self.location).all() and np.isfinite(self.scale_sq).all()):
            raise InvalidParameterError("TComponent.location and scale_sq must be finite")
        if (np.asarray(self.scale_sq) < 0).any():
            raise InvalidParameterError("TComponent.scale_sq must be non-negative")


def _check_count(count: int) -> int:
    if int(count) != count or count < 1:
        raise InvalidParameterError(f"count must be a positive integer, got {count}")
    return int(count)


def _t_draws(g: np.random.Generator, comp: TComponent, shape) -> np.ndarray:
    """location + sqrt(scale_sq) * z / sqrt(gam), in place on z; a point mass draws nothing."""
    if np.ndim(comp.location) and np.shape(comp.location) != tuple(np.atleast_1d(shape)):
        raise InvalidParameterError(
            f"a TComponent of shape {np.shape(comp.location)} cannot give draws of shape {shape}"
        )
    if not np.any(comp.scale_sq):
        return np.full(shape, comp.location, dtype=float)
    z = g.standard_normal(shape)
    gam = g.gamma(comp.df / 2.0, 2.0 / comp.df, size=shape)
    z *= np.sqrt(comp.scale_sq)
    z /= np.sqrt(gam, out=gam)
    z += comp.location
    return z


def sample_student_t(comp: TComponent, count: int, rng: RngStream) -> np.ndarray:
    """Draw `count` independent samples from t_df(location, scale_sq)."""
    return _t_draws(rng.generator(), comp, _check_count(count))


def sample_student_t_each(
    df: float,
    locations: np.ndarray,
    scale_sqs: np.ndarray,
    rng: RngStream,
) -> np.ndarray:
    """One t_df(location_i, scale_sq_i) draw per (location, scale_sq) pair.

    Vectorised companion to :func:`sample_student_t` for posteriors whose
    per-draw parameters differ but share a degrees-of-freedom value.
    """
    comp = TComponent(df, np.asarray(locations, dtype=float), np.asarray(scale_sqs, dtype=float))
    return _t_draws(rng.generator(), comp, comp.location.shape)


def sample_convolution(
    a: TComponent, b: TComponent, count: int, rng: RngStream
) -> np.ndarray:
    """Draw from the convolution of two t components (elementwise sums)."""
    count = _check_count(count)
    g = rng.generator()
    total = _t_draws(g, a, count)
    total += _t_draws(g, b, count)
    return total


def sample_quantile(samples: np.ndarray, q: float | Sequence[float]) -> float | list[float]:
    """Type-7 (linear interpolation) sample quantile at level q in (0, 1).

    A sequence of levels gives a list, one value per level, from one
    partition of the samples.  The results are bit-identical to
    ``np.quantile``'s: the same virtual index (n - 1) q, a partition on the
    same kth indices, and the same interpolation formula.  ``np.quantile``
    itself would load ``numpy.ma`` on its first call, through ``np.unique``.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n == 0:
        raise EmptyInputError("sample_quantile requires a non-empty sample vector")
    levels = [q] if np.ndim(q) == 0 else list(q)
    spans = []
    for level in levels:
        if not (0.0 < level < 1.0):
            raise InvalidParameterError(f"quantile level must lie in (0, 1), got {level}")
        index = (n - 1) * float(level)
        # numpy takes the last element (index -1) at or past the top
        lo = -1 if index >= n - 1 else math.floor(index)
        spans.append((index, lo, -1 if lo == -1 else lo + 1))
    part = np.partition(samples, sorted({0, -1, *(i for span in spans for i in span[1:])}))
    values = []
    for index, lo, hi in spans:
        a, b, t = float(part[lo]), float(part[hi]), index - lo
        diff = b - a
        values.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    if math.isnan(part[-1]):  # NaN sorts last, and numpy returns it
        values = [math.nan] * len(values)
    return values[0] if np.ndim(q) == 0 else values
