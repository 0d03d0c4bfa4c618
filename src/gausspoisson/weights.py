"""Polynomial weights ``(1 + |x|)^k`` and the discretized weighted norms.

The weighted space is declared through :class:`SpaceSpec`: a weight exponent
plus a base-space kind (sup-norm flavored BUC/C0, or an integral Lp norm).
On a truncated grid, sup norms become lattice maxima and Lp integrals become
Riemann sums with uniform cell volume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid_field import Field, interior_slices

__all__ = [
    "Weight",
    "SpaceKind",
    "SpaceSpec",
    "WeightSlacks",
    "weight_eval",
    "weight_inequality_check",
    "weighted_norm",
    "difference_norm",
]


@dataclass(frozen=True)
class Weight:
    """The radial polynomial weight ``w(x) = (1 + |x|)^k``, finite ``k >= 0``."""

    k: float

    def __post_init__(self):
        if not 0 <= self.k < np.inf:
            raise ValueError(f"weight exponent must be finite and >= 0, got {self.k}")

    def __call__(self, x) -> np.ndarray:
        return weight_eval(self.k, x)


class SpaceKind(enum.Enum):
    BUC = "BUC"
    C0 = "C0"
    LP = "Lp"


@dataclass(frozen=True)
class SpaceSpec:
    """Declaration of a weighted space: weight exponent, base kind, and p.

    BUC and C0 share the discrete sup norm; the kind only records which test
    fields a verification suite admits.  Membership of a sampled field in the
    declared base space is never checked.
    """

    weight: Weight
    kind: SpaceKind = SpaceKind.BUC
    p: float | None = None

    def __post_init__(self):
        if self.kind is SpaceKind.LP:
            if self.p is None or not self.p >= 1:
                raise ValueError(f"Lp spaces need p >= 1, got p={self.p}")
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for Lp spaces, got kind={self.kind}")

    @staticmethod
    def make(k: float, kind: str = "BUC", p: float | None = None) -> "SpaceSpec":
        """Convenience constructor from plain values, e.g. ``make(2, "Lp", 2)``."""
        kind_map = {"BUC": SpaceKind.BUC, "C0": SpaceKind.C0, "LP": SpaceKind.LP}
        key = kind.upper()
        if key not in kind_map:
            raise ValueError(f"unknown space kind {kind!r}; expected BUC, C0 or Lp")
        return SpaceSpec(Weight(float(k)), kind_map[key], None if p is None else float(p))

    @property
    def k(self) -> float:
        return self.weight.k


def weight_eval(k: float, x) -> np.ndarray | float:
    """Evaluate ``(1 + |x|_2)^k`` at one point or an array of points.

    ``x`` is a single point (1-d array of coordinates, or a scalar for n=1)
    or an array of points with coordinates along the last axis.
    """
    if not k >= 0:
        raise ValueError(f"weight exponent must be >= 0, got {k}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        r = np.abs(x)
    else:
        r = np.sqrt(np.sum(x**2, axis=-1))
    return (1.0 + r) ** k


@dataclass(frozen=True)
class WeightSlacks:
    """Signed slacks of the four pointwise weight inequalities.

    Each entry is nonnegative exactly when the corresponding relation holds:

    * ``lower``: ``w(x+y) - 1``
    * ``submultiplicative``: ``w(x) w(y) - w(x+y)``
    * ``translation``: ``w(x-y) w(x) - w(y)``
    * ``ratio``: ``w(y) (w(y) - 1) - |w(x+y)/w(x) - 1|``
    """

    lower: float
    submultiplicative: float
    translation: float
    ratio: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lower, self.submultiplicative, self.translation, self.ratio])

    def min(self) -> float:
        return float(self.as_array().min())


def weight_inequality_check(k: float, x, y) -> WeightSlacks:
    """Signed slacks of the weight inequalities at a point pair ``(x, y)``."""
    wxy = float(weight_eval(k, np.asarray(x, float) + np.asarray(y, float)))
    wxmy = float(weight_eval(k, np.asarray(x, float) - np.asarray(y, float)))
    wx = float(weight_eval(k, x))
    wy = float(weight_eval(k, y))
    return WeightSlacks(
        lower=wxy - 1.0,
        submultiplicative=wx * wy - wxy,
        translation=wxmy * wx - wy,
        ratio=wy * (wy - 1.0) - abs(wxy / wx - 1.0),
    )


def weighted_norm(f: Field, s: SpaceSpec, margin: float = 0.0) -> float:
    """Discrete weighted norm of a field: the norm of ``f/w`` in the base kind.

    BUC/C0: max over lattice points of ``|f(x)|_{C^m} / w(x)``.  Lp: Riemann
    sum ``(sum (|f(x)|/w(x))^p h^n)^{1/p}``.  A positive ``margin`` restricts
    the norm to the interior window (that fraction excluded per side).
    """
    g = f.grid
    if g.size == 0:
        raise ValueError("empty grid")
    sl = interior_slices(g, margin) if margin > 0 else (slice(None),) * g.n
    mag = np.sqrt(np.sum(np.abs(f.values[sl]) ** 2, axis=-1))
    # the weight on the window only; at k=0 it is 1 and the quotient is mag
    quotient = mag / (1.0 + np.sqrt(g.squared_norms[sl])) ** s.k if s.k else mag
    if s.kind in (SpaceKind.BUC, SpaceKind.C0):
        return float(quotient.max())
    return float(np.sum(quotient**s.p) * g.cell_volume) ** (1.0 / s.p)


def difference_norm(a: Field, b: Field, s: SpaceSpec, margin: float = 0.0) -> float:
    """:func:`weighted_norm` of the difference ``a - b`` of two fields on one grid."""
    return weighted_norm(a.with_values(a.values - b.values), s, margin=margin)
