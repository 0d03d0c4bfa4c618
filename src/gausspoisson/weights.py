"""Polynomial weights ``(1 + |x|)^k`` and the discretized weighted norms.

The weighted space is declared through :class:`SpaceSpec`: a weight exponent
plus a base-space kind (sup-norm flavored BUC/C0, or an integral Lp norm).
On a truncated grid, sup norms become lattice maxima and Lp integrals become
Riemann sums with uniform cell volume.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid_field import Field, interior_slices, squared_norm

__all__ = [
    "SpaceKind",
    "SpaceSpec",
    "weight_eval",
    "weight_inequality_check",
    "weighted_norm",
    "difference_norm",
]


def _checked_exponent(k: float) -> float:
    """The package's one check of a weight exponent: finite and ``>= 0``."""
    if not 0 <= k < math.inf:
        raise ValueError(f"weight exponent must be finite and >= 0, got {k}")
    return k


def _weight(k: float, squared_norms) -> np.ndarray | float:
    """The package's one weight formula: ``(1 + |x|)^k`` from ``|x|^2``."""
    return (1.0 + np.sqrt(squared_norms)) ** _checked_exponent(k)


class SpaceKind(enum.Enum):
    BUC = "BUC"
    C0 = "C0"
    LP = "Lp"


@dataclass(frozen=True)
class SpaceSpec:
    """Declaration of a weighted space: weight exponent, base kind, and p.

    The weight is ``w(x) = (1 + |x|)^k`` with finite ``k >= 0``; Lp needs a
    finite ``p >= 1``.  BUC and C0 both use the sup norm on a grid, and no
    check depends on which of the two is declared.  Membership of a sampled
    field in the declared base space is never checked.
    """

    k: float
    kind: SpaceKind = SpaceKind.BUC
    p: float | None = None

    def __post_init__(self):
        _checked_exponent(self.k)
        if self.kind is SpaceKind.LP:
            if self.p is None or not 1 <= self.p < math.inf:
                raise ValueError(f"Lp spaces need a finite p >= 1, got p={self.p}")
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for Lp spaces, got kind={self.kind}")

    @staticmethod
    def make(k: float, kind: str = "BUC", p: float | None = None) -> "SpaceSpec":
        """Convenience constructor from plain values, e.g. ``make(2, "Lp", 2)``."""
        key = kind.upper()
        if key not in SpaceKind.__members__:
            raise ValueError(f"unknown space kind {kind!r}; expected BUC, C0 or Lp")
        return SpaceSpec(float(k), SpaceKind[key], None if p is None else float(p))


def weight_eval(k: float, X) -> np.ndarray | float:
    """Evaluate ``(1 + |x|_2)^k`` at per-axis coordinates ``X``, as
    :func:`squared_norm` takes them (one point is a vector of coordinates)."""
    return _weight(k, squared_norm(X))


def weight_inequality_check(k: float, x, y) -> np.ndarray:
    """Signed slacks of the four pointwise weight inequalities at point pairs.

    ``x`` and ``y`` are coordinate-first arrays, one pair or pairs along the
    trailing axes.  The slacks lie along a trailing axis of 4, each
    nonnegative exactly when its relation holds, in this order:

    * lower: ``w(x+y) - 1``
    * submultiplicative: ``w(x) w(y) - w(x+y)``
    * translation: ``w(x-y) w(x) - w(y)``
    * ratio: ``w(y) (w(y) - 1) - |w(x+y)/w(x) - 1|``
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    wxy, wxmy, wx, wy = (weight_eval(k, point) for point in (x + y, x - y, x, y))
    slacks = (wxy - 1.0, wx * wy - wxy, wxmy * wx - wy, wy * (wy - 1.0) - np.abs(wxy / wx - 1.0))
    return np.stack(slacks, axis=-1)


def _magnitude(values) -> np.ndarray:
    """The pointwise ``C^m`` norm over the trailing axis, by ``hypot``: no square is formed."""
    return functools.reduce(np.hypot, np.moveaxis(np.abs(values), -1, 0))


def weighted_norm(f: Field, s: SpaceSpec, margin: float = 0.0) -> float:
    """Discrete weighted norm of a field: the norm of ``q = |f|_{C^m} / w`` in
    the base kind, on the window that excludes a ``margin`` fraction per side.

    BUC/C0: the peak ``max q``.  Lp: the Riemann sum scaled by the peak,
    ``peak (sum (q/peak)^p h^n)^{1/p}``, so that no power overflows.
    """
    g = f.grid
    sl = interior_slices(g, margin)
    quotient = _magnitude(f.values[sl])
    if s.k:  # the weight on the window only; at k=0 it is 1
        quotient = quotient / _weight(s.k, g.squared_norms[sl])
    peak = float(quotient.max())
    if s.kind is not SpaceKind.LP or not 0 < peak < math.inf:  # 0 and inf are their own Lp norms
        return peak
    return peak * float(np.sum((quotient / peak) ** s.p) * g.cell_volume) ** (1.0 / s.p)


def difference_norm(a: Field, b: Field, s: SpaceSpec, margin: float = 0.0) -> float:
    """:func:`weighted_norm` of the difference ``a - b`` of two fields on one grid."""
    return weighted_norm(a.with_values(a.values - b.values), s, margin=margin)
