"""Sampled vector-valued functions on truncated uniform grids.

A :class:`Grid` is the uniform lattice on ``[-L, L]^n`` with ``N`` points per
axis.  A :class:`Field` holds one complex ``C^m`` value per lattice point and
is the discrete stand-in for a function ``R^n -> C^m``.  Pairing against
interior-supported test functions replaces distributional evaluation.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "sample",
    "translate",
    "pair",
    "test_function",
    "is_interior_supported",
    "interior_slices",
    "squared_norm",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform truncated lattice on ``[-L, L]^n``.

    Points along each axis are ``x_j = -L + j*h`` with ``h = 2L/(N-1)``.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid dimension must be >= 1, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"grid half-extent must be positive, got {self.L}")
        if self.N < 2:
            raise ValueError(f"grid needs at least 2 points per axis, got {self.N}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N**self.n

    @cached_property
    def axis(self) -> np.ndarray:
        ax = np.linspace(-self.L, self.L, self.N)
        ax.setflags(write=False)
        return ax

    @cached_property
    def points(self) -> np.ndarray:
        """All lattice points, shape ``(N,)*n + (n,)``, row-major order."""
        pts = np.stack(np.meshgrid(*(self.axis,) * self.n, indexing="ij"), axis=-1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """``|x|^2`` at every lattice point, shape ``(N,)*n``."""
        out = reduce(np.add.outer, (self.axis**2,) * self.n)
        out.setflags(write=False)
        return out

    @cached_property
    def fourier_axis(self) -> np.ndarray:
        """DFT frequencies per axis in the continuous convention (2 pi k / (N h))."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)
        xi.setflags(write=False)
        return xi

    @cached_property
    def fourier_squared_norms(self) -> np.ndarray:
        """``|xi|^2`` over the DFT frequency lattice, shape ``(N,)*n``."""
        out = reduce(np.add.outer, (self.fourier_axis**2,) * self.n)
        out.setflags(write=False)
        return out


def make_grid(n: int, L: float, N: int) -> Grid:
    """Build the uniform lattice on ``[-L, L]^n`` with ``N`` points per axis."""
    return Grid(n=int(n), L=float(L), N=int(N))


def squared_norm(x) -> np.ndarray:
    """``|x|^2`` of one point (a scalar is a 1-D point) or of an array of
    points with coordinates along the last axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return x**2
    return np.sum(x**2, axis=-1)


@dataclass(frozen=True)
class Field:
    """A sampled function ``R^n -> C^m`` on a :class:`Grid`.

    ``values`` has shape ``grid.shape + (m,)`` and complex dtype.  A purely
    spatial array (no trailing component axis) is accepted and treated as
    scalar-valued, ``m = 1``.  Values are frozen after construction; all
    operations return new fields.
    """

    grid: Grid
    values: np.ndarray
    meta: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape == self.grid.shape:
            vals = vals[..., np.newaxis]
        if vals.shape[:-1] != self.grid.shape or vals.ndim != self.grid.n + 1:
            raise ValueError(
                f"value array shape {vals.shape} does not match grid shape "
                f"{self.grid.shape} plus a component axis"
            )
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            point = tuple(self.grid.axis[i] for i in bad[:-1])
            raise ValueError(f"non-finite field value at grid point {point}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def with_values(self, values: np.ndarray, **meta) -> "Field":
        return Field(self.grid, values, meta=dict(meta))


def sample(grid: Grid, rule: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Sample a pointwise rule at every lattice point.

    The rule receives the point array of shape ``(N,)*n + (n,)`` and must
    return values of shape ``(N,)*n`` (scalar) or ``(N,)*n + (m,)``.
    Non-finite outputs are rejected with the offending point reported.
    """
    vals = np.asarray(rule(grid.points), dtype=complex)
    return Field(grid, vals)


def translate(f: Field, shift: Sequence[int]) -> Field:
    """Shift a field by an integer lattice vector, zero-filling off the grid.

    The result ``g`` satisfies ``g(x) = f(x + shift*h)`` wherever the shifted
    point stays on the grid; points shifted outside ``[-L, L]^n`` read as 0.
    """
    g = f.grid
    shift = np.asarray(shift, dtype=int)
    if shift.shape != (g.n,):
        raise ValueError(f"shift must be an integer vector of length {g.n}")
    if np.any(np.abs(shift) >= g.N):
        raise ValueError(f"shift {tuple(shift)} exceeds grid size {g.N}")
    out = np.zeros_like(f.values)
    dst, src = [], []
    for s in shift:
        lo, hi = max(0, -s), min(g.N, g.N - s)
        dst.append(slice(lo, hi))
        src.append(slice(lo + s, hi + s))
    out[tuple(dst)] = f.values[tuple(src)]
    return Field(g, out)


def pair(f: Field, phi: Field) -> np.ndarray:
    """Quadrature pairing ``sum_x f(x) phi(x) h^n``, the discrete ``∫ f φ dx``.

    ``phi`` must be scalar-valued and live on the same grid.  Returns a
    complex vector of length ``f.m``.  No conjugation is applied.
    """
    if phi.grid != f.grid:
        raise ValueError("field and test function live on different grids")
    if phi.m != 1:
        raise ValueError("test functions must be scalar-valued")
    spatial = tuple(range(f.grid.n))
    return np.sum(f.values * phi.values, axis=spatial) * f.grid.cell_volume


def is_interior_supported(f: Field, layers: int = 2) -> bool:
    """True iff the outermost ``layers`` lattice layers are exactly zero."""
    if layers < 1 or 2 * layers >= f.grid.N:
        raise ValueError(f"{layers} boundary layers do not fit a grid of {f.grid.N} points")
    inner = (slice(layers, f.grid.N - layers),) * f.grid.n
    mask = np.ones(f.grid.shape, dtype=bool)
    mask[inner] = False
    return not np.any(f.values[mask])


def test_function(grid: Grid, rule: Callable[[np.ndarray], np.ndarray], layers: int = 2) -> Field:
    """Sample a scalar rule and certify interior support.

    Raises if the rule is nonzero anywhere on the outermost ``layers`` grid
    layers; compactly supported rules (see :mod:`gausspoisson.fields`) vanish
    there exactly.
    """
    phi = sample(grid, rule)
    if phi.m != 1:
        raise ValueError("test functions must be scalar-valued")
    if not is_interior_supported(phi, layers):
        raise ValueError(f"rule does not vanish on the outermost {layers} grid layers")
    return phi


def interior_slices(grid: Grid, margin: float) -> tuple[slice, ...]:
    """Per-axis slices excluding a boundary margin (fraction of each side)."""
    if not 0.0 <= margin < 0.5:
        raise ValueError(f"interior margin must lie in [0, 0.5), got {margin}")
    b = int(np.ceil(margin * (grid.N - 1)))
    if 2 * b >= grid.N:
        raise ValueError(f"interior margin {margin} leaves no points of a grid with N={grid.N}")
    return (slice(b, grid.N - b),) * grid.n


# -- CSV serialization --------------------------------------------------------
#
# One grid point per line in row-major lattice order, header
# x1,...,xn,re_1,im_1,...,re_m,im_m, 17 significant digits, CRLF line ends.

# Rows formatted per ``%`` call: bounds the size of the text held in memory,
# and a block of this size formats faster than the whole table at once.
_CSV_BLOCK_ROWS = 4096


def write_field_csv(f: Field, path) -> None:
    g = f.grid
    header = [f"x{i + 1}" for i in range(g.n)] + [f"{part}_{c + 1}" for c in range(f.m) for part in ("re", "im")]
    # complex values viewed as floats are re_1, im_1, ..., re_m, im_m
    table = np.concatenate([g.points.reshape(-1, g.n), f.values.reshape(-1, f.m).view(float)], axis=1)
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(table, range(_CSV_BLOCK_ROWS, len(table), _CSV_BLOCK_ROWS)):
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_field_csv(path) -> Field:
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is rejected below
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    n = sum(1 for name in header if name.startswith("x"))
    m = (len(header) - n) // 2
    if n < 1 or m < 1 or len(header) != n + 2 * m:
        raise ValueError(f"malformed field CSV header: {header}")
    total = data.shape[0]
    if total == 0:
        raise ValueError(f"field CSV {path} has a header but no data rows")
    N = round(total ** (1.0 / n))
    if N**n != total:
        raise ValueError(f"{total} rows do not form an N^{n} lattice")
    coords = data[:, :n]
    L = -coords[0, 0]
    grid = make_grid(n, L, N)
    expect = grid.points.reshape(-1, n)
    if not np.allclose(coords, expect, rtol=0.0, atol=1e-12 * max(1.0, L)):
        raise ValueError("CSV coordinates are not a row-major uniform lattice")
    vals = np.ascontiguousarray(data[:, n:]).view(complex)  # keeps the sign of a zero
    return Field(grid, vals.reshape(grid.shape + (m,)))
