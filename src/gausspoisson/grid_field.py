"""Sampled vector-valued functions on truncated uniform grids.

A :class:`Grid` is the uniform lattice on ``[-L, L]^n`` with ``N`` points per
axis.  A :class:`Field` holds one complex ``C^m`` value per lattice point and
is the discrete stand-in for a function ``R^n -> C^m``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "sample",
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
        if not 0 < self.L < np.inf:
            raise ValueError(f"grid half-extent must be positive and finite, got {self.L}")
        if not np.isfinite(self.n * self.L * self.L):
            raise ValueError(f"grid half-extent {self.L} is too large: n*L^2 overflows at n={self.n}")
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
    def squared_norms(self) -> np.ndarray:
        """``|x|^2`` at every lattice point, shape ``(N,)*n``."""
        out = squared_norm(np.ix_(*(self.axis,) * self.n))
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
        out = squared_norm(np.ix_(*(self.fourier_axis,) * self.n))
        out.setflags(write=False)
        return out


def make_grid(n: int, L: float, N: int) -> Grid:
    """Build the uniform lattice on ``[-L, L]^n`` with ``N`` points per axis."""
    return Grid(n=int(n), L=float(L), N=int(N))


def squared_norm(X) -> np.ndarray:
    """``|x|^2`` of per-axis coordinates: ``X`` holds ``n`` arrays that
    broadcast together, such as the open mesh :func:`sample` passes to a
    rule (an array whose first axis runs over the coordinates is one too)."""
    return reduce(np.add, (np.asarray(c, dtype=float) ** 2 for c in X))


@dataclass(frozen=True)
class Field:
    """A sampled function ``R^n -> C^m`` on a :class:`Grid`.

    ``values`` has shape ``grid.shape + (m,)`` and complex dtype.  A purely
    spatial array (no trailing component axis) is accepted and treated as
    scalar-valued, ``m = 1``.  Values are frozen after construction; all
    operations return new fields, so :attr:`spectrum` never goes stale.
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

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The DFT of ``values`` over the grid axes, read-only, made on first
        use: every spectral operator on this field shares this one transform."""
        out = np.fft.fftn(self.values, axes=tuple(range(self.grid.n)))
        out.setflags(write=False)
        return out

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def sample(grid: Grid, rule: Callable[[tuple], np.ndarray]) -> Field:
    """Sample a pointwise rule at every lattice point.

    The rule receives the coordinates per axis as an open mesh,
    ``np.ix_(*(grid.axis,) * grid.n)``: ``n`` arrays, the ``j``-th holding
    the axis along dimension ``j`` and of length 1 along the others.  Its
    values are broadcast to ``grid.shape`` (scalar), or to
    ``grid.shape + (m,)`` when they have one more axis than the grid.
    Non-finite outputs are rejected with the offending point reported.
    """
    vals = np.asarray(rule(np.ix_(*(grid.axis,) * grid.n)), dtype=complex)
    shape = grid.shape + vals.shape[grid.n :]
    return Field(grid, vals if vals.shape == shape else np.broadcast_to(vals, shape))


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer ``>= target``, a fast length for the
    pocketfft behind ``numpy.fft`` (``scipy.fft.next_fast_len(target, False)``)."""
    size = max(target, 1)
    while True:
        rest = size
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


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
# x1,...,xn,re_1,im_1,...,re_m,im_m, CRLF line ends.  Each value is the
# shortest decimal that reads back to the same double, as orjson writes it
# (Ryu): ``0.1``, ``1.0``, ``-0.0``, ``1e16``, ``5e-324``.

# Rows per block: bounds the write's temporaries.
_CSV_BLOCK_ROWS = 4096


def _csv_header(n: int, m: int) -> str:
    """The field CSV header ``x1,...,xn,re_1,im_1,...,re_m,im_m``."""
    return ",".join([f"x{i + 1}" for i in range(n)] + [f"{part}_{c + 1}" for c in range(m) for part in ("re", "im")])


def _lattice_coordinates(g: Grid, start: int, stop: int) -> np.ndarray:
    """The points of rows ``start`` to ``stop`` of the row-major lattice,
    shape ``(stop - start, n)``: coordinate ``j`` of row ``r`` is
    ``axis[(r // N^(n-1-j)) % N]``."""
    return g.axis[np.stack(np.unravel_index(np.arange(start, stop), g.shape), axis=1)]


def write_field_csv(f: Field, path) -> None:
    """Write ``f`` to ``path`` as a field CSV: the header
    ``x1,...,xn,re_1,im_1,...,re_m,im_m``, then one line per lattice point in
    row-major order, each value as the shortest decimal that reads back to
    the same double, CRLF line ends."""
    import orjson  # imported on use: only field CSV I/O needs it

    g = f.grid
    # complex values viewed as floats are re_1, im_1, ..., re_m, im_m
    values = f.values.reshape(-1, f.m).view(float)
    with open(path, "wb") as fh:
        fh.write((_csv_header(g.n, f.m) + "\r\n").encode())
        for start in range(0, g.size, _CSV_BLOCK_ROWS):
            block = values[start : start + _CSV_BLOCK_ROWS]
            block = np.concatenate([_lattice_coordinates(g, start, start + len(block)), block], axis=1)
            # [[a,b],[c,d]] -> a,b CRLF c,d CRLF
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
            fh.write(b"\r\n".join(text[2:-2].split(b"],[")) + b"\r\n")


# -- CSV reading --------------------------------------------------------------
#
# The body is read in pieces of about ``_READ_PIECE`` bytes cut at a line end
# and parsed by orjson: one ``orjson.loads`` of ``[`` + the piece with its line
# ends made commas + ``]`` per piece, copied into the value array, which a
# first pass that counts the lines sizes.  orjson rounds each decimal
# correctly; ``-0``, which earlier versions wrote for a negative zero, is a
# JSON integer whose sign orjson drops, so each zero takes the sign of its
# text.

# Bytes per piece.  A piece's text, its values as Python floats and their
# array are alive together, about 0.4 MB.
_READ_PIECE = 1 << 16
_NUMBER_BYTES = b"0123456789.+-eE,\r\n"


def _json_piece(piece: bytes, cols: int, row: int = 1) -> np.ndarray:
    """The ``(lines, cols)`` values of ``piece``: whole lines, each ended by
    an LF or CRLF and holding ``cols`` JSON numbers.  Raises ``ValueError``
    naming the first line that does not, counted from ``row``."""
    import orjson  # imported on use: only field CSV I/O needs it

    text = np.frombuffer(piece, np.uint8)
    # each cell ends at a comma or LF
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    line_end = text[ends] == ord("\n")
    lines = np.count_nonzero(line_end)
    try:
        # orjson takes spaces, tabs and CRs between cells: only number bytes
        # are let through, a CR only right before an LF, and an LF at every
        # cols-th cell end and nowhere else
        if (
            piece.translate(None, _NUMBER_BYTES)
            or np.count_nonzero(text == ord("\r")) != np.count_nonzero(text[ends[line_end] - 1] == ord("\r"))
            or len(ends) != lines * cols
            or not line_end[cols - 1 :: cols].all()
        ):
            raise ValueError
        cells = orjson.loads(b"[" + piece.replace(b"\n", b",")[:-1] + b"]")
        values = np.fromiter(cells, float, len(cells)).reshape(lines, cols)  # a lone blank line is "[]"
    except ValueError:  # orjson.JSONDecodeError is one too
        if lines > 1:  # the first bad line raises, naming its own row
            for i, line in enumerate(piece[:-1].split(b"\n")):
                _json_piece(line + b"\n", cols, row + i)
        raise ValueError(f"data row {row} is not {cols} comma-separated JSON numbers") from None
    flat = values.reshape(-1)
    zeros = np.flatnonzero(flat == 0)
    if zeros.size:  # -0 is a JSON integer, read as 0
        starts = np.where(zeros > 0, ends[zeros - 1] + 1, 0)
        flat[zeros[text[starts] == ord("-")]] = -0.0
    return values


def read_field_csv(path) -> Field:
    """The field stored at ``path`` by :func:`write_field_csv`, bit for bit.

    The file must be in the writer's format: its header, with ``n >= 1``
    coordinates and ``m >= 1`` components, then one line of ``n + 2m`` JSON
    numbers per lattice point, each ended by an LF or CRLF (the last one
    optional), whose coordinates are a row-major uniform lattice on
    ``[-L, L]^n`` (within ``1e-12 * max(1, L)``).  Raises ``ValueError`` for
    any other file, naming the data row, counted from 1, where the body
    leaves that format.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        header = line.removesuffix(b"\n").removesuffix(b"\r").decode(errors="replace")
        names = header.split(",")
        n = sum(1 for name in names if name.startswith("x"))
        m = (len(names) - n) // 2
        if n < 1 or m < 1 or header != _csv_header(n, m):
            raise ValueError(f"malformed field CSV header: {header[:200]!r}")
        rows = 0
        last = b"\n"
        while piece := fh.read(_READ_PIECE):
            rows += np.count_nonzero(np.frombuffer(piece, np.uint8) == ord("\n"))
            last = piece[-1:]
        rows += last != b"\n"  # a last line without its line end
        if rows == 0:
            raise ValueError(f"field CSV {path} has a header but no data rows")
        N = round(rows ** (1.0 / n))
        values = np.empty((rows, 2 * m))
        done = 0
        fh.seek(len(line))
        while piece := fh.read(_READ_PIECE):
            while b"\n" not in piece and (more := fh.read(_READ_PIECE)):
                piece += more  # a line longer than a piece
            if b"\n" not in piece:  # the end of the file ends the last line
                piece += b"\n"
            end = piece.rfind(b"\n") + 1
            fh.seek(end - len(piece), os.SEEK_CUR)
            table = _json_piece(piece[:end], n + 2 * m, done + 1)
            if done + len(table) > N**n:
                raise ValueError(f"{rows} rows do not form an N^{n} lattice")
            if done == 0:
                grid = make_grid(n, -table[0, 0], N)
                atol = 1e-12 * max(1.0, grid.L)
            gap = table[:, :n] - _lattice_coordinates(grid, done, done + len(table))
            if np.abs(gap, out=gap).max() > atol:
                raise ValueError("CSV coordinates are not a row-major uniform lattice")
            values[done : done + len(table)] = table[:, n:]
            done += len(table)
    if N**n != rows:
        raise ValueError(f"{rows} rows do not form an N^{n} lattice")
    vals = values.view(complex)  # keeps the sign of a zero
    return Field(grid, vals.reshape(grid.shape + (m,)))
