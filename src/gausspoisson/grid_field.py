"""Sampled vector-valued functions on truncated uniform grids.

A :class:`Grid` is the uniform lattice on ``[-L, L]^n`` with ``N`` points per
axis.  A :class:`Field` holds one complex ``C^m`` value per lattice point and
is the discrete stand-in for a function ``R^n -> C^m``.
"""

from __future__ import annotations

import os
import warnings
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

# Rows per block: bounds the write's and the read's temporaries.
_CSV_BLOCK_ROWS = 4096


def _csv_header(n: int, m: int) -> str:
    """The field CSV header ``x1,...,xn,re_1,im_1,...,re_m,im_m``."""
    return ",".join([f"x{i + 1}" for i in range(n)] + [f"{part}_{c + 1}" for c in range(m) for part in ("re", "im")])


def write_field_csv(f: Field, path) -> None:
    """Write ``f`` to ``path`` as a field CSV: the header
    ``x1,...,xn,re_1,im_1,...,re_m,im_m``, then one line per lattice point in
    row-major order, each value as the shortest decimal that reads back to
    the same double, CRLF line ends."""
    import orjson  # imported on use: only field CSV I/O needs it

    g = f.grid
    # complex values viewed as floats are re_1, im_1, ..., re_m, im_m
    values = f.values.reshape(-1, f.m).view(float)
    # coordinate j of row r is axis[(r // N^(n-1-j)) % N]
    strides = g.N ** np.arange(g.n - 1, -1, -1)
    with open(path, "wb") as fh:
        fh.write((_csv_header(g.n, f.m) + "\r\n").encode())
        for start in range(0, g.size, _CSV_BLOCK_ROWS):
            block = values[start : start + _CSV_BLOCK_ROWS]
            rows = np.arange(start, start + len(block))[:, None]
            block = np.concatenate([g.axis[rows // strides % g.N], block], axis=1)
            # [[a,b],[c,d]] -> a,b CRLF c,d CRLF
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
            fh.write(b"\r\n".join(text[2:-2].split(b"],[")) + b"\r\n")


# -- CSV reading --------------------------------------------------------------
#
# ``np.loadtxt`` converts each value on its own, holding the interpreter lock:
# about 0.45 s for a 263169x6 body.  A body of plain JSON numbers, which is
# what ``write_field_csv`` writes, is parsed by orjson instead, in pieces of
# about ``_READ_PIECE`` bytes cut at a line end: one ``orjson.loads`` of
# ``[`` + the piece with its line ends made commas + ``]`` per piece, into a
# table sized by a first pass that counts the lines.  orjson and loadtxt both
# round each decimal correctly; the one text they read differently is ``-0``,
# a JSON integer whose sign orjson drops, so each zero takes the sign of its
# text.  Any other body goes to loadtxt whole, so that every file keeps its
# result and every error its message: a byte outside the number alphabet
# (spaces, ``#``, ``inf``), a CR that does not end a line, a line with another
# column count, a cell that is not a JSON number (blank lines, ``+1``, ``1.``,
# ``.5``, ``01``), a value that overflows, or a line longer than a piece.

# Bytes per piece.  A piece's text, its values as Python floats and their
# array are alive together, about 0.4 MB.  256 KB pieces parse a 263169x6
# body a few per cent faster, but a read of a 257^2, m=2 field then peaks at
# 2.2 times its value array, against 1.8.
_READ_PIECE = 1 << 16
_NUMBER_BYTES = b"0123456789.+-eE,\r\n"


def _json_piece(piece: bytes, cols: int) -> np.ndarray | None:
    """The values of ``piece``, whole lines each ended by an LF, or None
    unless each line holds ``cols`` JSON numbers."""
    import orjson  # imported on use: only field CSV I/O needs it

    if piece.translate(None, _NUMBER_BYTES):
        return None
    text = np.frombuffer(piece, np.uint8)
    # each cell ends at a comma or LF; every cols-th end, and no other, is an LF
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    lines, extra = divmod(len(ends), cols)
    line_end = text[ends] == ord("\n")
    if extra or np.count_nonzero(line_end) != lines or not line_end[cols - 1 :: cols].all():
        return None
    # loadtxt ends a line at a lone CR
    if np.count_nonzero(text == ord("\r")) != np.count_nonzero(text[ends[cols - 1 :: cols] - 1] == ord("\r")):
        return None
    try:
        values = np.array(orjson.loads(b"[" + piece.replace(b"\n", b",")[:-1] + b"]"), dtype=float)
    except orjson.JSONDecodeError:
        return None
    zeros = np.flatnonzero(values == 0)
    if zeros.size:  # -0 is a JSON integer, read as 0
        starts = np.where(zeros > 0, ends[zeros - 1] + 1, 0)
        values[zeros[text[starts] == ord("-")]] = -0.0
    return values


def _json_table(path, header: str) -> np.ndarray | None:
    """The body of the field CSV at ``path``, whose first line is ``header``,
    as a float table parsed by orjson, or None if the body is not plain JSON
    numbers with the header's column count on every line."""
    cols = header.count(",") + 1
    head = header.encode()
    with open(path, "rb") as fh:
        if fh.readline(len(head) + 2) not in (head + b"\r\n", head + b"\n"):
            return None
        body = fh.tell()
        rows = 0
        last = b"\n"
        while piece := fh.read(_READ_PIECE):
            rows += np.count_nonzero(np.frombuffer(piece, np.uint8) == ord("\n"))
            last = piece[-1:]
        rows += last != b"\n"  # a last line without its line end
        table = np.empty((rows, cols))
        flat = table.reshape(-1)
        done = 0
        fh.seek(body)
        while piece := fh.read(_READ_PIECE):
            if len(piece) < _READ_PIECE and not piece.endswith(b"\n"):
                piece += b"\n"  # the end of the file ends the last line
            end = piece.rfind(b"\n") + 1
            if end == 0:  # a line longer than a piece
                return None
            fh.seek(end - len(piece), os.SEEK_CUR)
            values = _json_piece(piece[:end], cols)
            if values is None or done + values.size > flat.size:
                return None
            flat[done : done + values.size] = values
            done += values.size
    return table if done == flat.size else None


def read_field_csv(path) -> Field:
    """The field stored at ``path`` by :func:`write_field_csv`, bit for bit.

    The header must be the writer's, with ``n >= 1`` coordinates and
    ``m >= 1`` components, and the coordinates a row-major uniform lattice
    on ``[-L, L]^n`` (within ``1e-12 * max(1, L)``).  A body of plain JSON
    numbers is parsed by orjson, any other by ``np.loadtxt``, which also
    names the row of a malformed line.  Raises ``ValueError`` for a file
    that is not a field CSV.
    """
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
    n = sum(1 for name in names if name.startswith("x"))
    m = (len(names) - n) // 2
    if n < 1 or m < 1 or ",".join(names) != _csv_header(n, m):
        raise ValueError(f"malformed field CSV header: {names}")
    table = _json_table(path, _csv_header(n, m))
    if table is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: rejected below
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    rows = len(table)
    if rows == 0:
        raise ValueError(f"field CSV {path} has a header but no data rows")
    # loadtxt rejects a row whose column count differs from the first row's
    if table.shape[1] != len(names):
        raise ValueError(f"the number of columns changed from {len(names)} to {table.shape[1]} at row 1;")
    N = round(rows ** (1.0 / n))
    if N**n != rows:
        raise ValueError(f"{rows} rows do not form an N^{n} lattice")
    grid = make_grid(n, -table[0, 0], N)
    # axis by axis: column i of a row-major lattice runs over the axis along
    # its own dimension, constant along the others; one column-sized
    # temporary at a time
    atol = 1e-12 * max(1.0, grid.L)
    for i in range(n):
        gap = table[:, i].reshape(N**i, N, -1) - grid.axis[:, None]
        if not np.all(np.abs(gap, out=gap) <= atol):
            raise ValueError("CSV coordinates are not a row-major uniform lattice")
        del gap
    # the value columns move to the front of the table's own buffer; block
    # [a, b) lands below row b, so no row is overwritten before it is moved
    width = 2 * m
    flat = table.reshape(-1)
    for a in range(0, rows, _CSV_BLOCK_ROWS):
        b = min(a + _CSV_BLOCK_ROWS, rows)
        flat[a * width : b * width] = table[a:b, n:].ravel()
    del flat
    # no view of table is left (flat and the column slices are gone), so the
    # reference check, which a profile hook holding a bound method of table
    # trips, is off
    table.resize(rows * width, refcheck=False)
    vals = table.view(complex)  # keeps the sign of a zero
    return Field(grid, vals.reshape(grid.shape + (m,)))
