"""Sampled vector-valued functions on truncated uniform grids.

A :class:`Grid` is the uniform lattice on ``[-L, L]^n`` with ``N`` points per
axis.  A :class:`Field` holds one complex ``C^m`` value per lattice point and
is the discrete stand-in for a function ``R^n -> C^m``.
"""

from __future__ import annotations

import mmap
import os
import pickle
import shutil
import signal
import sys
import threading
from contextlib import contextmanager
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

# Reads and writes of at least this many rows are split across two processes
# (_in_child).  Split/serial time of an n=2, m=2 file, write | read, on a
# 2-vCPU VM (medians of 15 alternating rounds, range over three sweeps; the
# second ran the split slower at every size below 2^18): 2^13 rows 1.47-1.92 |
# 1.23-1.58, 2^14 1.07-1.68 | 0.91-1.63, 2^15 0.92-1.28 | 0.85-0.96, 2^16
# 0.83-1.42 | 0.75-1.12, 2^17 0.71-1.06 | 0.67-0.76, 2^18 0.68-0.79 | 0.60-0.72.
_SPLIT_MIN_ROWS = 1 << 16


@contextmanager
def _in_child(task):
    """Run ``task()`` in a forked child while the ``with`` body runs here
    (orjson holds the interpreter lock: threads would not share its work).
    Yields ``result``, which waits for the child and returns a stream of the
    bytes-like chunks ``task`` returned (none for a task that leaves its
    work in memory shared with the caller), or raises the child's exception
    again (a ``SystemExit``, or one that does not pickle, ends the child
    without a result); or ``None``, for the body to do all the work, when
    ``task`` is ``None`` or a fork is unsafe (not Linux; another thread,
    whose held locks the child would inherit), useless (one CPU) or fails.
    The child never returns into the caller, and it is reaped (killed first
    if the body raised) before the ``with`` block ends."""
    pid = None
    if task and sys.platform == "linux" and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid is None:
        yield None
        return
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:  # a status byte, then the result or the error
                try:
                    chunks = task()
                except Exception as exc:
                    out.write(b"\1" + pickle.dumps(exc))
                else:
                    out.write(b"\0")
                    out.writelines(chunks)
            code = 0
        finally:
            os._exit(code)
    os.close(w)

    def result():
        status = stream.read(1)
        if status != b"\0":
            raise pickle.loads(stream.read()) if status else ChildProcessError("the child ended without a result")
        return stream

    try:
        with open(r, "rb") as stream:
            yield result
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):  # a result cut short
        raise ChildProcessError(f"the child exited with status {code}")


def _csv_header(n: int, m: int) -> str:
    """The field CSV header ``x1,...,xn,re_1,im_1,...,re_m,im_m``."""
    return ",".join([f"x{i + 1}" for i in range(n)] + [f"{part}_{c + 1}" for c in range(m) for part in ("re", "im")])


def _lattice_coordinates(g: Grid, start: int, stop: int) -> np.ndarray:
    """The points of rows ``start`` to ``stop`` of the row-major lattice,
    shape ``(stop - start, n)``: coordinate ``j`` of row ``r`` is
    ``axis[(r // N^(n-1-j)) % N]``."""
    return g.axis[np.stack(np.unravel_index(np.arange(start, stop), g.shape), axis=1)]


def _csv_rows(g: Grid, values: np.ndarray, start: int, stop: int):
    """The CRLF-ended lines of rows ``start`` to ``stop``, one bytes object
    per block of up to ``_CSV_BLOCK_ROWS`` rows; ``values`` is the
    ``(rows, 2m)`` float view of the field's values.

    Every coordinate is a point of ``grid.axis``, and each axis point is
    formatted once per call; a block formats only its values, and at
    ``n = 1``, where no two rows share a coordinate, its rows' own points,
    so that no more than a block's texts are alive.  Row ``r`` is the text
    of its leading ``n - 1`` coordinates, one bytes object for the run of
    ``N`` rows ``r // N``, then that of ``axis[r % N]``, its values and
    CRLF, joined once per block."""
    import orjson  # imported on use: only field CSV I/O needs it

    N, dump = g.N, orjson.OPT_SERIALIZE_NUMPY

    def texts(points):  # each point's text, with the comma after it
        return (orjson.dumps(points, option=dump)[1:-1] + b",").replace(b",", b",\n").splitlines()

    # the N axis texts repeated: any block's last coordinates are one slice
    cycled = texts(g.axis) * (_CSV_BLOCK_ROWS // N + 2) if g.n > 1 else None
    for first in range(start, stop, _CSV_BLOCK_ROWS):
        end = min(first + _CSV_BLOCK_ROWS, stop)
        parts = [b"\r\n"] * (4 * (end - first))
        leads = []
        for run in range(first // N, (end - 1) // N + 1):
            lead = b"".join([cycled[run // N**k % N] for k in range(g.n - 2, -1, -1)])
            leads += [lead] * (min(end, run * N + N) - max(first, run * N))
        parts[0::4] = leads
        parts[1::4] = cycled[first % N : first % N + end - first] if cycled else texts(g.axis[first:end])
        # [[a,b],[c,d]] -> a,b and c,d
        parts[2::4] = orjson.dumps(values[first:end], option=dump)[2:-2].split(b"],[")
        yield b"".join(parts)


def write_field_csv(f: Field, path) -> None:
    """Write ``f`` to ``path`` as a field CSV: the header
    ``x1,...,xn,re_1,im_1,...,re_m,im_m``, then one line per lattice point in
    row-major order, each value as the shortest decimal that reads back to
    the same double, CRLF line ends."""
    g = f.grid
    # complex values viewed as floats are re_1, im_1, ..., re_m, im_m
    values = f.values.reshape(-1, f.m).view(float)
    split = g.size // 2  # a child formats the rows from the middle one
    task = (lambda: list(_csv_rows(g, values, split, g.size))) if g.size >= _SPLIT_MIN_ROWS else None
    with _in_child(task) as child, open(path, "wb") as fh:  # the child starts while the file is emptied
        fh.write((_csv_header(g.n, f.m) + "\r\n").encode())
        fh.writelines(_csv_rows(g, values, 0, split if child else g.size))
        if child:
            shutil.copyfileobj(child(), fh)


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
        # cols-th cell end (the reshape then checks the number of cells)
        if (
            piece.translate(None, _NUMBER_BYTES)
            or np.count_nonzero(text == ord("\r")) != np.count_nonzero(text[ends[line_end] - 1] == ord("\r"))
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
    starts = np.where(zeros > 0, ends[zeros - 1] + 1, 0)  # -0 is a JSON integer, read as 0
    flat[zeros[text[starts] == ord("-")]] = -0.0
    return values


def read_field_csv(path) -> Field:
    """The field stored at ``path`` by :func:`write_field_csv`, bit for bit.

    The file must be in the writer's format: its header, with ``n >= 1``
    coordinates and ``m >= 1`` components, then one line of ``n + 2m`` JSON
    numbers per lattice point, each ended by an LF or CRLF (optional on the
    final line), whose coordinates are a row-major uniform lattice on
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
        # count the rows, and find the first line end from the body's middle
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        middle = (len(line) + size) // 2
        rows = 0
        split = None  # the byte and the row just after that line end
        pos = len(line)
        while piece := fh.read(_READ_PIECE):
            ends = np.frombuffer(piece, np.uint8) == ord("\n")
            if split is None and (at := piece.find(b"\n", max(0, middle - pos))) >= 0:
                split = (pos + at + 1, rows + np.count_nonzero(ends[: at + 1]))
            rows += np.count_nonzero(ends)
            pos += len(piece)
        rows += size > len(line) and os.pread(fd, 1, size - 1) != b"\n"  # a final line without its line end
        if rows == 0:
            raise ValueError(f"field CSV {path} has a header but no data rows")
        N = round(rows ** (1.0 / n))
        # anonymous shared memory: a split's child parses into it too
        values = np.frombuffer(mmap.mmap(-1, rows * 2 * m * 8), float).reshape(rows, 2 * m)
        grid = None

        def parse(start: int, stop: int, row: int, pieces: int = -1) -> tuple[int, int]:
            """Parse up to ``pieces`` pieces of bytes ``start`` to ``stop`` into
            ``values`` from row ``row``; returns the byte and row it ended at."""
            nonlocal grid
            while start < stop and pieces:
                pieces -= 1
                piece = b""
                while b"\n" not in piece:  # a line longer than a piece grows it; the file's end ends one
                    piece += os.pread(fd, min(_READ_PIECE, stop - start - len(piece)), start + len(piece)) or b"\n"
                end = piece.rfind(b"\n") + 1
                table = _json_piece(piece[:end], n + 2 * m, row + 1)
                if row + len(table) > N**n:
                    raise ValueError(f"{rows} rows do not form an N^{n} lattice")
                if grid is None:
                    if not table[0, 0] < 0:  # the lattice is centred: L = -x1 of the first row
                        raise ValueError("CSV coordinates are not a row-major uniform lattice")
                    grid = make_grid(n, -table[0, 0], N)
                gap = table[:, :n] - _lattice_coordinates(grid, row, row + len(table))
                if np.abs(gap, out=gap).max() > 1e-12 * max(1.0, grid.L):
                    raise ValueError("CSV coordinates are not a row-major uniform lattice")
                values[row : row + len(table)] = table[:, n:]
                start += end
                row += len(table)
            return start, row

        def second_half():
            parse(split[0], size, split[1])
            return ()

        # on a split, the first piece ends at the split, and a child parses
        # the rest of the file from there while this process parses up to it
        if rows != N**n or rows < _SPLIT_MIN_ROWS:
            split = None
        start, row = parse(len(line), split[0] if split else size, 0, pieces=1)
        with _in_child(second_half if split else None) as child:
            parse(start, split[0] if child else size, row)
            if child:
                child()
    if N**n != rows:
        raise ValueError(f"{rows} rows do not form an N^{n} lattice")
    vals = values.view(complex)  # keeps the sign of a zero
    return Field(grid, vals.reshape(grid.shape + (m,)))
