"""Sampled vector-valued functions on truncated uniform grids.

A :class:`Grid` is the uniform lattice on ``[-L, L]^n`` with ``N`` points per
axis.  A :class:`Field` holds one complex ``C^m`` value per lattice point and
is the discrete stand-in for a function ``R^n -> C^m``.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, partial, reduce
from itertools import product
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
        from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
        out = _fft.fftn(self.values, axes=tuple(range(self.grid.n)))
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
# x1,...,xn,re_1,im_1,...,re_m,im_m, each value as ``"%.17g" % x``, CRLF line
# ends.
#
# ``%.17g`` converts with bignum arithmetic, about 0.7 us per value.
# ``_csv_block_bytes`` decides the same correctly rounded 17 digits in numpy:
# ``y = |x| * 10^s`` as a double-double (Dekker's product with an exact
# double-double ``10^s``), normalised to ``1e16 <= y < 1e17`` and rounded to
# the integer ``D``.  The error of ``y`` is below 1e-13, so ``D`` is exact
# unless ``y`` lies within 2^-20 of a rounding tie; such values, and those
# outside ``1e-250 < |x| < 1e250``, are converted by ``%`` instead.  The text
# is one gather from a table of byte layouts.  Coordinates are axis points:
# ``write_field_csv`` formats the axis once per write and gathers each row's
# coordinate text from it.

# Rows formatted per block: bounds the temporaries, and blocks of 2048-8192
# rows format fastest.
_CSV_BLOCK_ROWS = 4096
# Values per slice of the layout gather, whose index takes 8 bytes per text
# byte: 5.1 MB for a whole 4096x6 block, 0.43 MB per slice.
_GATHER_VALUES = 2048
# Threads that format CSV blocks: the caller and one helper.  Each further
# helper gets its own malloc arena (5-7 MB kept) and adds little speed, since
# per-block Python work holds the interpreter lock.
_CSV_THREADS = 2

# ``%.17g`` writes decimal exponents -4..16 in fixed notation, others as
# ``d.ddde+XX``, with at least two exponent digits.
_FIXED_MIN_EXP, _FIXED_MAX_EXP = -4, 16
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_TIE_MARGIN = 2.0**-20
_POW_MIN, _POW_MAX = -240, 270  # scales s = 16 - e for the fast range, with slack
_EXP_SPAN = 300  # exponent text is tabled for |e| <= _EXP_SPAN

# Byte sources of one value's text, a 32-byte row built as eight 4-byte
# words: digits 2-17 in four groups of four, the exponent's sign and three
# digits, the leading digit, then constants.  A layout lists the sources of
# its bytes, NUL-padded.
_DIGIT = (20, *range(16))  # source of the i-th significant digit
_EXP = 16
_MINUS, _POINT, _ZERO, _E, _COMMA, _CR, _LF, _NUL = range(21, 29)
_ROW_BYTES = 32
_LAYOUT_WIDTH = 26  # the widest value, "-d.<16 digits>e-ddd", and CRLF
# layout kinds: scientific with 2 or 3 exponent digits, an empty value
# (separator only) for the fallback, then fixed notation by exponent
_SCI2, _SCI3, _EMPTY, _FIXED = range(4)


def _pow10_dd(s: int) -> tuple[float, float]:
    """``10^s`` as a double-double ``hi + lo``, both parts correctly rounded."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den  # int / int is correctly rounded
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _layout(kind: int, k: int, neg: int, last: int) -> list[int]:
    """Byte sources of a value with ``k`` significant digits."""
    d = _DIGIT
    out = [_MINUS] if neg and kind != _EMPTY else []
    if kind >= _FIXED:
        e = kind - _FIXED + _FIXED_MIN_EXP
        if e >= 0:
            out += list(d[: e + 1]) + ([_POINT, *d[e + 1 : k]] if k > e + 1 else [])
        else:
            out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(d[:k])
    elif kind != _EMPTY:
        out += [d[0]] + ([_POINT, *d[1:k]] if k > 1 else []) + [_E, _EXP]
        out += list(range(_EXP + (2 if kind == _SCI2 else 1), _EXP + 4))
    out += [_CR, _LF] if last else [_COMMA]
    return out + [_NUL] * (_LAYOUT_WIDTH - len(out))


def _words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), np.uint32)


@cache
def _csv_tables() -> dict[str, np.ndarray]:
    """Lookup tables of the CSV formatter, built on the first write."""
    pows = np.array([_pow10_dd(s) for s in range(_POW_MIN, _POW_MAX + 1)])
    four = [f"{i:04d}" for i in range(10000)]
    exps = (f"{'-' if e < 0 else '+'}{abs(e):03d}" for e in range(-_EXP_SPAN, _EXP_SPAN + 1))
    kinds = range(_FIXED + _FIXED_MAX_EXP - _FIXED_MIN_EXP + 1)
    layouts = [_layout(*key) for key in product(kinds, range(1, 18), (0, 1), (0, 1))]
    return {
        "pow_hi": pows[:, 0].copy(),
        "pow_lo": pows[:, 1].copy(),
        "digits4": _words("".join(four)),
        "zeros4": np.array([4] + [4 - len(d.rstrip("0")) for d in four[1:]]),
        "exponent": _words("".join(exps)),
        "constants": _words("\0-.0e,\r\n\0\0\0\0"),  # bytes 20-31; 20 is the leading digit
        "layout": np.array(layouts, dtype=np.intp),
    }


def _split(a):
    """Veltkamp split of doubles into two 26-bit halves."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, s, t):
    """``a * 10^s`` as a double-double, by Dekker's two-product."""
    bh, bl = t["pow_hi"][s - _POW_MIN], t["pow_lo"][s - _POW_MIN]
    p = a * bh
    ah, al = _split(a)
    ch, cl = _split(bh)
    err = ((ah * ch - p) + ah * cl + al * ch) + al * cl + a * bl
    hi = p + err
    return hi, err - (hi - p)


def _percent_g17(values: list) -> list[str]:
    """The exact conversion, for values the fast path leaves undecided."""
    return ["%.17g" % v for v in values]


def _decimals(x, t):
    """17-digit decimals ``digits * 10^(e - 16)`` of ``x`` by the fast path,
    and whether it decided each value."""
    a = np.abs(x)
    fast = (a > _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, s, t)
    while True:
        # log10 can be one off near a power of ten, and hi alone can round
        # onto a bound (1e-248), so hi and lo decide together.  A y within
        # the margin below 1e16 stays: it rounds to 1e16 as the carry of the
        # next scale would, and moving it could cycle for an exact power of
        # ten, as 10^s itself is rounded.
        below = (hi < 1e16) | ((hi == 1e16) & (lo < -_TIE_MARGIN))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        move = np.flatnonzero(below | above)
        if not move.size:
            break
        s[move] += below[move].astype(np.intp) - above[move]
        hi[move], lo[move] = _scaled(a[move], s[move], t)
    floor = np.floor(lo)
    frac = lo - floor
    digits = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    e = 16 - s
    carry = digits == 10**17
    digits[carry] = 10**16
    e[carry] += 1
    zero = x == 0
    digits[zero] = 0
    decided = (fast & (np.abs(frac - 0.5) > _TIE_MARGIN)) | zero
    e[~fast] = 0
    return digits, e, decided


def _text_sources(digits, e, t):
    """The 32-byte source row of each value, and the count of trailing zeros
    among its digits 2-17."""
    lead, rest = np.divmod(digits, 10**16)
    g1, rest = np.divmod(rest, 10**12)
    g2, rest = np.divmod(rest, 10**8)
    g3, g4 = np.divmod(rest, 10**4)
    words = np.empty((digits.size, _ROW_BYTES // 4), np.uint32)
    for col, g in enumerate((g1, g2, g3, g4)):
        words[:, col] = t["digits4"][g]
    words[:, 4] = t["exponent"][e + _EXP_SPAN]
    words[:, 5:] = t["constants"]
    src = words.view(np.uint8)
    src[:, _DIGIT[0]] = lead + ord("0")
    z = t["zeros4"]
    zeros = z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1]))
    return src, zeros


def _csv_block_bytes(block: np.ndarray, lead=None) -> bytes:
    """Rows of a float table as CSV text: ``"%.17g" % x`` per value, ``,``
    between values and CRLF after each row, byte for byte.  ``lead``, NUL-padded
    text of shape ``(rows, k, _LAYOUT_WIDTH)``, fills the first ``k`` slots of
    each row."""
    t = _csv_tables()
    rows, cols = block.shape
    k = 0 if lead is None else lead.shape[1]
    x = block.ravel()
    digits, e, decided = _decimals(x, t)
    src, zeros = _text_sources(digits, e, t)
    kind = np.where(np.abs(e) < 100, _SCI2, _SCI3)
    fixed = (e >= _FIXED_MIN_EXP) & (e <= _FIXED_MAX_EXP)
    kind[fixed] = e[fixed] - _FIXED_MIN_EXP + _FIXED
    kind[~decided] = _EMPTY
    key = (((kind * 17 + 16 - zeros) * 2 + np.signbit(x)) * 2).reshape(rows, cols)
    key[:, -1] += 1  # the last column ends its row
    del digits, e, fixed, kind, zeros  # dead before the gather
    src = src.ravel()
    text = np.empty((rows, k + cols, _LAYOUT_WIDTH), np.uint8)
    if k:
        text[:, :k] = lead
    step = max(1, _GATHER_VALUES // cols)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        idx = t["layout"][key[start:stop]]
        idx += np.arange(start * cols, stop * cols).reshape(-1, cols, 1) * _ROW_BYTES
        np.take(src, idx, out=text[start:stop, k:])
    out = text[text != 0].tobytes()
    if decided.all():
        return out

    undecided = np.flatnonzero(~decided)
    length = np.count_nonzero(text, axis=2)  # text bytes are never NUL
    starts = (np.cumsum(length).reshape(rows, -1) - length)[:, k:].ravel()[undecided].tolist()
    pieces, prev = [], 0
    for pos, value in zip(starts, _percent_g17(x[undecided].tolist())):
        pieces += [out[prev:pos], value.encode()]
        prev = pos
    pieces.append(out[prev:])
    return b"".join(pieces)


def _in_order(tasks, threads, ahead):
    """Yield ``(result, error)`` of each zero-argument task in ``tasks``, in order.

    The calling thread and ``min(cpus, tasks, threads) - 1`` helper threads
    take tasks in index order, with at most ``ahead`` tasks taken and not yet
    yielded; ``error`` is the exception a task raised, or None.  A
    non-``Exception`` raised on the calling thread propagates at once; the
    helpers catch everything and hand it over.  Closing the generator stops
    and joins every helper started, after its current task.
    """
    try:  # the CPUs this process may run on
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    helpers = min(cpus, len(tasks), threads) - 1
    done = {}  # finished, not yet yielded: task index -> (result, error)
    changed = threading.Condition()
    taken = given = 0

    def take():  # with ``changed`` held: the next task to run, or None
        nonlocal taken
        if taken == len(tasks) or taken - given >= ahead:
            return None
        taken += 1
        return taken - 1

    def run(i, catch):
        try:
            outcome = (tasks[i](), None)
        except catch as exc:
            outcome = (None, exc)
        with changed:
            done[i] = outcome
            changed.notify_all()

    def work():
        while True:
            with changed:
                changed.wait_for(lambda: taken == len(tasks) or taken - given < ahead)
                i = take()
            if i is None:
                return
            run(i, BaseException)

    started = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            started.append(thread)
        while given < len(tasks):
            with changed:
                i = None if given in done else take()
                if i is None:  # the next task is done or running
                    changed.wait_for(lambda: given in done)
                    outcome = done.pop(given)
            if i is not None:
                run(i, Exception)
                continue
            yield outcome
            with changed:
                given += 1
                changed.notify_all()
    finally:
        with changed:
            taken = len(tasks)  # the helpers take no further task
            changed.notify_all()
        for thread in started:
            thread.join()


def _csv_header(n: int, m: int) -> str:
    """The field CSV header ``x1,...,xn,re_1,im_1,...,re_m,im_m``."""
    return ",".join([f"x{i + 1}" for i in range(n)] + [f"{part}_{c + 1}" for c in range(m) for part in ("re", "im")])


def write_field_csv(f: Field, path) -> None:
    """Write ``f`` to ``path`` as a field CSV: the header
    ``x1,...,xn,re_1,im_1,...,re_m,im_m``, then one line per lattice point in
    row-major order, each value as ``"%.17g" % x`` (so it reads back to the
    same double), CRLF line ends."""
    g = f.grid
    # complex values viewed as floats are re_1, im_1, ..., re_m, im_m
    values = f.values.reshape(-1, f.m).view(float)
    # coordinate j of row r is axis[(r // N^(n-1-j)) % N]: its text, with the
    # separator, is formatted once per write
    axis_text = np.array(["%.17g," % x for x in g.axis.tolist()], dtype=f"S{_LAYOUT_WIDTH}")
    axis_text = axis_text.view(np.uint8).reshape(g.N, _LAYOUT_WIDTH)
    strides = g.N ** np.arange(g.n - 1, -1, -1)

    def block_bytes(start):
        block = values[start : start + _CSV_BLOCK_ROWS]
        rows = np.arange(start, start + len(block))[:, None]
        return _csv_block_bytes(block, axis_text[rows // strides % g.N])

    with open(path, "wb") as fh:
        fh.write((_csv_header(g.n, f.m) + "\r\n").encode())
        tasks = [partial(block_bytes, start) for start in range(0, g.size, _CSV_BLOCK_ROWS)]
        with closing(_in_order(tasks, _CSV_THREADS, 2 * _CSV_THREADS)) as texts:
            for text, error in texts:
                if error is not None:
                    raise error
                fh.write(text)


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
    import orjson  # imported on use: only reads need it

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
