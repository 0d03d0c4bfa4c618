"""The evolution operator G(zeta): kernel convolution applied to grid fields.

Two independent numerical paths compute the same operator:

* ``quadrature``: the convolution integral as a Riemann sum over the grid,
  with the kernel sampled on the difference lattice of the grid (all pairwise
  point differences) and zero-fill outside.  This is the definition applied
  literally and is the reference path for complex times.
* ``spectral``: FFT, multiply by the symbol ``exp(-zeta |xi|^2)`` at the DFT
  frequencies, inverse FFT.  Fast but implicitly periodic; accurate for
  fields that decay to negligible size at the grid boundary.

Both paths use that the kernel and its symbol factor by axis,
``chi_zeta(x) = prod_j chi_zeta^(1)(x_j)``, and every evolution takes its
path and 1-D factor from one decision, :func:`_path`: quadrature applies the
kernel from :func:`kernel.kernel_eval` along each axis in turn (the same
zero-fill Riemann sum as the n-D one); the spectral multiplier is the outer
product of the 1-D symbols from :func:`kernel.kernel_fourier`.

Cross-checking the two paths against each other is one of the strongest
consistency tests in the package, since they share no code beyond the symbol.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from . import kernel as _kernel
from .grid_field import Field, Grid, _next_fast_len, read_field_csv, squared_norm, write_field_csv
from .kernel import _TAIL_BUDGET, _own_tail, _require_positive, as_time
from .weights import _weight

__all__ = [
    "Method",
    "apply",
    "apply_many",
    "apply_dzeta",
    "operator_bound",
    "Trajectory",
    "trajectory",
    "write_trajectory",
    "read_trajectory",
]

class Method(enum.Enum):
    """Numerical path for applying the evolution operator."""

    QUADRATURE = "quadrature"
    SPECTRAL = "spectral"


def _checked_method(method):
    """The package's one check of a method: ``None`` (the per-time choice of
    :func:`_path`), a :class:`Method` or its value, returned as a Method."""
    try:
        return None if method is None else Method(method)
    except ValueError:
        raise ValueError(f"unknown method {method!r}; use quadrature or spectral") from None


def _difference_axis(g: Grid) -> np.ndarray:
    """One axis of the difference lattice of the grid: all pairwise
    point differences ``k h`` with ``|k| <= N-1``."""
    return (np.arange(2 * g.N - 1) - (g.N - 1)) * g.h


def _riemann_sum(factors, f: Field) -> np.ndarray:
    """Exact zero-fill discrete convolution with a separable kernel.

    ``factors[j]`` is the kernel's factor for axis ``j`` on the difference
    lattice (2N-1 points).  Entry ``i`` of the result is
    ``sum_j kernel[i-j+N-1] f[j] h^n``, the Riemann sum of the convolution at
    grid point ``i`` with zero extension, for every grid parity.  One
    dimension takes the padding and transforms of ``scipy.signal.fftconvolve``
    in 'valid' mode, bit for bit, through ``numpy.fft``, whose 1-D transforms
    are scipy's: one batched transform along the grid axis, which transforms
    each component's column on its own (so components that are exact
    multiples of each other stay so); from two dimensions on,
    each axis is one product with the dense Toeplitz matrix
    ``T[i, j] = factor[i-j+N-1] h``, faster than FFTs at these sizes.
    """
    g = f.grid
    if g.n == 1:
        size = _next_fast_len(3 * g.N - 2)
        product = np.fft.fft(factors[0], size)[:, None] * np.fft.fft(f.values, size, axis=0)
        return np.fft.ifft(product, axis=0)[g.N - 1 : 2 * g.N - 1] * g.h
    lag = np.subtract.outer(np.arange(g.N), np.arange(g.N)) + (g.N - 1)
    out = f.values
    for axis, factor in enumerate(factors):
        out = np.moveaxis(np.tensordot((factor * g.h)[lag], out, axes=(1, axis)), 0, axis)
    return out


def _flush_subnormals(values: np.ndarray) -> None:
    """Zero, in place, every real and imaginary part of a complex array whose
    magnitude is below the smallest normal float.

    The Gaussian symbol underflows through the subnormal range in a ring of
    frequencies, and arithmetic on subnormals runs in slow microcode on x86,
    which makes the inverse FFT two to three times slower.  A flushed part
    lies far below half an ulp of the transform's outputs, which are sums of
    normal terms, so they keep every bit.  One boolean mask is built and
    narrowed in place, with one boolean temporary and no float one.
    """
    parts = values.view(float)
    tiny = np.finfo(float).tiny
    mask = parts > -tiny
    mask &= parts < tiny
    np.putmask(parts, mask, 0.0)


def _spectral_values(f: Field, multiplier: np.ndarray) -> np.ndarray:
    """The one spectral step: the inverse DFT over the grid axes of the
    shared ``f.spectrum`` times ``multiplier``, after :func:`_flush_subnormals`.

    The caller hands ``multiplier`` over.  For a scalar field (``m = 1``) and
    a complex multiplier the product is formed in the multiplier's own
    buffer, and the inverse transform runs in place on it, so that one array
    becomes the state; with ``m > 1``, or a real multiplier (the Laplacian's
    ``-|xi|^2``), the product is a fresh array.  ``f.spectrum`` is the first
    operand either way: with fused multiply-adds, ``a*b`` and ``b*a`` of
    complex numbers can differ in the last bit, and every state is pinned to
    the bits of ``f.spectrum * multiplier``.
    """
    multiplier = multiplier[..., np.newaxis]
    in_place = f.m == 1 and multiplier.dtype == complex
    product = np.multiply(f.spectrum, multiplier, out=multiplier if in_place else None)
    _flush_subnormals(product)
    # the product is the caller's buffer or a temporary, so the inverse transform may overwrite it
    return np.fft.ifftn(product, axes=tuple(range(f.grid.n)), out=product)


def _path(z, g: Grid, method=None):
    """The package's one path decision at time ``z``: the method (a forced
    one stays; ``None`` takes spectral at real times, quadrature at properly
    complex ones) and its 1-D factor along every axis, the kernel on the
    difference lattice or the symbol at the DFT frequencies.  Both come from
    the ``kernel`` module attributes, so the paths provably follow them."""
    if method is None:
        method = Method.SPECTRAL if as_time(z).value.imag == 0.0 else Method.QUADRATURE
    if method is Method.QUADRATURE:
        return method, _kernel.kernel_eval(z, (_difference_axis(g),))
    return method, _kernel.kernel_fourier(z, (g.fourier_axis,))


def _tail_meta(z: complex, g: Grid, method: str) -> dict:
    bound = _own_tail(z, g.L, g.n, 0)
    return {
        "zeta": z,
        "tail_bound": bound,
        "tail_budget": _TAIL_BUDGET,
        "tail_warning": bound > _TAIL_BUDGET,
        "method": method,
    }


def apply(zeta, f: Field, method=None) -> Field:
    """Apply the evolution operator at time ``zeta`` to a field.

    Zero time returns a field that shares ``f``'s values array (the operator
    is the identity there), with its own metadata
    ``{"zeta": 0, "method": "identity"}``.  For ``Re zeta > 0`` the selected
    method runs; ``method=None`` lets :func:`_path` pick it for the time.
    The result carries provenance metadata including the kernel's own tail
    beyond the grid half-extent; if that exceeds the budget recorded as
    ``tail_budget`` (1e-10) the metadata records ``tail_warning=True`` rather
    than raising, so suites can assert on grid adequacy.
    """
    return next(apply_many((zeta,), f, method))


def apply_many(times, f: Field, method=None):
    """Yield ``apply(t, f, method)`` for each time in turn.

    The method is checked before the first time.  The spectral path reuses
    ``f.spectrum``, ``f``'s one DFT, and forms each time's n-D multiplier
    afresh; for a scalar field that array becomes the state
    (:func:`_spectral_values`).  States are produced one at a time, and no
    name here refers to a state once it is yielded, so a caller holds only
    the states it keeps.
    """
    g = f.grid
    method = _checked_method(method)
    for zeta in times:
        ct = as_time(zeta)
        if ct.is_zero:
            yield Field(g, f.values, meta={"zeta": ct.value, "method": "identity"})
            continue
        m, factor = _path(ct.value, g, method)
        meta = _tail_meta(ct.value, g, m.value)
        if m is Method.QUADRATURE:
            yield Field(g, _riemann_sum([factor] * g.n, f), meta=meta)
        else:
            yield Field(g, _spectral_values(f, reduce(np.multiply.outer, (factor,) * g.n)), meta=meta)


def apply_dzeta(zeta, f: Field) -> Field:
    """Apply the time derivative of the evolution operator (quadrature path).

    This convolves ``f`` with the kernel's time derivative; it equals the
    derivative of ``apply(zeta, f)`` with respect to ``zeta`` and also the
    spatial Laplacian of ``apply(zeta, f)``.  By the product rule it is the
    sum over axes ``j`` of the kernel with axis ``j``'s factor differentiated.
    """
    z = _require_positive(zeta).value
    g = f.grid
    _, factor = _path(z, g, Method.QUADRATURE)
    dfactor = _kernel.kernel_dzeta(z, (_difference_axis(g),))
    values = sum(
        _riemann_sum([dfactor if a == j else factor for a in range(g.n)], f) for j in range(g.n)
    )
    return Field(g, values, meta=_tail_meta(z, g, "quadrature-dzeta"))


def operator_bound(zeta, k: float, g: Grid) -> float:
    """Discrete weighted L1 norm of the kernel over the difference lattice.

    Returns ``M_k(zeta) = sum (1+|y|)^k |chi_zeta(y)| cellvolume`` with ``y``
    running over all pairwise grid-point differences.  By the weight's
    submultiplicativity and the discrete Young inequality this is an exact
    bound for the quadrature path:

        weighted_norm(apply(zeta, f, quadrature), s) <= M_k * weighted_norm(f, s)

    for any space ``s`` with weight exponent ``k`` (sup or Lp kind).  The
    weight does not factor by axis, so this stays an n-D sum.
    """
    z = _require_positive(zeta).value
    w = _weight(k, squared_norm(np.ix_(*(_difference_axis(g),) * g.n)))
    absker = reduce(np.multiply.outer, (np.abs(_path(z, g, Method.QUADRATURE)[1]),) * g.n)
    return float(np.sum(w * absker) * g.cell_volume)


def _operator_norms(zeta, k: float, g: Grid):
    """The exact weighted norms of the quadrature path as an operator.

    Returns ``(T, extremal, C)``.  ``T = max_x sum_y |chi(x-y)| w(y)/w(x) h^n``
    with ``w = (1+|x|)^k`` is its norm on the weighted sup space: the largest
    weighted row sum, one separable convolution of ``|chi|`` with ``w``.
    ``extremal`` is the field ``w(y) conj(chi(x*-y)) / |chi(x*-y)|`` at the
    maximiser ``x*`` (phase 1 where a factor is 0), whose image under the
    path has weighted sup norm ``T`` times its own.  ``C``, the largest
    weighted column sum, is its norm on the weighted L1 space.  Both are at
    most :func:`operator_bound`, which sums ``w |chi|`` over the whole
    difference lattice.
    """
    w = _weight(k, g.squared_norms)
    _, factor = _path(zeta, g, Method.QUADRATURE)

    def modulus_sums(v):  # sum_y |chi(x-y)| v(y) h^n at every grid point x
        return _riemann_sum([np.abs(factor)] * g.n, Field(g, v)).real[..., 0]

    rows = modulus_sums(w) / w
    peak = np.unravel_index(np.argmax(rows), rows.shape)
    lags = [factor[i : i + g.N][::-1] for i in peak]  # chi(x*_j - y_j) over y_j
    phases = [np.divide(np.conj(c), np.abs(c), out=np.ones_like(c), where=c != 0) for c in lags]
    extremal = Field(g, w * reduce(np.multiply.outer, phases))
    return float(rows[peak]), extremal, float(np.max(w * modulus_sums(1.0 / w)))


def _checked_times(times) -> tuple:
    """The package's one check of trajectory times: at least one, all finite,
    the first ``>= 0``, strictly increasing.  Returns them as floats."""
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("trajectory needs at least one time")
    for t in times:  # NaN would pass every comparison below
        if not np.isfinite(t):
            raise ValueError(f"times must be finite, got {t}")
    if times[0] < 0:
        raise ValueError(f"times must be >= 0, got {times[0]}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    return times


@dataclass(frozen=True)
class Trajectory:
    """States of one field under the real-time evolution, on a shared grid."""

    times: tuple
    states: tuple

    def __post_init__(self):
        times = _checked_times(self.times)
        states = tuple(self.states)
        if len(times) != len(states):
            raise ValueError(f"{len(times)} times but {len(states)} states")
        if any(s.grid != states[0].grid or s.m != states[0].m for s in states):
            raise ValueError("all trajectory states must share one grid and one component count")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def trajectory(f: Field, times, method=None) -> Trajectory:
    """Evolve ``f`` through strictly increasing real times, checked first.

    A leading time 0 keeps ``f``'s values; every positive time is one kernel
    application to the initial field (the evolution is exact in time, so
    there is no stepping error to accumulate), through :func:`apply_many`.
    """
    times = _checked_times(times)
    return Trajectory(times, tuple(apply_many(times, f, method=method)))


def write_trajectory(traj: Trajectory, directory) -> Path:
    """Write a trajectory as one field CSV per state plus ``index.csv``
    with rows ``t,filename``.  Returns the index path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index_path = directory / "index.csv"
    with open(index_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "filename"])
        for i, (t, state) in enumerate(zip(traj.times, traj.states)):
            name = f"state_{i:04d}.csv"
            write_field_csv(state, directory / name)
            writer.writerow([format(t, ".17g"), name])
    return index_path


def read_trajectory(index_path) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory`: each state's
    file name in the index must be a plain name in the index's directory."""
    index_path = Path(index_path)
    if index_path.is_dir():
        index_path = index_path / "index.csv"
    times = []
    states = []
    with open(index_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "filename"]:
            raise ValueError(f"{index_path}: expected header 't,filename', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{index_path}: malformed row {row}")
            if row[1] in ("", "..") or Path(row[1]).name != row[1]:  # the writer writes plain names only
                raise ValueError(f"{index_path}: line {reader.line_num} names {row[1]!r}, not a file in its directory")
            times.append(float(row[0]))
            states.append(read_field_csv(index_path.parent / row[1]))
    return Trajectory(tuple(times), tuple(states))
