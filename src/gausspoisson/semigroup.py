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
``chi_zeta(x) = prod_j chi_zeta^(1)(x_j)``: quadrature applies the 1-D factor
from :func:`kernel.kernel_eval` along each axis in turn (the same zero-fill
Riemann sum as the n-D one), and the spectral multiplier is the outer product
of the 1-D symbols from :func:`kernel.kernel_fourier`.

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
from .grid_field import Field, Grid, read_field_csv, write_field_csv
from .kernel import as_time, default_sector_angle, kernel_tail_bound

__all__ = [
    "Method",
    "default_method",
    "DEFAULT_TAIL_BUDGET",
    "apply",
    "apply_many",
    "apply_dzeta",
    "operator_bound",
    "Trajectory",
    "trajectory",
    "write_trajectory",
    "read_trajectory",
]

# tail mass beyond the grid half-extent above which apply() flags the grid as
# too small in the result metadata (never an error: callers may want the
# degraded result anyway)
DEFAULT_TAIL_BUDGET = 1e-10


class Method(enum.Enum):
    """Numerical path for applying the evolution operator."""

    QUADRATURE = "quadrature"
    SPECTRAL = "spectral"


def default_method(zeta) -> Method:
    """Spectral for real times (fast, wrap error well below tolerance for
    decaying fields); quadrature for properly complex times, where the
    sampled-kernel error model stays uniform over the sector."""
    ct = as_time(zeta)
    if ct.is_zero or ct.value.imag == 0.0:
        return Method.SPECTRAL
    return Method.QUADRATURE


def _as_method(method) -> Method:
    if isinstance(method, Method):
        return method
    return Method(str(method).lower())


def _difference_axis(g: Grid) -> np.ndarray:
    """One axis of the difference lattice of the grid: all pairwise
    point differences ``k h`` with ``|k| <= N-1``, as a column of 1-D points."""
    return ((np.arange(2 * g.N - 1) - (g.N - 1)) * g.h)[:, np.newaxis]


def _riemann_sum(factors, f: Field) -> np.ndarray:
    """Exact zero-fill discrete convolution with a separable kernel.

    ``factors[j]`` is the kernel's factor for axis ``j`` on the difference
    lattice (2N-1 points).  Entry ``i`` of the result is
    ``sum_j kernel[i-j+N-1] f[j] h^n``, the Riemann sum of the convolution at
    grid point ``i`` with zero extension, for every grid parity.  One
    dimension takes the padding and transforms of ``scipy.signal.fftconvolve``
    in 'valid' mode, bit for bit, one transform per component (so components
    that are exact multiples of each other stay so); from two dimensions on,
    each axis is one product with the dense Toeplitz matrix
    ``T[i, j] = factor[i-j+N-1] h``, faster than FFTs at these sizes.
    """
    g = f.grid
    if g.n == 1:
        from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
        size = _fft.next_fast_len(3 * g.N - 2, False)
        kernel_spectrum = _fft.fft(factors[0], size)
        out = np.empty(f.values.shape, dtype=complex)
        for c in range(f.m):
            full = _fft.ifft(kernel_spectrum * _fft.fft(f.values[:, c], size))
            out[:, c] = full[g.N - 1 : 2 * g.N - 1]
        return out * g.h
    lag = np.subtract.outer(np.arange(g.N), np.arange(g.N)) + (g.N - 1)
    out = f.values
    for axis, factor in enumerate(factors):
        moved = np.moveaxis(out, axis, 0)
        product = (factor * g.h)[lag] @ moved.reshape(g.N, -1)
        out = np.moveaxis(product.reshape(moved.shape), 0, axis)
    return out


def _flush_subnormals(values: np.ndarray) -> None:
    """Zero, in place, every real and imaginary part of a complex array whose
    magnitude is below the smallest normal float.

    The Gaussian symbol underflows through the subnormal range in a ring of
    frequencies, and arithmetic on subnormals runs in slow microcode on x86,
    which makes the inverse FFT two to three times slower.  A flushed part
    lies far below half an ulp of the transform's outputs, which are sums of
    normal terms, so they keep every bit.
    """
    parts = values.view(float)
    tiny = np.finfo(float).tiny
    # boolean masks only: no float temporary the size of the array
    np.putmask(parts, (parts > -tiny) & (parts < tiny), 0.0)


def _tail_meta(z: complex, g: Grid, budget: float) -> dict:
    alpha = default_sector_angle(z)
    bound = kernel_tail_bound(z, alpha, g.L, g.n)
    return {
        "zeta": z,
        "tail_bound": bound,
        "tail_budget": budget,
        "tail_warning": bound > budget,
    }


def apply(zeta, f: Field, method=None, tail_budget: float = DEFAULT_TAIL_BUDGET) -> Field:
    """Apply the evolution operator at time ``zeta`` to a field.

    Zero time returns a field that shares ``f``'s values array (the operator
    is the identity there), with its own metadata
    ``{"zeta": 0, "method": "identity"}``.  For ``Re zeta > 0`` the selected
    method runs; ``method=None`` picks the default for the time.  The result
    carries provenance metadata including a kernel tail bound beyond the grid
    half-extent; if that exceeds ``tail_budget`` the metadata records
    ``tail_warning=True`` rather than raising, so suites can assert on grid
    adequacy.
    """
    return next(apply_many((zeta,), f, method, tail_budget))


def apply_many(times, f: Field, method=None, tail_budget: float = DEFAULT_TAIL_BUDGET):
    """Yield ``apply(t, f, method, tail_budget)`` for each time in turn.

    The spectral path transforms ``f`` once for all times.  States are
    produced one at a time, so a caller holds only the states it keeps.
    """
    g = f.grid
    axes = tuple(range(g.n))
    spectrum = None
    for zeta in times:
        ct = as_time(zeta)
        if ct.is_zero:
            yield Field(g, f.values, meta={"zeta": ct.value, "method": "identity"})
            continue
        z = ct.value
        m = default_method(ct) if method is None else _as_method(method)
        if m is Method.QUADRATURE:
            factor = _kernel.kernel_eval(z, _difference_axis(g), 1)
            values = _riemann_sum([factor] * g.n, f)
        else:
            from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
            if spectrum is None:
                spectrum = _fft.fftn(f.values, axes=axes)
            # the symbol goes through kernel.kernel_fourier (module attribute,
            # not a local alias) so the spectral path provably follows it
            symbol = _kernel.kernel_fourier(z, g.fourier_axis[:, np.newaxis])
            multiplier = reduce(np.multiply.outer, (symbol,) * g.n)
            product = spectrum * multiplier[..., np.newaxis]
            _flush_subnormals(product)
            # the product is a temporary, so the inverse transform may overwrite it
            values = _fft.ifftn(product, axes=axes, overwrite_x=True)
            del symbol, multiplier, product  # not held while the caller has the state
        meta = _tail_meta(z, g, tail_budget)
        meta["method"] = m.value
        yield Field(g, values, meta=meta)


def apply_dzeta(zeta, f: Field, tail_budget: float = DEFAULT_TAIL_BUDGET) -> Field:
    """Apply the time derivative of the evolution operator (quadrature path).

    This convolves ``f`` with the kernel's time derivative; it equals the
    derivative of ``apply(zeta, f)`` with respect to ``zeta`` and also the
    spatial Laplacian of ``apply(zeta, f)``.  By the product rule it is the
    sum over axes ``j`` of the kernel with axis ``j``'s factor differentiated.
    """
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("derivative kernel undefined at zeta = 0")
    z = ct.value
    g = f.grid
    d = _difference_axis(g)
    factor = _kernel.kernel_eval(z, d, 1)
    dfactor = _kernel.kernel_dzeta(z, d, 1)
    values = sum(
        _riemann_sum([dfactor if a == j else factor for a in range(g.n)], f) for j in range(g.n)
    )
    meta = _tail_meta(z, g, tail_budget)
    meta["method"] = "quadrature-dzeta"
    return Field(g, values, meta=meta)


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
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("operator bound undefined at zeta = 0")
    if k < 0:
        raise ValueError(f"weight exponent must be >= 0, got {k}")
    d = _difference_axis(g)
    absker = reduce(np.multiply.outer, (np.abs(_kernel.kernel_eval(ct.value, d, 1)),) * g.n)
    w = (1.0 + np.sqrt(reduce(np.add.outer, (d[:, 0] ** 2,) * g.n))) ** k
    return float(np.sum(w * absker) * g.cell_volume)


@dataclass(frozen=True)
class Trajectory:
    """States of one field under the real-time evolution, on a shared grid."""

    times: tuple
    states: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        states = tuple(self.states)
        if len(times) == 0:
            raise ValueError("trajectory needs at least one time")
        if len(times) != len(states):
            raise ValueError(f"{len(times)} times but {len(states)} states")
        if times[0] < 0:
            raise ValueError(f"times must be >= 0, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        g = states[0].grid
        for s in states[1:]:
            if s.grid != g:
                raise ValueError("all trajectory states must share one grid")
            if s.m != states[0].m:
                raise ValueError("all trajectory states must share one component count")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


def trajectory(f: Field, times, method=None) -> Trajectory:
    """Evolve ``f`` through the given strictly increasing real times.

    A leading time 0 keeps ``f``'s values; every positive time is one kernel
    application to the initial field (the evolution is exact in time, so
    there is no stepping error to accumulate), through :func:`apply_many`.
    """
    states = tuple(apply_many(times, f, method=method))
    return Trajectory(tuple(times), states)


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
    """Read a trajectory written by :func:`write_trajectory`."""
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
            times.append(float(row[0]))
            states.append(read_field_csv(index_path.parent / row[1]))
    return Trajectory(tuple(times), tuple(states))
