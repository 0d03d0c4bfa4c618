"""The Laplacian as the generator of the evolution: residual checks.

Everything here quantifies one statement: the time derivative of the evolved
field is its spatial Laplacian.  Three layers of it are covered:

* generator identities: ``dG(t)f/dt = Delta G(t)f = G(t) Delta f``, measured
  as residuals ``r1``/``r2``/``r3`` against a central time difference;
* the mild-solution identity ``Delta ∫_0^t G(s)f ds = G(t)f - f``;
* the classical pointwise equation ``du/dt = Delta u`` along a trajectory.

All residual norms exclude a boundary margin so zero-fill and wrap artifacts
stay out of the error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .grid_field import Field, interior_slices
from .semigroup import _spectral_values, apply, apply_dzeta, apply_many
from .weights import SpaceSpec, difference_norm

__all__ = [
    "discrete_laplacian",
    "GeneratorResiduals",
    "generator_residuals",
    "difference_quotient_residual",
    "time_integral",
    "mild_identity_residual",
    "classical_residual",
]

DEFAULT_MARGIN = 0.25


def discrete_laplacian(f: Field) -> Field:
    """The spectral Laplacian of a field: multiply by ``-|xi|^2`` in DFT space
    (periodic).  Self-adjoint for the quadrature pairing."""
    g = f.grid
    from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
    spectrum = _fft.fftn(f.values, axes=tuple(range(g.n)))
    return Field(g, _spectral_values(spectrum, -g.fourier_squared_norms), meta={"laplacian": "spectral"})


def _window_laplacian(f: Field, inner) -> np.ndarray:
    """The finite-difference Laplacian of ``f`` on the window ``inner``.

    It is the second-order central stencil
    ``sum_j (f(x+h e_j) - 2 f(x) + f(x-h e_j)) / h^2`` with zero-fill off the
    grid, self-adjoint for the quadrature pairing on interior-supported
    fields.  It is formed only on the window plus a one-point halo, clipped at
    the grid edge, where the zero-fill is the grid's own, so it equals the
    full-grid stencil sliced to the window.
    """
    g = f.grid
    if g.N < 3:
        raise ValueError(f"central stencil needs N >= 3 points, got {g.N}")
    halo = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, g.N)) for s in inner)
    lap = _stencil(f.values[halo], g.n, 1.0 / (g.h * g.h))
    return lap[tuple(slice(s.start - h.start, s.stop - h.start) for s, h in zip(inner, halo))]


def _stencil(values: np.ndarray, n: int, inv_h2: float) -> np.ndarray:
    """The central-difference Laplacian of a plain array over its first ``n``
    axes, zero-filled beyond its edges.

    Per axis the term ``(-2 f + up) + down``, times ``inv_h2``, is added in
    place to a zero-initialised sum: the operations of
    ``sum_j (up - 2 f + down) * inv_h2`` on a zero-padded copy, in the same
    order, less the additions of the padding's zeros; the sum matches it bit
    for bit.
    """
    out = np.zeros_like(values)
    term = np.empty_like(values)
    for axis in range(n):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        np.multiply(values, -2.0, out=term)
        term[lo] += values[hi]
        term[hi] += values[lo]
        term *= inv_h2
        out += term
    return out


@dataclass(frozen=True)
class GeneratorResiduals:
    """Weighted-norm residuals of the three generator identities.

    ``r1``: time derivative vs Laplacian of the evolved field.
    ``r2``: Laplacian after evolution vs evolution of the Laplacian.
    ``r3``: time derivative vs convolution with the kernel's time derivative.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        for name in ("r1", "r2", "r3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"residual {name} must be finite and >= 0, got {v}")


def generator_residuals(
    f: Field,
    t: float,
    dt: float,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> GeneratorResiduals:
    """Residuals of the generator identities at real time ``t``.

    The time derivative is the central difference
    ``(G(t+dt)f - G(t-dt)f) / (2 dt)``, so all three residuals carry an
    O(dt^2) bias on top of grid error.  The Laplacian is the spectral one.
    ``r2`` applies it on both sides so its bias cancels to leading order; it
    is only meaningful when ``f`` is smooth enough to differentiate on the
    grid.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    if not 0 < dt < t:
        raise ValueError(f"need 0 < dt < t, got dt={dt}, t={t}")
    u, u_plus, u_minus = apply_many((t, t + dt, t - dt), f)
    dudt = u.with_values((u_plus.values - u_minus.values) / (2.0 * dt))
    lap_u = discrete_laplacian(u)
    u_of_lap = apply(t, discrete_laplacian(f))
    deriv = apply_dzeta(t, f)
    return GeneratorResiduals(
        r1=difference_norm(dudt, lap_u, space, margin),
        r2=difference_norm(lap_u, u_of_lap, space, margin),
        r3=difference_norm(dudt, deriv, space, margin),
    )


def difference_quotient_residual(
    f: Field,
    h: float,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Residual of ``(G(h)f - f)/h`` against the spectral Laplacian of ``f``.

    For fields in the generator's domain this tends to 0 as ``h`` does, at
    observed order about 1 for smooth fields (the leading error term is
    ``(h/2) Delta^2 f``).
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    quotient = f.with_values((apply(h, f).values - f.values) / h)
    return difference_norm(quotient, discrete_laplacian(f), space, margin)


def _graded_nodes(t: float, steps: int) -> np.ndarray:
    """Trapezoid nodes on [0, t], geometrically graded toward 0.

    The interval splits into dyadic panels ``[t 2^{-j-1}, t 2^{-j}]`` each
    subdivided uniformly, plus one closing panel ``[0, t 2^{-levels}]``; the
    integrand is continuous at 0 so the node at 0 itself is usable (the
    evolution there is the identity).
    """
    levels = max(1, int(round(math.log2(steps))))
    per_level = max(1, steps // levels)
    nodes = [np.array([0.0])]
    for j in range(levels, 0, -1):
        lo, hi = t * 2.0 ** -(j), t * 2.0 ** -(j - 1)
        nodes.append(np.linspace(lo, hi, per_level + 1)[(1 if j < levels else 0) :])
    return np.concatenate(nodes)


def _node_sum(weights: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """``sum_i weights[i] * table[i] (x) ... (x) table[i]`` with ``n`` factors:
    a weighted sum of per-axis outer products, contracted axis by axis."""
    if n == 1:
        return weights @ table
    return np.stack([_node_sum(weights * column, table, n - 1) for column in table.T])


def time_integral(f: Field, t: float, steps: int = 256) -> Field:
    """Composite-trapezoid quadrature of ``s -> G(s)f`` over ``[0, t]``.

    The nodes are geometrically refined toward 0 (ratio-2 panels), which
    keeps the trapezoid error controlled even when the integrand is merely
    continuous at 0.  Every node is a real time, so on the spectral path, and
    the propagator is linear: the weighted sum of the node states is one
    inverse DFT of ``f``'s spectrum times the weighted sum of the node symbols
    from :func:`kernel.kernel_fourier` (1 at the node 0, the identity).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
    nodes = _graded_nodes(t, steps)
    weights = np.convolve(np.diff(nodes), [0.5, 0.5])  # the trapezoid weights
    table = np.array([_kernel.kernel_fourier(s, f.grid.fourier_axis[:, np.newaxis]) for s in nodes])
    spectrum = _fft.fftn(f.values, axes=tuple(range(f.grid.n)))
    values = _spectral_values(spectrum, _node_sum(weights, table, f.grid.n))
    return Field(f.grid, values, meta={"t": t, "nodes": len(nodes), "method": "spectral"})


def mild_identity_residual(
    f: Field,
    t: float,
    steps: int = 256,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Residual ``|| Delta ∫_0^t G(s)f ds - (G(t)f - f) ||`` of the
    mild-solution identity in the weighted norm over the interior window.
    The Laplacian is the spectral one.
    """
    lhs = discrete_laplacian(time_integral(f, t, steps=steps))
    rhs = f.with_values(apply(t, f).values - f.values)
    return difference_norm(lhs, rhs, space, margin)


def classical_residual(times, states, margin: float = DEFAULT_MARGIN) -> float:
    """Pointwise heat-equation residual along uniformly spaced times.

    ``states`` holds the field at each of ``times``: any iterable, such as
    ``apply_many(times, f)`` or a trajectory's states.  It is read once, in
    order, through a window of three consecutive states, so a streamed
    evolution is never held whole.  States at non-positive times are skipped.

    Returns the max over interior times and interior grid points of the
    Euclidean component norm of ``central time difference - Delta u``, with
    the finite-difference Laplacian, formed on the interior window only.
    Needs at least 3 positive, uniformly spaced times.
    """
    times = np.asarray(times, dtype=float)
    positive = times[times > 0]
    if len(positive) < 3:
        raise ValueError("need at least 3 positive times")
    dts = np.diff(positive)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("positive times must be uniformly spaced")
    dt = float(dts[0])
    window = []
    worst = 0.0
    for t, state in zip(times, states, strict=True):
        if not t > 0:
            continue
        window.append(state)
        if len(window) == 3:
            a, b, c = window
            inner = interior_slices(b.grid, margin)
            dudt = (c.values[inner] - a.values[inner]) / (2.0 * dt)
            lap = _window_laplacian(b, inner)
            pointwise = np.sqrt(np.sum(np.abs(dudt - lap) ** 2, axis=-1))
            worst = max(worst, float(pointwise.max()))
            # release the oldest state before the next one is computed
            del window[0], a, dudt, lap, pointwise
    return worst
