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

from .grid_field import Field, interior_slices
from .semigroup import Method, _path, _spectral_values, apply, apply_dzeta, apply_many
from .weights import SpaceSpec, _magnitude, difference_norm

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
    return Field(f.grid, _spectral_values(f, -f.grid.fourier_squared_norms))


def _halo(g, inner) -> tuple:
    """The window ``inner`` widened by the central stencil's one-point halo,
    clipped at the grid edge, and the window's place within that halo."""
    if g.N < 3:
        raise ValueError(f"central stencil needs N >= 3 points, got {g.N}")
    halo = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, g.N)) for s in inner)
    return halo, tuple(slice(s.start - h.start, s.stop - h.start) for s, h in zip(inner, halo))


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
    dts,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> list:
    """Residuals of the generator identities at real time ``t``, one
    :class:`GeneratorResiduals` per step of ``dts``, in order.

    The time derivative is the central difference
    ``(G(t+dt)f - G(t-dt)f) / (2 dt)``, so ``r1`` and ``r3`` carry an O(dt^2)
    bias on top of grid error.  The Laplacian is the spectral one.  ``r2``
    has no step, so all entries share it; it is only meaningful when ``f`` is
    smooth enough to differentiate on the grid.  All times come from one
    :func:`apply_many`, and only ``u`` and one shifted pair are held.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    dts = tuple(dts)  # read more than once
    if not all(0 < dt < t for dt in dts):
        raise ValueError(f"need 0 < dt < t for every step, got dts={dts}, t={t}")
    states = apply_many((t, *(s for dt in dts for s in (t + dt, t - dt))), f)
    u = next(states)
    lap_u = discrete_laplacian(u)
    r2 = difference_norm(lap_u, apply(t, discrete_laplacian(f)), space, margin)
    deriv = apply_dzeta(t, f)
    # G(t+dt)f, then G(t-dt)f: the order apply_many yields them in
    dudts = (u.with_values((next(states).values - next(states).values) / (2.0 * dt)) for dt in dts)
    norms = ((difference_norm(d, lap_u, space, margin), difference_norm(d, deriv, space, margin)) for d in dudts)
    return [GeneratorResiduals(r1, r2, r3) for r1, r3 in norms]


def difference_quotient_residual(
    f: Field,
    hs,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> list:
    """Residuals of ``(G(h)f - f)/h`` against the spectral Laplacian of ``f``,
    one per step of ``hs``, in order.

    For fields in the generator's domain this tends to 0 as ``h`` does, at
    observed order about 1 for smooth fields (the leading error term is
    ``(h/2) Delta^2 f``).
    """
    hs = tuple(hs)  # read more than once
    if not all(h > 0 for h in hs):
        raise ValueError(f"steps must be positive, got {hs}")
    lap = discrete_laplacian(f)
    return [
        difference_norm(f.with_values((u.values - f.values) / h), lap, space, margin)
        for h, u in zip(hs, apply_many(hs, f))
    ]


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
    out = np.empty((table.shape[1],) * n, dtype=table.dtype)
    for row, column in zip(out, table.T):
        row[...] = _node_sum(weights * column, table, n - 1)
    return out


def time_integral(f: Field, t: float, steps: int = 256) -> Field:
    """Composite-trapezoid quadrature of ``s -> G(s)f`` over ``[0, t]``.

    The nodes are geometrically refined toward 0 (ratio-2 panels), which
    keeps the trapezoid error controlled even when the integrand is merely
    continuous at 0.  Every node is a real time, forced onto the spectral
    path, and the propagator is linear: the weighted sum of the node states is
    one inverse DFT of ``f``'s spectrum times the weighted sum of the node
    symbols from :func:`semigroup._path` (1 at the node 0, the identity).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    nodes = _graded_nodes(t, steps)
    weights = np.convolve(np.diff(nodes), [0.5, 0.5])  # the trapezoid weights
    table = np.array([_path(s, f.grid, Method.SPECTRAL)[1] for s in nodes])
    values = _spectral_values(f, _node_sum(weights, table, f.grid.n))
    return Field(f.grid, values, meta={"t": t, "nodes": len(nodes), "method": "spectral"})


def mild_identity_residual(
    f: Field,
    t: float,
    steps,
    space: SpaceSpec = SpaceSpec.make(0),
    margin: float = DEFAULT_MARGIN,
) -> list:
    """Residuals ``|| Delta ∫_0^t G(s)f ds - (G(t)f - f) ||`` of the
    mild-solution identity in the weighted norm over the interior window, one
    per quadrature step count of ``steps``, in order.  The Laplacian is the
    spectral one; ``G(t)f - f`` is formed once.
    """
    rhs = f.with_values(apply(t, f).values - f.values)
    return [difference_norm(discrete_laplacian(time_integral(f, t, n)), rhs, space, margin) for n in steps]


def classical_residual(times, states, margin: float = DEFAULT_MARGIN) -> float:
    """Pointwise heat-equation residual along uniformly spaced times.

    ``states`` holds the field at each of ``times``: any iterable, such as
    ``apply_many(times, f)`` or a trajectory's states, with one state per
    time.  It is read once, in order.  States at non-positive times are
    skipped.

    Returns the max over interior times and interior grid points of the
    Euclidean component norm of ``central time difference - Delta u``, with
    the finite-difference Laplacian, formed on the interior window only:
    the max of :func:`_window_residuals`, NaN if any window's is.  Needs at
    least 3 positive times, spaced by their first step.
    """
    return float(np.max(list(_window_residuals(times, states, margin))))


def _window_residuals(times, states, margin: float = DEFAULT_MARGIN):
    """Yield :func:`classical_residual`'s max for each three consecutive
    positive times, in order: a residual profile over time.

    Of each state only a copy of the interior window plus the stencil's
    one-point halo is kept, three such windows at a time, and the state
    itself is released as soon as its window is copied: no name here refers
    to it when the next one is asked for.  The times are checked before the
    first state is read, and a count of states other than of times raises
    ``ValueError`` when the times run out.
    """
    times = np.asarray(times, dtype=float)
    positive = times[times > 0]
    if len(positive) < 3:
        raise ValueError("need at least 3 positive times")
    dts = np.diff(positive)
    dt = float(dts[0])
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError(f"positive times must be uniformly spaced by dt = {dt}")
    window = []  # halo copies of the last (up to) three positive-time states
    states = iter(states)
    # not zip(): its reused result tuple would hold the last state while the
    # next one is computed
    for t in times:
        state = next(states, None)
        if state is None:
            raise ValueError(f"{len(times)} times but fewer states")
        if t > 0:
            if not window:
                g = state.grid
                halo, within = _halo(g, interior_slices(g, margin))
            window.append(state.values[halo].copy())
        del state
        if len(window) == 3:
            a, b, c = window
            dudt = (c[within] - a[within]) / (2.0 * dt)
            lap = _stencil(b, g.n, 1.0 / (g.h * g.h))[within]
            worst = float(_magnitude(dudt - lap).max())
            del window[0], a, dudt, lap
            yield worst
    if next(states, None) is not None:
        raise ValueError(f"{len(times)} times but more states")
