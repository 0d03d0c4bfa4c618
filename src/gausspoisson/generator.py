"""The Laplacian as the generator of the evolution: residual checks.

Everything here quantifies one statement: the time derivative of the evolved
field is its spatial Laplacian.  Three layers of it are covered:

* generator identities: ``dG(t)f/dt = Delta G(t)f = G(t) Delta f``, measured
  as residuals ``r1``/``r2``/``r3`` against a central time difference;
* the mild-solution identity ``Delta ∫_0^t G(s)f ds = G(t)f - f`` (and its
  eps-truncated variant ``Delta ∫_eps^t = G(t)f - G(eps)f``);
* the classical pointwise equation ``du/dt = Delta u`` along a trajectory.

All residual norms exclude a boundary margin so zero-fill and wrap artifacts
stay out of the error budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid_field import Field, interior_slices
from .semigroup import apply, apply_dzeta, apply_many
from .weights import SpaceSpec, difference_norm

__all__ = [
    "LaplacianMethod",
    "discrete_laplacian",
    "GeneratorResiduals",
    "generator_residuals",
    "difference_quotient_residual",
    "time_integral",
    "mild_identity_residual",
    "classical_residual",
]

DEFAULT_MARGIN = 0.25


class LaplacianMethod(enum.Enum):
    """Discretization of the Laplacian ``sum_j d^2/dx_j^2``."""

    FINITE_DIFFERENCE = "finite_difference"
    SPECTRAL = "spectral"


def _as_laplacian(method) -> LaplacianMethod:
    if isinstance(method, LaplacianMethod):
        return method
    return LaplacianMethod(str(method).lower())


def _space(s) -> SpaceSpec:
    return SpaceSpec.make(0) if s is None else s


def discrete_laplacian(f: Field, method=LaplacianMethod.SPECTRAL) -> Field:
    """Apply a discrete Laplacian to a field.

    ``finite_difference`` is the second-order central stencil
    ``sum_j (f(x+h e_j) - 2 f(x) + f(x-h e_j)) / h^2`` with zero-fill off the
    grid; ``spectral`` multiplies by ``-|xi|^2`` in DFT space (periodic).
    Both are self-adjoint for the quadrature pairing on interior-supported
    fields.
    """
    method = _as_laplacian(method)
    g = f.grid
    if method is LaplacianMethod.FINITE_DIFFERENCE:
        if g.N < 3:
            raise ValueError(f"central stencil needs N >= 3 points, got {g.N}")
        return Field(g, _stencil(f.values, g.n, 1.0 / (g.h * g.h)), meta={"laplacian": method.value})
    from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
    axes = tuple(range(g.n))
    spect = _fft.fftn(f.values, axes=axes)
    spect = spect * (-g.fourier_squared_norms)[..., np.newaxis]
    return Field(g, _fft.ifftn(spect, axes=axes, overwrite_x=True), meta={"laplacian": method.value})


def _window_laplacian(f: Field, method: LaplacianMethod, inner) -> np.ndarray:
    """``discrete_laplacian(f, method).values[inner]``.

    The stencil is formed only on the window plus a one-point halo, clipped at
    the grid edge, where the zero-fill is the grid's own.  The spectral
    Laplacian transforms the whole grid (as does a grid too small for the
    stencil, which ``discrete_laplacian`` rejects).
    """
    g = f.grid
    if method is LaplacianMethod.SPECTRAL or g.N < 3:
        return discrete_laplacian(f, method).values[inner]
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

    def max(self) -> float:
        return max(self.r1, self.r2, self.r3)


def generator_residuals(
    f: Field,
    t: float,
    dt: float,
    space: SpaceSpec | None = None,
    margin: float = DEFAULT_MARGIN,
    laplacian=LaplacianMethod.SPECTRAL,
    method=None,
) -> GeneratorResiduals:
    """Residuals of the generator identities at real time ``t``.

    The time derivative is the central difference
    ``(G(t+dt)f - G(t-dt)f) / (2 dt)``, so all three residuals carry an
    O(dt^2) bias on top of grid error.  ``r2`` applies the same Laplacian
    discretization on both sides so its bias cancels to leading order; it is
    only meaningful when ``f`` is smooth enough to differentiate on the grid.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    if not 0 < dt < t:
        raise ValueError(f"need 0 < dt < t, got dt={dt}, t={t}")
    s = _space(space)
    u = apply(t, f, method=method)
    u_plus = apply(t + dt, f, method=method)
    u_minus = apply(t - dt, f, method=method)
    dudt = u.with_values((u_plus.values - u_minus.values) / (2.0 * dt))
    lap_u = discrete_laplacian(u, laplacian)
    u_of_lap = apply(t, discrete_laplacian(f, laplacian), method=method)
    deriv = apply_dzeta(t, f)
    return GeneratorResiduals(
        r1=difference_norm(dudt, lap_u, s, margin),
        r2=difference_norm(lap_u, u_of_lap, s, margin),
        r3=difference_norm(dudt, deriv, s, margin),
    )


def difference_quotient_residual(
    f: Field,
    h: float,
    space: SpaceSpec | None = None,
    margin: float = DEFAULT_MARGIN,
    laplacian=LaplacianMethod.SPECTRAL,
    method=None,
) -> float:
    """Residual of ``(G(h)f - f)/h`` against the discrete Laplacian of ``f``.

    For fields in the generator's domain this tends to 0 as ``h`` does, at
    observed order about 1 for smooth fields (the leading error term is
    ``(h/2) Delta^2 f``).
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    s = _space(space)
    quotient = f.with_values((apply(h, f, method=method).values - f.values) / h)
    return difference_norm(quotient, discrete_laplacian(f, laplacian), s, margin)


def _graded_nodes(t: float, eps: float, steps: int) -> np.ndarray:
    """Trapezoid nodes on [eps, t]; geometrically graded toward 0 when eps=0.

    For eps = 0 the interval splits into dyadic panels
    ``[t 2^{-j-1}, t 2^{-j}]`` each subdivided uniformly, plus one closing
    panel ``[0, t 2^{-levels}]``; the integrand is continuous at 0 so the node
    at 0 itself is usable (the evolution there is the identity).
    """
    if eps > 0:
        return np.linspace(eps, t, steps + 1)
    levels = max(1, int(round(math.log2(steps))))
    per_level = max(1, steps // levels)
    nodes = [np.array([0.0])]
    for j in range(levels, 0, -1):
        lo, hi = t * 2.0 ** -(j), t * 2.0 ** -(j - 1)
        nodes.append(np.linspace(lo, hi, per_level + 1)[(1 if j < levels else 0) :])
    out = np.concatenate(nodes)
    return out


def time_integral(f: Field, t: float, eps: float = 0.0, steps: int = 256, method=None) -> Field:
    """Composite-trapezoid quadrature of ``s -> G(s)f`` over ``[eps, t]``.

    With ``eps = 0`` the nodes are geometrically refined toward 0 (ratio-2
    panels), which keeps the trapezoid error controlled even when the
    integrand is merely continuous at 0.  Node states are accumulated in a
    fixed order, so results are deterministic.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    if not 0 <= eps < t:
        raise ValueError(f"need 0 <= eps < t, got eps={eps}, t={t}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    nodes = _graded_nodes(t, eps, steps)
    states = apply_many(nodes, f, method=method)
    prev_vals = next(states).values
    acc = np.zeros_like(f.values)
    for prev_t, s_node, state in zip(nodes, nodes[1:], states):
        acc = acc + 0.5 * (s_node - prev_t) * (state.values + prev_vals)
        prev_vals = state.values
    return Field(f.grid, acc, meta={"t": t, "eps": eps, "nodes": len(nodes)})


def mild_identity_residual(
    f: Field,
    t: float,
    steps: int = 256,
    eps: float = 0.0,
    space: SpaceSpec | None = None,
    margin: float = DEFAULT_MARGIN,
    laplacian=LaplacianMethod.SPECTRAL,
    method=None,
) -> float:
    """Residual of the mild-solution identity in the weighted norm.

    For ``eps = 0`` this is
    ``|| Delta ∫_0^t G(s)f ds - (G(t)f - f) ||`` over the interior window;
    for ``eps > 0`` the right-hand side becomes ``G(t)f - G(eps)f``.
    """
    s = _space(space)
    integral = time_integral(f, t, eps=eps, steps=steps, method=method)
    lhs = discrete_laplacian(integral, laplacian)
    upper = apply(t, f, method=method)
    lower = f if eps == 0 else apply(eps, f, method=method)
    rhs = upper.with_values(upper.values - lower.values)
    return difference_norm(lhs, rhs, s, margin)


def classical_residual(
    times,
    states,
    margin: float = DEFAULT_MARGIN,
    laplacian=LaplacianMethod.FINITE_DIFFERENCE,
) -> float:
    """Pointwise heat-equation residual along uniformly spaced times.

    ``states`` holds the field at each of ``times``: any iterable, such as
    ``apply_many(times, f)`` or a trajectory's states.  It is read once, in
    order, through a window of three consecutive states, so a streamed
    evolution is never held whole.  States at non-positive times are skipped.

    Returns the max over interior times and interior grid points of the
    Euclidean component norm of ``central time difference - Delta u``, formed
    on the interior window only.  Needs at least 3 positive, uniformly spaced
    times.
    """
    times = np.asarray(times, dtype=float)
    positive = times[times > 0]
    if len(positive) < 3:
        raise ValueError("need at least 3 positive times")
    dts = np.diff(positive)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("positive times must be uniformly spaced")
    dt = float(dts[0])
    laplacian = _as_laplacian(laplacian)
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
            lap = _window_laplacian(b, laplacian, inner)
            pointwise = np.sqrt(np.sum(np.abs(dudt - lap) ** 2, axis=-1))
            worst = max(worst, float(pointwise.max()))
            # release the oldest state before the next one is computed
            del window[0], a, dudt, lap, pointwise
    return worst
