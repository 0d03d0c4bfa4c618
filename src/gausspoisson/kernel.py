"""The complex-time Gaussian kernel and its analytically known properties.

The kernel at time ``zeta`` (right half-plane) is

    chi_zeta(x) = (4 pi zeta)^(-n/2) exp(-|x|^2 / (4 zeta))

with the principal branch of the complex power, so the prefactor is
single-valued and continuous on ``Re zeta > 0``.  Everything the evolution
operator needs is local to this module: the time derivative (which equals the
spatial Laplacian of the kernel), the Riemann-sum mass, the Fourier symbol
``exp(-zeta |xi|^2)`` under the convention ``F g (xi) = ∫ g(x) e^{-i x.xi} dx``,
and sector-uniform tail bounds used to size grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid_field import Field, Grid, make_grid, sample, squared_norm
from .weights import _checked_exponent

__all__ = [
    "ComplexTime",
    "as_time",
    "default_sector_angle",
    "kernel_eval",
    "kernel_dzeta",
    "kernel_mass",
    "kernel_fourier",
    "kernel_tail_bound",
    "sample_kernel",
    "grid_for_time",
    "fourier_symbol_residual",
]


@dataclass(frozen=True)
class ComplexTime:
    """A finite complex evolution time: zero (identity) or ``Re zeta > 0``."""

    value: complex

    def __post_init__(self):
        z = complex(self.value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or (z != 0 and not z.real > 0):
            raise ValueError(f"complex time must be finite with Re zeta > 0 (or be 0), got {z}")
        object.__setattr__(self, "value", z)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def modulus(self) -> float:
        return abs(self.value)

    @property
    def argument(self) -> float:
        if self.is_zero:
            raise ValueError("argument undefined at zero time")
        return math.atan2(self.value.imag, self.value.real)

    def in_sector(self, alpha: float) -> bool:
        """True iff ``|arg zeta| < alpha`` for ``0 < alpha < pi/2``."""
        _checked_sector(alpha)
        return (not self.is_zero) and abs(self.argument) < alpha


def as_time(zeta) -> ComplexTime:
    """Coerce a complex number (or ComplexTime) to a validated ComplexTime."""
    if isinstance(zeta, ComplexTime):
        return zeta
    return ComplexTime(complex(zeta))


def _require_positive(zeta) -> ComplexTime:
    """The time as a ComplexTime, which must be nonzero: the kernel, its
    derivative and everything sized or bounded from them need ``Re zeta > 0``."""
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("kernel undefined at zeta = 0")
    return ct


def _checked_sector(alpha: float) -> None:
    """The package's one check of a sector angle: strictly inside ``(0, pi/2)``."""
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError(f"sector angle must lie in (0, pi/2), got {alpha}")


def default_sector_angle(zeta) -> float:
    """A sector angle strictly between ``|arg zeta|`` and ``pi/2``.

    Tail bounds are uniform over a sector, not over a single time; when no
    sector was declared by the caller this picks one with a little slack
    around the given time.
    """
    phi = abs(_require_positive(zeta).argument)
    return min(max(1.05 * phi + 0.05, 0.1), phi / 2 + math.pi / 4)


def kernel_eval(zeta, X):
    """The kernel at per-axis coordinates ``X``, ``n = len(X)`` arrays that
    broadcast together, formed in place as one complex array.  The prefactor
    stays the first operand of the product: with fused multiply-adds,
    ``a*b`` and ``b*a`` can differ in the last bit."""
    z = _require_positive(zeta).value
    pref = (4.0 * np.pi * z) ** (-len(X) / 2.0)
    out = np.asarray(-squared_norm(X) / (4.0 * z))
    np.exp(out, out=out)
    return np.multiply(pref, out, out=out)


def kernel_dzeta(zeta, X):
    """Time derivative of the kernel at ``X``, which equals its spatial
    Laplacian: ``chi_zeta(x) (|x|^2/(4 zeta^2) - n/(2 zeta))``."""
    z = _require_positive(zeta).value
    sq = squared_norm(X)
    return kernel_eval(z, X) * (sq / (4.0 * z * z) - len(X) / (2.0 * z))


def kernel_mass(zeta, g: Grid) -> complex:
    """Riemann sum of the kernel over a grid; approximates 1 on the whole of
    the right half-plane, with error controlled by the tail bound plus the
    quadrature (aliasing) error."""
    # the kernel is a product of 1-D kernels, so its lattice sum is the n-th
    # power of the sum along one axis
    return complex(np.sum(kernel_eval(zeta, (g.axis,))) ** g.n * g.cell_volume)


def kernel_fourier(zeta, Xi):
    """The Fourier symbol ``exp(-zeta |xi|^2)``, the spectral multiplier of
    the evolution operator, at per-axis frequencies ``Xi`` as
    :func:`kernel_eval` takes coordinates.  Unlike the kernel itself the
    symbol extends to ``zeta = 0``, where it is identically 1."""
    z = as_time(zeta).value
    return np.exp(-z * squared_norm(Xi))


# the kernel tail mass beyond the half-extent that grid_for_time sizes grids
# to by default, and above which an evolution flags its grid as too small
_TAIL_BUDGET = 1e-10


def kernel_tail_bound(zeta, alpha: float, R: float, n: int, k: float) -> float:
    """Upper bound for the weighted kernel tail ``∫_{|x|>R} (1+|x|)^k |chi| dx``.

    Integrates the sector-uniform majorant
    ``(4 pi r)^{-n/2} e^{-|x|^2 cos(alpha)/4r}`` of ``|chi|``, valid for
    ``|arg zeta| < alpha < pi/2``.  Its radial moments ``∫_{|x|>R} |x|^j``
    are regularized upper incomplete gammas, so the binomial expansion of
    ``(1+|x|)^K`` with ``K = ceil(k)`` gives the integral: exactly for
    integer ``k``, and as an upper bound otherwise, since ``1+|x| >= 1``.
    Monotone decreasing in ``R``; at ``k = 0`` it is the kernel's mass
    outside the ball, at least the full absolute mass at ``R = 0``.
    """
    ct = _require_positive(zeta)
    _checked_sector(alpha)
    if not abs(ct.argument) < alpha:
        raise ValueError(f"zeta argument {ct.argument:.4f} outside the sector of angle {alpha:.4f}")
    if not R >= 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    return _majorant_tail(ct.modulus, alpha, R, n, math.ceil(_checked_exponent(k)))


def _majorant_tail(r: float, alpha: float, R: float, n: int, K: int) -> float:
    """The closed form behind :func:`kernel_tail_bound`, unchecked: the tail
    of the majorant at modulus ``r``, weighted by ``(1+|x|)^K``."""
    a = math.cos(alpha) / (4.0 * r)

    def moment(j):  # the majorant's tail integral of |x|^j
        s = (n + j) / 2.0
        ratio = math.gamma(s) / math.gamma(n / 2.0)
        return math.cos(alpha) ** (-n / 2.0) * ratio * a ** (-j / 2.0) * _gammaincc(s, a * R * R)

    return moment(0) + sum(math.comb(K, j) * moment(j) for j in range(1, K + 1))


def _gammaincc(s: float, x: float) -> float:
    """The regularized upper incomplete gamma ``Q(s, x)`` at an order ``s`` in
    ``{1/2, 1, 3/2, ...}``, the orders of the Gaussian's radial moments, in
    closed form (DLMF §8.4 and §8.8): ``Q(1/2, x) = erfc(sqrt(x))``,
    ``Q(1, x) = e^{-x}`` and ``Q(t+1, x) = Q(t, x) + x^t e^{-x} / Gamma(t+1)``.
    Every added term is positive, formed as ``exp(t log x - x - lgamma(t+1))``."""
    if not (s > 0 and float(2 * s).is_integer()):
        raise ValueError(f"order must be a positive multiple of 1/2, got {s}")
    if not x >= 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    t = 0.5 if s % 1 else 1.0
    q = math.erfc(math.sqrt(x)) if t == 0.5 else math.exp(-x)
    while t < s:
        q += math.exp(t * math.log(x) - x - math.lgamma(t + 1.0))
        t += 1.0
    return q


def _own_tail(zeta, R: float, n: int, k: float) -> float:
    """:func:`kernel_tail_bound` at the angle just above ``|arg zeta|``, where
    the sector majorant is ``|chi_zeta|`` itself: the kernel's own tail."""
    alpha = math.nextafter(abs(_require_positive(zeta).argument), math.pi / 2)
    return kernel_tail_bound(zeta, alpha, R, n, k)


def sample_kernel(zeta, g: Grid) -> Field:
    """The kernel sampled on a grid as a scalar field."""
    return sample(g, lambda X: kernel_eval(zeta, X))


def grid_for_time(zeta, n: int, tol: float = _TAIL_BUDGET) -> Grid:
    """Pick a grid just large and fine enough for kernel quadrature at ``zeta``.

    The half-extent is the smallest float ``R`` at which
    :func:`kernel_tail_bound` in the sector of angle
    ``alpha = default_sector_angle(zeta)`` is at most ``tol / 10``: an upper
    end is doubled, then the bound is bisected down to adjacent floats.  The
    spacing resolves both the modulus width ``sqrt(2 r / cos(alpha))`` and,
    for nonreal times, the local oscillation wavelength at that radius.
    """
    ct = _require_positive(zeta)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    alpha = default_sector_angle(ct)
    r = ct.modulus

    def too_short(R):  # the kernel_tail_bound beyond R is above tol / 10
        return _majorant_tail(r, alpha, R, n, 0) > tol / 10.0

    lo, R = 0.0, 1.0
    while too_short(R):
        lo, R = R, 2.0 * R
    while lo < (mid := 0.5 * (lo + R)) < R:
        lo, R = (mid, R) if too_short(mid) else (lo, mid)
    sigma = math.sqrt(2.0 * r / math.cos(alpha))
    h = sigma / 12.0
    s = abs(math.sin(ct.argument))
    if s > 0:
        h = min(h, math.pi * r / (2.0 * R * s))
    N = 2 * int(math.ceil(R / h)) + 1
    return make_grid(n, R, N)


def fourier_symbol_residual(zeta, g: Grid) -> float:
    """Max-abs mismatch between the rescaled DFT of the sampled kernel and the
    symbol ``exp(-zeta |xi|^2)`` on the low-frequency window.

    The DFT is rescaled to the continuous convention: multiplied by ``h^n``
    and by the phase accounting for the grid starting at ``-L``.  Frequencies
    with ``|xi_axis| <= xi_max / 2`` on every axis are compared.
    """
    freq = g.fourier_axis
    phase = reduce(np.multiply.outer, (np.exp(1j * freq * g.L),) * g.n)
    keep = reduce(np.logical_and.outer, (np.abs(freq) <= 0.5 * np.abs(freq).max(),) * g.n)
    approx = sample_kernel(zeta, g).spectrum[..., 0] * phase * g.cell_volume  # checks Re zeta > 0
    exact = reduce(np.multiply.outer, (kernel_fourier(zeta, (freq,)),) * g.n)
    return float(np.abs(approx - exact)[keep].max())
