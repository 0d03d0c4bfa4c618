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

__all__ = [
    "ComplexTime",
    "as_time",
    "default_sector_angle",
    "kernel_eval",
    "kernel_dzeta",
    "kernel_mass",
    "kernel_fourier",
    "kernel_tail_bound",
    "weighted_kernel_tail_bound",
    "sample_kernel",
    "grid_for_time",
    "fourier_symbol_residual",
]


@dataclass(frozen=True)
class ComplexTime:
    """A complex evolution time: zero (identity) or ``Re zeta > 0``."""

    value: complex

    def __post_init__(self):
        z = complex(self.value)
        if z != 0 and not z.real > 0:
            raise ValueError(f"complex time must satisfy Re zeta > 0 (or be 0), got {z}")
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

    @property
    def direction(self) -> complex:
        """The unit ``zeta / |zeta|``."""
        if self.is_zero:
            raise ValueError("direction undefined at zero time")
        return self.value / abs(self.value)

    def in_sector(self, alpha: float) -> bool:
        """True iff ``|arg zeta| < alpha`` for ``0 < alpha < pi/2``."""
        if not 0.0 < alpha < math.pi / 2:
            raise ValueError(f"sector angle must lie in (0, pi/2), got {alpha}")
        return (not self.is_zero) and abs(self.argument) < alpha


def as_time(zeta) -> ComplexTime:
    """Coerce a complex number (or ComplexTime) to a validated ComplexTime."""
    if isinstance(zeta, ComplexTime):
        return zeta
    return ComplexTime(complex(zeta))


def default_sector_angle(zeta) -> float:
    """A sector angle strictly between ``|arg zeta|`` and ``pi/2``.

    Tail bounds are uniform over a sector, not over a single time; when no
    sector was declared by the caller this picks one with a little slack
    around the given time.
    """
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("no sector contains zeta = 0")
    phi = abs(ct.argument)
    return min(max(1.05 * phi + 0.05, 0.1), phi / 2 + math.pi / 4)


def _require_positive(zeta) -> complex:
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("kernel undefined at zeta = 0")
    return ct.value


def kernel_eval(zeta, x, n: int):
    """Evaluate the kernel at points ``x``.

    ``x`` is one point (scalar for n=1, or a length-n vector) or an array of
    points with coordinates along the last axis; the result drops that axis.
    """
    z = _require_positive(zeta)
    sq = squared_norm(x)
    pref = (4.0 * np.pi * z) ** (-n / 2.0)
    return pref * np.exp(-sq / (4.0 * z))


def kernel_dzeta(zeta, x, n: int):
    """Time derivative of the kernel, which equals its spatial Laplacian.

    The shared closed form is ``chi_zeta(x) (|x|^2/(4 zeta^2) - n/(2 zeta))``.
    """
    z = _require_positive(zeta)
    sq = squared_norm(x)
    return kernel_eval(z, x, n) * (sq / (4.0 * z * z) - n / (2.0 * z))


def kernel_mass(zeta, g: Grid) -> complex:
    """Riemann sum of the kernel over a grid; approximates 1 on the whole of
    the right half-plane, with error controlled by the tail bound plus the
    quadrature (aliasing) error."""
    # the kernel is a product of 1-D kernels, so its lattice sum is the n-th
    # power of the sum along one axis
    return complex(np.sum(kernel_eval(zeta, g.axis[:, np.newaxis], 1)) ** g.n * g.cell_volume)


def kernel_fourier(zeta, xi):
    """The Fourier symbol ``exp(-zeta |xi|^2)``, the spectral multiplier of
    the evolution operator.  ``xi`` follows the same point convention as
    :func:`kernel_eval`.  Unlike the kernel itself the symbol extends to
    ``zeta = 0``, where it is identically 1."""
    z = as_time(zeta).value
    return np.exp(-z * squared_norm(xi))


def kernel_tail_bound(zeta, alpha: float, R: float, n: int) -> float:
    """Upper bound for the kernel mass outside the ball of radius ``R``.

    Uses the sector-uniform majorant ``(4 pi r)^{-n/2} e^{-|x|^2 cos(alpha)/4r}``
    valid for ``|arg zeta| < alpha < pi/2``; its radial integral reduces to a
    regularized upper incomplete gamma.  Monotone decreasing in ``R`` and at
    least the full absolute mass at ``R = 0``.
    """
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("tail bound undefined at zeta = 0")
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError(f"sector angle must lie in (0, pi/2), got {alpha}")
    if not abs(ct.argument) < alpha:
        raise ValueError(f"zeta argument {ct.argument:.4f} outside the sector of angle {alpha:.4f}")
    if R < 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    from scipy.special import gammaincc  # imported on use: it is most of the package's import time
    a = math.cos(alpha) / (4.0 * ct.modulus)
    return math.cos(alpha) ** (-n / 2.0) * float(gammaincc(n / 2.0, a * R * R))


def weighted_kernel_tail_bound(zeta, alpha: float, R: float, n: int, k: float) -> float:
    """Upper bound for the weighted tail ``∫_{|x|>R} (1+|x|)^k |chi| dx``.

    Majorizes ``(1+rho)^k <= 2^k (1 + rho^k)``, so this is a valid but not
    tight bound; for ``k = 0`` it falls back to the exact majorant integral.
    """
    if k < 0:
        raise ValueError(f"weight exponent must be >= 0, got {k}")
    if k == 0:
        return kernel_tail_bound(zeta, alpha, R, n)
    from scipy.special import gammaincc
    ct = as_time(zeta)
    base = kernel_tail_bound(zeta, alpha, R, n)
    a = math.cos(alpha) / (4.0 * ct.modulus)
    moment = (
        math.cos(alpha) ** (-n / 2.0)
        * math.gamma((n + k) / 2.0)
        / math.gamma(n / 2.0)
        * a ** (-k / 2.0)
        * float(gammaincc((n + k) / 2.0, a * R * R))
    )
    return 2.0**k * (base + moment)


def sample_kernel(zeta, g: Grid) -> Field:
    """The kernel sampled on a grid as a scalar field."""
    z = _require_positive(zeta)
    return sample(g, lambda X: kernel_eval(z, X, g.n))


def grid_for_time(zeta, n: int, tol: float = 1e-10, alpha: float | None = None, k: float = 0.0) -> Grid:
    """Pick a grid just large and fine enough for kernel quadrature at ``zeta``.

    The half-extent comes from inverting the (weighted) tail bound at
    ``tol / 10``; the spacing resolves both the modulus width
    ``sqrt(2 r / cos(alpha))`` and, for nonreal times, the local oscillation
    wavelength at the truncation radius.
    """
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("cannot size a grid for zeta = 0")
    from scipy.special import gammainccinv
    if alpha is None:
        alpha = default_sector_angle(ct)
    r = ct.modulus
    a = math.cos(alpha) / (4.0 * r)
    target = (tol / 10.0) * math.cos(alpha) ** (n / 2.0)
    R = math.sqrt(float(gammainccinv(n / 2.0, min(target, 1.0))) / a)
    if k > 0:
        while weighted_kernel_tail_bound(ct, alpha, R, n, k) > tol / 10.0:
            R *= 1.1
    sigma = math.sqrt(2.0 * r / math.cos(alpha))
    h = sigma / 12.0
    s = abs(math.sin(ct.argument))
    if s > 0:
        h = min(h, math.pi * r / (2.0 * R * s))
    N = 2 * int(math.ceil(R / h)) + 1
    return make_grid(n, R, N)


def fourier_symbol_residual(zeta, g: Grid, fraction: float = 0.5) -> float:
    """Max-abs mismatch between the rescaled DFT of the sampled kernel and the
    symbol ``exp(-zeta |xi|^2)`` on the low-frequency window.

    The DFT is rescaled to the continuous convention: multiplied by ``h^n``
    and by the phase accounting for the grid starting at ``-L``.  Frequencies
    with ``|xi_axis| <= fraction * xi_max`` on every axis are compared.
    """
    from scipy import fft as _fft  # imported on use: it loads scipy.special (slow to import)
    z = _require_positive(zeta)
    freq = g.fourier_axis
    phase = reduce(np.multiply.outer, (np.exp(1j * freq * g.L),) * g.n)
    keep = reduce(np.logical_and.outer, (np.abs(freq) <= fraction * np.abs(freq).max(),) * g.n)
    approx = _fft.fftn(sample_kernel(z, g).values[..., 0]) * phase * g.cell_volume
    exact = reduce(np.multiply.outer, (kernel_fourier(z, freq[:, np.newaxis]),) * g.n)
    return float(np.abs(approx - exact)[keep].max())
