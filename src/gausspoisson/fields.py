"""Analytic test fields: named rules, Gaussian mixtures, random generators.

Gaussian mixtures are the workhorse: they evolve in closed form (a Gaussian
stays a Gaussian; the width parameter moves by a Moebius map), so every
evolution result can be compared against an exact expression.  The evolved
width is complex in general; any ``Re a > 0`` keeps the term integrable and
the family closed under further evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid_field import Field, Grid, sample, squared_norm
from .kernel import as_time

__all__ = [
    "GaussianMixture",
    "random_gaussian_mixture",
    "field_rule",
    "FIELD_RULES",
]


@dataclass(frozen=True)
class GaussianMixture:
    """A finite sum of vector-amplitude Gaussians ``sum_t c_t e^{-a_t |x - mu_t|^2}``.

    ``amplitudes`` has shape (terms, m) complex, ``widths`` shape (terms,)
    with ``Re a_t > 0``, ``centers`` shape (terms, n) real.  Instances are
    rules, directly usable with :func:`~gausspoisson.grid_field.sample`.
    """

    amplitudes: np.ndarray
    widths: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        amp = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        wid = np.atleast_1d(np.asarray(self.widths, dtype=complex))
        cen = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if not (amp.shape[0] == wid.shape[0] == cen.shape[0] >= 1):
            raise ValueError(
                f"term counts disagree: {amp.shape[0]} amplitudes, "
                f"{wid.shape[0]} widths, {cen.shape[0]} centers"
            )
        for name, arr in (("amplitudes", amp), ("widths", wid), ("centers", cen)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        if np.any(wid.real <= 0):
            raise ValueError("every width must have positive real part")
        for arr in (amp, wid, cen):
            arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "widths", wid)
        object.__setattr__(self, "centers", cen)

    @property
    def terms(self) -> int:
        return self.widths.shape[0]

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    @property
    def m(self) -> int:
        return self.amplitudes.shape[1]

    def __call__(self, X) -> np.ndarray:
        """The mixture at per-axis coordinates ``X``, ``n`` arrays that
        broadcast together (the open mesh :func:`sample` passes), with the
        components along a trailing axis.  Each term is the product of its
        1-D factors ``e^{-a (x_j - mu_j)^2}``, added into the output in place,
        one component at a time."""
        out = np.zeros(np.broadcast_shapes(*map(np.shape, X)) + (self.m,), dtype=complex)
        for c, a, mu in zip(self.amplitudes, self.widths, self.centers):
            term = reduce(np.multiply, [np.exp(-a * (x - mu_j) ** 2) for x, mu_j in zip(X, mu, strict=True)])
            for j, c_j in enumerate(c):
                out[..., j] += term * c_j
        return out

    def evolved(self, zeta) -> "GaussianMixture":
        """The exact evolution of the mixture at time ``zeta``.

        Convolving the kernel with ``c e^{-a |x-mu|^2}`` gives
        ``c (1+4 a zeta)^{-n/2} e^{-a |x-mu|^2 / (1+4 a zeta)}`` (principal
        branch; ``1+4 a zeta`` never meets the closed negative real axis when
        both ``a`` and ``zeta`` lie in the right half-plane).
        """
        ct = as_time(zeta)
        if ct.is_zero:
            return self
        denom = 1.0 + 4.0 * self.widths * ct.value
        amp = self.amplitudes * (denom ** (-self.n / 2.0))[:, np.newaxis]
        return GaussianMixture(amp, self.widths / denom, self.centers)

    def sampled(self, grid: Grid) -> Field:
        """The mixture on a grid: :func:`sample` with the mixture as the rule."""
        if grid.n != self.n:
            raise ValueError(f"mixture is {self.n}-dimensional, grid is {grid.n}-dimensional")
        return sample(grid, self)


def random_gaussian_mixture(n: int, m: int = 1, terms: int = 3, rng=None) -> GaussianMixture:
    """Draw a seeded random mixture that decays fast away from the origin.

    Centers are uniform in ``[-2, 2]^n`` and widths uniform in ``[1, 2]``, so
    every term is below 1e-12 within distance 6 of the centers; amplitudes
    are standard complex Gaussians.  Pass an integer or a generator as
    ``rng`` for reproducibility.
    """
    rng = np.random.default_rng(rng)
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    amp = (rng.standard_normal((terms, m)) + 1j * rng.standard_normal((terms, m))) / np.sqrt(2.0)
    wid = rng.uniform(1.0, 2.0, size=terms)
    cen = rng.uniform(-2.0, 2.0, size=(terms, n))
    return GaussianMixture(amp.astype(complex), wid.astype(complex), cen)


# named analytic rules for configuration files and the command line; each maps
# per-axis coordinates (as sample passes them) to scalar values that broadcast
# to the lattice
FIELD_RULES = {
    "constant": lambda X: 1.0,
    "gaussian": lambda X: np.exp(-squared_norm(X)),
    "wide_gaussian": lambda X: np.exp(-squared_norm(X) / 4.0),
    "modulated_gaussian": lambda X: np.cos(3.0 * X[0]) * np.exp(-squared_norm(X)),
    "cosine": lambda X: np.cos(X[0]),
}


def field_rule(name: str):
    """Look up a named analytic field rule."""
    try:
        return FIELD_RULES[name]
    except KeyError:
        known = ", ".join(sorted(FIELD_RULES))
        raise ValueError(f"unknown field rule {name!r}; known rules: {known}") from None
