"""Property suites: residual checks with anchors, tolerances, and reports.

Each check turns one identity of the underlying theory into a nonnegative
residual and compares it against a configured tolerance.  A report is a
deterministic list of check results (fixed table order, seeded
randomness), serializable as CSV and as readable text.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from operator import attrgetter

import numpy as np

from . import kernel as kernelmod
from .fields import GaussianMixture, field_rule, random_gaussian_mixture
from .generator import (
    DEFAULT_MARGIN,
    _window_residuals,
    classical_residual,
    difference_quotient_residual,
    generator_residuals,
    mild_identity_residual,
)
from .grid_field import Field, Grid, _next_fast_len, interior_slices, make_grid, sample
from .kernel import _checked_sector, _require_positive, as_time
from .semigroup import Method, _operator_norms, apply, apply_dzeta, apply_many, operator_bound
from .weights import SpaceKind, SpaceSpec, difference_norm, weight_inequality_check, weighted_norm

__all__ = [
    "parse_complex",
    "format_complex",
    "SuiteConfig",
    "CheckResult",
    "VerificationReport",
    "semigroup_law_residual",
    "continuity_scan",
    "holomorphy_residuals",
    "contour_residual",
    "run_suite",
    "CHECK_GROUPS",
]


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``a+bi`` or ``a-bi`` (no spaces, trailing ``i``)."""
    s = text.strip()
    if not s or any(c.isspace() for c in s):
        raise ValueError(f"malformed complex number {text!r}")
    try:
        return complex(s.replace("i", "j")) if s.endswith("i") else complex(float(s))
    except ValueError:
        raise ValueError(f"malformed complex number {text!r}") from None


def format_complex(z: complex) -> str:
    """Inverse of :func:`parse_complex`, round-trip exact; real numbers print
    without an imaginary part."""
    z = complex(z)
    if z.imag == 0:
        return format(z.real, ".17g")
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _list_of(parse):
    """The parser of a comma-separated list; empty items are skipped."""
    return lambda text: tuple(parse(part.strip()) for part in text.split(",") if part.strip())


def _joined(fmt):
    """The inverse of ``_list_of``: the items formatted, comma-separated."""
    return lambda values: ",".join(map(fmt, values))


def _optional_float(text: str) -> float | None:
    return None if text.lower() in ("", "none") else float(text)


def _g17(x: float) -> str:
    return format(x, ".17g")


# The flat key=value form of a SuiteConfig: key -> (field, parse, format).
# ``space.*`` fields are the arguments of ``SpaceSpec.make``.  A key ending in
# "." is a prefix: ``tol.<name>`` sets ``tolerances[name]``.  A field that is
# None (``space.p`` outside Lp, ``checks`` when every group runs) has no key.
_CONFIG_KEYS = {
    "grid.n": ("n", int, str),
    "grid.L": ("L", float, _g17),
    "grid.N": ("N", int, str),
    "space.k": ("space.k", float, _g17),
    "space.kind": ("space.kind", str, attrgetter("value")),
    "space.p": ("space.p", _optional_float, _g17),
    "sector.alpha": ("alpha", float, _g17),
    "margin": ("margin", float, _g17),
    "seed": ("seed", int, str),
    "rule": ("rule", str, str),
    "continuity.rule": ("continuity_rule", str, str),
    "zetas": ("zetas", _list_of(parse_complex), _joined(format_complex)),
    "rays": ("rays", _list_of(float), _joined(_g17)),
    "radii": ("radii", _list_of(float), _joined(_g17)),
    "checks": ("checks", _list_of(str), ",".join),
    "tol.": ("tolerances", float, _g17),
}


DEFAULT_ZETAS = (
    0.25,
    1.0,
    4.0,
    complex(np.exp(1j * np.pi / 4)),
    complex(np.exp(-1j * np.pi / 4)),
    complex(0.5 * np.exp(1j * np.pi / 3)),
)

DEFAULT_LAW_PAIRS = (
    (0.3, 0.7),
    (complex(0.5 * np.exp(1j * np.pi / 4)), complex(0.5 * np.exp(-1j * np.pi / 4))),
    (complex(0.2 * np.exp(1j * np.pi / 6)), 0.5),
)

DEFAULT_TOLERANCES = {
    "weights": 1e-12,
    "kernel_mass_real": 1e-8,
    "kernel_mass_complex": 1e-6,
    "fourier_symbol": 1e-4,
    "semigroup_law": 1e-5,
    "path_agreement": 1e-5,
    "gaussian_closed_form": 1e-6,
    "kernel_reproduction": 1e-6,
    "continuity_final": 1e-3,
    "continuity_monotone": 1e-9,
    "holomorphy_ratio": 0.5,
    "contour": 1e-8,
    "generator": 1e-4,
    "quotient_order": 1e-9,
    "mild": 1e-4,
    "mild_refinement": 1e-9,
    "operator_bound": 1e-10,
    "classical_refinement": 1e-9,
}


@dataclass(frozen=True)
class SuiteConfig:
    """Full configuration of a verification run.

    ``checks`` is either None (run everything) or a tuple of group names from
    :data:`CHECK_GROUPS`; an empty tuple yields an empty (passing) report.
    ``tolerances`` overrides entries of the documented defaults.
    """

    n: int = 1
    L: float = 12.0
    N: int = 1025
    space: SpaceSpec = SpaceSpec.make(0)
    alpha: float = 2.0 * math.pi / 5
    margin: float = 0.25
    seed: int = 7
    zetas: tuple = DEFAULT_ZETAS
    rays: tuple = (-math.pi / 4, 0.0, math.pi / 4)
    radii: tuple = tuple(2.0**-j for j in range(1, 11))
    rule: str = "gaussian"
    continuity_rule: str = "wide_gaussian"
    tolerances: dict = dc_field(default_factory=dict)
    checks: tuple | None = None

    def __post_init__(self):
        interior_slices(self.grid, self.margin)
        _continuity_geometry(self.alpha, self.rays, self.radii)
        field_rule(self.rule)
        field_rule(self.continuity_rule)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.zetas:
            raise ValueError("need at least one zeta sample")
        for z in self.zetas:
            ct = as_time(z)
            if ct.is_zero:
                raise ValueError("zeta samples must be nonzero: the kernel is undefined at zeta = 0")
            if ct.value.imag != 0 and not ct.in_sector(self.alpha):
                raise ValueError(f"zeta sample {z} lies outside the sector of angle {self.alpha}")
        # each sample names its own report rows, so two that print alike would share them
        for kind, names in (("zeta", [format_complex(z) for z in self.zetas]), ("ray", [f"{r:g}" for r in self.rays])):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"{kind} samples must have distinct row names; repeated: {repeated}")
        if self.checks is not None:
            unknown = [c for c in self.checks if c not in CHECK_GROUPS]
            if unknown:
                raise ValueError(f"unknown check groups {unknown}; known: {list(CHECK_GROUPS)}")
        unknown_tols = [key for key in self.tolerances if key not in DEFAULT_TOLERANCES]
        if unknown_tols:
            raise ValueError(
                f"unknown tolerance names {unknown_tols}; known: {sorted(DEFAULT_TOLERANCES)}"
            )
        bad_tols = {key: value for key, value in self.tolerances.items() if not value >= 0}
        if bad_tols:
            raise ValueError(f"tolerances must be non-negative numbers, got {bad_tols}")

    @property
    def grid(self) -> Grid:
        return make_grid(self.n, self.L, self.N)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    @staticmethod
    def from_mapping(mapping: dict) -> "SuiteConfig":
        """Build a config from flat string key-value pairs.

        The recognized keys, with the field each sets and its text format,
        are the entries of ``_CONFIG_KEYS`` in this module; any other key is
        an error.
        """
        kwargs = {}
        for key, raw in mapping.items():
            prefix = key[: key.find(".") + 1]  # "tol." of tol.<name>; "" without a dot
            if prefix in _CONFIG_KEYS:
                field, parse, _ = _CONFIG_KEYS[prefix]
                kwargs.setdefault(field, {})[key[len(prefix) :]] = parse(raw.strip())
            elif key in _CONFIG_KEYS:
                field, parse, _ = _CONFIG_KEYS[key]
                kwargs[field] = parse(raw.strip())
            else:
                raise ValueError(f"unknown configuration key {key!r}")
        space = {name: kwargs.pop(f"space.{name}") for name in ("k", "kind", "p") if f"space.{name}" in kwargs}
        return SuiteConfig(**kwargs, space=SpaceSpec.make(**{"k": 0.0, **space}))

    def to_mapping(self) -> dict:
        """Serialize back to the flat key-value form (inverse of from_mapping)."""
        out = {}
        for key, (field, _, fmt) in _CONFIG_KEYS.items():
            value = attrgetter(field)(self)
            if key.endswith("."):
                out.update((key + name, fmt(v)) for name, v in sorted(value.items()))
            elif value is not None:
                out[key] = fmt(value)
        return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    meta: dict = dc_field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class VerificationReport:
    results: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if not r.passed]

    def to_csv_text(self) -> str:
        lines = ["check,anchor,residual,tolerance,pass"]
        for r in self.results:
            lines.append(
                f"{r.name},{r.anchor},{format(r.residual, '.17g')},"
                f"{format(r.tolerance, '.17g')},{'true' if r.passed else 'false'}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        if not self.results:
            return "no checks enabled\n"
        width = max(len(r.name) for r in self.results)
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            error = f"  error: {r.meta['error']}" if "error" in r.meta else ""
            lines.append(
                f"{status}  {r.name:<{width}}  residual {r.residual:.6e}"
                f"  tol {r.tolerance:.6e}  [{r.anchor}]{error}"
            )
        n_pass = sum(1 for r in self.results if r.passed)
        lines.append(f"{n_pass}/{len(self.results)} checks passed")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def write_text(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_text())


# -- check operations ----------------------------------------------------------


def semigroup_law_residual(zeta1, zeta2, f: Field, s: SpaceSpec, margin: float = DEFAULT_MARGIN) -> float:
    """Interior-window weighted-norm residual of the composition law:
    evolving by ``zeta1 + zeta2`` in one step versus two, each on the
    default path for its time."""
    z1, z2 = as_time(zeta1), as_time(zeta2)
    one_step, first_step = apply_many((z1.value + z2.value, z2), f)
    return difference_norm(one_step, apply(z1, first_step), s, margin)


def _continuity_geometry(alpha: float, rays, radii) -> tuple:
    """Validate a continuity scan's sector angle, rays and radii; returns the
    radii as floats."""
    _checked_sector(alpha)
    if not rays:
        raise ValueError("need at least one ray")
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    for ray in rays:
        if not abs(ray) < alpha:
            raise ValueError(f"ray angle {ray} is outside the sector of angle {alpha}")
    return radii


def continuity_scan(f: Field, s: SpaceSpec, alpha: float, rays, radii, margin: float = DEFAULT_MARGIN) -> list:
    """Residuals of ``G(r e^{i ray}) f - f`` for each ray and shrinking radius.

    Returns one list per ray, in the given order, of the residuals at each
    radius, in the given order; every ray must lie strictly inside the sector
    of angle ``alpha``.  Strong continuity at zero time predicts the
    residuals to fall to 0 along every ray.
    """
    radii = _continuity_geometry(alpha, rays, radii)
    scans = (apply_many([r * complex(math.cos(ray), math.sin(ray)) for r in radii], f) for ray in rays)
    return [[difference_norm(u, f, s, margin) for u in states] for states in scans]


def holomorphy_residuals(f: Field, zeta, hs, s: SpaceSpec, margin: float = DEFAULT_MARGIN) -> list:
    """Discrete complex-differentiability measures of ``zeta -> G(zeta)f``.

    Returns one pair ``(cauchy_riemann, derivative_match)`` per step of
    ``hs``, in order: the weighted norm of the central-difference
    approximation of the conjugate derivative (it must vanish for a
    holomorphic map), and the distance of the real-direction difference
    quotient from the closed-form derivative operator, applied once.  Every
    evolution is by quadrature, the path of the derivative operator.
    """
    z = _require_positive(zeta).value
    hs = tuple(hs)  # read more than once
    if not all(0 < h < z.real for h in hs):
        raise ValueError(f"steps must satisfy 0 < h < Re zeta, got hs={hs}, zeta={z}")
    times = [w for h in hs for w in (z + h, z - h, z + 1j * h, z - 1j * h)]
    states = apply_many(times, f, method=Method.QUADRATURE)
    deriv = apply_dzeta(z, f)
    pairs = []
    for h in hs:  # z+h, z-h, z+ih, z-ih: the order apply_many yields them in
        d_re = (next(states).values - next(states).values) / (2.0 * h)
        d_im = (next(states).values - next(states).values) / (2.0 * h)
        conjugate = f.with_values(0.5 * (d_re + 1j * d_im))
        quotient = f.with_values(d_re)
        pairs.append((weighted_norm(conjugate, s, margin=margin), difference_norm(quotient, deriv, s, margin)))
    return pairs


def contour_residual(
    f: Field, center, radius: float, m: int, s: SpaceSpec, margin: float = DEFAULT_MARGIN
) -> float:
    """Weighted norm of the trapezoid closed-contour integral of ``G(zeta)f``,
    evolved by quadrature at every node.

    The circle must stay inside the right half-plane.  Holomorphy makes the
    exact integral vanish; the trapezoid rule on an analytic periodic
    integrand converges spectrally in ``m``, so this residual falls to
    rounding level already at moderate node counts.
    """
    c = as_time(center).value
    if m < 8:
        raise ValueError(f"need at least 8 contour nodes, got {m}")
    if not radius > 0 or c.real - radius <= 0:
        raise ValueError(f"disk of radius {radius} around {c} leaves the right half-plane")
    directions = [complex(math.cos(theta), math.sin(theta)) for theta in 2.0 * math.pi * np.arange(m) / m]
    nodes = apply_many([c + radius * d for d in directions], f, method=Method.QUADRATURE)
    acc = np.zeros_like(f.values)
    for direction, u in zip(directions, nodes):
        acc = acc + u.values * (1j * radius * direction)
    acc = acc * (2.0 * math.pi / m)
    return weighted_norm(f.with_values(acc), s, margin=margin)


# -- the aggregated suite --------------------------------------------------------
#
# The suite is a table of check groups (see _GROUPS at the end).  A group's
# rows function yields units ``(compute, (name, tol_key), ...)``: the names
# and tolerance keys of a unit's rows are known before anything runs, and
# ``compute()`` does the unit's shared work once and returns one
# ``(residual, meta)`` per row, in row order.


def _relative(residual: float, scale: float) -> float:
    return residual / scale if scale != 0 else residual


def _ratio(coarse: float, fine: float, fallback: float) -> float:
    if math.isnan(coarse) or math.isnan(fine):
        return math.nan
    return coarse / fine if fine > 0 else fallback


def _worst(*terms: float) -> float:
    """``max(0, *terms)``, or NaN if any term is NaN: Python's ``max`` skips
    a NaN unless it comes first, and a NaN residual must fail its row."""
    return math.nan if any(map(math.isnan, terms)) else max((0.0, *terms))


class _Inputs:
    """The inputs one run's groups share.  Each field, and so its shared
    :attr:`Field.spectrum`, is built on first use.  Units on several threads
    may ask at once: up to Python 3.11 ``cached_property`` holds one lock per
    attribute for all instances (two spectra are made in turn); from 3.12 it
    has none, and a field may be built twice, equal."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.grid = cfg.grid
        self.s = cfg.space
        self.margin = cfg.margin

    @cached_property
    def unit_gaussian(self) -> GaussianMixture:
        return GaussianMixture([[1.0]], [1.0], [[0.0] * self.cfg.n])

    @cached_property
    def gaussian_field(self) -> Field:
        return self.unit_gaussian.sampled(self.grid)

    @cached_property
    def fine_gaussian_field(self) -> Field:
        """The unit Gaussian on ``classical``'s fine grid: about half the
        spacing, on a fast FFT length.  The grids need not nest, since each
        classical residual is a max over its own grid's points."""
        return self.unit_gaussian.sampled(make_grid(self.cfg.n, self.cfg.L, _next_fast_len(2 * self.cfg.N - 2)))

    @cached_property
    def mixture_field(self) -> Field:
        rng = np.random.default_rng([self.cfg.seed, 1])
        return random_gaussian_mixture(self.cfg.n, m=1, terms=3, rng=rng).sampled(self.grid)

    @cached_property
    def rule_field(self) -> Field:
        return sample(self.grid, field_rule(self.cfg.rule))

    @cached_property
    def continuity_field(self) -> Field:
        return sample(self.grid, field_rule(self.cfg.continuity_rule))


def _weights(inp: _Inputs):
    # weight inequalities over a seeded point cloud
    def pointwise():
        rng = np.random.default_rng([inp.cfg.seed, 0])
        # per k, 200 pairs (x, y): the draws of one pair at a time, in one call
        pairs = rng.normal(0.0, 3.0, size=(4, 200, 2, inp.cfg.n))
        slacks = (weight_inequality_check(k, p[:, 0].T, p[:, 1].T) for k, p in zip((0.0, 1.0, 2.0, 3.5), pairs))
        return [(_worst(*(-s.min() for s in slacks)), {"pairs": 800})]

    yield pointwise, ("weights[pointwise]", "weights")


def _kernel_mass(inp: _Inputs):
    # kernel mass on per-time grids sized from the tail bound
    def mass(z):
        g = kernelmod.grid_for_time(z, inp.cfg.n)
        return [(abs(kernelmod.kernel_mass(z, g) - 1.0), {"grid": (g.n, g.L, g.N)})]

    for z in map(complex, inp.cfg.zetas):
        tol_key = "kernel_mass_real" if z.imag == 0 else "kernel_mass_complex"
        yield partial(mass, z), (f"kernel-mass[zeta={format_complex(z)}]", tol_key)


def _fourier_symbol(inp: _Inputs):
    # DFT of the sampled kernel against the symbol, low-frequency window
    def symbol(z):
        return [(kernelmod.fourier_symbol_residual(z, inp.grid), {})]

    for z in (1.0, 1.0 + 1.0j):
        yield partial(symbol, z), (f"fourier-symbol[zeta={format_complex(z)}]", "fourier_symbol")


def _semigroup_law(inp: _Inputs):
    # composition law, relative to the field norm
    def law(z1, z2, label):
        f = inp.rule_field if label == "rule" else inp.mixture_field
        residual = semigroup_law_residual(z1, z2, f, inp.s, margin=inp.margin)
        return [(_relative(residual, weighted_norm(f, inp.s, margin=inp.margin)), {})]

    for z1, z2 in DEFAULT_LAW_PAIRS:
        for label in ("rule", "mixture"):
            name = f"semigroup-law[{format_complex(z1)};{format_complex(z2)};{label}]"
            yield partial(law, z1, z2, label), (name, "semigroup_law")


def _path_agreement(inp: _Inputs):
    # quadrature vs spectral on the interior half-window
    def agreement(z):
        f = inp.mixture_field
        a = apply(z, f, method=Method.QUADRATURE)
        b = apply(z, f, method=Method.SPECTRAL)
        return [(_relative(difference_norm(a, b, inp.s, 0.25), weighted_norm(f, inp.s, margin=0.25)), {})]

    for z in map(complex, inp.cfg.zetas):
        yield partial(agreement, z), (f"path-agreement[zeta={format_complex(z)}]", "path_agreement")


def _gaussian_closed_form(inp: _Inputs):
    def closed_form(t):
        evolved = apply(t, inp.gaussian_field)
        exact = inp.unit_gaussian.evolved(t).sampled(inp.grid)
        return [(difference_norm(evolved, exact, SpaceSpec.make(0), inp.margin), {})]

    for t in (0.1, 1.0, 5.0):
        yield partial(closed_form, t), (f"gaussian-closed-form[t={t:g}]", "gaussian_closed_form")


def _kernel_reproduction(inp: _Inputs):
    # evolving the kernel reproduces the kernel at the summed time
    def reproduction():
        evolved = apply(0.5, kernelmod.sample_kernel(0.5, inp.grid))
        exact = kernelmod.sample_kernel(1.0, inp.grid)
        return [(difference_norm(evolved, exact, SpaceSpec.make(0), inp.margin), {})]

    yield reproduction, ("kernel-reproduction[s=0.5;t=0.5]", "kernel_reproduction")


def _continuity(inp: _Inputs):
    # strong continuity along sector rays: one scan per ray gives both rows
    def scan(ray):
        [residuals] = continuity_scan(
            inp.continuity_field, inp.s, inp.cfg.alpha, [ray], inp.cfg.radii, margin=inp.margin
        )
        rises = [later - earlier for earlier, later in zip(residuals, residuals[1:])]
        return [(residuals[-1], {"radii": len(residuals)}), (_worst(*rises), {})]

    for ray in inp.cfg.rays:
        final, monotone = f"continuity-final[ray={ray:g}]", f"continuity-monotone[ray={ray:g}]"
        yield partial(scan, ray), (final, "continuity_final"), (monotone, "continuity_monotone")


def _holomorphy(inp: _Inputs):
    # second-order shrink of both residuals from one coarse/fine pair
    def ratios():
        coarse, fine = holomorphy_residuals(inp.gaussian_field, 1.0, (1e-2, 5e-3), inp.s, margin=inp.margin)
        return [(abs(_ratio(a, b, 4.0) - 4.0), {"coarse": a, "fine": b}) for a, b in zip(coarse, fine)]

    yield ratios, *((f"holomorphy-ratio[{r}]", "holomorphy_ratio") for r in ("cauchy-riemann", "derivative"))


def _contour(inp: _Inputs):
    def contour():
        return [(contour_residual(inp.gaussian_field, 1.0, 0.25, 64, inp.s, margin=inp.margin), {})]

    yield contour, ("contour[center=1;radius=0.25;m=64]", "contour")


def _generator(inp: _Inputs):
    # generator identities at t = 0.5, all three from one evaluation
    def identities():
        [res] = generator_residuals(inp.gaussian_field, 0.5, (1e-3,), space=inp.s, margin=inp.margin)
        return [(res.r1, {}), (res.r2, {}), (res.r3, {})]

    yield identities, *((f"generator[{r}]", "generator") for r in ("r1", "r2", "r3"))


def _quotient_order(inp: _Inputs):
    # first-order convergence of the difference quotient (ratio window)
    def order():
        hs = (1e-2, 5e-3, 2.5e-3)
        residuals = difference_quotient_residual(inp.gaussian_field, hs, space=inp.s, margin=inp.margin)
        ratios = [_ratio(a, b, 2.0) for a, b in zip(residuals, residuals[1:])]
        return [(_worst(*(t for r in ratios for t in (1.5 - r, r - 2.5))), {"residuals": residuals})]

    yield order, ("quotient-order[h=1e-2..2.5e-3]", "quotient_order")


def _mild(inp: _Inputs):
    # mild identity at 256 steps and its gain at 512
    def identity():
        f = inp.gaussian_field
        coarse, fine = mild_identity_residual(f, 1.0, (256, 512), space=inp.s, margin=inp.margin)
        refinement = _worst(2.0 - _ratio(coarse, fine, 2.0))
        return [(coarse, {}), (refinement, {"coarse": coarse, "fine": fine})]

    yield identity, ("mild[t=1;steps=256]", "mild"), ("mild-refinement[steps=256->512]", "mild_refinement")


def _operator_bound(inp: _Inputs):
    # the exact weighted operator norm of the quadrature path against M_k
    def norm_check(k, z):
        g = inp.grid
        bound = operator_bound(z, k, g)
        norm, extremal, column = _operator_norms(z, k, g)
        sup = SpaceSpec.make(k)
        evolved = apply(z, extremal, method=Method.QUADRATURE)
        attained = weighted_norm(evolved, sup) / weighted_norm(extremal, sup)
        # M_k exceeds the row sum at x = 0 by the kernel's weighted mass off the
        # grid, at most the tail beyond L; without 0 on the grid M_k is not sharp.
        tail = kernelmod._own_tail(z, g.L, g.n, k)
        sharp = g.N % 2 == 1
        terms = [abs(attained / norm - 1.0), norm / bound - 1.0]
        if sharp:
            terms.append(1.0 - norm / bound - tail / bound)
        meta = {"bound": bound, "norm": norm, "attained": attained, "tail_estimate": tail, "sharp": sharp}
        if inp.s.kind is SpaceKind.LP:
            # Riesz-Thorin bounds the Lp norm by T^(1-1/p) C^(1/p)
            terms.append(norm ** (1.0 - 1.0 / inp.s.p) * column ** (1.0 / inp.s.p) / bound - 1.0)
            meta["column_norm"] = column
        return [(_worst(*terms), meta)]

    for k in (0.0, 1.0, 2.0):
        for z in (1.0, complex(np.exp(1j * np.pi / 4))):
            name = f"operator-bound[k={k:g};zeta={format_complex(z)}]"
            yield partial(norm_check, k, z), (name, "operator_bound")


# classical's two runs.  The fine step halves the coarse one, so fine times
# 2j .. 2j + 4 span coarse window j, the coarse times j .. j + 2.
_COARSE_TIMES = np.arange(0.5, 1.5 + 1e-2 / 2, 1e-2)
_FINE_TIMES = np.arange(0.5, 1.5 + 5e-3 / 2, 5e-3)


def _classical(inp: _Inputs):
    # pointwise heat equation along streamed trajectories, refinement gain.
    # The coarse run is dense: one residual per three-time window.  A heat
    # solution's residual falls in t, so the fine run is evaluated only over
    # the span of coarse window 0 and of every coarse window whose residual
    # rises above the one before it, where a defect local in time shows.
    def refinement():
        profile = list(_window_residuals(_COARSE_TIMES, apply_many(_COARSE_TIMES, inp.gaussian_field), inp.margin))
        refined = [j for j in range(len(profile)) if j == 0 or profile[j] > profile[j - 1]]
        f = inp.fine_gaussian_field
        spans = [_FINE_TIMES[2 * j : 2 * j + 5] for j in refined]
        coarse, fine = _worst(*profile), _worst(*(classical_residual(t, apply_many(t, f), inp.margin) for t in spans))
        meta = {"coarse": coarse, "fine": fine, "N": inp.cfg.N, "fine_N": f.grid.N, "dt": 1e-2, "fine_dt": 5e-3}
        meta["refined"] = refined  # coarse windows, not in the reports
        return [(_worst(3.0 - _ratio(coarse, fine, 3.0)), meta)]

    yield refinement, ("classical[gaussian;dt=1e-2]", "classical_refinement")


# (group, anchor, rows) in report order
_GROUPS = (
    ("weights", "pointwise weight inequalities", _weights),
    ("kernel-mass", "kernel unit mass", _kernel_mass),
    ("fourier-symbol", "kernel Fourier symbol", _fourier_symbol),
    ("semigroup-law", "semigroup composition law", _semigroup_law),
    ("path-agreement", "quadrature/spectral path agreement", _path_agreement),
    ("gaussian-closed-form", "closed-form Gaussian evolution", _gaussian_closed_form),
    ("kernel-reproduction", "kernel reproduces itself under evolution", _kernel_reproduction),
    ("continuity", "strong continuity at zero time", _continuity),
    ("holomorphy", "holomorphy in the time parameter", _holomorphy),
    ("contour", "vanishing contour integral", _contour),
    ("generator", "generator equals the Laplacian", _generator),
    ("quotient-order", "difference quotient converges to the Laplacian", _quotient_order),
    ("mild", "mild solution identity", _mild),
    ("operator-bound", "weighted operator norm bound", _operator_bound),
    ("classical", "pointwise heat equation along trajectories", _classical),
)

CHECK_GROUPS = tuple(group for group, _, _ in _GROUPS)


def _run_all(tasks, threads) -> list:
    """``(result, error)`` of each zero-argument task in ``tasks``, in task order.

    The calling thread and ``min(cpus, tasks, threads) - 1`` helper threads
    take tasks in index order; ``error`` is the exception a task raised, or
    None.  A non-``Exception`` raised on the calling thread propagates; the
    helpers catch everything and hand it over.  On exit no further task is
    handed out and every helper started is joined, after its current task.
    """
    try:  # the CPUs this process may run on
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    helpers = min(cpus, len(tasks), threads) - 1
    outcomes = [None] * len(tasks)
    lock = threading.Lock()
    taken = 0

    def work(catch):
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i == len(tasks):
                    return
                taken += 1
            try:
                outcomes[i] = (tasks[i](), None)
            except catch as exc:
                outcomes[i] = (None, exc)

    started = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=work, args=(BaseException,), daemon=True)
            thread.start()
            started.append(thread)
        work(Exception)
    finally:
        with lock:
            taken = len(tasks)  # the helpers take no further task
        for thread in started:
            thread.join()
    return outcomes


# Helper threads start only on grids with at least this many points: below,
# Python-level work dominates and threads contend for the interpreter lock.
# Threaded/serial suite time on a 2-vCPU VM (1 BLAS thread, medians of 7
# alternating, two sweeps, one task per unit): 0.97-1.43 on 2-D grids of 1089
# to 4096 points; 1-D N=1025 0.87 then 1.01, N=2049 1.06 then 0.73, N=3073
# 0.66 then 0.82 (the crossover depends on FFT lengths too); 0.89 then 1.17
# at n=3, N=17, 0.87-0.92 at n=2, N=65, 0.61-0.74 at n=2, N=129 and
# 0.55-0.65 at n=3, N=33.
_THREADED_MIN_POINTS = 4096


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run the configured check groups and assemble the deterministic report.

    Units share no mutable state, so on a large enough grid with more than
    one CPU they run concurrently, one task per unit: ``_run_all`` runs them
    on the calling thread and helper threads, costliest first, from the back
    of the table.  Rows are always reported in table order and randomness is
    seeded, so two runs from identical configurations produce byte-identical
    reports whatever the number of suite threads.  A crashing unit is
    recorded as failed (every row of the unit gets residual ``inf`` and the
    error message in its metadata) and the suite continues.
    """
    inputs = _Inputs(cfg)
    units = [
        (anchor, compute, specs)
        for group, anchor, rows in _GROUPS
        if cfg.checks is None or group in cfg.checks
        for compute, *specs in rows(inputs)
    ]
    threads = len(units) if cfg.grid.size >= _THREADED_MIN_POINTS else 1
    # costliest first: the costliest groups sit at the end of the table; a
    # residual that is not a number fails its unit's task
    tasks = [lambda compute=compute: [(float(r), meta) for r, meta in compute()] for _, compute, _ in reversed(units)]
    outcomes = _run_all(tasks, threads)[::-1]
    # a helper hands over whatever it caught; only an Exception fails just its unit
    died = {
        specs[0][0]: exc
        for (_, _, specs), (_, exc) in zip(units, outcomes)
        if exc is not None and not isinstance(exc, Exception)
    }
    if died:
        message = f"a suite thread died without computing the units of rows {list(died)}"
        raise RuntimeError(message) from next(iter(died.values()))
    results = []
    for (anchor, _, specs), (rows, error) in zip(units, outcomes):
        if error is not None:
            rows = [(math.inf, {"error": repr(error)}) for _ in specs]
        for (name, tol_key), (residual, meta) in zip(specs, rows, strict=True):
            tol = cfg.tol(tol_key)
            passed = math.isfinite(residual) and residual <= tol
            results.append(CheckResult(name, anchor, residual, tol, passed, meta))
    return VerificationReport(tuple(results))
