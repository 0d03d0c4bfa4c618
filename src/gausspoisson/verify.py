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
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial

import numpy as np

from . import kernel as kernelmod
from .fields import GaussianMixture, field_rule, random_gaussian_mixture
from .generator import (
    classical_residual,
    difference_quotient_residual,
    generator_residuals,
    mild_identity_residual,
)
from .grid_field import Field, Grid, interior_slices, make_grid, sample
from .kernel import as_time
from .semigroup import Method, apply, apply_dzeta, apply_many, operator_bound
from .weights import SpaceSpec, difference_norm, weight_inequality_check, weighted_norm

__all__ = [
    "parse_complex",
    "format_complex",
    "SuiteConfig",
    "CheckResult",
    "VerificationReport",
    "ContinuityEntry",
    "HolomorphyResiduals",
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


def _float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _complex_list(text: str) -> tuple:
    return tuple(parse_complex(part) for part in text.split(",") if part.strip())


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
        for z in self.zetas:
            ct = as_time(z)
            if not ct.is_zero and ct.value.imag != 0 and not ct.in_sector(self.alpha):
                raise ValueError(f"zeta sample {z} lies outside the sector of angle {self.alpha}")
        if self.checks is not None:
            unknown = [c for c in self.checks if c not in CHECK_GROUPS]
            if unknown:
                raise ValueError(f"unknown check groups {unknown}; known: {list(CHECK_GROUPS)}")
        unknown_tols = [key for key in self.tolerances if key not in DEFAULT_TOLERANCES]
        if unknown_tols:
            raise ValueError(
                f"unknown tolerance names {unknown_tols}; known: {sorted(DEFAULT_TOLERANCES)}"
            )

    @property
    def grid(self) -> Grid:
        return make_grid(self.n, self.L, self.N)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    @staticmethod
    def from_mapping(mapping: dict) -> "SuiteConfig":
        """Build a config from flat string key-value pairs.

        Recognized keys: ``grid.n``, ``grid.L``, ``grid.N``, ``space.k``,
        ``space.kind``, ``space.p``, ``sector.alpha``, ``seed``, ``margin``,
        ``rule``, ``continuity.rule``, ``zetas``, ``rays``, ``radii``,
        ``checks``, and ``tol.<name>``.  Keys under ``evolve.`` / ``table.`` /
        ``out`` belong to the command-line layer and are ignored here;
        anything else is an error.
        """
        kwargs = {}
        space_kw = {"k": 0.0, "kind": "BUC", "p": None}
        tolerances = {}
        for key, raw in mapping.items():
            value = raw.strip()
            if key.startswith(("evolve.", "table.")) or key == "out":
                continue
            if key == "grid.n":
                kwargs["n"] = int(value)
            elif key == "grid.L":
                kwargs["L"] = float(value)
            elif key == "grid.N":
                kwargs["N"] = int(value)
            elif key == "space.k":
                space_kw["k"] = float(value)
            elif key == "space.kind":
                space_kw["kind"] = value
            elif key == "space.p":
                space_kw["p"] = None if value.lower() in ("", "none") else float(value)
            elif key == "sector.alpha":
                kwargs["alpha"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "margin":
                kwargs["margin"] = float(value)
            elif key == "rule":
                kwargs["rule"] = value
            elif key == "continuity.rule":
                kwargs["continuity_rule"] = value
            elif key == "zetas":
                kwargs["zetas"] = _complex_list(value)
            elif key == "rays":
                kwargs["rays"] = _float_list(value)
            elif key == "radii":
                kwargs["radii"] = _float_list(value)
            elif key == "checks":
                kwargs["checks"] = tuple(c.strip() for c in value.split(",") if c.strip())
            elif key.startswith("tol."):
                tolerances[key[len("tol.") :]] = float(value)
            else:
                raise ValueError(f"unknown configuration key {key!r}")
        if tolerances:
            kwargs["tolerances"] = tolerances
        kwargs["space"] = SpaceSpec.make(space_kw["k"], space_kw["kind"], space_kw["p"])
        return SuiteConfig(**kwargs)

    def to_mapping(self) -> dict:
        """Serialize back to the flat key-value form (inverse of from_mapping)."""
        out = {
            "grid.n": str(self.n),
            "grid.L": format(self.L, ".17g"),
            "grid.N": str(self.N),
            "space.k": format(self.space.k, ".17g"),
            "space.kind": self.space.kind.value,
            "sector.alpha": format(self.alpha, ".17g"),
            "seed": str(self.seed),
            "margin": format(self.margin, ".17g"),
            "rule": self.rule,
            "continuity.rule": self.continuity_rule,
            "zetas": ",".join(format_complex(z) for z in self.zetas),
            "rays": ",".join(format(r, ".17g") for r in self.rays),
            "radii": ",".join(format(r, ".17g") for r in self.radii),
        }
        if self.space.p is not None:
            out["space.p"] = format(self.space.p, ".17g")
        if self.checks is not None:
            out["checks"] = ",".join(self.checks)
        for name, value in sorted(self.tolerances.items()):
            out[f"tol.{name}"] = format(value, ".17g")
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


def semigroup_law_residual(zeta1, zeta2, f: Field, s: SpaceSpec, margin: float = 0.25, method=None) -> float:
    """Interior-window weighted-norm residual of the composition law:
    evolving by ``zeta1 + zeta2`` in one step versus two."""
    z1, z2 = as_time(zeta1), as_time(zeta2)
    one_step = apply(z1.value + z2.value, f, method=method)
    two_step = apply(z1, apply(z2, f, method=method), method=method)
    return difference_norm(one_step, two_step, s, margin)


@dataclass(frozen=True)
class ContinuityEntry:
    ray: float
    radius: float
    residual: float


def _continuity_geometry(alpha: float, rays, radii) -> tuple:
    """Validate a continuity scan's sector angle, rays and radii; returns the
    radii as floats."""
    if not 0 < alpha < math.pi / 2:
        raise ValueError(f"sector angle must lie in (0, pi/2), got {alpha}")
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    for ray in rays:
        if not abs(ray) < alpha:
            raise ValueError(f"ray angle {ray} is outside the sector of angle {alpha}")
    return radii


def continuity_scan(f: Field, s: SpaceSpec, alpha: float, rays, radii, margin: float = 0.25, method=None) -> list:
    """Residuals of ``G(r e^{i ray}) f - f`` for each ray and shrinking radius.

    Rows are ordered by (ray, radius in the given order); every ray must lie
    strictly inside the sector of angle ``alpha``.  Strong continuity at zero
    time predicts the residuals to fall to 0 along every ray.
    """
    radii = _continuity_geometry(alpha, rays, radii)
    entries = []
    for ray in rays:
        for r in radii:
            zeta = r * complex(math.cos(ray), math.sin(ray))
            residual = difference_norm(apply(zeta, f, method=method), f, s, margin)
            entries.append(ContinuityEntry(float(ray), r, residual))
    return entries


@dataclass(frozen=True)
class HolomorphyResiduals:
    """Discrete complex-differentiability measures of ``zeta -> G(zeta)f``.

    ``cauchy_riemann``: weighted norm of the central-difference approximation
    of the conjugate-derivative (must vanish for a holomorphic map).
    ``derivative_match``: distance of the real-direction difference quotient
    from the closed-form derivative operator.
    """

    cauchy_riemann: float
    derivative_match: float


def holomorphy_residuals(
    f: Field,
    zeta,
    h: float,
    s: SpaceSpec,
    margin: float = 0.25,
    method=Method.QUADRATURE,
) -> HolomorphyResiduals:
    ct = as_time(zeta)
    if ct.is_zero:
        raise ValueError("holomorphy residuals need Re zeta > 0")
    if not 0 < h < ct.value.real:
        raise ValueError(f"step must satisfy 0 < h < Re zeta, got h={h}, zeta={ct.value}")
    z = ct.value
    u_re_plus = apply(z + h, f, method=method)
    u_re_minus = apply(z - h, f, method=method)
    u_im_plus = apply(z + 1j * h, f, method=method)
    u_im_minus = apply(z - 1j * h, f, method=method)
    d_re = (u_re_plus.values - u_re_minus.values) / (2.0 * h)
    d_im = (u_im_plus.values - u_im_minus.values) / (2.0 * h)
    conjugate = f.with_values(0.5 * (d_re + 1j * d_im))
    deriv = apply_dzeta(z, f)
    quotient = f.with_values(d_re)
    return HolomorphyResiduals(
        cauchy_riemann=weighted_norm(conjugate, s, margin=margin),
        derivative_match=difference_norm(quotient, deriv, s, margin),
    )


def contour_residual(
    f: Field,
    center,
    radius: float,
    m: int,
    s: SpaceSpec,
    margin: float = 0.25,
    method=Method.QUADRATURE,
) -> float:
    """Weighted norm of the trapezoid closed-contour integral of ``G(zeta)f``.

    The circle must stay inside the right half-plane.  Holomorphy makes the
    exact integral vanish; the trapezoid rule on an analytic periodic
    integrand converges spectrally in ``m``, so this residual falls to
    rounding level already at moderate node counts.
    """
    c = complex(center.value if hasattr(center, "value") else center)
    if m < 8:
        raise ValueError(f"need at least 8 contour nodes, got {m}")
    if not radius > 0 or c.real - radius <= 0:
        raise ValueError(f"disk of radius {radius} around {c} leaves the right half-plane")
    acc = np.zeros_like(f.values)
    for j in range(m):
        theta = 2.0 * math.pi * j / m
        direction = complex(math.cos(theta), math.sin(theta))
        u = apply(c + radius * direction, f, method=method)
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
    return residual / scale if scale > 0 else residual


def _ratio(coarse: float, fine: float, fallback: float) -> float:
    return coarse / fine if fine > 0 else fallback


class _Inputs:
    """The inputs one run's groups share; each field is built on first use.

    Units on several threads may ask for a field at once: ``cached_property``
    builds it once (from Python 3.12, without its lock, maybe twice, equal).
    """

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
        worst = math.inf
        for k in (0.0, 1.0, 2.0, 3.5):
            for _ in range(200):
                x = rng.normal(0.0, 3.0, size=inp.cfg.n)
                y = rng.normal(0.0, 3.0, size=inp.cfg.n)
                worst = min(worst, weight_inequality_check(k, x, y).min())
        return [(max(0.0, -worst), {"pairs": 800})]

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
        entries = continuity_scan(
            inp.continuity_field, inp.s, inp.cfg.alpha, [ray], inp.cfg.radii, margin=inp.margin
        )
        residuals = [e.residual for e in entries]
        rises = [later - earlier for earlier, later in zip(residuals, residuals[1:])]
        return [(residuals[-1], {"radii": len(residuals)}), (max([0.0, *rises]), {})]

    for ray in inp.cfg.rays:
        final, monotone = f"continuity-final[ray={ray:g}]", f"continuity-monotone[ray={ray:g}]"
        yield partial(scan, ray), (final, "continuity_final"), (monotone, "continuity_monotone")


def _holomorphy(inp: _Inputs):
    # second-order shrink of both residuals from one coarse/fine pair
    def ratios():
        coarse, fine = (
            holomorphy_residuals(inp.gaussian_field, 1.0, h, inp.s, margin=inp.margin) for h in (1e-2, 5e-3)
        )
        pairs = [(getattr(coarse, a), getattr(fine, a)) for a in ("cauchy_riemann", "derivative_match")]
        return [(abs(_ratio(num, den, 4.0) - 4.0), {"coarse": num, "fine": den}) for num, den in pairs]

    yield ratios, *((f"holomorphy-ratio[{r}]", "holomorphy_ratio") for r in ("cauchy-riemann", "derivative"))


def _contour(inp: _Inputs):
    def contour():
        return [(contour_residual(inp.gaussian_field, 1.0, 0.25, 64, inp.s, margin=inp.margin), {})]

    yield contour, ("contour[center=1;radius=0.25;m=64]", "contour")


def _generator(inp: _Inputs):
    # generator identities at t = 0.5, all three from one evaluation
    def identities():
        res = generator_residuals(inp.gaussian_field, 0.5, 1e-3, space=inp.s, margin=inp.margin)
        return [(res.r1, {}), (res.r2, {}), (res.r3, {})]

    yield identities, *((f"generator[{r}]", "generator") for r in ("r1", "r2", "r3"))


def _quotient_order(inp: _Inputs):
    # first-order convergence of the difference quotient (ratio window)
    def order():
        residuals = [
            difference_quotient_residual(inp.gaussian_field, h, space=inp.s, margin=inp.margin)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        violation = 0.0
        for a, b in zip(residuals, residuals[1:]):
            ratio = _ratio(a, b, 2.0)
            violation = max(violation, 1.5 - ratio, ratio - 2.5)
        return [(max(0.0, violation), {"residuals": residuals})]

    yield order, ("quotient-order[h=1e-2..2.5e-3]", "quotient_order")


def _mild(inp: _Inputs):
    # mild identity at 256 steps and its gain at 512
    def identity():
        coarse, fine = (
            mild_identity_residual(inp.gaussian_field, 1.0, steps=steps, space=inp.s, margin=inp.margin)
            for steps in (256, 512)
        )
        refinement = max(0.0, 2.0 - _ratio(coarse, fine, 2.0))
        return [(coarse, {}), (refinement, {"coarse": coarse, "fine": fine})]

    yield identity, ("mild[t=1;steps=256]", "mild"), ("mild-refinement[steps=256->512]", "mild_refinement")


def _operator_bound(inp: _Inputs):
    # weighted operator norm bound over seeded random fields
    def bound_check(k, z):
        space_k = SpaceSpec.make(k, inp.s.kind.value, inp.s.p)
        bound = operator_bound(z, k, inp.grid)
        rng = np.random.default_rng([inp.cfg.seed, 2, int(k), int(z.imag != 0)])
        violation = 0.0
        for _ in range(100):
            f = random_gaussian_mixture(inp.cfg.n, m=1, terms=3, rng=rng).sampled(inp.grid)
            lhs = weighted_norm(apply(z, f, method=Method.QUADRATURE), space_k)
            rhs = bound * weighted_norm(f, space_k) * (1.0 + 1e-8)
            violation = max(violation, lhs - rhs)
        return [(max(0.0, violation), {"bound": bound})]

    for k in (0.0, 1.0, 2.0):
        for z in (1.0, complex(np.exp(1j * np.pi / 4))):
            name = f"operator-bound[k={k:g};zeta={format_complex(z)}]"
            yield partial(bound_check, k, z), (name, "operator_bound")


def _classical(inp: _Inputs):
    # pointwise heat equation along streamed trajectories, refinement gain
    def refinement():
        def residual(n_points, dt):
            f = inp.unit_gaussian.sampled(make_grid(inp.cfg.n, inp.cfg.L, n_points))
            times = np.arange(0.5, 1.5 + dt / 2, dt)
            return classical_residual(times, apply_many(times, f), margin=inp.margin)

        coarse = residual(inp.cfg.N, 1e-2)
        fine = residual(2 * inp.cfg.N - 1, 5e-3)
        return [(max(0.0, 3.0 - _ratio(coarse, fine, 3.0)), {"coarse": coarse, "fine": fine})]

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


# Helper threads start only on grids with at least this many points: below,
# Python-level work dominates and threads contend for the interpreter lock.
# Threaded/serial suite time on a 2-vCPU VM (1 BLAS thread, medians of 7):
# 1.12-1.54 on 6 of 10 grids from 1025 to 3969 points (1.19 on the 1-D
# reference config, 1.13 at n=2, N=63), 0.58-0.97 on all 12 from 4096 up.
_THREADED_MIN_POINTS = 4096


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run the configured check groups and assemble the deterministic report.

    Units share no mutable state, so on a large enough grid with more than
    one CPU they run concurrently: the calling thread takes units from the
    front of the table, helper threads from the back, where the costliest
    groups sit.  Rows are always reported in table order and randomness is
    seeded, so two runs from identical configurations produce byte-identical
    reports whatever the thread count.  A crashing unit is recorded as failed
    (every row it computes gets residual ``inf`` and the error message in its
    metadata) and the suite continues.
    """
    inputs = _Inputs(cfg)
    units = [
        (anchor, compute, specs)
        for group, anchor, rows in _GROUPS
        if cfg.checks is None or group in cfg.checks
        for compute, *specs in rows(inputs)
    ]
    pending = deque(range(len(units)))
    outcomes = [None] * len(units)

    def work(take):
        while True:
            try:
                i = take()
            except IndexError:  # the queue is empty
                return
            _, compute, specs = units[i]
            try:
                outcomes[i] = [(float(residual), meta) for residual, meta in compute()]
            except Exception as exc:  # a crashing unit fails its rows, not the suite
                outcomes[i] = [(math.inf, {"error": repr(exc)}) for _ in specs]

    helpers = min(_cpu_count(), len(units)) - 1 if cfg.grid.size >= _THREADED_MIN_POINTS else 0
    threads = [threading.Thread(target=work, args=(pending.pop,), daemon=True) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        work(pending.popleft)
    finally:  # on an interrupt, let the helpers finish their current unit
        pending.clear()
        for thread in threads:
            thread.join()
    missing = [specs[0][0] for (_, _, specs), unit in zip(units, outcomes) if unit is None]
    if missing:
        raise RuntimeError(f"a suite thread died without computing the units of rows {missing}")
    results = []
    for (anchor, _, specs), unit in zip(units, outcomes):
        for (name, tol_key), (residual, meta) in zip(specs, unit, strict=True):
            tol = cfg.tol(tol_key)
            passed = math.isfinite(residual) and residual <= tol
            results.append(CheckResult(name, anchor, residual, tol, passed, meta))
    return VerificationReport(tuple(results))
