"""Acceptance gate: every contracted property at its contracted tolerance.

Each test prints exactly one PASS/FAIL line with the measured quantity and
the tolerance it is held to, then asserts.  Run with ``pytest -s`` to see
the lines on success.  Reference setup: n=1, L=12, N=1025, margin 25%,
scalar fields; 2-d spot checks use L=8, N=257.
"""

import numpy as np
import pytest

import gausspoisson.kernel
from gausspoisson import (
    GaussianMixture,
    Method,
    SpaceSpec,
    SuiteConfig,
    apply,
    as_time,
    continuity_scan,
    contour_residual,
    difference_quotient_residual,
    generator_residuals,
    classical_residual,
    fourier_symbol_residual,
    field_rule,
    grid_for_time,
    holomorphy_residuals,
    interior_slices,
    kernel_mass,
    make_grid,
    mild_identity_residual,
    operator_bound,
    random_gaussian_mixture,
    run_suite,
    sample,
    sample_kernel,
    semigroup_law_residual,
    trajectory,
    weighted_norm,
)
from gausspoisson.grid_field import squared_norm
from gausspoisson.semigroup import _operator_norms

GRID = make_grid(1, 12.0, 1025)
MARGIN = 0.25
GAUSSIAN = sample(GRID, field_rule("gaussian"))
UNIT_MIXTURE = GaussianMixture([[1.0]], [1.0], [[0.0]])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _interior_max(values_a, values_b, margin=MARGIN, grid=GRID):
    sl = interior_slices(grid, margin)
    return float(np.max(np.abs(values_a[sl] - values_b[sl])))


def test_kernel_unit_mass():
    real_times = (0.25, 1.0, 4.0)
    complex_times = (
        complex(np.exp(1j * np.pi / 4)),
        complex(np.exp(-1j * np.pi / 4)),
        complex(0.5 * np.exp(1j * np.pi / 3)),
    )
    worst_real = worst_complex = 0.0
    for n in (1, 2):
        for zeta in real_times:
            g = grid_for_time(zeta, n)
            worst_real = max(worst_real, abs(kernel_mass(zeta, g) - 1.0))
        for zeta in complex_times:
            g = grid_for_time(zeta, n)
            worst_complex = max(worst_complex, abs(kernel_mass(zeta, g) - 1.0))
    ok = worst_real <= 1e-8 and worst_complex <= 1e-6
    _report(
        "kernel unit mass",
        ok,
        f"max |mass-1| real {worst_real:.3e} (tol 1e-8), "
        f"complex {worst_complex:.3e} (tol 1e-6), n in {{1, 2}}",
    )


def test_fourier_symbol():
    worst = max(fourier_symbol_residual(z, GRID) for z in (1.0, 1.0 + 1.0j))
    _report(
        "fourier symbol",
        worst <= 1e-4,
        f"max symbol residual {worst:.3e} over zeta in {{1, 1+1i}} (tol 1e-4, "
        "lowest half of the frequency range)",
    )


def test_semigroup_law():
    pairs = (
        (0.3, 0.7),
        (0.5 * np.exp(1j * np.pi / 4), 0.5 * np.exp(-1j * np.pi / 4)),
        (0.2 * np.exp(1j * np.pi / 6), 0.5),
    )
    bumps = random_gaussian_mixture(1, terms=3, rng=np.random.default_rng(7)).sampled(GRID)
    worst = 0.0
    for z1, z2 in pairs:
        for k in (0, 1, 2):
            s = SpaceSpec.make(k)
            for f in (GAUSSIAN, bumps):
                residual = semigroup_law_residual(z1, z2, f, s, margin=MARGIN)
                worst = max(worst, residual / weighted_norm(f, s, margin=MARGIN))
    _report(
        "semigroup law",
        worst <= 1e-5,
        f"max relative residual {worst:.3e} over 3 time pairs, k in {{0,1,2}}, "
        "Gaussian and random bump fields (tol 1e-5)",
    )


def test_gaussian_closed_form_and_kernel_reproduction():
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        evolved = apply(t, GAUSSIAN)
        exact = UNIT_MIXTURE.evolved(t).sampled(GRID)
        worst = max(worst, _interior_max(evolved.values, exact.values))
    reproduction = _interior_max(
        apply(0.5, sample_kernel(0.5, GRID)).values, sample_kernel(1.0, GRID).values
    )
    ok = worst <= 1e-6 and reproduction <= 1e-6
    _report(
        "gaussian closed form",
        ok,
        f"max interior error {worst:.3e} over t in {{0.1, 1, 5}}, kernel "
        f"reproduction at (0.5, 0.5) {reproduction:.3e} (tol 1e-6 each)",
    )


def test_sector_continuity():
    rays = (-np.pi / 4, 0.0, np.pi / 4)
    radii = tuple(2.0**-j for j in range(1, 11))
    bump = sample(GRID, field_rule("wide_gaussian"))
    worst_final = 0.0
    worst_bump = 0.0  # largest monotonicity violation
    for k in (0, 2):
        s = SpaceSpec.make(k)
        for res in continuity_scan(bump, s, np.pi / 3, rays, radii, margin=MARGIN):
            worst_final = max(worst_final, res[-1])
            for earlier, later in zip(res, res[1:]):
                worst_bump = max(worst_bump, later - earlier)
    ok = worst_final <= 1e-3 and worst_bump <= 1e-9
    _report(
        "sector continuity",
        ok,
        f"final residual {worst_final:.3e} (tol 1e-3) and monotonicity "
        f"violation {worst_bump:.3e} (slack 1e-9) over rays ±pi/4, 0, "
        "radii 2^-1..2^-10, k in {0, 2}",
    )


def test_holomorphy_and_contour():
    s = SpaceSpec.make(0)
    coarse, fine = holomorphy_residuals(GAUSSIAN, 1.0, (1e-2, 5e-3), s, margin=MARGIN)
    cr_ratio, dm_ratio = (a / b for a, b in zip(coarse, fine))
    contour = contour_residual(GAUSSIAN, 1.0, 0.25, 64, s, margin=MARGIN)
    ok = 3.5 <= cr_ratio <= 4.5 and 3.5 <= dm_ratio <= 4.5 and contour <= 1e-8
    _report(
        "holomorphy",
        ok,
        f"h-halving ratios cauchy-riemann {cr_ratio:.2f}, derivative "
        f"{dm_ratio:.2f} (window [3.5, 4.5]), contour integral {contour:.3e} "
        "(tol 1e-8 at 64 nodes)",
    )


def test_generator_identities_and_quotient_order():
    worst = 0.0
    for k in (0, 1):
        [res] = generator_residuals(GAUSSIAN, 0.5, (1e-3,), space=SpaceSpec.make(k), margin=MARGIN)
        worst = max(worst, res.r1, res.r2, res.r3)
    s = SpaceSpec.make(0)
    quotients = difference_quotient_residual(GAUSSIAN, (1e-2, 5e-3, 2.5e-3), space=s, margin=MARGIN)
    ratios = [a / b for a, b in zip(quotients, quotients[1:])]
    order_ok = all(1.5 <= r <= 2.5 for r in ratios)
    ok = worst <= 1e-4 and order_ok
    _report(
        "generator identities",
        ok,
        f"max of r1,r2,r3 {worst:.3e} at t=0.5, dt=1e-3, k in {{0,1}} (tol 1e-4); "
        f"quotient ratios {ratios[0]:.2f}, {ratios[1]:.2f} (observed order >= 1: "
        "window [1.5, 2.5])",
    )


def test_mild_identity_and_refinement():
    s = SpaceSpec.make(0)
    coarse, fine = mild_identity_residual(GAUSSIAN, 1.0, (256, 512), space=s, margin=MARGIN)
    ok = coarse <= 1e-4 and coarse / fine >= 2.0
    _report(
        "mild identity",
        ok,
        f"residual {coarse:.3e} at 256 graded steps (tol 1e-4), halving "
        f"refinement factor {coarse / fine:.2f} (need >= 2)",
    )


def test_path_equivalence():
    fields = {
        "gaussian": GAUSSIAN,
        "wide_gaussian": sample(GRID, field_rule("wide_gaussian")),
        "modulated_gaussian": sample(GRID, field_rule("modulated_gaussian")),
        "bumps": random_gaussian_mixture(1, terms=3, rng=np.random.default_rng(7)).sampled(GRID),
    }
    zetas = (0.25, 1.0, 4.0, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4),
             0.5 * np.exp(1j * np.pi / 3))
    s = SpaceSpec.make(0)
    worst = 0.0
    for f in fields.values():
        scale = weighted_norm(f, s, margin=MARGIN)
        for zeta in zetas:
            a = apply(zeta, f, method=Method.QUADRATURE)
            b = apply(zeta, f, method=Method.SPECTRAL)
            diff = a.with_values(a.values - b.values)
            worst = max(worst, weighted_norm(diff, s, margin=MARGIN) / scale)
    _report(
        "path equivalence",
        worst <= 1e-5,
        f"max relative quadrature/spectral gap {worst:.3e} over 4 decaying "
        "fields and 6 times (tol 1e-5, interior half-window)",
    )


def test_operator_norm_bound():
    # the extremal field attains the quadrature path's exact weighted sup
    # norm T, and T is at most M_k; seeded random fields reach only part of it
    worst = -np.inf
    for k in (0.0, 1.0, 2.0):
        s = SpaceSpec.make(k)
        for zeta in (1.0, complex(np.exp(1j * np.pi / 4))):
            norm, extremal, _ = _operator_norms(zeta, k, GRID)
            evolved = apply(zeta, extremal, method=Method.QUADRATURE)
            attained = weighted_norm(evolved, s) / weighted_norm(extremal, s)
            bound = operator_bound(zeta, k, GRID)
            worst = max(worst, abs(attained / norm - 1.0), attained / bound - 1.0)
    _report(
        "operator norm bound",
        worst <= 1e-14,
        f"worst of |A/T - 1| and A/M_k - 1 is {worst:.3e}, A the norm ratio the extremal "
        "field attains, k in {0,1,2}, zeta in {1, e^(i pi/4)} (must be <= 1e-14)",
    )


def test_classical_solution_refinement():
    def residual(N, dt):
        g = make_grid(1, 12.0, N)
        f = UNIT_MIXTURE.sampled(g)
        times = np.arange(0.5, 1.5 + dt / 2, dt)
        traj = trajectory(f, times)
        return classical_residual(traj.times, traj.states, margin=MARGIN)

    coarse = residual(1025, 1e-2)
    fine = residual(2049, 5e-3)
    factor = coarse / fine
    _report(
        "classical solution",
        factor >= 3.0,
        f"pointwise heat-equation residual falls {factor:.2f}x when dt and h "
        f"halve ({coarse:.3e} -> {fine:.3e}, need >= 3x)",
    )


def test_mutation_sensitivity(monkeypatch):
    # a deliberately wrong evolution multiplier must trip multiple checks
    def wrong_symbol(zeta, Xi):
        return np.exp(-2.0 * as_time(zeta).value * squared_norm(Xi))

    def killed(report):
        # a row that crashes reads inf and fails whatever the mutant does:
        # only a finite residual over its tolerance shows the check has teeth
        rows = [r for r in report.results if not r.passed]
        _report(
            "mutation sensitivity",
            all(np.isfinite(r.residual) for r in rows),
            f"every tripped check has a finite residual: {[r.name for r in rows if not np.isfinite(r.residual)]}",
        )
        return [r.name for r in rows]

    monkeypatch.setattr(gausspoisson.kernel, "kernel_fourier", wrong_symbol)
    report = run_suite(SuiteConfig())
    failing = killed(report)
    _report(
        "mutation sensitivity",
        len(failing) >= 2,
        f"doubled-decay multiplier trips {len(failing)} checks "
        f"(need >= 2): {', '.join(failing[:4])}{'...' if len(failing) > 4 else ''}",
    )
    # both mild rows trip too (that the Fourier-space time integral itself
    # follows kernel.kernel_fourier is test_time_integral_follows_kernel_fourier)
    mild = [name for name in failing if name.startswith("mild")]
    _report(
        "mutation sensitivity",
        mild == ["mild[t=1;steps=256]", "mild-refinement[steps=256->512]"],
        f"doubled-decay multiplier trips the mild rows {mild} (need both)",
    )

    # a kernel formula that drops the power of its prefactor (4 pi zeta)^(-n/2)
    # must trip a quadrature check, since the propagator samples
    # kernel.kernel_eval, and every kernel-mass row, since the mass sums it
    def wrong_kernel(zeta, X):
        z = as_time(zeta).value
        return 4.0 * np.pi * z * np.exp(-squared_norm(X) / (4.0 * z))

    monkeypatch.undo()
    monkeypatch.setattr(gausspoisson.kernel, "kernel_eval", wrong_kernel)
    report = run_suite(SuiteConfig(checks=("kernel-mass", "path-agreement", "holomorphy")))
    failing = [name for name in killed(report) if not name.startswith("kernel-mass")]
    _report(
        "mutation sensitivity",
        len(failing) >= 1,
        f"kernel without its prefactor power trips {len(failing)} quadrature checks "
        f"(need >= 1): {', '.join(failing[:4])}{'...' if len(failing) > 4 else ''}",
    )
    mass = [r for r in report.results if r.name.startswith("kernel-mass")]
    tripped = sum(not r.passed for r in mass)
    _report(
        "mutation sensitivity",
        len(mass) == len(SuiteConfig().zetas) and tripped == len(mass),
        f"kernel without its prefactor power trips {tripped} of {len(mass)} kernel-mass checks (need all)",
    )
