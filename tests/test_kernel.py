"""Kernel closed forms: mass, symbol, derivative, tail bounds, grid sizing."""

import math
from functools import reduce

import numpy as np
import pytest
from scipy import integrate

from gausspoisson import (
    ComplexTime,
    as_time,
    default_sector_angle,
    fourier_symbol_residual,
    grid_for_time,
    kernel_dzeta,
    kernel_eval,
    kernel_fourier,
    kernel_mass,
    kernel_tail_bound,
    make_grid,
    sample,
    sample_kernel,
)
from gausspoisson.generator import _stencil
from gausspoisson.kernel import _gammaincc
from gausspoisson.verify import DEFAULT_ZETAS

from conftest import lattice_points, traced_peak


def test_complex_time_accessors():
    z = ComplexTime(1.0 + 1.0j)
    assert not z.is_zero
    assert np.isclose(z.modulus, np.sqrt(2.0))
    assert np.isclose(z.argument, np.pi / 4)
    zero = ComplexTime(0.0)
    assert zero.is_zero
    with pytest.raises(ValueError, match="argument undefined at zero time"):
        zero.argument


def test_complex_time_rejects_nonpositive_real_part():
    with pytest.raises(ValueError):
        ComplexTime(-1.0)
    with pytest.raises(ValueError):
        ComplexTime(1.0j)  # purely imaginary, Re = 0 but not zero
    with pytest.raises(ValueError):
        ComplexTime(complex("nan"))


def test_complex_time_rejects_infinite_parts():
    # an infinite time is no time: rejected where it is made, not later as a
    # non-finite field value or a division by zero
    for z in (math.inf, complex(1.0, math.inf), complex(1.0, -math.inf), complex(math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ComplexTime(z)
        with pytest.raises(ValueError, match="finite"):
            as_time(z)


def test_in_sector_is_strict():
    z = ComplexTime(np.exp(1j * np.pi / 4))
    assert z.in_sector(np.pi / 3)
    assert not z.in_sector(np.pi / 4)  # boundary excluded
    assert not ComplexTime(0.0).in_sector(0.01)  # open sector, vertex excluded
    with pytest.raises(ValueError):
        z.in_sector(np.pi / 2)  # angle must stay below pi/2
    with pytest.raises(ValueError):
        z.in_sector(0.0)


def test_as_time_accepts_numbers_and_is_idempotent():
    z = as_time(0.5)
    assert isinstance(z, ComplexTime) and z.value == 0.5
    assert as_time(z) is z


def test_default_sector_angle_brackets_argument():
    for zeta in (0.1, 1.0, np.exp(1j * np.pi / 4), 0.5 * np.exp(-1.5j), 2.0 + 0.01j):
        alpha = default_sector_angle(zeta)
        assert abs(np.angle(complex(zeta))) < alpha < np.pi / 2


def test_kernel_eval_matches_high_precision_reference():
    # 40-digit evaluations of (4 pi zeta)^{-n/2} exp(-|x|^2/(4 zeta)),
    # principal branch
    v = kernel_eval(1 + 1j, np.array([2.0]))
    ref = 0.1430491869909778405510545 + 0.01540848971535632614981164j
    assert abs(v - ref) < 1e-16 * abs(ref) * 10
    v2 = kernel_eval(0.5 * np.exp(1j * np.pi / 3), np.array([1.0, -1.0]))
    ref2 = 0.09495242382418328237537704 - 0.01739345607421787138063207j
    assert abs(v2 - ref2) < 1e-15 * abs(ref2) * 10


def test_kernel_eval_real_time_is_gaussian_density():
    t = 0.7
    x = np.array([0.3, 1.1, -2.0])
    expect = np.exp(-(x**2) / (4 * t)) / np.sqrt(4 * np.pi * t)
    np.testing.assert_allclose(kernel_eval(t, (x,)), expect, rtol=1e-14)


def test_kernel_modulus_formula():
    # |kernel(zeta, x)| = (4 pi r)^{-n/2} exp(-|x|^2 cos(phi) / (4 r))
    zeta = 0.8 * np.exp(1j * 1.1)
    r, phi = 0.8, 1.1
    x = np.array([1.3, -0.4])
    got = abs(kernel_eval(zeta, x))
    expect = (4 * np.pi * r) ** -1 * np.exp(-np.sum(x**2) * np.cos(phi) / (4 * r))
    assert np.isclose(got, expect, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_eval_on_the_mesh_is_the_product_of_its_1d_factors(n):
    # chi_zeta(x) = prod_j chi_zeta(x_j) with the 1-D kernel on each axis
    g = make_grid(n, 4.0, 9)
    zeta = 0.6 + 0.3j
    mesh = kernel_eval(zeta, np.ix_(*(g.axis,) * n))
    factor = kernel_eval(zeta, (g.axis,))
    assert mesh.shape == g.shape
    np.testing.assert_allclose(mesh, reduce(np.multiply.outer, (factor,) * n), rtol=1e-13)


def test_kernel_eval_rejects_bad_time():
    with pytest.raises(ValueError):
        kernel_eval(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        kernel_eval(-0.5 + 1j, np.array([1.0]))


def test_kernel_mass_is_one():
    for zeta in (0.25, 1.0, np.exp(1j * np.pi / 4), 0.5 * np.exp(-1j * np.pi / 3)):
        g = grid_for_time(zeta, 1, tol=1e-12)
        assert abs(kernel_mass(zeta, g) - 1.0) < 1e-10
    g2 = grid_for_time(1.0, 2, tol=1e-10)
    assert abs(kernel_mass(1.0, g2) - 1.0) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("zeta", [0.7, 0.5 * np.exp(1j * np.pi / 3)])
def test_kernel_mass_matches_brute_force_lattice_sum(n, zeta):
    # the n-D Riemann sum of the kernel formula written out over every point
    g = make_grid(n, 5.0, 21)
    pref = (4.0 * np.pi * zeta) ** (-n / 2.0)
    brute = np.sum(pref * np.exp(-np.sum(lattice_points(g) ** 2, axis=-1) / (4.0 * zeta))) * g.cell_volume
    assert abs(kernel_mass(zeta, g) - brute) <= 1e-13 * abs(brute)


def test_kernel_fourier_is_gaussian_symbol():
    xi = np.array([0.5, -1.0])
    zeta = 0.3 + 0.2j
    assert np.isclose(kernel_fourier(zeta, xi), np.exp(-zeta * 1.25), rtol=1e-14)
    assert kernel_fourier(0.0, xi) == 1.0


def test_kernel_fourier_multiplicative_in_time():
    xi = (np.linspace(-3.0, 3.0, 7),)
    z1, z2 = 0.4 + 0.1j, 0.7 - 0.3j
    np.testing.assert_allclose(
        kernel_fourier(z1, xi) * kernel_fourier(z2, xi),
        kernel_fourier(z1 + z2, xi),
        rtol=1e-13,
    )


def test_fourier_symbol_residual_small_on_reference_grid():
    g = make_grid(1, 12.0, 1025)
    assert fourier_symbol_residual(1.0, g) < 1e-12
    assert fourier_symbol_residual(1.0 + 1.0j, g) < 1e-6


def test_kernel_dzeta_matches_central_difference():
    # second-order one-complex-variable derivative check along the real axis
    zeta = 0.9 + 0.4j
    x = np.array([1.2])

    def diff(h):
        num = (kernel_eval(zeta + h, x) - kernel_eval(zeta - h, x)) / (2 * h)
        return abs(num - kernel_dzeta(zeta, x))

    e1, e2 = diff(1e-3), diff(5e-4)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)
    assert e2 < 1e-7


def test_kernel_dzeta_equals_spatial_laplacian():
    # the kernel solves the heat equation, so d/dzeta = Laplacian pointwise;
    # the second-order stencil error must shrink 4x when h halves
    zeta = 0.5 + 0.2j
    base = grid_for_time(zeta, 1, tol=1e-12)

    def stencil_error(g):
        lap = _stencil(sample_kernel(zeta, g).values, 1, 1.0 / (g.h * g.h))
        expect = sample(g, lambda X: kernel_dzeta(zeta, X))
        inner = slice(g.N // 4, 3 * g.N // 4)
        return np.max(np.abs(lap[inner] - expect.values[inner]))

    coarse = stencil_error(base)
    fine = stencil_error(make_grid(1, base.L, 2 * base.N - 1))
    assert coarse / fine == pytest.approx(4.0, rel=0.15)
    assert fine < 1e-3


def test_tail_bound_dominates_true_tail_mass():
    # oracle: radial quadrature of the kernel modulus outside radius R
    for zeta, alpha in ((1.0, 0.1), (np.exp(1j * np.pi / 4), 1.0)):
        z = complex(zeta)
        r, phi = abs(z), np.angle(z)
        density = lambda x: (4 * np.pi * r) ** -0.5 * np.exp(-(x**2) * np.cos(phi) / (4 * r))
        for R in (2.0, 5.0, 8.0):
            true_tail = 2.0 * integrate.quad(density, R, np.inf)[0]
            bound = kernel_tail_bound(zeta, alpha, R, 1, 0)
            assert bound >= true_tail > 0.0


def test_tail_bound_tight_for_real_time_and_small_angle():
    # as alpha -> |arg zeta| = 0 the sector majorant converges to the true tail
    density = lambda x: (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0)
    true_tail = 2.0 * integrate.quad(density, 6.0, np.inf)[0]
    bound = kernel_tail_bound(1.0, 1e-6, 6.0, 1, 0)
    assert bound == pytest.approx(true_tail, rel=1e-4)


def test_tail_bound_decreases_in_radius():
    zeta = np.exp(1j * np.pi / 6)
    vals = [kernel_tail_bound(zeta, 1.0, R, 2, 0) for R in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-12


def test_tail_bound_rejects_time_outside_sector():
    with pytest.raises(ValueError):
        kernel_tail_bound(np.exp(1j * 1.2), 1.0, 3.0, 1, 0)


@pytest.mark.parametrize("R", [-1.0, np.nan])
def test_tail_bound_rejects_a_radius_that_is_not_non_negative(R):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        kernel_tail_bound(1.0, 1.0, R, 1, 0)


def test_weighted_tail_bound_dominates_weighted_tail_mass():
    # oracle: quadrature of (1+|x|)^k times the kernel modulus
    zeta = np.exp(1j * np.pi / 4)
    r, phi = 1.0, np.pi / 4
    k = 2.0
    density = lambda x: (1 + abs(x)) ** k * (4 * np.pi * r) ** -0.5 * np.exp(
        -(x**2) * np.cos(phi) / (4 * r)
    )
    for R in (3.0, 6.0):
        true_tail = 2.0 * integrate.quad(density, R, np.inf)[0]
        bound = kernel_tail_bound(zeta, 1.0, R, 1, k)
        assert bound >= true_tail > 0.0
    # a fractional exponent takes the expansion of the next integer one
    for k, ceil_k in ((1.5, 2), (0.25, 1), (3.0 - 1e-12, 3)):
        assert kernel_tail_bound(zeta, 1.0, 3.0, 1, k) == kernel_tail_bound(zeta, 1.0, 3.0, 1, ceil_k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_bound_at_k0_is_the_incomplete_gamma(n):
    # the unweighted tail of the majorant: every apply's tail_bound
    mpmath = pytest.importorskip("mpmath")
    for zeta, alpha, R in ((1.0, 0.1, 6.0), (np.exp(1j * np.pi / 4), 0.9, 12.0), (0.25, 0.3, 1.0)):
        a = math.cos(alpha) / (4.0 * abs(complex(zeta)))
        with mpmath.workdps(30):
            q = float(mpmath.gammainc(n / 2.0, a * R * R, regularized=True))
        closed_form = math.cos(alpha) ** (-n / 2.0) * q
        assert kernel_tail_bound(zeta, alpha, R, n, 0) == pytest.approx(closed_form, rel=1e-12)


def test_gammaincc_closed_form_against_mpmath():
    # Q(s, x) at every order the tail bound meets up to n + K = 11; below the
    # smallest normal float the value is within one subnormal step
    mpmath = pytest.importorskip("mpmath")
    xs = [0.0, *np.logspace(-6, 3, 61)]
    for s in np.arange(1, 12) / 2:
        got = [_gammaincc(s, x) for x in xs]
        with mpmath.workdps(30):
            expect = [float(mpmath.gammainc(s, x, regularized=True)) for x in xs]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=np.finfo(float).tiny)
    assert _gammaincc(2.5, math.inf) == 0.0
    for s, x in ((0.0, 1.0), (0.75, 1.0), (1.0, -1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            _gammaincc(s, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_for_time_keeps_the_grids_of_scipys_inverse(n):
    # the grids of the closed-form inversion, R = sqrt(Q^-1(n/2, tol/10 cos^(n/2)) / a)
    special = pytest.importorskip("scipy.special")
    for z in DEFAULT_ZETAS:
        alpha, r = default_sector_angle(z), abs(complex(z))
        a = math.cos(alpha) / (4.0 * r)
        R = math.sqrt(float(special.gammainccinv(n / 2.0, 1e-11 * math.cos(alpha) ** (n / 2.0))) / a)
        h = math.sqrt(2.0 * r / math.cos(alpha)) / 12.0
        if complex(z).imag:
            h = min(h, math.pi * r / (2.0 * R * abs(math.sin(as_time(z).argument))))
        g = grid_for_time(z, n)
        assert g.N == 2 * math.ceil(R / h) + 1
        assert g.L == pytest.approx(R, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-6])
def test_grid_for_time_takes_the_smallest_half_extent_within_the_budget(n, tol):
    for z in DEFAULT_ZETAS:
        L, alpha = grid_for_time(z, n, tol=tol).L, default_sector_angle(z)
        assert kernel_tail_bound(z, alpha, L, n, 0) <= tol / 10 < kernel_tail_bound(z, alpha, math.nextafter(L, 0), n, 0)


def test_weighted_tail_bound_monotone_in_radius_and_exponent():
    zeta = 0.5
    bounds_R = [kernel_tail_bound(zeta, 0.3, R, 1, 2.0) for R in (2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(bounds_R, bounds_R[1:]))
    bounds_k = [kernel_tail_bound(zeta, 0.3, 4.0, 1, k) for k in (0.0, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(bounds_k, bounds_k[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 4, 1.5])
def test_weighted_tail_bound_against_mpmath(n, k):
    # the weighted tail integral of the sector majorant, in 30 digits:
    # |S^(n-1)| (4 pi r)^(-n/2) ∫_R^inf (1+rho)^k rho^(n-1) e^(-a rho^2) d rho;
    # exact for integer k, above it for others
    mpmath = pytest.importorskip("mpmath")
    for zeta, alpha, R in ((1.0, 0.1, 6.0), (np.exp(1j * np.pi / 4), 0.9, 12.0), (0.25, 0.3, 1.0)):
        with mpmath.workdps(30):
            r = mpmath.mpf(abs(zeta))
            a = mpmath.cos(alpha) / (4 * r)
            sphere = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            density = lambda rho: (1 + rho) ** k * rho ** (n - 1) * mpmath.exp(-a * rho**2)
            radial = mpmath.quad(density, [R, R + 10, mpmath.inf])
            exact = float(sphere * (4 * mpmath.pi * r) ** (-mpmath.mpf(n) / 2) * radial)
        bound = kernel_tail_bound(zeta, alpha, R, n, k)
        if float(k).is_integer():
            assert bound == pytest.approx(exact, rel=1e-12)
        else:
            assert bound >= exact


def test_grid_for_time_controls_tail_and_resolution():
    for zeta in (0.25, 4.0, np.exp(1j * np.pi / 4), 0.5 * np.exp(1j * np.pi / 3)):
        g = grid_for_time(zeta, 1, tol=1e-10)
        assert g.N % 2 == 1
        alpha = default_sector_angle(zeta)
        assert kernel_tail_bound(zeta, alpha, g.L, 1, 0) <= 1e-10
        # spacing resolves the modulus scale sqrt(2 r / cos alpha)
        r = abs(complex(zeta))
        assert g.h <= np.sqrt(2 * r / np.cos(alpha)) / 10


def test_grid_for_time_refines_for_oscillatory_kernels():
    g_real = grid_for_time(1.0, 1, tol=1e-10)
    g_cplx = grid_for_time(np.exp(1j * 1.4), 1, tol=1e-10)
    assert g_cplx.h < g_real.h  # oscillation wavelength constraint kicks in


def test_grid_for_time_rejects_zero_time():
    with pytest.raises(ValueError):
        grid_for_time(0.0, 1)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf, 1.0, 100.0])
def test_grid_for_time_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # a budget of the kernel's unit mass or more bisected down to L = 5e-324
    for zeta in (1.0, 1 + 1j):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            grid_for_time(zeta, 1, tol=tol)


def test_sample_kernel_mass_and_symmetry():
    g = make_grid(2, 8.0, 129)
    f = sample_kernel(0.5, g)
    assert f.m == 1
    total = np.sum(f.values) * g.cell_volume
    assert abs(total - 1.0) < 1e-8
    np.testing.assert_allclose(f.values, f.values[::-1, ::-1], rtol=0, atol=1e-300)


def test_sample_kernel_forms_one_complex_array():
    # |x|^2, the exponent, its exp and the product with the prefactor were
    # separate full-size arrays: 2.5 state sizes at n=3; formed in place, 1.5
    g = make_grid(3, 12.0, 65)
    f, peak = traced_peak(lambda: sample_kernel(0.7 + 0.3j, g))
    assert peak < 2.0 * f.values.nbytes
