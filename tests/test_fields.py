"""Gaussian mixtures with exact evolution, and the named field rules."""

import numpy as np
import pytest

from gausspoisson import (
    FIELD_RULES,
    GaussianMixture,
    Method,
    apply,
    field_rule,
    make_grid,
    random_gaussian_mixture,
    sample,
    sample_kernel,
)

from conftest import lattice_points


def test_mixture_evaluates_sum_of_terms():
    mix = GaussianMixture(
        amplitudes=[[1.0], [2.0j]], widths=[1.0, 0.5], centers=[[0.0], [1.0]]
    )
    assert mix.terms == 2 and mix.n == 1 and mix.m == 1
    X = (np.array([0.5]),)
    expect = np.exp(-0.25) + 2.0j * np.exp(-0.5 * 0.25)
    assert np.isclose(mix(X)[0, 0], expect)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture([[1.0]], [-1.0], [[0.0]])  # width must have Re > 0
    with pytest.raises(ValueError):
        GaussianMixture([[1.0], [1.0]], [1.0], [[0.0]])  # term count mismatch
    with pytest.raises(ValueError, match="mixture is 1-dimensional, grid is 2-dimensional"):
        GaussianMixture([[1.0]], [1.0], [[0.0]]).sampled(make_grid(2, 1.0, 5))


@pytest.mark.parametrize(
    "amplitudes, widths, centers, name",
    [
        ([[1.0]], [np.nan], [[0.0]], "widths"),
        ([[1.0]], [1.0 + 1j * np.inf], [[0.0]], "widths"),
        ([[np.inf]], [1.0], [[0.0]], "amplitudes"),
        ([[1.0 + 1j * np.nan]], [1.0], [[0.0]], "amplitudes"),
        ([[1.0]], [1.0], [[np.nan]], "centers"),
        ([[1.0], [1.0]], [1.0, 1.0], [[0.0, 0.0], [-np.inf, 0.0]], "centers"),
    ],
)
def test_mixture_rejects_non_finite_parameters(amplitudes, widths, centers, name):
    # caught when the mixture is made, not when it is sampled or evolved
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GaussianMixture(amplitudes, widths, centers)


def test_mixture_evolution_closed_form_real_time():
    # c e^{-a x^2} evolves to c (1+4at)^{-1/2} e^{-a x^2/(1+4at)}
    mix = GaussianMixture([[1.0]], [2.0], [[0.0]])
    t = 0.3
    out = mix.evolved(t)
    d = 1.0 + 4.0 * 2.0 * t
    assert np.isclose(out.amplitudes[0, 0], d**-0.5)
    assert np.isclose(out.widths[0], 2.0 / d)
    np.testing.assert_allclose(out.centers, mix.centers)
    assert mix.evolved(0) is mix


def test_mixture_evolution_matches_operator():
    g = make_grid(1, 12.0, 1025)
    mix = GaussianMixture(
        amplitudes=[[1.0 + 0.3j], [0.5]], widths=[1.5, 0.7 + 0.2j], centers=[[0.5], [-1.0]]
    )
    f = mix.sampled(g)
    for zeta in (0.4, 0.3 + 0.3j):
        exact = mix.evolved(zeta).sampled(g)
        got = apply(zeta, f, method=Method.QUADRATURE)
        assert np.max(np.abs(got.values - exact.values)) < 1e-10


def test_mixture_evolution_composes():
    # evolving twice equals evolving by the sum, exactly in closed form
    mix = GaussianMixture([[1.0]], [1.0], [[0.0]])
    a = mix.evolved(0.2 + 0.1j).evolved(0.3 - 0.05j)
    b = mix.evolved(0.5 + 0.05j)
    assert np.allclose(a.amplitudes, b.amplitudes)
    assert np.allclose(a.widths, b.widths)


def test_mixture_two_dimensional_vector_valued():
    g = make_grid(2, 8.0, 65)
    mix = GaussianMixture(
        amplitudes=[[1.0, 2.0j]], widths=[1.0], centers=[[0.5, -0.5]]
    )
    assert mix.m == 2
    f = mix.sampled(g)
    assert f.m == 2
    exact = mix.evolved(0.25).sampled(g)
    got = apply(0.25, f, method=Method.QUADRATURE)
    assert np.max(np.abs(got.values - exact.values)) < 1e-10


def test_random_mixture_reproducible_and_decaying():
    a = random_gaussian_mixture(1, rng=np.random.default_rng(9))
    b = random_gaussian_mixture(1, rng=np.random.default_rng(9))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(a.centers, b.centers)
    g = make_grid(1, 12.0, 257)
    edges = a.sampled(g).values[[0, -1]]  # the outermost layer of a 1-D grid
    assert np.abs(edges).max() < 1e-10


def test_random_mixture_shapes():
    mix = random_gaussian_mixture(2, m=3, terms=5, rng=np.random.default_rng(0))
    assert mix.amplitudes.shape == (5, 3)
    assert mix.widths.shape == (5,)
    assert mix.centers.shape == (5, 2)
    with pytest.raises(ValueError, match="at least one term"):
        random_gaussian_mixture(2, terms=0)


def test_named_field_rules():
    g = make_grid(1, 12.0, 1025)
    gaussian = sample(g, field_rule("gaussian"))
    assert np.isclose(gaussian.values[g.N // 2, 0], 1.0)
    wide = sample(g, field_rule("wide_gaussian"))
    # wider profile decays slower
    assert abs(wide.values[g.N // 4, 0]) > abs(gaussian.values[g.N // 4, 0])
    const = sample(g, field_rule("constant"))
    assert np.all(const.values == 1.0)
    cosine = sample(g, field_rule("cosine"))
    assert np.isclose(cosine.values[g.N // 2, 0], 1.0)
    modulated = sample(g, field_rule("modulated_gaussian"))
    assert np.isclose(modulated.values[g.N // 2, 0], 1.0)


def test_field_rule_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="gaussian"):
        field_rule("nope")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampled_by_axis_matches_point_rule(n):
    g = make_grid(n, 4.0, 17)
    mix = GaussianMixture(
        amplitudes=[[1.0, 0.5j], [-0.3 + 0.2j, 2.0]],
        widths=[1.5, 0.4 + 0.3j],
        centers=np.linspace(-1.0, 1.0, 2 * n).reshape(2, n),
    )
    got = mix.sampled(g).values
    # sum_t c_t e^{-a_t |x - mu_t|^2} written out over every lattice point
    points = lattice_points(g)
    terms = zip(mix.amplitudes, mix.widths, mix.centers)
    expect = sum(np.exp(-a * np.sum((points - mu) ** 2, axis=-1))[..., None] * c for c, a, mu in terms)
    assert got.shape == expect.shape == g.shape + (2,)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


# each named rule's formula written out over a dense point array, with the
# coordinates along its last axis
POINT_FORMULAS = {
    "constant": lambda P: np.ones(P.shape[:-1]),
    "gaussian": lambda P: np.exp(-np.sum(P**2, axis=-1)),
    "wide_gaussian": lambda P: np.exp(-np.sum(P**2, axis=-1) / 4.0),
    "modulated_gaussian": lambda P: np.cos(3.0 * P[..., 0]) * np.exp(-np.sum(P**2, axis=-1)),
    "cosine": lambda P: np.cos(P[..., 0]),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rules_on_per_axis_coordinates_match_the_point_array(n):
    # rules are given an open mesh; each must keep the bits of its formula
    # evaluated on the dense point array
    g = make_grid(n, 4.0, 17)
    points = lattice_points(g)
    assert set(POINT_FORMULAS) == set(FIELD_RULES)
    for name, formula in POINT_FORMULAS.items():
        assert same_bits(sample(g, field_rule(name)).values[..., 0], formula(points)), name
    zeta = 0.5 + 0.2j
    kernel = (4.0 * np.pi * zeta) ** (-n / 2.0) * np.exp(-np.sum(points**2, axis=-1) / (4.0 * zeta))
    assert same_bits(sample_kernel(zeta, g).values[..., 0], kernel)
    # a mixture term is the product of its 1-D factors, added in per component
    mix = random_gaussian_mixture(n, m=2, rng=np.random.default_rng(n))
    expect = np.zeros(g.shape + (2,), dtype=complex)
    for c, a, mu in zip(mix.amplitudes, mix.widths, mix.centers):
        term = np.exp(-a * (points[..., 0] - mu[0]) ** 2)
        for j in range(1, n):
            term = term * np.exp(-a * (points[..., j] - mu[j]) ** 2)
        for k, c_k in enumerate(c):
            expect[..., k] += term * c_k
    assert same_bits(mix(np.ix_(*(g.axis,) * n)), expect)
    assert same_bits(mix.sampled(g).values, expect)


@pytest.mark.parametrize("n", [2, 3])
def test_rules_broadcast_to_the_grid(n):
    # a rule's values broadcast to the lattice (the test above checks the
    # constant and cosine rules' shapes too), with one more axis for the
    # components of a vector rule; the field owns a contiguous copy
    g = make_grid(n, 3.0, 9)
    points = lattice_points(g)
    const = sample(g, field_rule("constant"))
    assert const.values.shape == g.shape + (1,) and const.values.flags.c_contiguous
    assert np.all(const.values == 1.0)
    vector = sample(g, lambda X: X[-1][..., np.newaxis] * np.array([1.0, -2.0]))
    assert vector.values.shape == g.shape + (2,)
    assert np.array_equal(vector.values, points[..., -1:] * np.array([1.0, -2.0]))
