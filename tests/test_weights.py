"""Weight algebra: pointwise inequalities, slacks, and discrete norms."""

import math

import numpy as np
import pytest

from gausspoisson import (
    Field,
    SpaceKind,
    SpaceSpec,
    interior_slices,
    kernel_tail_bound,
    make_grid,
    operator_bound,
    sample,
    weight_eval,
    weight_inequality_check,
    weighted_norm,
)
from gausspoisson.semigroup import _operator_norms


def test_weight_eval_matches_definition():
    assert weight_eval(0.0, [3.7]) == 1.0
    assert weight_eval(2.0, [3.0]) == 16.0
    # |x| is the Euclidean norm of the point, not per-coordinate
    assert np.isclose(weight_eval(1.0, [3.0, 4.0]), 6.0)
    # three points, coordinates first
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(weight_eval(3.0, pts.T), [1.0, 8.0, 27.0])


def test_weight_rejects_negative_exponent():
    # every user of the weight refuses an exponent that is not finite and >= 0
    g = make_grid(1, 4.0, 9)
    users = [
        lambda k: SpaceSpec.make(k),
        lambda k: weight_eval(k, [0.0]),
        lambda k: operator_bound(1.0, k, g),
        lambda k: _operator_norms(1.0, k, g),
        lambda k: kernel_tail_bound(1.0, 0.5, 4.0, 1, k),
    ]
    for k in (-0.5, np.inf, np.nan):
        for use in users:
            with pytest.raises(ValueError, match="finite and >= 0"):
                use(k)


def test_weight_inequalities_hold_on_random_pairs():
    # the four relations hold for every pair and every k >= 0
    rng = np.random.default_rng(11)
    ks = (0.0, 0.5, 1.0, 2.0, 3.5)
    pairs = rng.uniform(-8.0, 8.0, size=(len(ks), 500, 2, 3))
    worst = min(weight_inequality_check(k, p[:, 0].T, p[:, 1].T).min() for k, p in zip(ks, pairs))
    assert worst >= -1e-12


def test_weight_inequality_slacks_are_signed():
    # submultiplicativity is tight at y = 0: w(x)w(0) = w(x)
    lower, submultiplicative, translation, ratio = weight_inequality_check(2.0, [1.0], [0.0])
    assert abs(submultiplicative) < 1e-14
    assert lower > 0.0
    # w(x-y) w(x) - w(y) at x=1, y=0 is 4*4 - 1; ratio is 1*0 - |4/4 - 1|
    assert (translation, ratio) == (15.0, 0.0)
    # pairs along the trailing axis of coordinate-first arrays give one row
    # of slacks each
    x = np.array([[1.0, 0.0], [-2.0, 3.0], [0.5, 0.5]])
    y = np.array([[0.0, 0.0], [1.0, -1.0], [4.0, 0.0]])
    rows = weight_inequality_check(1.5, x.T, y.T)
    assert rows.shape == (3, 4)
    for row, a, b in zip(rows, x, y):
        np.testing.assert_allclose(row, weight_inequality_check(1.5, a, b), rtol=1e-14, atol=1e-14)


def test_space_spec_construction_and_validation():
    s = SpaceSpec.make(2, "Lp", 2)
    assert s.kind is SpaceKind.LP and s.p == 2.0 and s.k == 2.0
    assert SpaceSpec.make(0).kind is SpaceKind.BUC
    assert SpaceSpec.make(1, "C0").kind is SpaceKind.C0
    with pytest.raises(ValueError):
        SpaceSpec.make(0, "Lp")  # missing p
    with pytest.raises(ValueError):
        SpaceSpec.make(0, "Lp", 0.5)  # p < 1
    with pytest.raises(ValueError):
        SpaceSpec.make(0, "BUC", 2)  # p without Lp
    with pytest.raises(ValueError):
        SpaceSpec.make(0, "Linfinity")
    with pytest.raises(ValueError):
        SpaceSpec.make(-1)


def test_space_spec_rejects_infinite_p():
    with pytest.raises(ValueError, match="finite p"):
        SpaceSpec.make(0, "Lp", math.inf)


@pytest.mark.parametrize("c, norm", [(10.0, 10.052511032879064), (1e-3, 1.0052511032879064e-3), (0.0, 0.0)])
def test_lp_norm_at_large_p_neither_overflows_nor_underflows(c, norm):
    # c^400 overflows at c=10 and underflows at c=1e-3; the norm of the
    # constant is c times (sum of h over the 65 points)^(1/p) = c 8.125^(1/400),
    # and 0 for the zero field, whose sum also falls below the normal range
    g = make_grid(1, 4.0, 65)
    f = sample(g, lambda X: c)
    assert weighted_norm(f, SpaceSpec.make(0, "Lp", 400)) == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("c, m", [(1e160, 1), (1e200, 2)])
def test_norms_of_a_huge_constant_are_finite(c, m):
    # |v|^2 overflows above about 1.3e154 and the magnitude squares nothing;
    # each Lp norm is the sup norm times (sum of h over the 65 points)^(1/p)
    g = make_grid(1, 4.0, 65)
    f = Field(g, np.full(g.shape + (m,), complex(c)))
    sup = weighted_norm(f, SpaceSpec.make(0))
    assert abs(sup - c * math.sqrt(m)) <= math.ulp(sup)
    for p in (1.0, 2.0, 400.0):
        norm = weighted_norm(f, SpaceSpec.make(0, "Lp", p))
        assert math.isfinite(norm)
        assert norm == pytest.approx(sup * (65 * g.cell_volume) ** (1.0 / p), rel=1e-12)


def test_norms_of_a_magnitude_beyond_the_float_range_are_infinite():
    # every value is finite, but |v| of one point, 1.5e308 sqrt(2), overflows
    # (and warns); each norm is inf, where an Lp norm used to read nan
    g = make_grid(1, 4.0, 65)
    values = np.ones(g.shape + (2,), complex)
    values[3] = 1.5e308
    f = Field(g, values)
    for s in (SpaceSpec.make(1), SpaceSpec.make(1, "Lp", 1), SpaceSpec.make(1, "Lp", 2.5)):
        with pytest.warns(RuntimeWarning, match="overflow encountered in hypot"):
            assert weighted_norm(f, s) == math.inf


def test_sup_norm_of_gaussian_is_peak_value():
    g = make_grid(1, 10.0, 501)
    f = sample(g, lambda X: np.exp(-X[0] ** 2))
    assert np.isclose(weighted_norm(f, SpaceSpec.make(0)), 1.0)
    # with weight k the quotient is still maximal at the origin
    assert np.isclose(weighted_norm(f, SpaceSpec.make(2)), 1.0)


def test_weighted_sup_norm_divides_by_weight():
    g = make_grid(1, 4.0, 9)
    f = sample(g, lambda X: 1.0)
    # max of 1/(1+|x|)^1 over the lattice is at x = 0
    assert np.isclose(weighted_norm(f, SpaceSpec.make(1)), 1.0)
    shifted = sample(g, lambda X: np.where(np.abs(X[0] - 4.0) < 1e-9, 1.0, 0.0))
    # only the boundary point is nonzero, so the quotient is 1/(1+4)
    assert np.isclose(weighted_norm(shifted, SpaceSpec.make(1)), 0.2)


def test_l2_norm_of_gaussian_matches_closed_form():
    # integral of e^{-2x^2} is sqrt(pi/2), so the L2 norm is (pi/2)^{1/4}
    g = make_grid(1, 12.0, 1025)
    f = sample(g, lambda X: np.exp(-X[0] ** 2))
    norm = weighted_norm(f, SpaceSpec.make(0, "Lp", 2))
    assert abs(norm - (np.pi / 2.0) ** 0.25) < 1e-12
    assert abs(norm - 1.1195151349) < 1e-9


def test_l1_norm_riemann_sum():
    g = make_grid(1, 12.0, 1025)
    f = sample(g, lambda X: np.exp(-np.abs(X[0])))
    # integral of e^{-|x|} is 2, trapezoid-level accuracy on this grid
    assert abs(weighted_norm(f, SpaceSpec.make(0, "Lp", 1)) - 2.0) < 1e-3


def test_vector_valued_norm_uses_euclidean_magnitude():
    g = make_grid(1, 2.0, 5)
    vals = np.zeros(g.shape + (2,), dtype=complex)
    vals[2, 0] = 3.0
    vals[2, 1] = 4.0j
    f = sample(g, lambda X: 0.0).with_values(vals)
    assert np.isclose(weighted_norm(f, SpaceSpec.make(0)), 5.0)


def test_margin_restricts_norm_window():
    g = make_grid(1, 4.0, 9)
    vals = np.zeros(g.shape)
    vals[0] = 100.0  # boundary spike
    vals[4] = 1.0
    f = sample(g, lambda X: 0.0).with_values(vals)
    assert np.isclose(weighted_norm(f, SpaceSpec.make(0)), 100.0)
    assert np.isclose(weighted_norm(f, SpaceSpec.make(0), margin=0.25), 1.0)
    with pytest.raises(ValueError, match="margin"):
        weighted_norm(f, SpaceSpec.make(0), margin=-0.25)


@pytest.mark.parametrize("k", [0.0, 1.0, 2.5])
def test_weighted_norm_matches_full_grid_weight(k):
    # the weight is built on the interior window only (and skipped at k=0);
    # the norms keep every bit of the full-grid weight sliced afterwards
    g = make_grid(2, 3.0, 33)
    rng = np.random.default_rng(int(2 * k))
    f = Field(g, rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,)))
    for margin in (0.0, 0.25):
        sl = interior_slices(g, margin)
        mag = np.hypot(np.abs(f.values[sl][..., 0]), np.abs(f.values[sl][..., 1]))
        quotient = mag / ((1.0 + np.sqrt(g.squared_norms)) ** k)[sl]
        peak = float(quotient.max())
        assert weighted_norm(f, SpaceSpec.make(k), margin) == peak
        for p in (1.0, 2.0, 2.5):
            expect = peak * float(np.sum((quotient / peak) ** p) * g.cell_volume) ** (1.0 / p)
            assert weighted_norm(f, SpaceSpec.make(k, "Lp", p), margin) == expect
