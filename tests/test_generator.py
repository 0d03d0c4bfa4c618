"""Laplacian discretizations, generator residuals, and the integral identity."""

import math
import weakref

import numpy as np
import pytest

import gausspoisson.generator
import gausspoisson.kernel
from gausspoisson import (
    Field,
    SpaceSpec,
    apply,
    apply_many,
    classical_residual,
    difference_quotient_residual,
    discrete_laplacian,
    generator_residuals,
    interior_slices,
    make_grid,
    mild_identity_residual,
    sample,
    time_integral,
    trajectory,
)
from gausspoisson.generator import _graded_nodes, _node_sum, _stencil, _window_residuals
from gausspoisson.grid_field import squared_norm

from conftest import traced_peak

GRID = make_grid(1, 12.0, 1025)
GAUSSIAN = sample(GRID, lambda X: np.exp(-X[0] ** 2))


def _finite_difference(f):
    """The finite-difference Laplacian on the whole grid."""
    return _stencil(f.values, f.grid.n, 1.0 / (f.grid.h * f.grid.h))


def test_laplacian_of_gaussian_closed_form():
    # Delta exp(-x^2) = (4x^2 - 2) exp(-x^2)
    expect = sample(GRID, lambda X: (4 * X[0] ** 2 - 2) * np.exp(-X[0] ** 2))
    spec = discrete_laplacian(GAUSSIAN)
    assert np.max(np.abs(spec.values - expect.values)) < 1e-9
    fd = _finite_difference(GAUSSIAN)
    inner = interior_slices(GRID, 0.1)
    assert np.max(np.abs(fd[inner] - expect.values[inner])) < 1e-3


def test_finite_difference_stencil_exact_on_quadratics():
    # the central stencil is exact for polynomials of degree <= 3
    g = make_grid(1, 2.0, 9)
    f = sample(g, lambda X: X[0] ** 2)
    lap = _finite_difference(f)
    inner = slice(1, 8)
    np.testing.assert_allclose(lap[inner, 0].real, 2.0, rtol=1e-12)


def _padded_stencil(values, n, h):
    # the finite-difference Laplacian as first written: zero-pad each axis
    # with np.pad, then (up - 2 f + down) / h^2 summed over the axes
    out = np.zeros_like(values)
    for axis in range(n):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        padded = np.pad(values, pad)
        before = (slice(None),) * axis
        up, down = padded[before + (slice(2, None),)], padded[before + (slice(None, -2),)]
        out = out + (up - 2.0 * values + down) * (1.0 / (h * h))
    return out


def _random_field(g, m, rng):
    shape = g.shape + (m,)
    return Field(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("n, N", [(1, 7), (2, 6), (3, 5), (1, 3), (2, 3), (3, 3)])
def test_finite_difference_matches_explicit_stencil(n, N):
    g = make_grid(n, 1.3, N)
    f = _random_field(g, 2, np.random.default_rng(n))
    inv_h2 = 1.0 / (g.h * g.h)
    zero = np.zeros(f.m, dtype=complex)
    expect = np.zeros_like(f.values)
    for idx in np.ndindex(g.shape):
        acc = np.zeros(f.m, dtype=complex)
        for axis in range(n):
            up, down = list(idx), list(idx)
            up[axis] += 1
            down[axis] -= 1
            fu = f.values[tuple(up)] if up[axis] < N else zero
            fd = f.values[tuple(down)] if down[axis] >= 0 else zero
            acc = acc + (fu - 2.0 * f.values[idx] + fd) * inv_h2
        expect[idx] = acc
    lap = _finite_difference(f)
    assert np.array_equal(lap, expect)
    assert np.array_equal(lap, _padded_stencil(f.values, n, g.h))


@pytest.mark.parametrize("n, N", [(1, 65), (2, 33), (3, 9)])
def test_classical_residual_window_matches_full_grid(n, N):
    # the residual formed on the interior window (plus a stencil halo) equals
    # the full-grid residual sliced afterwards, at the edge too (margin 0)
    g = make_grid(n, 4.0, N)
    rng = np.random.default_rng([n, N])
    times = 0.5 + 0.01 * np.arange(5)
    states = [_random_field(g, 2, rng) for _ in times]
    dt = float(np.diff(times)[0])
    laps = [_padded_stencil(s.values, n, g.h) for s in states]
    for margin in (0.0, 0.25, 0.45):
        inner = interior_slices(g, margin)
        expect = 0.0
        for i in range(1, len(states) - 1):
            dudt = (states[i + 1].values - states[i - 1].values) / (2.0 * dt)
            pointwise = np.sqrt(np.sum(np.abs(dudt - laps[i]) ** 2, axis=-1))
            expect = max(expect, float(pointwise[inner].max()))
        assert classical_residual(times, states, margin) == expect


def test_classical_residual_keeps_a_nan_window(monkeypatch):
    # Python's max skips a NaN that does not come first
    monkeypatch.setattr(gausspoisson.generator, "_window_residuals", lambda *args: iter([1.0, math.nan, 2.0]))
    assert math.isnan(classical_residual((0.5, 0.51, 0.52), []))


def test_finite_difference_refines_at_second_order():
    def err(N):
        g = make_grid(1, 12.0, N)
        f = sample(g, lambda X: np.exp(-X[0] ** 2))
        expect = sample(g, lambda X: (4 * X[0] ** 2 - 2) * np.exp(-X[0] ** 2))
        lap = _finite_difference(f)
        sl = interior_slices(g, 0.25)
        return np.max(np.abs(lap[sl] - expect.values[sl]))

    assert err(513) / err(1025) == pytest.approx(4.0, rel=0.1)


def test_laplacian_two_dimensional():
    g = make_grid(2, 8.0, 129)
    f = sample(g, lambda X: np.exp(-sum(x**2 for x in X)))
    expect = sample(
        g, lambda X: (4 * sum(x**2 for x in X) - 4) * np.exp(-sum(x**2 for x in X))
    )
    spec = discrete_laplacian(f)
    assert np.max(np.abs(spec.values - expect.values)) < 1e-8


def test_laplacian_validation():
    g = make_grid(1, 1.0, 2)
    f = sample(g, lambda X: 0.0)
    with pytest.raises(ValueError, match="N >= 3"):
        classical_residual((0.5, 0.51, 0.52), [f] * 3, margin=0.0)


def test_laplacian_self_adjoint_for_pairing():
    # summation by parts: <Delta f, phi> = <f, Delta phi> for interior support
    g = make_grid(1, 6.0, 121)
    bump = lambda c: lambda X: np.where(
        np.abs(X[0] - c) < 1.0, np.cos(np.pi * (X[0] - c) / 2.0) ** 4, 0.0
    )
    f, phi = sample(g, bump(-1.0)), sample(g, bump(1.5))
    for field in (f, phi):  # interior support: the outer two layers are zero
        assert not field.values[[0, 1, -2, -1]].any()
    for laplacian in (lambda u: discrete_laplacian(u).values, _finite_difference):
        # the quadrature pairing sum_x u(x) v(x) h of two scalar fields
        left = np.sum(laplacian(f) * phi.values) * g.h
        right = np.sum(f.values * laplacian(phi)) * g.h
        assert abs(left - right) < 1e-10


def test_generator_residuals_small_for_gaussian():
    [r] = generator_residuals(GAUSSIAN, 0.5, (1e-3,))
    assert r.r1 < 1e-5
    assert r.r2 < 1e-10  # same discretization on both sides
    assert r.r3 < 1e-5


def test_generator_residuals_shrink_with_dt():
    # the central difference carries an O(dt^2) bias
    r_coarse, r_fine = (r.r1 for r in generator_residuals(GAUSSIAN, 0.5, (1e-2, 5e-3)))
    assert r_coarse / r_fine == pytest.approx(4.0, rel=0.1)


def test_generator_residuals_validation():
    with pytest.raises(ValueError):
        generator_residuals(GAUSSIAN, 0.0, (1e-3,))
    with pytest.raises(ValueError):
        generator_residuals(GAUSSIAN, 0.5, (1e-3, 0.6))  # dt >= t


def test_difference_quotient_first_order():
    r1, r2 = difference_quotient_residual(GAUSSIAN, (1e-2, 5e-3))
    assert 1.5 <= r1 / r2 <= 2.5
    # leading error is (h/2) Delta^2 f, about 0.03 here
    assert r2 < 0.05
    with pytest.raises(ValueError):
        difference_quotient_residual(GAUSSIAN, (0.0,))


def test_time_integral_of_constant_is_linear():
    # G(s) fixes constants, and trapezoid weights sum to the interval length
    g = make_grid(1, 4.0, 65)
    one = sample(g, lambda X: 1.0)
    out = time_integral(one, 0.75)  # real times: the spectral path
    np.testing.assert_allclose(out.values, 0.75 * one.values, rtol=1e-12)
    assert out.meta["t"] == 0.75
    assert out.meta["nodes"] > 256


def test_time_integral_matches_pointwise_quadrature():
    # at the origin the evolved Gaussian is (1+4s)^{-1/2}, whose integral
    # over [0, t] is (sqrt(1+4t) - 1)/2
    t = 1.0
    out = time_integral(GAUSSIAN, t, steps=512)
    center = out.values[GRID.N // 2, 0].real
    expect = (np.sqrt(1.0 + 4.0 * t) - 1.0) / 2.0
    assert abs(center - expect) < 1e-5


def _node_by_node_integral(f, t, steps):
    # the trapezoid sum in real space: every node evolved on its own path
    # (spectral at these real times) and the states accumulated pairwise
    nodes = _graded_nodes(t, steps)
    states = apply_many(nodes, f)
    prev = next(states).values
    acc = np.zeros_like(f.values)
    for a, b, state in zip(nodes, nodes[1:], states):
        acc = acc + 0.5 * (b - a) * (state.values + prev)
        prev = state.values
    return acc


@pytest.mark.parametrize("n, N", [(1, 257), (2, 65), (3, 17)])
@pytest.mark.parametrize("steps", [16, 256])
def test_time_integral_matches_node_by_node_sum(n, N, steps):
    # the Fourier-space sum of the weighted node symbols is the real-space
    # trapezoid sum of the node states, up to rounding
    g = make_grid(n, 4.0, N)
    f = _random_field(g, 2, np.random.default_rng([n, steps]))
    out = time_integral(f, 1.0, steps=steps)
    expect = _node_by_node_integral(f, 1.0, steps)
    assert np.max(np.abs(out.values - expect)) <= 1e-14 * np.max(np.abs(f.values))
    assert out.meta == {"t": 1.0, "nodes": len(_graded_nodes(1.0, steps)), "method": "spectral"}


@pytest.mark.parametrize("steps", [16, 512])
def test_time_integral_makes_one_inverse_transform(monkeypatch, steps):
    calls = []
    inverse = np.fft.ifftn

    def spy(*args, **kwargs):
        calls.append(1)
        return inverse(*args, **kwargs)

    f = _random_field(make_grid(2, 4.0, 33), 2, np.random.default_rng(steps))
    monkeypatch.setattr(np.fft, "ifftn", spy)
    time_integral(f, 1.0, steps=steps)
    assert len(calls) == 1  # whatever the number of nodes


def test_time_integral_sums_its_nodes_into_one_array():
    # the node sum was a list of per-row arrays stacked into a second
    # full-size one: 3.1 state sizes at n=2; rows written in place, 2.3
    g = make_grid(2, 8.0, 256)
    f = sample(g, lambda X: np.exp(-squared_norm(X)))
    f.spectrum  # made once, outside the traced integral
    out, peak = traced_peak(lambda: time_integral(f, 1.0))
    assert peak < 2.6 * out.values.nbytes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_sum_rows_keep_every_bit(n):
    # the list of per-row sums stacked into one array, the form the
    # preallocated rows replaced, is the reference
    rng = np.random.default_rng(n)
    weights = rng.random(5)
    table = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))

    def stacked(w, k):
        return w @ table if k == 1 else np.stack([stacked(w * column, k - 1) for column in table.T])

    assert np.array_equal(_node_sum(weights, table, n).view(np.uint64), stacked(weights, n).view(np.uint64))


def test_spectral_operators_share_one_forward_transform_per_field(monkeypatch):
    inputs = []
    forward = np.fft.fftn

    def spy(x, *args, **kwargs):
        inputs.append(x)
        return forward(x, *args, **kwargs)

    f = _random_field(make_grid(2, 4.0, 33), 2, np.random.default_rng(4))
    monkeypatch.setattr(np.fft, "fftn", spy)
    list(apply_many((0.25, 0.5), f))  # real times: the spectral path
    apply(1.0, f)
    discrete_laplacian(f)
    time_integral(f, 1.0, steps=16)
    assert len(inputs) == 1 and inputs[0] is f.values
    # a field made by with_values is a new field, with its own transform
    copy = f.with_values(f.values)
    discrete_laplacian(copy)
    assert len(inputs) == 2 and copy.spectrum is not f.spectrum


def test_time_integral_follows_kernel_fourier(monkeypatch):
    # with the symbol's decay doubled, the integral to t/2 is half the true
    # integral to t: the graded nodes and their weights scale with t
    f = _random_field(make_grid(2, 4.0, 33), 2, np.random.default_rng(5))
    expect = 0.5 * time_integral(f, 1.0).values
    true_symbol = gausspoisson.kernel.kernel_fourier
    monkeypatch.setattr(gausspoisson.kernel, "kernel_fourier", lambda z, xi: true_symbol(2.0 * z, xi))
    out = time_integral(f, 0.5).values
    assert np.max(np.abs(out - expect)) <= 1e-14 * np.max(np.abs(f.values))


def test_time_integral_validation():
    with pytest.raises(ValueError):
        time_integral(GAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        time_integral(GAUSSIAN, 1.0, steps=1)


def test_mild_identity_holds_and_refines():
    coarse, fine = mild_identity_residual(GAUSSIAN, 1.0, (256, 512))
    assert coarse < 1e-4
    assert coarse / fine >= 2.0


def test_classical_residual_small_and_refines():
    def residual(dt, N):
        g = make_grid(1, 12.0, N)
        f = sample(g, lambda X: np.exp(-X[0] ** 2))
        traj = trajectory(f, [0.5 - dt, 0.5, 0.5 + dt])
        return classical_residual(traj.times, traj.states)

    coarse = residual(1e-2, 1025)
    fine = residual(5e-3, 2049)
    assert coarse < 1e-3
    assert coarse / fine >= 3.0


def test_classical_residual_validation():
    traj2 = trajectory(GAUSSIAN, [0.4, 0.5])
    with pytest.raises(ValueError):
        classical_residual(traj2.times, traj2.states)
    uneven = trajectory(GAUSSIAN, [0.1, 0.2, 0.4])
    with pytest.raises(ValueError):
        classical_residual(uneven.times, uneven.states)
    # a leading zero time is ignored by the uniform-spacing rule
    ok = trajectory(GAUSSIAN, [0.0, 0.4, 0.5, 0.6])
    assert classical_residual(ok.times, ok.states) < 1e-2
    with pytest.raises(ValueError):
        classical_residual(ok.times, ok.states[:-1])  # one state per time
    with pytest.raises(ValueError):
        classical_residual(ok.times, ok.states + ok.states[:1])


def test_classical_residual_streams_states():
    # a one-pass stream of states gives the stored trajectory's residual
    times = 0.5 + 0.05 * np.arange(6)
    traj = trajectory(GAUSSIAN, times)
    streamed = classical_residual(times, apply_many(times, GAUSSIAN))
    assert streamed == classical_residual(traj.times, traj.states)
    # the residual is the max of the per-window profile, one per three times
    profile = list(_window_residuals(times, apply_many(times, GAUSSIAN)))
    assert len(profile) == 4 and max(profile) == streamed


def test_classical_residual_holds_no_state_it_has_moved_past():
    # of each state only a copy of its halo window is kept, and the state is
    # released once that is copied, so when the next state is asked for, no
    # earlier one is alive
    times = np.concatenate([[0.0], 0.5 + 0.05 * np.arange(6)])
    given = []

    def states():
        for t in times:
            assert all(ref() is None for ref in given)
            state = apply(t, GAUSSIAN)
            given.append(weakref.ref(state))
            yield state
            del state

    assert classical_residual(times, states()) == classical_residual(times, trajectory(GAUSSIAN, times).states)
    assert len(given) == len(times)


def test_residuals_respect_weighted_space():
    s = SpaceSpec.make(2)
    [r] = generator_residuals(GAUSSIAN, 0.5, (1e-3,), space=s)
    assert max(r.r1, r.r2, r.r3) < 1e-4
