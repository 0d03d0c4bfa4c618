"""Evolution operator: both discretizations, law, bounds, trajectories."""

import re
import sys
import weakref
from functools import reduce

import numpy as np
import pytest
from scipy import integrate

from gausspoisson import (
    Field,
    GaussianMixture,
    Method,
    SpaceSpec,
    Trajectory,
    apply,
    apply_dzeta,
    apply_many,
    interior_slices,
    kernel_eval,
    kernel_fourier,
    make_grid,
    operator_bound,
    read_trajectory,
    sample,
    time_integral,
    trajectory,
    weighted_norm,
    write_trajectory,
)
from gausspoisson import semigroup
from gausspoisson.fields import random_gaussian_mixture
from gausspoisson.generator import _graded_nodes

from conftest import lattice_points, traced_peak

GRID = make_grid(1, 12.0, 1025)
GAUSSIAN = sample(GRID, lambda X: np.exp(-X[0] ** 2))


def evolved_gaussian(zeta):
    # closed form for the evolution of exp(-x^2): width 1/(1+4 zeta)
    d = 1.0 + 4.0 * zeta
    return sample(GRID, lambda X: d**-0.5 * np.exp(-X[0] ** 2 / d))


def test_zero_time_is_identity():
    # the values are shared, the provenance is the zero-time apply's own
    out = apply(0.0, GAUSSIAN)
    assert out.values is GAUSSIAN.values
    assert out.meta == {"zeta": 0, "method": "identity"}


def test_method_selection():
    # with no method forced: spectral at real times, quadrature at properly
    # complex ones, the identity at zero
    assert apply(1.0, GAUSSIAN).meta["method"] == "spectral"
    assert apply(1.0 + 0.1j, GAUSSIAN).meta["method"] == "quadrature"
    assert apply(0.0, GAUSSIAN).meta["method"] == "identity"
    assert Method("quadrature") is Method.QUADRATURE


def test_unknown_method_raises():
    # a method is a Method or its value; anything else never falls through
    # to the spectral path
    assert apply(1.0, GAUSSIAN, method="quadrature").meta["method"] == "quadrature"
    with pytest.raises(ValueError):
        apply(1.0, GAUSSIAN, method="no_such_method")
    # the one check runs before the first time, so neither a zero time nor a
    # trajectory's leading 0 is evolved with a method that does not exist
    message = "unknown method 'nope'; use quadrature or spectral"
    with pytest.raises(ValueError, match=message):
        apply(0.0, GAUSSIAN, method="nope")
    with pytest.raises(ValueError, match=message):
        trajectory(GAUSSIAN, (0.0, 1.0), method="nope")


def test_every_evolution_takes_its_path_from_one_decision(monkeypatch):
    original = semigroup._path
    calls = []

    def counted(z, g, method=None):
        calls.append(method)
        return original(z, g, method)

    # wrap the decision wherever a module of the package bound it by name
    for name, module in list(sys.modules.items()):
        if name.startswith("gausspoisson") and getattr(module, "_path", None) is original:
            monkeypatch.setattr(module, "_path", counted)

    def methods(run):
        calls.clear()
        run()
        return calls[:]

    g = make_grid(2, 4.0, 17)
    f = sample(g, lambda X: np.exp(-sum(x**2 for x in X)))
    assert methods(lambda: apply(1.0, f)) == [None]
    assert methods(lambda: apply(1.0 + 0.5j, f)) == [None]
    for forced in Method:
        assert methods(lambda: apply(0.5, f, method=forced)) == [forced]
    times = (0.0, 0.25, 0.5 + 0.1j, 1.0)
    assert methods(lambda: list(apply_many(times, f))) == [None] * 3
    quadrature = [Method.QUADRATURE]
    assert methods(lambda: apply_dzeta(0.5, f)) == quadrature
    assert methods(lambda: operator_bound(0.5, 2.0, g)) == quadrature
    assert methods(lambda: semigroup._operator_norms(0.5, 2.0, g)) == quadrature
    nodes = len(_graded_nodes(1.0, 16))
    assert methods(lambda: time_integral(f, 1.0, 16)) == [Method.SPECTRAL] * nodes


def test_quadrature_matches_gaussian_closed_form():
    for zeta in (0.1, 1.0, 0.5 + 0.5j, np.exp(-1j * np.pi / 4)):
        got = apply(zeta, GAUSSIAN, method=Method.QUADRATURE)
        err = np.max(np.abs(got.values - evolved_gaussian(zeta).values))
        assert err < 1e-12


def test_spectral_matches_gaussian_closed_form():
    for zeta in (0.1, 1.0, 0.5 + 0.5j):
        got = apply(zeta, GAUSSIAN, method=Method.SPECTRAL)
        err = np.max(np.abs(got.values - evolved_gaussian(zeta).values))
        assert err < 1e-10


def test_paths_agree_on_interior():
    f = sample(GRID, lambda X: np.cos(3.0 * X[0]) * np.exp(-X[0] ** 2))
    for zeta in (0.5, 1.0 + 1.0j):
        a = apply(zeta, f, method=Method.QUADRATURE)
        b = apply(zeta, f, method=Method.SPECTRAL)
        sl = interior_slices(GRID, 0.25)
        assert np.max(np.abs(a.values[sl] - b.values[sl])) < 1e-10


def test_semigroup_law_through_composition():
    z1, z2 = 0.3 + 0.2j, 0.5 - 0.1j
    left = apply(z1 + z2, GAUSSIAN, method=Method.QUADRATURE)
    right = apply(z1, apply(z2, GAUSSIAN, method=Method.QUADRATURE), method=Method.QUADRATURE)
    sl = interior_slices(GRID, 0.25)
    assert np.max(np.abs(left.values[sl] - right.values[sl])) < 1e-12


def test_apply_attaches_tail_metadata():
    out = apply(1.0, GAUSSIAN)
    assert out.meta["method"] == "spectral"
    assert out.meta["tail_bound"] < 1e-10
    assert out.meta["tail_warning"] is False
    small = make_grid(1, 2.0, 65)
    f = sample(small, lambda X: np.exp(-X[0] ** 2))
    warn = apply(4.0, f)
    assert warn.meta["tail_warning"] is True


def test_apply_tail_is_the_kernel_tail_at_its_own_argument():
    # n=2, L=12, zeta=e^{i pi/4}: the kernel's mass beyond L is 1.245e-11,
    # under the budget, though a wider sector's majorant exceeds it
    zeta = np.exp(1j * np.pi / 4)
    grid = make_grid(2, 12.0, 33)
    out = apply(zeta, sample(grid, lambda X: np.exp(-sum(x**2 for x in X))))
    # in 2-D, |chi_zeta| has mass exp(-R^2 cos(arg)/(4|zeta|)) / cos(arg) beyond R
    c = np.cos(np.pi / 4)
    assert out.meta["tail_bound"] == pytest.approx(np.exp(-144.0 * c / 4.0) / c, rel=1e-12)
    assert out.meta["tail_warning"] is False


def test_apply_vector_components_evolve_independently():
    vals = np.stack([GAUSSIAN.values[..., 0], 2.0j * GAUSSIAN.values[..., 0]], axis=-1)
    f = GAUSSIAN.with_values(vals)
    out = apply(0.5, f, method=Method.QUADRATURE)
    np.testing.assert_allclose(out.values[..., 1], 2.0j * out.values[..., 0], rtol=1e-13)


def test_apply_dzeta_is_time_derivative():
    # central difference of apply in real time, second order
    t, h = 0.8, 1e-3
    deriv = apply_dzeta(t, GAUSSIAN)
    num = (
        apply(t + h, GAUSSIAN, method=Method.QUADRATURE).values
        - apply(t - h, GAUSSIAN, method=Method.QUADRATURE).values
    ) / (2 * h)
    assert np.max(np.abs(deriv.values - num)) < 1e-6
    with pytest.raises(ValueError):
        apply_dzeta(0.0, GAUSSIAN)


def test_operator_bound_matches_weighted_kernel_integral():
    # oracle: continuum integral of (1+|x|)^2 chi_1(x) over the line
    density = lambda x: (1 + abs(x)) ** 2 * np.exp(-(x**2) / 4.0) / np.sqrt(4 * np.pi)
    expect = integrate.quad(density, -np.inf, np.inf)[0]
    got = operator_bound(1.0, 2.0, GRID)
    # the lattice sum is a Riemann approximation; the |x| kink at the origin
    # keeps the gap at the h^2 scale rather than spectral accuracy
    assert abs(got - expect) < GRID.h**2
    # closed form: 1 + 2 E|x| + E x^2 for a centered normal with variance 2
    assert abs(got - (3.0 + 4.0 / np.sqrt(np.pi))) < GRID.h**2


def test_operator_bound_dominates_quadrature_norms():
    rng = np.random.default_rng(5)
    for k in (0.0, 2.0):
        s = SpaceSpec.make(k)
        for zeta in (1.0, np.exp(1j * np.pi / 4)):
            M = operator_bound(zeta, k, GRID)
            for _ in range(20):
                f = random_gaussian_mixture(1, rng=rng).sampled(GRID)
                lhs = weighted_norm(apply(zeta, f, method=Method.QUADRATURE), s)
                assert lhs <= M * weighted_norm(f, s) * (1.0 + 1e-12)


def test_operator_bound_near_one_for_unweighted_real_time():
    assert operator_bound(1.0, 0.0, GRID) == pytest.approx(1.0, abs=1e-10)
    # complex time: modulus mass exceeds 1 by the sector factor
    assert operator_bound(np.exp(1j * np.pi / 4), 0.0, GRID) > 1.0


@pytest.mark.parametrize("n, N", [(1, 9), (1, 8), (2, 7), (2, 6)])
def test_operator_norms_match_the_dense_matrix(n, N):
    # the quadrature path as a dense matrix K[x, y] = chi(x-y) h^n, weighted:
    # T is its largest weighted row sum, C its largest weighted column sum
    g = make_grid(n, 3.0, N)
    points = lattice_points(g).reshape(-1, n)
    w = (1.0 + np.sqrt(np.sum(points**2, axis=-1))) ** 2.0
    diff = points[:, None, :] - points[None, :, :]
    for zeta in (1.0, np.exp(1j * np.pi / 4)):
        chi = kernel_eval(zeta, np.moveaxis(diff, -1, 0))
        dense = np.abs(chi) * g.cell_volume * w[None, :] / w[:, None]
        T, extremal, C = semigroup._operator_norms(zeta, 2.0, g)
        assert T == pytest.approx(dense.sum(axis=1).max(), rel=1e-13)
        assert C == pytest.approx(dense.sum(axis=0).max(), rel=1e-13)
        assert max(T, C) <= operator_bound(zeta, 2.0, g) * (1 + 1e-14)
        s = SpaceSpec.make(2.0)
        attained = weighted_norm(apply(zeta, extremal, method=Method.QUADRATURE), s)
        assert attained == pytest.approx(T * weighted_norm(extremal, s), rel=1e-13)


def test_trajectory_states_match_apply():
    traj = trajectory(GAUSSIAN, [0.0, 0.25, 1.0])
    assert len(traj.times) == 3
    assert all(state.grid == GRID for state in traj.states)
    assert traj.states[0].values is GAUSSIAN.values
    np.testing.assert_array_equal(traj.states[2].values, apply(1.0, GAUSSIAN).values)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory((), ())
    with pytest.raises(ValueError):
        trajectory(GAUSSIAN, [0.5, 0.5])
    with pytest.raises(ValueError):
        trajectory(GAUSSIAN, [-0.1, 0.5])
    other = sample(make_grid(1, 6.0, 65), lambda X: 0.0)
    with pytest.raises(ValueError):
        Trajectory((0.0, 1.0), (GAUSSIAN, other))
    with pytest.raises(ValueError, match="2 times but 1 states"):
        Trajectory((0.0, 1.0), (GAUSSIAN,))


def test_trajectory_checks_times_before_evolving(monkeypatch):
    def must_not_evolve(*args, **kwargs):
        raise AssertionError("evolved before the times were checked")

    monkeypatch.setattr(semigroup, "apply_many", must_not_evolve)
    for times in ((1.0, 0.5), (0.0, np.inf), (0.0, np.nan), (-0.1, 0.5), ()):
        with pytest.raises(ValueError):
            trajectory(GAUSSIAN, times)


def test_trajectory_round_trip(tmp_path):
    mix = GaussianMixture([[1.0 + 0.5j]], [0.8], [[0.4]])
    f = mix.sampled(make_grid(1, 8.0, 129))
    traj = trajectory(f, [0.0, 0.1, 0.7])
    index = write_trajectory(traj, tmp_path / "run")
    assert index.name == "index.csv"
    lines = index.read_text().splitlines()
    assert lines[0] == "t,filename"
    assert lines[1].endswith("state_0000.csv")
    back = read_trajectory(index)
    assert back.times == traj.times
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.values, b.values)
    # reading the directory finds the index; a blank line in it is skipped
    index.write_text(index.read_text().replace("\n", "\n\n", 1))
    again = read_trajectory(tmp_path / "run")
    assert again.times == traj.times


def test_read_trajectory_rejects_bad_index(tmp_path):
    bad = tmp_path / "index.csv"
    bad.write_text("time,file\n")
    with pytest.raises(ValueError):
        read_trajectory(bad)
    index = write_trajectory(trajectory(GAUSSIAN, [0.0]), tmp_path / "run")
    index.write_text(index.read_text() + "0.5,state_0000.csv,extra\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_trajectory(index)


@pytest.mark.parametrize("name", ["../outside.csv", "ABSOLUTE", "sub/state_0000.csv", "..", "", "./state_0000.csv"])
def test_read_trajectory_reads_nothing_outside_its_directory(tmp_path, name):
    # a field CSV next to the run directory, which an index could name
    outside = write_trajectory(trajectory(GAUSSIAN, [0.0]), tmp_path).parent / "state_0000.csv"
    (tmp_path / "outside.csv").write_bytes(outside.read_bytes())
    index = write_trajectory(trajectory(GAUSSIAN, [0.0]), tmp_path / "run")
    (tmp_path / "run" / "sub").mkdir()
    (tmp_path / "run" / "sub" / "state_0000.csv").write_bytes(outside.read_bytes())
    name = str(tmp_path / "outside.csv") if name == "ABSOLUTE" else name
    index.write_text(f"t,filename\n0,state_0000.csv\n0.5,{name}\n")
    with pytest.raises(ValueError, match=f"line 3 names {re.escape(repr(name))}, not a file in its directory"):
        read_trajectory(index)


@pytest.mark.parametrize("times, bad", [((0.5, np.nan), "nan"), ((np.nan, 1.0), "nan"), ((0.5, np.inf), "inf")])
def test_trajectory_rejects_non_finite_times(times, bad):
    # NaN fails every comparison, so the order checks alone let it through
    with pytest.raises(ValueError, match=f"finite, got {bad}"):
        Trajectory(times, (GAUSSIAN, GAUSSIAN))


def test_read_trajectory_rejects_a_nan_time(tmp_path):
    index = write_trajectory(trajectory(GAUSSIAN, [0.0, 0.5]), tmp_path)
    index.write_text(index.read_text().replace("0.5,", "nan,"))
    with pytest.raises(ValueError, match="finite, got nan"):
        read_trajectory(index)


def _difference_lattice_sum(zeta, f, dzeta=False):
    # brute-force reference: the n-D kernel (or its time derivative) at every
    # pairwise point difference, written out here rather than taken from the
    # library, summed against the field with cell volume h^n
    g = f.grid
    z = complex(zeta)
    pts = lattice_points(g).reshape(-1, g.n)
    sq = np.sum((pts[:, np.newaxis, :] - pts[np.newaxis, :, :]) ** 2, axis=-1)
    chi = (4.0 * np.pi * z) ** (-g.n / 2.0) * np.exp(-sq / (4.0 * z))
    if dzeta:
        chi = chi * (sq / (4.0 * z * z) - g.n / (2.0 * z))
    return (chi @ f.values.reshape(-1, f.m)).reshape(f.values.shape) * g.cell_volume


@pytest.mark.parametrize("n, N", [(1, 7), (1, 8), (2, 7), (2, 8), (3, 5), (3, 6)])
@pytest.mark.parametrize("zeta", [0.7, 0.5 + 0.4j])
def test_quadrature_matches_difference_lattice_sum(n, N, zeta):
    g = make_grid(n, 2.0, N)
    rng = np.random.default_rng([n, N])
    shape = g.shape + (2,)
    f = Field(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    quadrature = apply(zeta, f, method=Method.QUADRATURE)
    for got, dzeta in ((quadrature, False), (apply_dzeta(zeta, f), True)):
        expect = _difference_lattice_sum(zeta, f, dzeta)
        assert np.max(np.abs(got.values - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("n, N", [(1, 65), (2, 33)])
def test_apply_many_matches_apply_per_time(n, N):
    g = make_grid(n, 6.0, N)
    f = random_gaussian_mixture(n, m=2, rng=np.random.default_rng(3)).sampled(g)
    times = [0.0, 0.1, 0.25 + 0.1j, 1.0]
    for method in (None, Method.SPECTRAL, Method.QUADRATURE):
        states = list(apply_many(times, f, method=method))
        assert states[0].values is f.values
        for t, state in zip(times[1:], states[1:]):
            expect = apply(t, f, method=method)
            np.testing.assert_array_equal(state.values, expect.values)
            assert state.meta == expect.meta


def test_apply_many_keeps_no_state_it_yielded():
    # a sweep that drops each state before asking for the next holds one at a time
    states = apply_many([0.5, 0.5 + 0.1j, 1.0], GAUSSIAN)
    for _ in range(3):
        values = weakref.ref(next(states).values)
        assert values() is None


def test_spectral_apply_flushes_subnormals_bit_for_bit(monkeypatch):
    # the symbol underflows through the subnormal range in a ring of
    # frequencies; apply zeroes those parts of spectrum * symbol before the
    # inverse transform, and its states keep every bit of the unflushed one
    g = make_grid(2, 3.0, 129)
    f = random_gaussian_mixture(2, m=2, rng=np.random.default_rng(8)).sampled(g)
    tiny = np.finfo(float).tiny

    def subnormal_parts(x):
        parts = x.view(float)
        return int(np.count_nonzero((parts != 0) & (np.abs(parts) < tiny)))

    inverse = np.fft.ifftn
    seen = []

    def checked_ifftn(x, *args, **kwargs):
        seen.append(subnormal_parts(x))
        return inverse(x, *args, **kwargs)

    spectrum = np.fft.fftn(f.values, axes=(0, 1))
    for t in (0.5, 1.0):
        symbol = kernel_fourier(t, (g.fourier_axis,))
        product = spectrum * np.multiply.outer(symbol, symbol)[..., np.newaxis]
        assert subnormal_parts(product) > 0  # the flush has work to do here
        expect = inverse(product, axes=(0, 1))
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "ifftn", checked_ifftn)
            got = apply(t, f, method=Method.SPECTRAL)
        assert seen == [0]
        seen.clear()
        np.testing.assert_array_equal(got.values.view(float), expect.view(float))
        assert np.array_equal(np.signbit(got.values.view(float)), np.signbit(expect.view(float)))


@pytest.mark.parametrize("n, N", [(1, 257), (2, 65), (3, 17)])
@pytest.mark.parametrize("m", [1, 2])
def test_spectral_states_keep_every_bit(n, N, m):
    # a state is the inverse transform of f.spectrum * multiplier, flushed,
    # with the spectrum as the first operand whether or not the product is
    # formed in the multiplier's buffer (fused multiply-adds make a*b and a*b
    # reversed differ in the last bit)
    g = make_grid(n, 6.0, N)
    f = random_gaussian_mixture(n, m=m, rng=np.random.default_rng(10 * n + m)).sampled(g)
    times = [0.5, 1.0, 0.25 + 0.1j]
    for t, state in zip(times, apply_many(times, f, method=Method.SPECTRAL)):
        symbol = kernel_fourier(t, (g.fourier_axis,))
        product = f.spectrum * reduce(np.multiply.outer, (symbol,) * n)[..., np.newaxis]
        semigroup._flush_subnormals(product)
        expect = np.fft.ifftn(product, axes=tuple(range(n)))
        assert np.array_equal(state.values.view(np.uint64), expect.view(np.uint64))


def test_spectral_state_is_its_multiplier_buffer():
    # a fresh multiplier and then a fresh product peaked at 2.4 states; the
    # product formed in the multiplier's buffer, transformed in place, is the
    # state, and the subnormal flush's boolean masks are the rest
    g = make_grid(2, 8.0, 256)
    f = sample(g, lambda X: np.exp(-sum(x**2 for x in X)))
    f.spectrum  # made once, outside the traced step
    for t in (1.0, 0.3 + 0.2j):
        state, peak = traced_peak(lambda: next(apply_many((t,), f, method=Method.SPECTRAL)))
        assert peak < 1.3 * state.values.nbytes


@pytest.mark.parametrize("N", [64, 1025])
def test_one_dimensional_quadrature_is_fftconvolve_bit_for_bit(N):
    # reference reports stay byte-identical only if the 1-D path keeps the
    # arithmetic of a per-component scipy.signal.fftconvolve in 'valid' mode
    from scipy.signal import fftconvolve

    g = make_grid(1, 12.0, N)
    f = random_gaussian_mixture(1, m=2, rng=np.random.default_rng(N)).sampled(g)
    zeta = 0.5 + 0.4j
    d = (np.arange(2 * N - 1) - (N - 1)) * g.h
    k = kernel_eval(zeta, (d,))
    expect = np.stack([fftconvolve(k, f.values[:, c], mode="valid") for c in range(2)], axis=-1) * g.h
    np.testing.assert_array_equal(apply(zeta, f, method=Method.QUADRATURE).values, expect)


@pytest.mark.parametrize("n, N", [(2, 33), (2, 64), (3, 17)])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("zeta", [0.7, 0.5 + 0.4j])
def test_quadrature_from_two_dimensions_keeps_every_bit(n, N, m, zeta):
    # reference reports stay byte-identical only if each axis keeps the
    # arithmetic of one product with the dense Toeplitz matrix
    # T[i, j] = factor[i-j+N-1] h, the axis moved first and the rest flattened
    g = make_grid(n, 6.0, N)
    f = random_gaussian_mixture(n, m=m, rng=np.random.default_rng([n, N, m])).sampled(g)
    d = (np.arange(2 * N - 1) - (N - 1)) * g.h
    toeplitz = (kernel_eval(zeta, (d,)) * g.h)[np.subtract.outer(np.arange(N), np.arange(N)) + (N - 1)]
    expect = f.values
    for axis in range(n):
        moved = np.moveaxis(expect, axis, 0)
        product = toeplitz @ moved.reshape(N, -1)
        expect = np.moveaxis(product.reshape(moved.shape), 0, axis)
    got = apply(zeta, f, method=Method.QUADRATURE).values
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
