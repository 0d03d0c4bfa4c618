"""Evolution operator: both discretizations, law, bounds, trajectories."""

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
    default_method,
    interior_slices,
    kernel_eval,
    kernel_fourier,
    make_grid,
    operator_bound,
    read_trajectory,
    sample,
    trajectory,
    weighted_norm,
    write_trajectory,
)
from gausspoisson.fields import random_gaussian_mixture

GRID = make_grid(1, 12.0, 1025)
GAUSSIAN = sample(GRID, lambda p: np.exp(-p[..., 0] ** 2))


def evolved_gaussian(zeta):
    # closed form for the evolution of exp(-x^2): width 1/(1+4 zeta)
    d = 1.0 + 4.0 * zeta
    return sample(GRID, lambda p: d**-0.5 * np.exp(-p[..., 0] ** 2 / d))


def test_zero_time_is_identity():
    # the values are shared, the provenance is the zero-time apply's own
    out = apply(0.0, GAUSSIAN)
    assert out.values is GAUSSIAN.values
    assert out.meta == {"zeta": 0, "method": "identity"}


def test_method_selection():
    assert default_method(1.0) is Method.SPECTRAL
    assert default_method(0.0) is Method.SPECTRAL
    assert default_method(1.0 + 0.1j) is Method.QUADRATURE
    assert Method("quadrature") is Method.QUADRATURE


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
    f = sample(GRID, lambda p: np.cos(3.0 * p[..., 0]) * np.exp(-p[..., 0] ** 2))
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
    f = sample(small, lambda p: np.exp(-p[..., 0] ** 2))
    warn = apply(4.0, f)
    assert warn.meta["tail_warning"] is True


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


def test_trajectory_states_match_apply():
    traj = trajectory(GAUSSIAN, [0.0, 0.25, 1.0])
    assert len(traj) == 3
    assert traj.grid == GRID
    assert traj.states[0].values is GAUSSIAN.values
    np.testing.assert_array_equal(traj.states[2].values, apply(1.0, GAUSSIAN).values)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory((), ())
    with pytest.raises(ValueError):
        trajectory(GAUSSIAN, [0.5, 0.5])
    with pytest.raises(ValueError):
        trajectory(GAUSSIAN, [-0.1, 0.5])
    other = sample(make_grid(1, 6.0, 65), lambda p: np.zeros(p.shape[:-1]))
    with pytest.raises(ValueError):
        Trajectory((0.0, 1.0), (GAUSSIAN, other))


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
    # reading the directory finds the index
    again = read_trajectory(tmp_path / "run")
    assert again.times == traj.times


def test_read_trajectory_rejects_bad_index(tmp_path):
    bad = tmp_path / "index.csv"
    bad.write_text("time,file\n")
    with pytest.raises(ValueError):
        read_trajectory(bad)


def _difference_lattice_sum(zeta, f, dzeta=False):
    # brute-force reference: the n-D kernel (or its time derivative) at every
    # pairwise point difference, written out here rather than taken from the
    # library, summed against the field with cell volume h^n
    g = f.grid
    z = complex(zeta)
    pts = g.points.reshape(-1, g.n)
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


def test_spectral_apply_flushes_subnormals_bit_for_bit(monkeypatch):
    # the symbol underflows through the subnormal range in a ring of
    # frequencies; apply zeroes those parts of spectrum * symbol before the
    # inverse transform, and its states keep every bit of the unflushed one
    from scipy import fft

    g = make_grid(2, 3.0, 129)
    f = random_gaussian_mixture(2, m=2, rng=np.random.default_rng(8)).sampled(g)
    tiny = np.finfo(float).tiny

    def subnormal_parts(x):
        parts = x.view(float)
        return int(np.count_nonzero((parts != 0) & (np.abs(parts) < tiny)))

    inverse = fft.ifftn
    seen = []

    def checked_ifftn(x, *args, **kwargs):
        seen.append(subnormal_parts(x))
        return inverse(x, *args, **kwargs)

    spectrum = fft.fftn(f.values, axes=(0, 1))
    for t in (0.5, 1.0):
        symbol = kernel_fourier(t, g.fourier_axis[:, np.newaxis])
        product = spectrum * np.multiply.outer(symbol, symbol)[..., np.newaxis]
        assert subnormal_parts(product) > 0  # the flush has work to do here
        expect = inverse(product, axes=(0, 1))
        with monkeypatch.context() as patch:
            patch.setattr(fft, "ifftn", checked_ifftn)
            got = apply(t, f, method=Method.SPECTRAL)
        assert seen == [0]
        seen.clear()
        np.testing.assert_array_equal(got.values.view(float), expect.view(float))
        assert np.array_equal(np.signbit(got.values.view(float)), np.signbit(expect.view(float)))


@pytest.mark.parametrize("N", [64, 1025])
def test_one_dimensional_quadrature_is_fftconvolve_bit_for_bit(N):
    # reference reports stay byte-identical only if the 1-D path keeps the
    # arithmetic of a per-component scipy.signal.fftconvolve in 'valid' mode
    from scipy.signal import fftconvolve

    g = make_grid(1, 12.0, N)
    f = random_gaussian_mixture(1, m=2, rng=np.random.default_rng(N)).sampled(g)
    zeta = 0.5 + 0.4j
    d = (np.arange(2 * N - 1) - (N - 1)) * g.h
    k = kernel_eval(zeta, d[:, np.newaxis], 1)
    expect = np.stack([fftconvolve(k, f.values[:, c], mode="valid") for c in range(2)], axis=-1) * g.h
    np.testing.assert_array_equal(apply(zeta, f, method=Method.QUADRATURE).values, expect)
