"""Grid geometry, field containers, interior windows, and CSV round trips."""

import re
import sys
import threading
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gausspoisson import (
    Field,
    field_rule,
    interior_slices,
    make_grid,
    random_gaussian_mixture,
    read_field_csv,
    sample,
    write_field_csv,
)
from gausspoisson import grid_field

from conftest import lattice_points, set_cpus, traced_peak

FIELD_GOLDEN = Path(__file__).parent / "data" / "field_golden.csv"


def test_grid_geometry():
    g = make_grid(2, 3.0, 7)
    assert g.h == 1.0
    assert g.cell_volume == 1.0
    assert g.shape == (7, 7)
    assert g.size == 49
    np.testing.assert_allclose(g.axis, np.arange(-3.0, 4.0))
    points = lattice_points(g)
    assert points.shape == (7, 7, 2)
    assert points[0, 0].tolist() == [-3.0, -3.0]
    assert points[6, 3].tolist() == [3.0, 0.0]
    np.testing.assert_allclose(g.squared_norms, np.sum(points**2, axis=-1))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0, 1.0, 5)
    with pytest.raises(ValueError):
        make_grid(1, 0.0, 5)
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 1)


def test_grid_requires_finite_half_extent(tmp_path):
    for L in (np.inf, np.nan):
        with pytest.raises(ValueError, match="half-extent"):
            make_grid(1, L, 5)
    # a field CSV whose first coordinate is infinite has no grid either
    path = tmp_path / "inf.csv"
    path.write_text("x1,re_1,im_1\n-inf,1,0\ninf,1,0\n")
    with pytest.raises(ValueError, match="half-extent"):
        read_field_csv(path)


def test_grid_arrays_are_read_only():
    for n in (1, 2, 3):
        g = make_grid(n, 1.0, 3)
        for arr in (g.axis, g.squared_norms, g.fourier_axis, g.fourier_squared_norms):
            with pytest.raises(ValueError):
                arr[...] = 0.0


def test_fourier_axis_convention():
    g = make_grid(1, 4.0, 9)
    np.testing.assert_allclose(g.fourier_axis, 2.0 * np.pi * np.fft.fftfreq(9, d=g.h))
    # lowest nonzero frequency is 2 pi / (N h)
    assert np.isclose(g.fourier_axis[1], 2.0 * np.pi / (9 * g.h))


def test_fourier_squared_norms_match_points():
    # against dense coordinate lattices; the grid builds both from one axis
    for n in (1, 2, 3):
        g = make_grid(n, 4.0, 9)
        for axis, norms in ((g.axis, g.squared_norms), (g.fourier_axis, g.fourier_squared_norms)):
            mesh = np.meshgrid(*(axis,) * n, indexing="ij")
            np.testing.assert_array_equal(norms, sum(c**2 for c in mesh))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_squared_norm_of_the_open_mesh_is_the_grid_norms_bit_for_bit(n):
    # a rule's |x|^2 of the mesh sample passes, the grid's cached norms and
    # the outer sum of the squared axes are one array, bit for bit
    g = make_grid(n, 4.0, 9)
    mesh = grid_field.squared_norm(np.ix_(*(g.axis,) * n))
    outer = reduce(np.add.outer, (g.axis**2,) * n)
    for norms in (g.squared_norms, outer):
        assert np.array_equal(mesh.view(np.uint64), norms.view(np.uint64))
    assert grid_field.squared_norm(np.array([3.0, 4.0])) == 25.0  # one point, coordinates first


def test_field_coerces_scalar_values_to_one_component():
    g = make_grid(1, 1.0, 5)
    f = Field(g, np.arange(5.0))
    assert f.m == 1
    assert f.values.shape == (5, 1)
    assert f.values.dtype == complex


def test_field_shape_and_finiteness_validation():
    g = make_grid(1, 1.0, 5)
    with pytest.raises(ValueError):
        Field(g, np.zeros(4))
    with pytest.raises(ValueError):
        Field(g, np.zeros((5, 2, 3)))
    bad = np.zeros(5)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="0.5"):
        Field(g, bad)  # the offending point is reported


def test_field_values_are_frozen():
    g = make_grid(1, 1.0, 5)
    f = Field(g, np.zeros(5))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectrum_is_the_read_only_dft_over_the_grid_axes(n):
    from scipy import fft

    g = make_grid(n, 3.0, 9)
    f = random_gaussian_mixture(n, m=2, rng=np.random.default_rng(n)).sampled(g)
    expect = fft.fftn(f.values, axes=tuple(range(n)))
    np.testing.assert_array_equal(f.spectrum.view(float), expect.view(float))
    assert f.spectrum is f.spectrum  # made once per field
    with pytest.raises(ValueError):
        f.spectrum[(0,) * (n + 1)] = 1.0


def test_sample_passes_per_axis_coordinates():
    g = make_grid(2, 2.0, 5)
    f = sample(g, lambda X: X[0] + 1j * X[1])
    assert f.values[0, 0, 0] == -2.0 - 2.0j
    assert f.values[4, 2, 0] == 2.0 + 0.0j


def test_sample_vector_rule():
    g = make_grid(1, 1.0, 3)
    f = sample(g, lambda X: np.stack([X[0], X[0] ** 2], axis=-1))
    assert f.m == 2
    np.testing.assert_allclose(f.values[..., 1], f.values[..., 0] ** 2)


def test_sample_builds_no_point_array():
    # the rule was given an (N,)*n + (n,) point array, cached on the grid:
    # 3.5 state sizes at n=3
    g = make_grid(3, 12.0, 65)
    f, peak = traced_peak(lambda: sample(g, field_rule("gaussian")))
    assert peak < 2.5 * f.values.nbytes
    assert set(vars(g)) <= {"n", "L", "N", "axis"}


def test_interior_slices():
    g = make_grid(1, 4.0, 9)
    assert interior_slices(g, 0.0) == (slice(0, 9),)
    assert interior_slices(g, 0.25) == (slice(2, 7),)
    with pytest.raises(ValueError):
        interior_slices(g, 0.5)
    with pytest.raises(ValueError):
        interior_slices(g, -0.1)
    with pytest.raises(ValueError, match="leaves no points"):
        interior_slices(make_grid(1, 12.0, 4), 0.45)  # would be slice(2, 2)


def test_field_csv_round_trip_is_exact(tmp_path):
    g = make_grid(2, 1.5, 5)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,))
    f = Field(g, vals)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == g
    assert back.m == 2
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize(
    "n, N, m",
    [(1, 4095, 1), (1, 4096, 1), (1, 4097, 1), (1, 8193, 1), (1, 4095, 3), (1, 4096, 3), (1, 4097, 3), (1, 8193, 3),
     (3, 17, 2)],
)
def test_field_csv_round_trip_is_exact_around_the_block_size(tmp_path, n, N, m):
    # the reader moves the values to the front of loadtxt's table in blocks
    # of _CSV_BLOCK_ROWS rows
    g = make_grid(n, 1.5, N)
    rng = np.random.default_rng(N + m)
    vals = rng.standard_normal(g.shape + (m,)) + 1j * rng.standard_normal(g.shape + (m,))
    vals.reshape(-1)[-1] = complex(-0.0, -0.0)
    f = Field(g, vals)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_field_csv_header_shape(tmp_path):
    g = make_grid(1, 1.0, 3)
    f = Field(g, np.zeros((3, 2)))
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,re_1,im_1,re_2,im_2"


def golden_field() -> Field:
    """2-D, m=2, N=5 field whose values need all 17 digits, plus -0.0, the
    smallest subnormal, 1e300 and an exact integer."""
    g = make_grid(2, 0.7, 5)
    k = np.arange(g.size * 2, dtype=float).reshape(g.shape + (2,))
    vals = np.empty(k.shape, dtype=complex)
    vals.real = np.sqrt(k + 2.0) * np.where(k % 2, -1.0, 1.0)
    vals.imag = 1.0 / (k + 3.0)
    vals[0, 0, 0] = complex(-0.0, 5e-324)
    vals[0, 1, 1] = complex(1e300, -42.0)
    return Field(g, vals)


def test_write_field_csv_matches_golden_bytes(tmp_path):
    """The file layout (17 significant digits, CRLF line ends) is pinned by
    bytes written by the per-value ``format(x, ".17g")`` writer."""
    f = golden_field()
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert path.read_bytes() == FIELD_GOLDEN.read_bytes()
    back = read_field_csv(FIELD_GOLDEN)
    assert back.grid == f.grid
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def reference_csv_rows(table: np.ndarray) -> bytes:
    """Rows of a float table as the ``%``-template writer formatted them:
    ``"%.17g" % x`` per value, CRLF line ends.  The oracle for the bytes of
    ``write_field_csv``."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode()


def reference_write_field_csv(f: Field, path) -> None:
    """The ``%``-template writer that ``write_field_csv`` replaced."""
    g = f.grid
    header = [f"x{i + 1}" for i in range(g.n)] + [f"{part}_{c + 1}" for c in range(f.m) for part in ("re", "im")]
    table = np.concatenate([lattice_points(g).reshape(-1, g.n), f.values.reshape(-1, f.m).view(float)], axis=1)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode() + reference_csv_rows(table))


# arbitrary finite doubles; hypothesis favours 0, -0, the extremes and
# subnormals among them
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 6)), elements=finite_doubles))
def test_csv_rows_match_percent_formatting(table):
    assert grid_field._csv_block_bytes(table) == reference_csv_rows(table)


@settings(max_examples=15, deadline=None, database=None)
@given(st.data())
def test_write_field_csv_matches_reference_writer(tmp_path_factory, data):
    n, m = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    g = make_grid(n, data.draw(st.floats(0.1, 1e3)), data.draw(st.integers(2, 9)))
    parts = data.draw(hnp.arrays(np.float64, g.shape + (m, 2), elements=finite_doubles))
    f = Field(g, parts[..., 0] + 1j * parts[..., 1])
    out = tmp_path_factory.mktemp("csv")
    write_field_csv(f, out / "new.csv")
    reference_write_field_csv(f, out / "old.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def edge_values() -> np.ndarray:
    """Signed zeros, extremes, powers of ten with both neighbours, and the
    notation and exponent-width boundaries of ``%.17g``."""
    vals = [0.0, 5e-324, np.finfo(float).max, 1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0]
    vals += [1e99, 1e100, 1e-99, 1e-100]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        vals += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


def edge_mismatches() -> list[int]:
    """Column counts 1-6 for which the formatter and ``%`` disagree on the
    edge values."""
    vals = edge_values()
    bad = []
    for cols in range(1, 7):
        table = vals[: len(vals) // cols * cols].reshape(-1, cols)
        if grid_field._csv_block_bytes(table) != reference_csv_rows(table):
            bad.append(cols)
    return bad


def test_csv_rows_match_percent_formatting_on_edge_values():
    assert edge_mismatches() == []


@pytest.mark.parametrize("bound, shift", [("_FIXED_MIN_EXP", -1), ("_FIXED_MIN_EXP", 1), ("_FIXED_MAX_EXP", -1), ("_FIXED_MAX_EXP", 1)])
def test_edge_values_catch_a_moved_notation_boundary(monkeypatch, bound, shift):
    monkeypatch.setattr(grid_field, bound, getattr(grid_field, bound) + shift)
    grid_field._csv_tables.cache_clear()
    try:
        assert edge_mismatches() == [1, 2, 3, 4, 5, 6]
    finally:
        grid_field._csv_tables.cache_clear()  # rebuilt unmutated on next use


def _count_fallback(monkeypatch) -> list[int]:
    """Count the values sent to the ``%`` fallback."""
    seen = [0]
    exact = grid_field._percent_g17

    def spy(values):
        seen[0] += len(values)
        return exact(values)

    monkeypatch.setattr(grid_field, "_percent_g17", spy)
    return seen


def test_near_ties_take_the_fallback_and_match(monkeypatch):
    # 17 digits and a 5: at these magnitudes the double nearest such a
    # decimal is sometimes the tie itself, which only the exact conversion
    # decides
    rng = np.random.default_rng(5)
    digits = rng.integers(10**16, 10**17, size=1200).tolist()
    exps = rng.integers(-5, 6, size=1200).tolist()
    table = np.array([float(f"{d}5e{k}") for d, k in zip(digits, exps)]).reshape(-1, 4)
    seen = _count_fallback(monkeypatch)
    assert grid_field._csv_block_bytes(table) == reference_csv_rows(table)
    assert seen[0] > 0


def test_sampled_mixture_takes_the_fast_path(monkeypatch, tmp_path):
    # the evolve input: the write's speed must not rest on the fallback
    g = make_grid(2, 12.0, 65)
    f = random_gaussian_mixture(2, m=2, terms=3, rng=np.random.default_rng(7)).sampled(g)
    seen = _count_fallback(monkeypatch)
    write_field_csv(f, tmp_path / "new.csv")
    assert seen[0] == 0
    reference_write_field_csv(f, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_block_temporaries_stay_small():
    # one 4096x6 block (an evolve-2d-csv block) allocated about 11 MB when its
    # byte layouts were gathered through one index array for the whole block
    block = np.random.default_rng(11).standard_normal((grid_field._CSV_BLOCK_ROWS, 6))
    expected = grid_field._csv_block_bytes(block)  # builds the cached tables
    text, peak = traced_peak(lambda: grid_field._csv_block_bytes(block))
    assert text == expected
    assert peak < 6e6


def several_block_field() -> Field:
    """A 2-D field of five full CSV blocks and a partial sixth (22500 rows),
    with a value for the ``%`` fallback in every block."""
    g = make_grid(2, 12.0, 150)
    f = random_gaussian_mixture(2, m=1, terms=3, rng=np.random.default_rng(13)).sampled(g)
    vals = f.values.copy().reshape(-1)
    vals[7 :: grid_field._CSV_BLOCK_ROWS] = 1e300 - 2.5j  # the real part is outside the fast range
    return Field(g, vals.reshape(f.values.shape))


def test_write_field_csv_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    f = several_block_field()
    assert f.grid.size % grid_field._CSV_BLOCK_ROWS and f.grid.size // grid_field._CSV_BLOCK_ROWS == 5
    seen = _count_fallback(monkeypatch)
    reference_write_field_csv(f, tmp_path / "reference.csv")
    expected = (tmp_path / "reference.csv").read_bytes()
    interval = sys.getswitchinterval()
    for cpus in (1, 2, 4):
        set_cpus(monkeypatch, cpus)
        sys.setswitchinterval(1e-5 if cpus == 4 else interval)  # frequent thread switches
        try:
            write_field_csv(f, tmp_path / f"cpus{cpus}.csv")
        finally:
            sys.setswitchinterval(interval)
        assert (tmp_path / f"cpus{cpus}.csv").read_bytes() == expected, cpus
    assert seen[0] == 3 * 6  # one value per block, three writes


def test_write_field_csv_starts_one_helper_at_most(monkeypatch, tmp_path):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(grid_field.threading, "Thread", Counted)
    set_cpus(monkeypatch, 8)
    write_field_csv(several_block_field(), tmp_path / "f.csv")
    assert len(started) == grid_field._CSV_THREADS - 1 == 1


def test_write_field_csv_raises_a_helpers_exception(monkeypatch, tmp_path):
    f = several_block_field()
    set_cpus(monkeypatch, 2)
    caller = threading.current_thread()
    exact = grid_field._csv_block_bytes
    helper_formatting = threading.Event()

    def helpers_fail(block, lead):
        if threading.current_thread() is caller:
            assert helper_formatting.wait(timeout=60)  # a helper takes a block
            return exact(block, lead)
        helper_formatting.set()
        raise RuntimeError("helper broke")

    monkeypatch.setattr(grid_field, "_csv_block_bytes", helpers_fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="helper broke"):
        write_field_csv(f, tmp_path / "f.csv")
    assert threading.active_count() == threads


def test_write_field_csv_interrupt_propagates_before_another_block(monkeypatch, tmp_path):
    f = several_block_field()
    set_cpus(monkeypatch, 2)
    caller = threading.current_thread()
    exact = grid_field._csv_block_bytes
    helper_formatting, joining = threading.Event(), threading.Event()
    formatted = []

    class Spy(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    def interrupted_on_the_caller(block, lead):
        formatted.append(block)
        if threading.current_thread() is caller:
            assert helper_formatting.wait(timeout=60)  # a helper holds a block
            raise KeyboardInterrupt
        helper_formatting.set()
        assert joining.wait(timeout=60)
        return exact(block, lead)

    monkeypatch.setattr(grid_field.threading, "Thread", Spy)
    monkeypatch.setattr(grid_field, "_csv_block_bytes", interrupted_on_the_caller)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        write_field_csv(f, tmp_path / "f.csv")
    # the caller's block and the helper's, and no further one
    assert len(formatted) == 2
    assert threading.active_count() == threads


# an evolve-2d-csv field on a quarter of its grid (n=2, N=257, m=2)
PEAK_MIXTURE = random_gaussian_mixture(2, m=2, terms=3, rng=np.random.default_rng(7))
PEAK_GRID = make_grid(2, 12.0, 257)


def test_write_field_csv_holds_no_whole_table(monkeypatch, tmp_path):
    # concatenating the lattice points with the values peaked at 3.4 times the
    # value array; the blocks' own temporaries do not grow with the grid
    set_cpus(monkeypatch, 1)  # one block in flight, whatever the thread timing
    f = PEAK_MIXTURE.sampled(PEAK_GRID)
    write_field_csv(f, tmp_path / "f.csv")  # builds the cached tables
    _, peak = traced_peak(lambda: write_field_csv(f, tmp_path / "f.csv"))
    assert peak < 2.5 * f.values.nbytes


def test_write_field_csv_builds_no_point_array(tmp_path):
    path = tmp_path / "f.csv"
    write_field_csv(PEAK_MIXTURE.sampled(PEAK_GRID), path)
    back = read_field_csv(path)
    write_field_csv(back, tmp_path / "again.csv")
    assert set(vars(back.grid)) <= {"n", "L", "N", "axis"}  # no lattice-sized array is cached
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_read_field_csv_holds_one_value_array(tmp_path):
    # loadtxt's float table next to a complex copy peaked at 2.6 times the
    # value array; the coordinates take half of it at n=2, m=2
    f = PEAK_MIXTURE.sampled(PEAK_GRID)
    write_field_csv(f, tmp_path / "f.csv")
    back, peak = traced_peak(lambda: read_field_csv(tmp_path / "f.csv"))
    assert peak < 2.3 * f.values.nbytes
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_read_field_csv_runs_under_a_profiler(tmp_path):
    # a profile hook holds the bound method table.resize while it runs, which
    # the resize's reference check took for a view of the table
    import cProfile

    f = random_gaussian_mixture(2, m=2, rng=np.random.default_rng(5)).sampled(make_grid(2, 6.0, 33))
    write_field_csv(f, tmp_path / "f.csv")
    back = cProfile.Profile().runcall(read_field_csv, tmp_path / "f.csv")
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_sampled_adds_each_term_in_place():
    # a new sum per term peaked at 2.6 times the value array; in place, the
    # sum, one term and its product with an amplitude remain
    f, peak = traced_peak(lambda: PEAK_MIXTURE.sampled(PEAK_GRID))
    assert peak < 2.35 * f.values.nbytes


def edge_file_lines(path) -> tuple[Field, list[bytes]]:
    """A 4225-row field CSV at ``path`` (two blocks, the second of 129 rows)
    and its lines without their ends."""
    f = random_gaussian_mixture(2, m=1, terms=3, rng=np.random.default_rng(3)).sampled(make_grid(2, 12.0, 65))
    write_field_csv(f, path)
    return f, path.read_bytes().split(b"\r\n")[:-1]


def _short(line: bytes) -> bytes:
    return line.rsplit(b",", 1)[0]


@pytest.mark.parametrize(
    "edit",
    [
        lambda ls: b"\r\n".join(ls),  # no line end after the last row
        lambda ls: b"\n".join(ls) + b"\n",
        lambda ls: b"\r".join(ls) + b"\r",
        lambda ls: b"\r\n".join(ls[:2] + [b""] + ls[2:4097] + [b"", b""] + ls[4097:] + [b""]),  # blank lines
    ],
    ids=["no-final-line-end", "lf", "cr", "blank-lines"],
)
def test_read_field_csv_accepts_line_end_variants(tmp_path, edit):
    path = tmp_path / "f.csv"
    f, lines = edge_file_lines(path)
    path.write_bytes(edit(lines))
    assert np.array_equal(read_field_csv(path).values, f.values)


@pytest.mark.parametrize(
    "edit, message",
    [
        # data row 4098 is the second row of the second block
        (lambda ls: ls[:4098] + [_short(ls[4098])] + ls[4099:], "changed from 4 to 3 at row 4098;"),
        (lambda ls: ls[:4097] + [_short(ls[4097])] + ls[4098:], "changed from 4 to 3 at row 4097;"),
        (lambda ls: ls[:4097] + [_short(line) for line in ls[4097:]], "changed from 4 to 3 at row 4097;"),
        (lambda ls: ls[:3] + [b""] + ls[3:4098] + [_short(ls[4098])] + ls[4099:], "changed from 4 to 3 at row 4098;"),
        (lambda ls: ls[:5] + [ls[5] + b",1"] + ls[6:], "changed from 4 to 5 at row 5;"),
        # the same number of values in all, one too many on row 5
        (lambda ls: ls[:5] + [ls[5] + b",1", _short(ls[6])] + ls[7:], "changed from 4 to 5 at row 5;"),
        (lambda ls: ls[:1] + [_short(line) for line in ls[1:]], "changed from 4 to 3 at row 1;"),
        # loadtxt counts the rows of a conversion error from 0
        (lambda ls: ls[:4098] + [ls[4098].replace(b",", b",x", 1)] + ls[4099:], "at row 4097, column 2"),
    ],
    ids=["short-row-4098", "short-row-4097", "short-block", "blank-then-short", "long-row", "long-then-short",
         "all-short", "text-cell"],
)
def test_read_field_csv_names_a_bad_row_from_the_file_start(tmp_path, edit, message):
    path = tmp_path / "f.csv"
    _, lines = edge_file_lines(path)
    path.write_bytes(b"\r\n".join(edit(lines)) + b"\r\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_field_csv(path)


def _with_coordinate(path, row: int, col: int, value: float):
    """Rewrite one coordinate of a field CSV's data row."""
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[row + 1].split(b",")
    cells[col] = b"%.17g" % value
    lines[row + 1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


def test_read_field_csv_checks_each_axis_within_the_tolerance(tmp_path):
    g = make_grid(2, 1.5, 5)
    f = Field(g, np.arange(g.size * 2).reshape(g.shape + (2,)) * (1 - 0.5j))
    tol = 1e-12 * 1.5
    for offset, ok in ((3 * tol, False), (-3 * tol, False), (0.5 * tol, True)):
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        _with_coordinate(path, 7, 1, g.axis[2] + offset)  # point (1, 2), its second axis
        if ok:
            back = read_field_csv(path)
            assert back.grid == g and np.array_equal(back.values, f.values)
        else:
            with pytest.raises(ValueError, match="row-major uniform lattice"):
                read_field_csv(path)


def test_read_field_csv_builds_no_point_array(tmp_path):
    g = make_grid(2, 1.5, 5)
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, np.ones(g.shape)), path)
    assert "points" not in read_field_csv(path).grid.__dict__


def test_read_field_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,re_1,im_1\n0,1,0\n1,1,0\n")  # lattice not centered
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_read_field_csv_rejects_empty_files(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,re_1,im_1\r\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_field_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="malformed field CSV header"):
        read_field_csv(path)


@pytest.mark.parametrize(
    "header",
    [
        "x1,x2,im_1,re_1,re_2,im_2",  # real and imaginary parts swapped
        "x1,x2,re_1,im_1,re_3,im_3",  # a misnumbered component
        "x1,xb,re_1,im_1,re_2,im_2",  # a renamed coordinate
        "x1,x2,foo,bar,re_2,im_2",
    ],
)
def test_read_field_csv_requires_the_writers_header(tmp_path, header):
    g = make_grid(2, 1.5, 5)
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, np.ones(g.shape + (2,))), path)
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join([header.encode(), *lines[1:]]))
    with pytest.raises(ValueError, match="malformed field CSV header"):
        read_field_csv(path)


@pytest.mark.parametrize(
    "body",
    [
        "-1,1,0\n#0,1,0\n1,1,0\n",  # a comment line is not skipped
        "-1,1,0\n0,1\n1,1,0\n",  # ragged row
        "-1,1,0\n0,one,0\n1,1,0\n",  # non-numeric cell
    ],
)
def test_read_field_csv_rejects_bad_body(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("x1,re_1,im_1\n" + body)
    with pytest.raises(ValueError):
        read_field_csv(path)


# cells the writer writes for some doubles, and JSON numbers it never writes
JSON_CELLS = [b"0", b"-0", b"5e-324", b"2.2250738585072009e-308", b"1.7976931348623157e308",
              b"-1.7976931348623157e308", b"-12", b"1E5", b"1e+05", b"-0.0", b"1e-400", b"-1e-400"]


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_json_table_matches_loadtxt_bit_for_bit(tmp_path_factory, data):
    table = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 7)), elements=finite_doubles))
    rows, cols = table.shape
    lines = [line.split(b",") for line in grid_field._csv_block_bytes(table).split(b"\r\n")[:-1]]
    for r, c, cell in data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                                   st.sampled_from(JSON_CELLS)), max_size=10)):
        lines[r][c] = cell
    line_end = data.draw(st.sampled_from([b"\r\n", b"\n"]))
    body = line_end.join(b",".join(line) for line in lines) + data.draw(st.sampled_from([line_end, b""]))
    header = ",".join(f"c{j}" for j in range(cols))
    path = tmp_path_factory.mktemp("json") / "f.csv"
    path.write_bytes(header.encode() + line_end + body)
    fast = grid_field._json_table(path, header)
    assert fast is not None
    expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    assert np.array_equal(fast.view(np.uint64), expected.view(np.uint64))


def test_json_table_reads_pieces_at_line_ends(monkeypatch, tmp_path):
    # lines cut by a piece's end are read whole with the next piece; a line
    # longer than a piece sends the file to loadtxt
    monkeypatch.setattr(grid_field, "_READ_PIECE", 4096)
    f, _ = edge_file_lines(tmp_path / "f.csv")
    back = read_field_csv(tmp_path / "f.csv")
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
    monkeypatch.setattr(grid_field, "_READ_PIECE", 64)
    assert grid_field._json_table(tmp_path / "f.csv", "x1,x2,re_1,im_1") is None


def _read_outcome(path):
    """What ``read_field_csv`` gives: the bits of the values or the error's
    type and message."""
    try:
        return read_field_csv(path).values.ravel().view(np.uint64).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "row, outcome",
    [
        (b"0,+1,0", [1.0, 1.0, 1.0]),
        (b"0,1.,0", [1.0, 1.0, 1.0]),
        (b"0,.5,0", [1.0, 0.5, 1.0]),
        (b"0,01,0", [1.0, 1.0, 1.0]),
        (b"0,inf,0", "non-finite field value"),
        (b"0,nan,0", "non-finite field value"),
        (b"0, 1 ,0", [1.0, 1.0, 1.0]),
        (b"0,\t1,0", [1.0, 1.0, 1.0]),
        (b"\r\n0,1,0", [1.0, 1.0, 1.0]),  # a blank line
        (b"#0,1,0", "could not convert string '#0' to float64 at row 1, column 1."),
        (b"0,1", "changed from 3 to 2 at row 2;"),
        (b"0,one,0", "could not convert string 'one' to float64 at row 1, column 2."),
        (b"0,1e400,0", "non-finite field value"),
        (b"0,\r1,0", "changed from 3 to 2 at row 2;"),  # loadtxt ends a line at a lone CR
    ],
    ids=["plus", "trailing-point", "leading-point", "leading-zero", "inf", "nan", "spaces", "tab", "blank-line",
         "comment", "ragged", "text-cell", "overflow", "lone-cr"],
)
def test_read_field_csv_leaves_other_bodies_to_loadtxt(monkeypatch, tmp_path, row, outcome):
    path = tmp_path / "f.csv"
    path.write_bytes(b"x1,re_1,im_1\r\n-1,1,0\r\n" + row + b"\r\n1,1,0\r\n")
    assert grid_field._json_table(path, "x1,re_1,im_1") is None
    calls = []
    loadtxt = np.loadtxt
    with monkeypatch.context() as mp:
        mp.setattr(np, "loadtxt", lambda *args, **kw: calls.append(args) or loadtxt(*args, **kw))
        got = _read_outcome(path)
    assert calls == [(path,)]
    with monkeypatch.context() as mp:  # loadtxt as the only reader
        mp.setattr(grid_field, "_json_table", lambda path, header: None)
        assert got == _read_outcome(path)
    if isinstance(outcome, str):
        assert outcome in got[1]
    else:
        assert got == np.array(outcome, dtype=complex).view(np.uint64).tolist()
