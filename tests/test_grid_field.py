"""Grid geometry, field containers, interior windows, and CSV round trips."""

import errno
import gc
import mmap
import os
import re
import sys
import threading
from contextlib import contextmanager
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

# the golden field as written by earlier versions, with 17 significant
# digits, and as written now, with the shortest round-trip digits
FIELD_GOLDEN = Path(__file__).parent / "data" / "field_golden.csv"
SHORTEST_GOLDEN = Path(__file__).parent / "data" / "field_golden_shortest.csv"


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
    # a field CSV whose first coordinate is infinite is not a field CSV, and
    # one whose grid would overflow has no grid either
    path = tmp_path / "inf.csv"
    path.write_text("x1,re_1,im_1\n-inf,1,0\ninf,1,0\n")
    with pytest.raises(ValueError, match="data row 1 "):
        read_field_csv(path)
    path.write_text("x1,re_1,im_1\n-1e200,1,0\n1e200,1,0\n")
    with pytest.raises(ValueError, match="half-extent"):
        read_field_csv(path)


def test_grid_rejects_a_half_extent_whose_squared_norms_overflow():
    for n, L in ((1, 1e160), (3, 1e154)):
        with pytest.raises(ValueError, match="overflows"):
            make_grid(n, L, 5)
    assert np.isfinite(make_grid(1, 1e154, 5).squared_norms).all()


def test_next_fast_len_is_scipys_complex_fast_length():
    fft = pytest.importorskip("scipy.fft")
    assert all(grid_field._next_fast_len(t) == fft.next_fast_len(t, False) for t in range(1, 20000))


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
    g = make_grid(n, 3.0, 9)
    f = random_gaussian_mixture(n, m=2, rng=np.random.default_rng(n)).sampled(g)
    expect = np.fft.fftn(f.values, axes=tuple(range(n)))
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
    # the writer works in blocks of _CSV_BLOCK_ROWS rows
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
    """2-D, m=2, N=5 field whose values need up to 17 digits, plus -0.0, the
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
    """The file layout (shortest round-trip digits, CRLF line ends) is pinned
    by bytes of the orjson writer."""
    f = golden_field()
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    assert path.read_bytes() == SHORTEST_GOLDEN.read_bytes()
    back = read_field_csv(SHORTEST_GOLDEN)
    assert back.grid == f.grid
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_read_field_csv_reads_percent_g17_files_bit_for_bit():
    # files written with 17 significant digits ("%.17g" % x) by earlier
    # versions keep their values
    f = golden_field()
    back = read_field_csv(FIELD_GOLDEN)
    assert back.grid == f.grid
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def reference_csv_rows(table: np.ndarray) -> bytes:
    """Rows of a float table as the ``%``-template writer formatted them:
    ``"%.17g" % x`` per value, CRLF line ends: the digits of files written
    by earlier versions."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode()


def written_rows(table: np.ndarray, path) -> bytes:
    """Rows of a float table with each cell as ``write_field_csv`` writes it,
    CRLF line ends; ``path`` is a scratch file."""
    rows, cols = table.shape
    parts = np.zeros((max(rows, 2), cols + cols % 2))  # a grid has 2 points at least
    parts[:rows, :cols] = table
    write_field_csv(Field(make_grid(1, 1.0, len(parts)), parts.view(complex)), path)
    lines = Path(path).read_bytes().split(b"\r\n")[1 : rows + 1]
    return b"".join(b",".join(line.split(b",")[1 : cols + 1]) + b"\r\n" for line in lines)


def reference_header(n: int, m: int) -> str:
    return ",".join([f"x{i + 1}" for i in range(n)] + [f"{part}_{c + 1}" for c in range(m) for part in ("re", "im")])


def reference_table(f: Field) -> np.ndarray:
    """The lattice points of ``f`` next to its values as floats, one row each."""
    g = f.grid
    return np.concatenate([lattice_points(g).reshape(-1, g.n), f.values.reshape(-1, f.m).view(float)], axis=1)


def reference_write_field_csv(f: Field, path) -> None:
    """The ``%``-template writer of earlier versions."""
    with open(path, "wb") as fh:
        fh.write((reference_header(f.grid.n, f.m) + "\r\n").encode() + reference_csv_rows(reference_table(f)))


# arbitrary finite doubles; hypothesis favours 0, -0, the extremes and
# subnormals among them
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=15, deadline=None, database=None)
@given(st.data())
def test_write_field_csv_reads_back_like_the_reference_writer(tmp_path_factory, data):
    # this writer's file and the %.17g writer's read back to the same bits
    n, m = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    g = make_grid(n, data.draw(st.floats(0.1, 1e3)), data.draw(st.integers(2, 9)))
    parts = data.draw(hnp.arrays(np.float64, g.shape + (m, 2), elements=finite_doubles))
    f = Field(g, parts[..., 0] + 1j * parts[..., 1])
    out = tmp_path_factory.mktemp("csv")
    write_field_csv(f, out / "new.csv")
    reference_write_field_csv(f, out / "old.csv")
    for path in (out / "new.csv", out / "old.csv"):
        back = read_field_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def significant_digits(cell: str) -> str:
    """The significant digits of a decimal, without leading or trailing zeros."""
    return re.split("[eE]", cell)[0].lstrip("-").replace(".", "").strip("0")


def assert_cells_round_trip(f: Field, path) -> None:
    """The file at ``path`` is ``f`` as the writer lays it out: the header,
    then one CRLF-ended line of ``n + 2m`` cells per lattice point, each cell
    reading back to its double's bits with as many significant digits as
    ``repr`` gives."""
    g = f.grid
    header, *lines, last = path.read_bytes().decode().split("\r\n")
    assert header == reference_header(g.n, f.m)
    assert last == "" and len(lines) == g.size
    cells = [line.split(",") for line in lines]
    assert all(len(row) == g.n + 2 * f.m for row in cells)
    expected = reference_table(f)
    got = np.array([[float(c) for c in row] for row in cells])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    for cell, x in zip((c for row in cells for c in row), expected.ravel().tolist()):
        assert len(significant_digits(cell)) == len(significant_digits(repr(x))), (cell, x)


@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_write_field_csv_cells_are_shortest_round_trip(tmp_path_factory, data):
    n, m = data.draw(st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]))
    g = make_grid(n, data.draw(st.floats(0.1, 1e3)), data.draw(st.integers(2, 9 if n < 3 else 4)))
    parts = data.draw(hnp.arrays(np.float64, g.shape + (m, 2), elements=finite_doubles))
    f = Field(g, parts[..., 0] + 1j * parts[..., 1])
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_field_csv(f, path)
    assert_cells_round_trip(f, path)


def edge_values() -> np.ndarray:
    """Signed zeros, the smallest subnormal, the largest double, and the
    powers of ten with both neighbours."""
    vals = [0.0, 5e-324, np.finfo(float).max]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        vals += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


def edge_field() -> Field:
    """A 1-D, m=1 field whose real and imaginary parts are the edge values."""
    vals = edge_values()
    return Field(make_grid(1, 1.0, len(vals) // 2), vals.view(complex))


def test_write_field_csv_edge_values_are_shortest_round_trip(tmp_path):
    f = edge_field()
    path = tmp_path / "edge.csv"
    write_field_csv(f, path)
    assert_cells_round_trip(f, path)
    text = path.read_bytes()
    for cell in (b"-0.0", b"0.0", b"5e-324", b"-1.7976931348623157e308", b"1e16", b"1e-300"):
        assert b"," + cell + b"," in text or b"," + cell + b"\r\n" in text, cell
    assert np.array_equal(read_field_csv(path).values.view(np.uint64), f.values.view(np.uint64))


# an evolve-2d-csv field on a quarter of its grid (n=2, N=257, m=2)
PEAK_MIXTURE = random_gaussian_mixture(2, m=2, terms=3, rng=np.random.default_rng(7))
PEAK_GRID = make_grid(2, 12.0, 257)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs, on a process
    that reports two CPUs; checks afterwards that every child was reaped."""
    set_cpus(monkeypatch, 2)
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield made
    with pytest.raises(ChildProcessError):  # no child at all, running or not reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(forks, monkeypatch):
    """Split every field CSV read and write that can be split; the pids of
    the children forked."""
    monkeypatch.setattr(grid_field, "_SPLIT_MIN_ROWS", 1)
    return forks


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(grid_field, "_SPLIT_MIN_ROWS", 1 << 62)


def assert_write_holds_no_whole_table(tmp_path):
    # concatenating the lattice points with the values peaked at 3.4 times the
    # value array; the blocks' own temporaries do not grow with the grid
    f = PEAK_MIXTURE.sampled(PEAK_GRID)
    write_field_csv(f, tmp_path / "f.csv")  # imports orjson
    _, peak = traced_peak(lambda: write_field_csv(f, tmp_path / "f.csv"))
    assert peak < 2.5 * f.values.nbytes


def test_write_field_csv_holds_no_whole_table(tmp_path, split):
    # tracemalloc sees this process only, not the child that formats half
    assert_write_holds_no_whole_table(tmp_path)
    assert len(split) == 2


def test_write_field_csv_holds_no_whole_table_serially(tmp_path, serial):
    assert_write_holds_no_whole_table(tmp_path)


def test_write_field_csv_builds_no_point_array(tmp_path):
    path = tmp_path / "f.csv"
    write_field_csv(PEAK_MIXTURE.sampled(PEAK_GRID), path)
    back = read_field_csv(path)
    write_field_csv(back, tmp_path / "again.csv")
    assert set(vars(back.grid)) <= {"n", "L", "N", "axis"}  # no lattice-sized array is cached
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def stacked_table_blocks(g, values: np.ndarray, start: int, stop: int) -> list[bytes]:
    """The blocks of rows ``start`` to ``stop`` as the writer made them when
    it stacked each block's lattice points next to its values: one
    ``orjson.dumps`` of the ``(rows, n+2m)`` table per block, ``],[`` made
    CRLF."""
    import orjson

    blocks = []
    for first in range(start, stop, grid_field._CSV_BLOCK_ROWS):
        block = values[first : min(first + grid_field._CSV_BLOCK_ROWS, stop)]
        block = np.concatenate([grid_field._lattice_coordinates(g, first, first + len(block)), block], axis=1)
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        blocks.append(b"\r\n".join(text[2:-2].split(b"],[")) + b"\r\n")
    return blocks


@pytest.mark.parametrize("block_rows", [7, 4096])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n, N", [(1, 5000), (2, 65), (3, 17)])  # at n=1 one run of N rows outlasts a block
def test_csv_rows_are_the_stacked_table_writers_bytes(tmp_path, monkeypatch, split, n, N, m, block_rows):
    monkeypatch.setattr(grid_field, "_CSV_BLOCK_ROWS", block_rows)
    g = make_grid(n, 1.7, N)
    rng = np.random.default_rng(n * N + m)
    vals = rng.standard_normal(g.shape + (m,)) + 1j * rng.standard_normal(g.shape + (m,))
    vals.reshape(-1)[::5] = complex(-0.0, 5e-324)
    f = Field(g, vals)
    values = f.values.reshape(-1, m).view(float)
    size = g.size
    # whole runs of N rows, and ranges that start and stop inside one: the
    # split write's second half starts at size // 2
    for start, stop in [(0, size), (0, size // 2), (size // 2, size), (3, size - 2), (size - N + 1, size - N + 5)]:
        assert list(grid_field._csv_rows(g, values, start, stop)) == stacked_table_blocks(g, values, start, stop)
    expected = (reference_header(n, m) + "\r\n").encode() + b"".join(stacked_table_blocks(g, values, 0, size))

    def per_row_coordinates(*args):
        raise AssertionError("the writer gathered lattice points row by row")

    monkeypatch.setattr(grid_field, "_lattice_coordinates", per_row_coordinates)
    write_field_csv(f, tmp_path / "f.csv")  # split: a child formats the second half
    assert (tmp_path / "f.csv").read_bytes() == expected
    assert len(split) == 1


def test_write_field_csv_holds_no_coordinate_column_at_one_dimension(tmp_path, serial):
    # at n=1 each row has its own axis point: the texts of all N points,
    # made before the first block, peaked at 3.8 value arrays here
    g = make_grid(1, 12.0, 1 << 17)
    f = Field(g, np.random.default_rng(0).standard_normal(g.shape + (2,)))
    write_field_csv(f, tmp_path / "f.csv")  # imports orjson
    _, peak = traced_peak(lambda: write_field_csv(f, tmp_path / "f.csv"))
    assert peak < f.values.nbytes


def mapped_bytes(a: np.ndarray) -> int:
    """The size of the ``mmap`` that holds ``a``'s data, 0 for none."""
    while isinstance(a, np.ndarray):
        a = a.base
    return len(a.obj) if isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap) else 0


def assert_read_holds_one_value_array(tmp_path):
    # loadtxt's float table next to a complex copy peaked at 2.6 times the
    # value array, and a whole table with the coordinates at 1.8; the values
    # are now parsed piece by piece into the field's own array, a map that
    # tracemalloc does not see
    f = PEAK_MIXTURE.sampled(PEAK_GRID)
    write_field_csv(f, tmp_path / "f.csv")
    back, peak = traced_peak(lambda: read_field_csv(tmp_path / "f.csv"))
    assert mapped_bytes(back.values) == f.values.nbytes
    assert peak + mapped_bytes(back.values) < 1.3 * f.values.nbytes
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_read_field_csv_holds_one_value_array(tmp_path, split):
    # the child's rows land straight in the value array, with no buffer
    assert_read_holds_one_value_array(tmp_path)
    assert len(split) == 2


def test_read_field_csv_holds_one_value_array_serially(tmp_path, serial):
    assert_read_holds_one_value_array(tmp_path)


def test_read_field_csv_runs_under_a_profiler(tmp_path):
    # a profile hook holds bound methods of the arrays it sees, so a read must
    # not depend on an array's reference count (evolve --input under cProfile)
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


LINE_END_EDITS = pytest.mark.parametrize(
    "edit",
    [
        lambda ls: b"\r\n".join(ls),  # no line end after the last row
        lambda ls: b"\n".join(ls) + b"\n",
    ],
    ids=["no-final-line-end", "lf"],
)


@LINE_END_EDITS
def test_read_field_csv_accepts_line_end_variants(tmp_path, edit):
    path = tmp_path / "f.csv"
    f, lines = edge_file_lines(path)
    path.write_bytes(edit(lines))
    assert np.array_equal(read_field_csv(path).values, f.values)


BAD_ROW_EDITS = pytest.mark.parametrize(
    "edit, row",
    [
        # data row 4098 is the second row of the second block of 4096 rows
        (lambda ls: ls[:4098] + [_short(ls[4098])] + ls[4099:], 4098),
        (lambda ls: ls[:4097] + [_short(ls[4097])] + ls[4098:], 4097),
        (lambda ls: ls[:4097] + [_short(line) for line in ls[4097:]], 4097),
        # a blank line is a bad row too; a line is dropped to keep 65^2 rows
        (lambda ls: ls[:3] + [b""] + ls[3:4098] + [_short(ls[4098])] + ls[4100:], 3),
        (lambda ls: ls[:5] + [ls[5] + b",1"] + ls[6:], 5),
        # the same number of values in all, one too many on row 5
        (lambda ls: ls[:5] + [ls[5] + b",1", _short(ls[6])] + ls[7:], 5),
        (lambda ls: ls[:1] + [_short(line) for line in ls[1:]], 1),
        (lambda ls: ls[:4098] + [ls[4098].replace(b",", b",x", 1)] + ls[4099:], 4098),
        # a stray line end after the last row is a blank row 4226
        (lambda ls: ls + [b""], 4226),
    ],
    ids=["short-row-4098", "short-row-4097", "short-block", "blank-then-short", "long-row", "long-then-short",
         "all-short", "text-cell", "trailing-blank-line"],
)


@BAD_ROW_EDITS
def test_read_field_csv_names_a_bad_row_from_the_file_start(tmp_path, edit, row):
    path = tmp_path / "f.csv"
    _, lines = edge_file_lines(path)
    path.write_bytes(b"\r\n".join(edit(lines)) + b"\r\n")
    with pytest.raises(ValueError, match=f"data row {row} is not 4 comma-separated JSON numbers"):
        read_field_csv(path)


OFF_LATTICE_EDITS = pytest.mark.parametrize(
    "edit, rows", [(lambda ls: ls + ls[-1:], 4226), (lambda ls: ls[:-1], 4224)], ids=["extra-row", "missing-row"]
)


@OFF_LATTICE_EDITS
def test_read_field_csv_rejects_a_row_count_off_the_lattice(tmp_path, edit, rows):
    path = tmp_path / "f.csv"
    _, lines = edge_file_lines(path)
    path.write_bytes(b"\r\n".join(edit(lines)) + b"\r\n")
    with pytest.raises(ValueError, match=f"{rows} rows do not form an N\\^2 lattice"):
        read_field_csv(path)


def _with_coordinate(path, row: int, col: int, value: float):
    """Rewrite one coordinate of a field CSV's data row."""
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[row + 1].split(b",")
    cells[col] = b"%.17g" % value
    lines[row + 1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


def assert_each_axis_within_the_tolerance(tmp_path, point: tuple[int, int]):
    """A coordinate of the 5x5 lattice point ``point`` moved by 3 tolerances
    either way is rejected, and by half a tolerance read as it was."""
    g = make_grid(2, 1.5, 5)
    f = Field(g, np.arange(g.size * 2).reshape(g.shape + (2,)) * (1 - 0.5j))
    tol = 1e-12 * 1.5
    for offset, ok in ((3 * tol, False), (-3 * tol, False), (0.5 * tol, True)):
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        _with_coordinate(path, point[0] * 5 + point[1], 1, g.axis[point[1]] + offset)  # the point's second axis
        if ok:
            back = read_field_csv(path)
            assert back.grid == g and np.array_equal(back.values, f.values)
        else:
            with pytest.raises(ValueError, match="row-major uniform lattice"):
                read_field_csv(path)


def test_read_field_csv_checks_each_axis_within_the_tolerance(tmp_path):
    assert_each_axis_within_the_tolerance(tmp_path, (1, 2))


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
    path.write_text("x1,x2,re_1,im_1\n" + "0,0,1,0\n" * 5)  # 5 rows are no N^2 lattice
    with pytest.raises(ValueError, match="5 rows do not form an N\\^2 lattice"):
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
    # loadtxt is the oracle: the piece parser reads every body of JSON numbers
    # to the same bits
    table = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 7)), elements=finite_doubles))
    rows, cols = table.shape
    out = tmp_path_factory.mktemp("json")
    # the digits of earlier versions' files, or of this writer's
    text = reference_csv_rows(table) if data.draw(st.booleans()) else written_rows(table, out / "written.csv")
    lines = [line.split(b",") for line in text.split(b"\r\n")[:-1]]
    for r, c, cell in data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                                   st.sampled_from(JSON_CELLS)), max_size=10)):
        lines[r][c] = cell
    line_end = data.draw(st.sampled_from([b"\r\n", b"\n"]))
    body = b"".join(b",".join(line) + line_end for line in lines)
    path = out / "f.csv"
    path.write_bytes(body)
    fast = grid_field._json_piece(body, cols)
    expected = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    assert np.array_equal(fast.view(np.uint64), expected.view(np.uint64))


def test_json_table_reads_pieces_at_line_ends(monkeypatch, tmp_path):
    # lines cut by a piece's end are read whole with the next piece, and a
    # line longer than a piece grows the piece until it is whole; rows are
    # counted across pieces
    path = tmp_path / "f.csv"
    f, lines = edge_file_lines(path)
    assert min(map(len, lines[1:])) > 16  # every line is longer than the smallest piece
    for piece in (4096, 64, 16):
        monkeypatch.setattr(grid_field, "_READ_PIECE", piece)
        path.write_bytes(b"\r\n".join(lines))
        back = read_field_csv(path)
        assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
        path.write_bytes(b"\r\n".join(lines[:4098] + [_short(lines[4098])] + lines[4099:]))
        with pytest.raises(ValueError, match="data row 4098 is not"):
            read_field_csv(path)


@pytest.mark.parametrize(
    "row",
    [b"0,+1,0", b"0,1.,0", b"0,.5,0", b"0,01,0", b"0,inf,0", b"0,nan,0", b"0, 1 ,0", b"0,\t1,0", b"\r\n0,1,0",
     b"\r\n\r\n0,1,0", b"#0,1,0", b"0,1", b"0,one,0", b"0,1e400,0", b"0,\r1,0", b"0,1,0\r1,1,0"],
    ids=["plus", "trailing-point", "leading-point", "leading-zero", "inf", "nan", "spaces", "tab", "blank-line",
         "blank-lines", "comment", "ragged", "text-cell", "overflow", "lone-cr", "cr-line-end"],
)
def test_read_field_csv_rejects_other_bodies(tmp_path, row):
    # only the writer's spelling reads: lines of JSON numbers ended by LF or
    # CRLF; the bad line is data row 2
    path = tmp_path / "f.csv"
    path.write_bytes(b"x1,re_1,im_1\r\n-1,1,0\r\n" + row + b"\r\n1,1,0\r\n")
    with pytest.raises(ValueError, match="data row 2 is not 3 comma-separated JSON numbers"):
        read_field_csv(path)


# -- the two-process split ------------------------------------------------------


@pytest.mark.parametrize(
    "n, N, m, block",
    [(1, 8193, 1, 4096), (1, 5000, 2, 4096), (2, 65, 1, 4096), (2, 65, 2, 4096), (3, 17, 1, 4096), (3, 17, 2, 4096),
     # a 289-row file of 25 KB: the read splits inside its first 64 KB piece
     (2, 17, 2, 64)],
)
def test_split_round_trip_is_the_serial_bytes_and_bits(tmp_path, monkeypatch, split, n, N, m, block):
    monkeypatch.setattr(grid_field, "_CSV_BLOCK_ROWS", block)
    rng = np.random.default_rng(N + m)
    g = make_grid(n, 1.5, N)
    vals = rng.standard_normal(g.shape + (m,)) + 1j * rng.standard_normal(g.shape + (m,))
    vals.reshape(-1)[-1] = complex(-0.0, -0.0)
    f = Field(g, vals)
    write_field_csv(f, tmp_path / "split.csv")
    back = read_field_csv(tmp_path / "split.csv")
    assert len(split) == 2  # the write's child and the read's
    assert back.grid == g
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
    monkeypatch.setattr(grid_field, "_SPLIT_MIN_ROWS", 1 << 62)
    write_field_csv(f, tmp_path / "serial.csv")
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(split) == 2


def test_split_write_matches_golden_bytes(tmp_path, monkeypatch, split):
    # 25 rows: the child formats data rows 13 to 25, in blocks of 7 from row 13
    monkeypatch.setattr(grid_field, "_CSV_BLOCK_ROWS", 7)
    test_write_field_csv_matches_golden_bytes(tmp_path)
    assert len(split) == 2


@BAD_ROW_EDITS
def test_split_read_names_a_bad_row_from_the_file_start(tmp_path, split, edit, row):
    test_read_field_csv_names_a_bad_row_from_the_file_start(tmp_path, edit, row)
    # a bad row in the first piece fails before the fork; one in the child's
    # half comes back from the child; with a row count off the lattice the
    # read is not split
    assert len(split) == 1 + (row in (4097, 4098))


@LINE_END_EDITS
def test_split_read_accepts_line_end_variants(tmp_path, split, edit):
    # the count pass finds the split at an LF, and the child reads to the end
    test_read_field_csv_accepts_line_end_variants(tmp_path, edit)
    assert len(split) == 2


def test_split_read_field_outlives_the_call(tmp_path, split):
    # the values live in the map the child parsed into, held by the field alone
    f = PEAK_MIXTURE.sampled(make_grid(2, 12.0, 65))
    write_field_csv(f, tmp_path / "f.csv")
    back = read_field_csv(tmp_path / "f.csv")
    gc.collect()
    assert len(split) == 2
    assert mapped_bytes(back.values) == f.values.nbytes
    assert not back.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        back.values[0, 0, 0] = 0
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


def test_split_read_hands_back_only_the_status_byte(tmp_path, monkeypatch, split):
    # a good child's rows are in the shared value array: nothing follows its
    # status byte on the pipe
    in_child = grid_field._in_child
    after_status = []

    @contextmanager
    def watched(task):
        with in_child(task) as result:
            def read_rest():
                stream = result()
                after_status.append(stream.read())
                return stream

            yield result and read_rest

    f, _ = edge_file_lines(tmp_path / "f.csv")
    monkeypatch.setattr(grid_field, "_in_child", watched)
    back = read_field_csv(tmp_path / "f.csv")
    assert len(split) == 2
    assert after_status == [b""]
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


@OFF_LATTICE_EDITS
def test_split_read_rejects_a_row_count_off_the_lattice_before_any_fork(tmp_path, split, edit, rows):
    test_read_field_csv_rejects_a_row_count_off_the_lattice(tmp_path, edit, rows)
    assert len(split) == 1  # the write's child


def test_split_read_checks_each_axis_within_the_tolerance(tmp_path, split):
    # the 25-row file splits after row 13: points (1, 2) and (3, 4) are rows 8
    # and 20, one in each half; each of the three writes forks
    assert_each_axis_within_the_tolerance(tmp_path, (1, 2))
    assert len(split) == 3 + 1  # row 8 is in the first piece: only the good read forks
    assert_each_axis_within_the_tolerance(tmp_path, (3, 4))
    assert len(split) == 4 + 3 + 3


def bad_rows_file(path, rows) -> None:
    """The 4225-row file of ``edge_file_lines`` with the given data rows
    (counted from 1) one value short."""
    _, lines = edge_file_lines(path)
    for row in rows:
        lines[row] = _short(lines[row])
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")


def test_split_read_names_the_childs_bad_row_and_the_parents_first(tmp_path, split):
    # the file splits after row 2113; the first 64 KB piece holds rows 1 to 808
    path = tmp_path / "f.csv"
    bad_rows_file(path, [4000])
    with pytest.raises(ValueError, match="^data row 4000 is not 4 comma-separated JSON numbers$"):
        read_field_csv(path)
    bad_rows_file(path, [1500, 4000])
    with pytest.raises(ValueError, match="^data row 1500 is not"):
        read_field_csv(path)
    assert len(split) == 4


def test_split_read_reports_a_child_that_exits_without_its_result(tmp_path, monkeypatch, split):
    path = tmp_path / "f.csv"
    edge_file_lines(path)
    parent = os.getpid()
    parse = grid_field._json_piece

    def exits_in_the_child(piece, cols, row=1):
        if os.getpid() != parent:
            raise SystemExit(3)
        return parse(piece, cols, row)

    monkeypatch.setattr(grid_field, "_json_piece", exits_in_the_child)
    with pytest.raises(ChildProcessError, match="without a result"):
        read_field_csv(path)
    assert len(split) == 2


def test_in_child_never_returns_into_the_caller(tmp_path, forks):
    # a child whose task raises SystemExit exits with status 1; had it
    # returned into the caller, it would run on past the with block
    parent = os.getpid()
    pids = tmp_path / "pids"
    try:
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            with grid_field._in_child(lambda: sys.exit(3)) as result:
                assert result is not None
    finally:
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:  # it would run the rest of the tests
            os._exit(0)
    assert pids.read_text().split() == [str(parent)]
    assert len(forks) == 1


def split_read_failing_in_the_child(tmp_path, monkeypatch, error):
    """Read a 4225-row field CSV whose parse raises ``error`` in a child only."""
    path = tmp_path / "f.csv"
    edge_file_lines(path)
    parent = os.getpid()
    parse = grid_field._json_piece

    def fails_in_the_child(piece, cols, row=1):
        if os.getpid() != parent:
            raise error
        return parse(piece, cols, row)

    monkeypatch.setattr(grid_field, "_json_piece", fails_in_the_child)
    read_field_csv(path)


def test_split_read_raises_the_childs_oserror_as_itself(tmp_path, monkeypatch, split):
    # the serial read raises an OSError from its parse as it is; the split
    # read raises the child's the same way (ChildProcessError is an OSError too)
    with pytest.raises(OSError) as raised:
        split_read_failing_in_the_child(tmp_path, monkeypatch, OSError(errno.EIO, "read failed"))
    assert type(raised.value) is OSError
    assert (raised.value.errno, str(raised.value)) == (errno.EIO, "[Errno 5] read failed")
    assert len(split) == 2


def test_split_read_reports_a_child_error_that_does_not_pickle(tmp_path, monkeypatch, split):
    error = ValueError("not sent")
    error.hook = lambda: None  # a lambda does not pickle
    with pytest.raises(ChildProcessError, match="without a result"):
        split_read_failing_in_the_child(tmp_path, monkeypatch, error)
    assert len(split) == 2


def test_in_child_reports_a_result_cut_short(forks):
    # a child that fails after its status byte: the caller reads the chunk
    # sent before the failure, then learns of it from the exit status
    def chunks():
        yield b"first"
        raise SystemExit(3)

    with pytest.raises(ChildProcessError, match="^the child exited with status 1$"):
        with grid_field._in_child(chunks) as result:
            assert result().read() == b"first"
    assert len(forks) == 1


@pytest.mark.parametrize("blocker", ["second-thread", "fork-fails", "one-cpu"])
def test_split_falls_back_to_the_serial_path(tmp_path, monkeypatch, split, blocker):
    f = PEAK_MIXTURE.sampled(make_grid(2, 12.0, 65))
    monkeypatch.setattr(grid_field, "_SPLIT_MIN_ROWS", 1 << 62)
    write_field_csv(f, tmp_path / "serial.csv")
    monkeypatch.setattr(grid_field, "_SPLIT_MIN_ROWS", 1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    if blocker == "second-thread":
        thread.start()
    elif blocker == "fork-fails":

        def fails():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", fails)
    else:
        set_cpus(monkeypatch, 1)
    try:
        write_field_csv(f, tmp_path / "f.csv")
        back = read_field_csv(tmp_path / "f.csv")
    finally:
        done.set()
        if thread.is_alive():
            thread.join(60)
            assert not thread.is_alive()
    assert split == []
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


@pytest.mark.parametrize("first", [b"1", b"0", b"0.0", b"-0.0"])
def test_read_field_csv_names_a_lattice_that_is_not_centred(tmp_path, first):
    # a first coordinate >= 0 makes no grid: L would be -x1 <= 0
    path = tmp_path / "f.csv"
    path.write_bytes(b"x1,re_1,im_1\r\n" + first + b",1,0\r\n0,1,0\r\n-1,1,0\r\n")
    with pytest.raises(ValueError, match="^CSV coordinates are not a row-major uniform lattice$"):
        read_field_csv(path)
