"""Grid geometry, field containers, interior windows, and CSV round trips."""

import re
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

from conftest import lattice_points, traced_peak

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
    # a field CSV whose first coordinate is infinite has no grid either
    path = tmp_path / "inf.csv"
    path.write_text("x1,re_1,im_1\n-inf,1,0\ninf,1,0\n")
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


# an evolve-2d-csv field on a quarter of its grid (n=2, N=257, m=2)
PEAK_MIXTURE = random_gaussian_mixture(2, m=2, terms=3, rng=np.random.default_rng(7))
PEAK_GRID = make_grid(2, 12.0, 257)


def test_write_field_csv_holds_no_whole_table(tmp_path):
    # concatenating the lattice points with the values peaked at 3.4 times the
    # value array; the blocks' own temporaries do not grow with the grid
    f = PEAK_MIXTURE.sampled(PEAK_GRID)
    write_field_csv(f, tmp_path / "f.csv")  # imports orjson
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
    body = line_end.join(b",".join(line) for line in lines) + data.draw(st.sampled_from([line_end, b""]))
    header = ",".join(f"c{j}" for j in range(cols))
    path = out / "f.csv"
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


def test_written_files_never_reach_loadtxt(monkeypatch, tmp_path):
    # every file the writer writes is plain JSON numbers, the edge values too
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt read a written file")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    rng = np.random.default_rng(17)
    fields = [edge_field(), golden_field(), Field(make_grid(1, 2.0, 3), np.zeros(3))]
    fields += [random_gaussian_mixture(n, m=m, rng=rng).sampled(make_grid(n, 6.0, N)) for n, m, N in
               ((1, 1, 4097), (2, 2, 65), (3, 1, 17))]
    for f in fields:
        write_field_csv(f, tmp_path / "f.csv")
        back = read_field_csv(tmp_path / "f.csv")
        assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


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
