"""Grid geometry, field containers, pairing, and CSV round trips."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gausspoisson import (
    Field,
    interior_slices,
    is_interior_supported,
    make_grid,
    pair,
    random_gaussian_mixture,
    read_field_csv,
    sample,
    write_field_csv,
)
from gausspoisson import grid_field
from gausspoisson import test_function as make_test_function

FIELD_GOLDEN = Path(__file__).parent / "data" / "field_golden.csv"


def test_grid_geometry():
    g = make_grid(2, 3.0, 7)
    assert g.h == 1.0
    assert g.cell_volume == 1.0
    assert g.shape == (7, 7)
    assert g.size == 49
    np.testing.assert_allclose(g.axis, np.arange(-3.0, 4.0))
    assert g.points.shape == (7, 7, 2)
    assert g.points[0, 0].tolist() == [-3.0, -3.0]
    assert g.points[6, 3].tolist() == [3.0, 0.0]
    np.testing.assert_allclose(g.squared_norms, np.sum(g.points**2, axis=-1))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0, 1.0, 5)
    with pytest.raises(ValueError):
        make_grid(1, 0.0, 5)
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 1)


def test_grid_arrays_are_read_only():
    for n in (1, 2, 3):
        g = make_grid(n, 1.0, 3)
        for arr in (g.axis, g.points, g.squared_norms, g.fourier_axis, g.fourier_squared_norms):
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


def test_sample_passes_point_array():
    g = make_grid(2, 2.0, 5)
    f = sample(g, lambda p: p[..., 0] + 1j * p[..., 1])
    assert f.values[0, 0, 0] == -2.0 - 2.0j
    assert f.values[4, 2, 0] == 2.0 + 0.0j


def test_sample_vector_rule():
    g = make_grid(1, 1.0, 3)
    f = sample(g, lambda p: np.stack([p[..., 0], p[..., 0] ** 2], axis=-1))
    assert f.m == 2
    np.testing.assert_allclose(f.values[..., 1], f.values[..., 0] ** 2)


def test_pair_is_quadrature_sum():
    g = make_grid(1, 1.0, 5)
    f = sample(g, lambda p: np.ones(p.shape[:-1]) * 2.0j)
    phi = sample(g, lambda p: np.ones(p.shape[:-1]))
    out = pair(f, phi)
    assert out.shape == (1,)
    assert np.isclose(out[0], 2.0j * 5 * g.h)


def test_pair_validation():
    g = make_grid(1, 1.0, 5)
    g2 = make_grid(1, 2.0, 5)
    f = sample(g, lambda p: np.zeros(p.shape[:-1]))
    with pytest.raises(ValueError):
        pair(f, sample(g2, lambda p: np.zeros(p.shape[:-1])))
    vec = sample(g, lambda p: np.zeros(p.shape[:-1] + (2,)))
    with pytest.raises(ValueError):
        pair(f, vec)


def test_interior_support_detection():
    g = make_grid(1, 4.0, 9)
    vals = np.zeros(9)
    vals[4] = 1.0
    f = Field(g, vals)
    assert is_interior_supported(f, layers=2)
    vals2 = vals.copy()
    vals2[1] = 1e-300
    assert not is_interior_supported(Field(g, vals2), layers=2)
    with pytest.raises(ValueError):
        is_interior_supported(f, layers=5)


def test_test_function_certifies_support():
    g = make_grid(1, 4.0, 17)
    bump = make_test_function(g, lambda p: np.where(np.abs(p[..., 0]) < 1.0, 1.0, 0.0))
    assert bump.m == 1
    with pytest.raises(ValueError):
        make_test_function(g, lambda p: np.ones(p.shape[:-1]))


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
    table = np.concatenate([g.points.reshape(-1, g.n), f.values.reshape(-1, f.m).view(float)], axis=1)
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
