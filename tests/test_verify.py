"""Suite configuration, individual checks, and report serialization."""

import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gausspoisson import (
    CHECK_GROUPS,
    Method,
    SpaceSpec,
    SuiteConfig,
    VerificationReport,
    continuity_scan,
    contour_residual,
    format_complex,
    holomorphy_residuals,
    make_grid,
    parse_complex,
    run_suite,
    sample,
    semigroup_law_residual,
)
from gausspoisson import verify
from gausspoisson.fields import field_rule
from gausspoisson.verify import CheckResult

# report.csv of run_suite(SuiteConfig()), byte for byte: a refactor of the suite
# must reproduce it
REFERENCE_REPORT = Path(__file__).parent / "data" / "reference_report.csv"


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex("-3i") == -3j
    for bad in ("", "1 + 2i", "abc", "2i+1"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_round_trips():
    for z in (0.25, -1.0, 1 + 2j, 0.1 - 0.3j, complex(np.exp(1j * np.pi / 3))):
        assert parse_complex(format_complex(z)) == complex(z)
    assert "i" not in format_complex(2.0)  # reals print without phantom part


def test_suite_config_defaults_are_valid():
    cfg = SuiteConfig()
    assert cfg.grid == make_grid(1, 12.0, 1025)
    assert cfg.tol("semigroup_law") == 1e-5
    assert cfg.checks is None


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(alpha=2.0)  # not below pi/2
    with pytest.raises(ValueError):
        SuiteConfig(alpha=0.1)  # default complex samples fall outside
    with pytest.raises(ValueError):
        SuiteConfig(checks=("no-such-group",))
    with pytest.raises(ValueError):
        SuiteConfig(tolerances={"no_such_tol": 1.0})
    # continuity geometry and field rules are checked up front, not as inf rows
    with pytest.raises(ValueError, match="outside the sector"):
        SuiteConfig(rays=(1.3,))
    with pytest.raises(ValueError, match="strictly decreasing"):
        SuiteConfig(radii=(0.25, 0.5))
    with pytest.raises(ValueError, match="positive"):
        SuiteConfig(radii=())
    with pytest.raises(ValueError, match="unknown field rule"):
        SuiteConfig(rule="no-such-rule")
    with pytest.raises(ValueError, match="unknown field rule"):
        SuiteConfig(continuity_rule="no-such-rule")
    # so are the interior margin and the grid
    with pytest.raises(ValueError, match="interior margin"):
        SuiteConfig(margin=0.6)
    with pytest.raises(ValueError, match="interior margin"):
        SuiteConfig(margin=-0.1)
    # an even N with a margin near 1/2 leaves an empty window
    with pytest.raises(ValueError, match="leaves no points"):
        SuiteConfig(L=12.0, N=4, margin=0.45)
    with pytest.raises(ValueError, match="at least 2 points"):
        SuiteConfig(N=1)
    with pytest.raises(ValueError, match="half-extent"):
        SuiteConfig(L=0.0)
    with pytest.raises(ValueError, match="dimension"):
        SuiteConfig(n=0)


def test_suite_config_tolerance_override():
    cfg = SuiteConfig(tolerances={"contour": 1e-3})
    assert cfg.tol("contour") == 1e-3
    assert cfg.tol("mild") == 1e-4  # untouched defaults remain


def test_suite_config_mapping_round_trip():
    cfg = SuiteConfig(
        N=257,
        space=SpaceSpec.make(2, "Lp", 2),
        checks=("weights", "kernel-mass"),
        tolerances={"weights": 1e-10},
    )
    back = SuiteConfig.from_mapping(cfg.to_mapping())
    assert back == cfg


def test_from_mapping_ignores_cli_keys_and_rejects_unknown():
    cfg = SuiteConfig.from_mapping(
        {"grid.N": "257", "evolve.zeta": "1", "table.check": "mild", "out": "x"}
    )
    assert cfg.N == 257
    with pytest.raises(ValueError, match="unknown configuration key"):
        SuiteConfig.from_mapping({"grid.sz": "10"})


def test_report_formats():
    results = (
        CheckResult("a", "anchor one", 1e-9, 1e-6, True),
        CheckResult("b", "anchor two", 2.0, 1e-6, False),
    )
    report = VerificationReport(results)
    assert not report.all_pass
    assert [r.name for r in report.failures()] == ["b"]
    csv_text = report.to_csv_text()
    lines = csv_text.splitlines()
    assert lines[0] == "check,anchor,residual,tolerance,pass"
    assert lines[1].endswith(",true") and lines[2].endswith(",false")
    text = report.to_text()
    assert "PASS" in text and "FAIL" in text
    assert "1/2 checks passed" in text


def test_report_write(tmp_path):
    report = VerificationReport((CheckResult("a", "x", 0.0, 1.0, True),))
    report.write_csv(tmp_path / "r.csv")
    report.write_text(tmp_path / "r.txt")
    assert (tmp_path / "r.csv").read_text() == report.to_csv_text()
    assert "1/1 checks passed" in (tmp_path / "r.txt").read_text()


GRID = make_grid(1, 12.0, 1025)
SPACE = SpaceSpec.make(0)
GAUSSIAN = sample(GRID, field_rule("gaussian"))


def test_law_residual_zero_time_is_exact():
    assert semigroup_law_residual(0.5, 0.0, GAUSSIAN, SPACE) == 0.0


def test_law_residual_conjugate_pair():
    z = 0.5 * np.exp(1j * np.pi / 4)
    res = semigroup_law_residual(z, np.conj(z), GAUSSIAN, SPACE, method=Method.QUADRATURE)
    assert res < 1e-10


def test_continuity_scan_shrinks_along_each_ray():
    radii = [2.0**-j for j in range(1, 9)]
    entries = continuity_scan(GAUSSIAN, SPACE, np.pi / 3, [0.0, np.pi / 4], radii)
    assert len(entries) == 2 * len(radii)
    # ordered by (ray, radius), residuals decreasing along each ray
    assert [e.ray for e in entries[: len(radii)]] == [0.0] * len(radii)
    for ray_block in (entries[: len(radii)], entries[len(radii) :]):
        res = [e.residual for e in ray_block]
        assert all(a >= b for a, b in zip(res, res[1:]))
        assert res[-1] < 1e-2


def test_continuity_scan_validation():
    with pytest.raises(ValueError):
        continuity_scan(GAUSSIAN, SPACE, np.pi / 4, [np.pi / 3], [0.5, 0.25])
    with pytest.raises(ValueError):
        continuity_scan(GAUSSIAN, SPACE, np.pi / 4, [0.0], [0.25, 0.5])  # not decreasing


def test_holomorphy_residuals_second_order():
    coarse = holomorphy_residuals(GAUSSIAN, 1.0, 1e-2, SPACE)
    fine = holomorphy_residuals(GAUSSIAN, 1.0, 5e-3, SPACE)
    assert coarse.cauchy_riemann / fine.cauchy_riemann == pytest.approx(4.0, rel=0.15)
    assert coarse.derivative_match / fine.derivative_match == pytest.approx(4.0, rel=0.15)


def test_holomorphy_step_must_stay_in_half_plane():
    with pytest.raises(ValueError):
        holomorphy_residuals(GAUSSIAN, 0.01, 0.02, SPACE)


def test_contour_residual_vanishes():
    assert contour_residual(GAUSSIAN, 1.0, 0.25, 64, SPACE) < 1e-10
    with pytest.raises(ValueError):
        contour_residual(GAUSSIAN, 1.0, 0.25, 4, SPACE)  # too few nodes
    with pytest.raises(ValueError):
        contour_residual(GAUSSIAN, 0.2, 0.5, 64, SPACE)  # circle exits half-plane


def test_run_suite_is_deterministic():
    cfg = SuiteConfig(checks=("weights", "semigroup-law", "operator-bound"))
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.to_csv_text() == b.to_csv_text()
    assert a.all_pass


def test_run_suite_respects_check_filter():
    cfg = SuiteConfig(checks=("contour",))
    report = run_suite(cfg)
    assert report.results
    assert all(r.name.startswith("contour") for r in report.results)
    empty = run_suite(SuiteConfig(checks=()))
    assert empty.results == () and empty.all_pass


def test_run_suite_flags_unreachable_tolerance():
    cfg = SuiteConfig(checks=("contour",), tolerances={"contour": 1e-30})
    report = run_suite(cfg)
    assert not report.all_pass
    assert report.failures()[0].name.startswith("contour")


# the functions whose work a unit shares between its rows
SHARED_WORK = ("continuity_scan", "holomorphy_residuals", "generator_residuals", "mild_identity_residual")


@pytest.fixture(scope="module")
def default_run():
    """One run of the default suite, with the calls of each SHARED_WORK function counted."""
    calls = dict.fromkeys(SHARED_WORK, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in SHARED_WORK:
            def counted(*args, _name=name, _original=getattr(verify, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(verify, name, counted)
        report = run_suite(SuiteConfig())
    return report, calls


def test_check_groups_cover_report_names(default_run):
    # every check name extends one of the declared group names
    report, _ = default_run
    for r in report.results:
        base = r.name.split("[")[0]
        assert any(base == g or base.startswith(g + "-") for g in CHECK_GROUPS), r.name
    assert report.to_csv_text().encode() == REFERENCE_REPORT.read_bytes()


def test_units_do_shared_work_once(default_run):
    _, calls = default_run
    assert calls == {
        "continuity_scan": len(SuiteConfig().rays),  # final and monotone rows from one scan
        "holomorphy_residuals": 2,  # one coarse/fine pair for both ratios
        "generator_residuals": 1,  # r1, r2 and r3 from one evaluation
        "mild_identity_residual": 2,  # the 256-step residual and its refinement
    }


def test_crashing_unit_fails_all_its_rows(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("holomorphy broke")

    monkeypatch.setattr(verify, "holomorphy_residuals", broken)
    report = run_suite(SuiteConfig(checks=("holomorphy", "contour")))
    holomorphy = [r for r in report.results if r.name.startswith("holomorphy")]
    assert len(holomorphy) == 2
    for r in holomorphy:
        assert r.residual == math.inf and not r.passed
        assert "holomorphy broke" in r.meta["error"]
    (contour,) = [r for r in report.results if r.name.startswith("contour")]
    assert contour.passed
    # the text report says why a row crashed; the CSV keeps its documented columns
    lines = report.to_text().splitlines()
    assert [line for line in lines if "holomorphy broke" in line] == [
        line for line in lines if line.startswith("FAIL  holomorphy")
    ]
    assert "holomorphy broke" not in report.to_csv_text()


# 2-D N=65: 4225 points, above the grid size from which run_suite starts
# helper threads; multi-unit groups and the single costliest unit, classical
THREADED = SuiteConfig(n=2, N=65, checks=("semigroup-law", "gaussian-closed-form", "classical"))


def _set_cpus(mp, cpus):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture(scope="module")
def threaded_reports():
    """Reports of THREADED with the CPU count set to 1, 2 and 4; at 4, with
    more threads than this machine may have cores and frequent thread
    switches."""
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        for cpus in (1, 2):
            _set_cpus(mp, cpus)
            reports[cpus] = run_suite(THREADED)
        _set_cpus(mp, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports[4] = run_suite(THREADED)
        finally:
            sys.setswitchinterval(interval)
    return reports


def test_report_identical_whatever_the_thread_count(threaded_reports):
    texts = {cpus: report.to_csv_text() for cpus, report in threaded_reports.items()}
    assert texts[2] == texts[1]
    assert texts[4] == texts[1]


def test_crash_on_a_helper_thread_fails_only_its_rows(monkeypatch, threaded_reports):
    ran_on = []

    def broken(*args, **kwargs):
        ran_on.append(threading.current_thread())
        raise RuntimeError("classical broke")

    monkeypatch.setattr(verify, "classical_residual", broken)
    _set_cpus(monkeypatch, 2)
    report = run_suite(THREADED)
    # the last unit is the first one a helper takes
    assert ran_on and ran_on[0] is not threading.current_thread()
    *rest, classical = report.results
    assert classical.residual == math.inf and "classical broke" in classical.meta["error"]
    expected = threaded_reports[1].results
    assert classical.name == expected[-1].name
    assert [(r.name, r.residual, r.passed, r.meta) for r in rest] == [
        (r.name, r.residual, r.passed, r.meta) for r in expected[:-1]
    ]


@pytest.fixture
def spy_threads(monkeypatch):
    """The threads started while the test runs."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


@pytest.mark.parametrize(
    "offset, cpus, checks, helpers",
    [
        (-1, 8, ("fourier-symbol",), 0),  # below the threshold
        (0, 1, ("fourier-symbol",), 0),  # one CPU
        (0, 8, ("fourier-symbol",), 1),  # two units
        (0, 4, ("kernel-mass",), 3),  # six units
    ],
)
def test_helper_count_follows_grid_size_cpus_and_units(monkeypatch, spy_threads, offset, cpus, checks, helpers):
    _set_cpus(monkeypatch, cpus)
    report = run_suite(SuiteConfig(N=verify._THREADED_MIN_POINTS + offset, checks=checks))
    assert len(spy_threads) == helpers
    assert not any(thread.is_alive() for thread in spy_threads)
    assert all(np.isfinite(r.residual) for r in report.results)


def test_interrupt_empties_the_queue_and_joins_the_helpers(monkeypatch):
    helper_took_its_unit, joining = threading.Event(), threading.Event()
    ran = []

    class Spy(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    def interrupted(z, g):  # kernel-mass, at the front: the calling thread
        ran.append(z)
        assert helper_took_its_unit.wait(timeout=30)
        raise KeyboardInterrupt

    def finishes_after_the_interrupt(z, g):  # fourier-symbol, at the back: the helper
        ran.append(z)
        helper_took_its_unit.set()
        assert joining.wait(timeout=30)
        return 0.0

    monkeypatch.setattr(threading, "Thread", Spy)
    monkeypatch.setattr(verify.kernelmod, "kernel_mass", interrupted)
    monkeypatch.setattr(verify.kernelmod, "fourier_symbol_residual", finishes_after_the_interrupt)
    _set_cpus(monkeypatch, 2)
    cfg = SuiteConfig(N=verify._THREADED_MIN_POINTS, checks=("kernel-mass", "fourier-symbol"))
    with pytest.raises(KeyboardInterrupt):
        run_suite(cfg)
    # the helper finished its unit, then found the queue empty
    assert sorted(ran, key=abs) == [0.25, 1 + 1j]
    assert not [t for t in threading.enumerate() if isinstance(t, Spy)]


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_helper_that_dies_leaves_no_silent_gap(monkeypatch):
    class HelperDied(BaseException):
        pass

    helper_took_its_unit = threading.Event()

    def dies_off_the_main_thread(z, g):
        if threading.current_thread() is threading.main_thread():
            assert helper_took_its_unit.wait(timeout=30)
            return 0.0
        helper_took_its_unit.set()
        raise HelperDied

    monkeypatch.setattr(verify.kernelmod, "fourier_symbol_residual", dies_off_the_main_thread)
    _set_cpus(monkeypatch, 2)
    cfg = SuiteConfig(N=verify._THREADED_MIN_POINTS, checks=("fourier-symbol",))
    with pytest.raises(RuntimeError, match=r"fourier-symbol\[zeta=1\+1i\]"):
        run_suite(cfg)
