"""Suite configuration, individual checks, and report serialization."""

import dataclasses
import functools
import math
import re
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
    apply,
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
from gausspoisson import cli, generator, semigroup, verify, weights
from gausspoisson.fields import field_rule
from gausspoisson.verify import CheckResult
from gausspoisson.weights import difference_norm

from conftest import set_cpus

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
    with pytest.raises(ValueError, match="zeta sample .* outside the sector"):
        SuiteConfig(zetas=(np.exp(1.3j),))
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
    with pytest.raises(ValueError, match="finite"):
        SuiteConfig(radii=(math.inf, 0.5))
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
    with pytest.raises(ValueError, match="half-extent"):
        SuiteConfig(L=math.inf)
    with pytest.raises(ValueError, match="dimension"):
        SuiteConfig(n=0)
    # and the seed, the time samples and the tolerance values
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError, match="nonzero"):
        SuiteConfig(zetas=(0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        SuiteConfig(zetas=(1.0, math.inf))
    for bad in (math.nan, -1e-6):
        with pytest.raises(ValueError, match="non-negative"):
            SuiteConfig(tolerances={"contour": bad})
    # an empty list of time samples or rays would drop their rows silently
    with pytest.raises(ValueError, match="at least one zeta"):
        SuiteConfig.from_mapping({"zetas": ""})
    with pytest.raises(ValueError, match="at least one ray"):
        SuiteConfig.from_mapping({"rays": ""})
    # an infinite weight exponent makes every weighted norm vanish
    with pytest.raises(ValueError, match="finite"):
        SuiteConfig.from_mapping({"space.k": "inf"})


def test_suite_config_tolerance_override():
    cfg = SuiteConfig(tolerances={"contour": 1e-3})
    assert cfg.tol("contour") == 1e-3
    assert cfg.tol("mild") == 1e-4  # untouched defaults remain


# every key of the flat form, each away from its default (tol.<name> twice)
CANONICAL_MAPPING = {
    "grid.n": "2",
    "grid.L": "10",
    "grid.N": "65",
    "space.k": "2",
    "space.kind": "Lp",
    "space.p": "1.5",
    "sector.alpha": "1.25",
    "margin": "0.125",
    "seed": "3",
    "rule": "modulated_gaussian",
    "continuity.rule": "gaussian",
    "zetas": "0.5,1+0.5i",
    "rays": "0,0.5",
    "radii": "0.5,0.125",
    "checks": "weights,kernel-mass",
    "tol.contour": "0.5",
    "tol.weights": "0.25",
}


def test_suite_config_mapping_round_trip():
    assert {"tol." if k.startswith("tol.") else k for k in CANONICAL_MAPPING} == set(verify._CONFIG_KEYS)
    cfg = SuiteConfig(
        n=2,
        L=10.0,
        N=65,
        space=SpaceSpec.make(2, "Lp", 1.5),
        alpha=1.25,
        margin=0.125,
        seed=3,
        zetas=(0.5, 1 + 0.5j),
        rays=(0.0, 0.5),
        radii=(0.5, 0.125),
        rule="modulated_gaussian",
        continuity_rule="gaussian",
        tolerances={"weights": 0.25, "contour": 0.5},
        checks=("weights", "kernel-mass"),
    )
    default = SuiteConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in dataclasses.fields(SuiteConfig))
    assert SuiteConfig.from_mapping(CANONICAL_MAPPING) == cfg
    assert cfg.to_mapping() == CANONICAL_MAPPING
    for checks in ((), ("weights", "kernel-mass")):
        c = dataclasses.replace(cfg, checks=checks)
        assert SuiteConfig.from_mapping(c.to_mapping()) == c
    for m in (CANONICAL_MAPPING, {**CANONICAL_MAPPING, "checks": ""}, SuiteConfig().to_mapping()):
        assert SuiteConfig.from_mapping(m).to_mapping() == m


def _key_names():
    """The keys of the flat config form as documented: ``tol.<name>`` for the prefix."""
    return {key + "<name>" if key.endswith(".") else key for key in verify._CONFIG_KEYS}


def test_config_keys_documented_in_readme_and_reference_config():
    root = Path(__file__).resolve().parents[1]
    readme = " ".join((root / "README.md").read_text().split())
    sentence, plus = readme[readme.index("recognized keys are") :].split(" plus ", 1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == _key_names()
    # the clause after "plus" names the command line's keys, up to its period
    assert re.findall(r"`([^`]+)`", plus.split(". ")[0]) == list(cli._COMMAND_KEYS)
    cfg = (root / "configs" / "reference.cfg").read_text()
    block = cfg[cfg.index("# Recognized keys") :].splitlines()[1:]
    block = block[: next(i for i, line in enumerate(block) if not line.startswith("#   "))]
    documented = {key for line in block for key in re.split(r"\s{2,}", line[1:].strip())[0].split(", ")}
    assert documented == _key_names()


def test_from_mapping_rejects_unknown_keys():
    # the command-line keys are read by the command line, not by the suite
    assert SuiteConfig.from_mapping({"grid.N": "257"}).N == 257
    for key in ("grid.sz", "tol", "margin.x", "space", "evolve.zeta", "table.check", "out"):
        with pytest.raises(ValueError, match="unknown configuration key"):
            SuiteConfig.from_mapping({key: "10"})


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
    # the composition law with every evolution by quadrature
    z = 0.5 * np.exp(1j * np.pi / 4)
    one_step = apply(z + np.conj(z), GAUSSIAN, method=Method.QUADRATURE)
    two_step = apply(z, apply(np.conj(z), GAUSSIAN, method=Method.QUADRATURE), method=Method.QUADRATURE)
    assert difference_norm(one_step, two_step, SPACE, 0.25) < 1e-10


def test_continuity_scan_shrinks_along_each_ray():
    radii = [2.0**-j for j in range(1, 9)]
    scans = continuity_scan(GAUSSIAN, SPACE, np.pi / 3, [0.0, np.pi / 4], radii)
    # one list per ray, in radius order, residuals decreasing along each ray
    assert [len(res) for res in scans] == [len(radii)] * 2
    assert scans[0][0] == difference_norm(apply(radii[0], GAUSSIAN), GAUSSIAN, SPACE, 0.25)
    for res in scans:
        assert all(a >= b for a, b in zip(res, res[1:]))
        assert res[-1] < 1e-2


def test_continuity_scan_validation():
    with pytest.raises(ValueError):
        continuity_scan(GAUSSIAN, SPACE, np.pi / 4, [np.pi / 3], [0.5, 0.25])
    with pytest.raises(ValueError):
        continuity_scan(GAUSSIAN, SPACE, np.pi / 4, [0.0], [0.25, 0.5])  # not decreasing


def test_holomorphy_residuals_second_order():
    coarse, fine = holomorphy_residuals(GAUSSIAN, 1.0, (1e-2, 5e-3), SPACE)
    assert len(coarse) == len(fine) == 2  # (cauchy_riemann, derivative_match)
    for a, b in zip(coarse, fine):
        assert a / b == pytest.approx(4.0, rel=0.15)


def test_holomorphy_step_must_stay_in_half_plane():
    with pytest.raises(ValueError):
        holomorphy_residuals(GAUSSIAN, 0.01, (0.02,), SPACE)


def test_contour_residual_vanishes():
    assert contour_residual(GAUSSIAN, 1.0, 0.25, 64, SPACE) < 1e-10
    with pytest.raises(ValueError):
        contour_residual(GAUSSIAN, 1.0, 0.25, 4, SPACE)  # too few nodes
    with pytest.raises(ValueError):
        contour_residual(GAUSSIAN, 0.2, 0.5, 64, SPACE)  # circle exits half-plane


@pytest.mark.parametrize("n", [1, 2])
def test_each_sweep_entry_is_its_one_step_sweep(n):
    # sharing the step-free work moves no bit of any entry
    f = sample(make_grid(n, 8.0, 65), field_rule("gaussian"))
    sweeps = {
        functools.partial(generator.generator_residuals, f, 0.5): (1e-2, 5e-3, 2.5e-3),
        functools.partial(generator.difference_quotient_residual, f): (1e-2, 5e-3, 2.5e-3),
        functools.partial(generator.mild_identity_residual, f, 1.0): (32, 64),
        functools.partial(holomorphy_residuals, f, 1.0, s=SPACE): (1e-2, 5e-3),
    }
    for sweep, steps in sweeps.items():
        entries = [entry for step in steps for entry in sweep((step,))]
        assert sweep(steps) == entries
        assert sweep(iter(steps)) == entries  # a one-shot iterator is read once


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
SHARED_WORK = (
    "continuity_scan",
    "holomorphy_residuals",
    "generator_residuals",
    "difference_quotient_residual",
    "mild_identity_residual",
)


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
        "holomorphy_residuals": 1,  # one coarse/fine sweep for both ratios
        "generator_residuals": 1,  # r1, r2 and r3 from one evaluation
        "difference_quotient_residual": 1,  # the three steps of the ratio window
        "mild_identity_residual": 1,  # the 256- and 512-step residuals in one sweep
    }


def test_suite_transforms_no_input_twice(monkeypatch):
    # the checks that share a field share its one spectrum: 14 forward
    # transforms at n=2, where each check transforming on its own made 34
    import hashlib

    forward = np.fft.fftn
    digests = []

    def spy(x, *args, **kwargs):
        digests.append((x.shape, hashlib.blake2b(x.tobytes(), digest_size=16).digest()))
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", spy)
    report = run_suite(SuiteConfig(n=2, N=17))
    assert len(report.results) == 47
    assert len(digests) == 14
    assert len(set(digests)) == len(digests)


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


def test_a_unit_whose_residual_is_no_number_fails_its_rows(monkeypatch):
    monkeypatch.setattr(verify.kernelmod, "fourier_symbol_residual", lambda zeta, g: 1j)
    report = run_suite(SuiteConfig(checks=("fourier-symbol",)))
    assert report.results
    for r in report.results:
        assert r.residual == math.inf and not r.passed
        assert r.meta["error"].startswith("TypeError(")


# 2-D N=65: 4225 points, above the grid size from which run_suite starts
# helper threads; multi-unit groups and the single costliest unit, classical
THREADED = SuiteConfig(n=2, N=65, checks=("semigroup-law", "gaussian-closed-form", "classical"))


@pytest.fixture(scope="module")
def threaded_reports():
    """Reports of THREADED with the CPU count set to 1, 2 and 4; at 4, with
    more threads than this machine may have cores and frequent thread
    switches."""
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        for cpus in (1, 2):
            set_cpus(mp, cpus)
            reports[cpus] = run_suite(THREADED)
        set_cpus(mp, 4)
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
    # the classical row, reduced from a coarse and a fine part, also in its meta
    classical = {cpus: report.results[-1] for cpus, report in threaded_reports.items()}
    assert classical[1].name == "classical[gaussian;dt=1e-2]"
    assert classical[2].meta == classical[1].meta
    assert classical[4].meta == classical[1].meta


def test_crash_on_a_helper_thread_fails_only_its_rows(monkeypatch, threaded_reports):
    caller = threading.current_thread()
    crashed = threading.Event()
    law, classical = verify.semigroup_law_residual, verify.classical_residual

    def crashes_on_a_helper(original):
        def patched(*args, **kwargs):
            if threading.current_thread() is caller:
                # the caller's units wait for the crash, so a helper reaches
                # one of these two groups first
                assert crashed.wait(timeout=30)
                return original(*args, **kwargs)
            crashed.set()
            raise RuntimeError("helper broke")

        return patched

    monkeypatch.setattr(verify, "semigroup_law_residual", crashes_on_a_helper(law))
    monkeypatch.setattr(verify, "classical_residual", crashes_on_a_helper(classical))
    set_cpus(monkeypatch, 2)
    crashed_rows = []
    for got, want in zip(run_suite(THREADED).results, threaded_reports[1].results, strict=True):
        assert got.name == want.name
        if "error" in got.meta:
            crashed_rows.append(got.name)
            assert got.residual == math.inf and not got.passed
            assert got.meta == {"error": "RuntimeError('helper broke')"}
        else:
            assert (got.residual, got.passed, got.meta) == (want.residual, want.passed, want.meta)
    assert crashed_rows and all(name.startswith(("semigroup-law", "classical")) for name in crashed_rows)


@pytest.mark.parametrize("part", ["coarse", "fine-0"])
def test_a_crashing_classical_part_fails_only_its_row(monkeypatch, threaded_reports, part):
    # the one classical unit runs the dense coarse trajectory, then the fine
    # one over the refined coarse windows' spans: here window 0's alone
    def broken(*args, **kwargs):
        raise RuntimeError(f"{part} trajectory broke")

    monkeypatch.setattr(verify, {"coarse": "_window_residuals", "fine-0": "classical_residual"}[part], broken)
    set_cpus(monkeypatch, 2)
    *rest, classical = run_suite(THREADED).results
    assert classical.name == "classical[gaussian;dt=1e-2]"
    assert classical.residual == math.inf and not classical.passed
    assert classical.meta == {"error": f"RuntimeError('{part} trajectory broke')"}
    expected = threaded_reports[1].results[:-1]
    assert [(r.name, r.residual, r.passed, r.meta) for r in rest] == [
        (r.name, r.residual, r.passed, r.meta) for r in expected
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
        (0, 2, ("classical",), 0),  # one unit
    ],
)
def test_helper_count_follows_grid_size_cpus_and_units(monkeypatch, spy_threads, offset, cpus, checks, helpers):
    set_cpus(monkeypatch, cpus)
    report = run_suite(SuiteConfig(N=verify._THREADED_MIN_POINTS + offset, checks=checks))
    assert len(spy_threads) == helpers
    assert not any(thread.is_alive() for thread in spy_threads)
    assert all(np.isfinite(r.residual) for r in report.results)


def test_interrupt_empties_the_queue_and_joins_the_helpers(monkeypatch):
    caller = threading.current_thread()
    helper_holds_a_unit, joining = threading.Event(), threading.Event()
    ran = []

    class Spy(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    def unit(z, g):  # every unit of both groups
        ran.append(z)
        if threading.current_thread() is caller:
            assert helper_holds_a_unit.wait(timeout=30)
            raise KeyboardInterrupt
        helper_holds_a_unit.set()
        assert joining.wait(timeout=30)
        return 0.0

    monkeypatch.setattr(threading, "Thread", Spy)
    monkeypatch.setattr(verify.kernelmod, "kernel_mass", unit)
    monkeypatch.setattr(verify.kernelmod, "fourier_symbol_residual", unit)
    set_cpus(monkeypatch, 2)
    cfg = SuiteConfig(N=verify._THREADED_MIN_POINTS, checks=("kernel-mass", "fourier-symbol"))
    with pytest.raises(KeyboardInterrupt):
        run_suite(cfg)
    # the helper finished its unit, then took no further one
    assert len(ran) == 2
    assert not [t for t in threading.enumerate() if isinstance(t, Spy)]


def test_a_helper_that_fails_to_start_stops_the_others(monkeypatch):
    started = []

    class SecondFails(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", SecondFails)
    set_cpus(monkeypatch, 4)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run_suite(SuiteConfig(N=verify._THREADED_MIN_POINTS, checks=("kernel-mass",)))
    # the first helper was stopped and joined before the error left run_suite
    assert len(started) == 1 and not started[0].is_alive()


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
    set_cpus(monkeypatch, 2)
    cfg = SuiteConfig(N=verify._THREADED_MIN_POINTS, checks=("fourier-symbol",))
    with pytest.raises(RuntimeError, match=r"fourier-symbol\[zeta=1\+1i\]"):
        run_suite(cfg)


def _operator_rows(cfg):
    return run_suite(dataclasses.replace(cfg, checks=("operator-bound",))).results


@pytest.mark.parametrize("cfg", [SuiteConfig(), SuiteConfig(n=2, N=65)], ids=["reference", "n2-N65"])
@pytest.mark.parametrize("scale", [0.27, 1 + 1e-9, 1e6])
def test_scaled_operator_bound_fails_every_row(monkeypatch, cfg, scale):
    # the row compares the exact operator norm T with M_k both ways: T <= M_k,
    # and, with 0 on the grid, M_k - T within the kernel's tail beyond L,
    # taken at the time's own argument, where it is the tail of |chi| itself
    original = verify.operator_bound
    monkeypatch.setattr(verify, "operator_bound", lambda z, k, g: scale * original(z, k, g))
    rows = _operator_rows(cfg)
    assert len(rows) == 6 and not any(r.passed for r in rows)


@pytest.mark.parametrize("n, N", [(1, 257), (2, 33), (3, 17)])
def test_negated_stencil_fails_the_classical_row(monkeypatch, n, N):
    # the classical row is the one check of the finite-difference Laplacian
    row = lambda: run_suite(SuiteConfig(n=n, N=N, checks=("classical",))).results
    (unmutated,) = row()
    assert unmutated.passed
    stencil = generator._stencil
    monkeypatch.setattr(generator, "_stencil", lambda *args: -stencil(*args))
    (mutated,) = row()
    assert mutated.name == "classical[gaussian;dt=1e-2]" and not mutated.passed
    assert mutated.residual > 1  # against a tolerance of 1e-9


@pytest.mark.parametrize(
    "name, nan, check, failing",
    [
        ("classical_residual", lambda *args: math.nan, "classical", 1),
        ("_window_residuals", lambda times, states, margin: [math.nan] * (len(times) - 2), "classical", 1),
        ("mild_identity_residual", lambda f, t, steps, **kw: [math.nan] * len(steps), "mild", 2),
        ("holomorphy_residuals", lambda f, z, hs, s, **kw: [[math.nan] * 2] * len(hs), "holomorphy", 2),
        ("difference_quotient_residual", lambda f, hs, **kw: [math.nan] * len(hs), "quotient-order", 1),
    ],
    ids=["classical-fine", "classical-coarse", "mild", "holomorphy", "quotient-order"],
)
def test_a_nan_residual_fails_its_rows(monkeypatch, name, nan, check, failing):
    # max(0, nan), Python's max over a NaN that is not first, and a ratio's
    # fallback for a NaN step all read 0 and passed the refinement rows
    monkeypatch.setattr(verify, name, nan)
    rows = run_suite(SuiteConfig(n=1, N=129, checks=(check,))).results
    assert len(rows) == failing
    assert all(math.isnan(row.residual) and not row.passed for row in rows), [r.residual for r in rows]


def test_a_nan_scale_fails_the_relative_rows(monkeypatch):
    # a NaN field norm left the residual unscaled (scale > 0 is false for
    # NaN), so the semigroup-law rows passed as if the field had norm 1
    monkeypatch.setattr(verify, "weighted_norm", lambda *args, **kw: math.nan)
    rows = run_suite(SuiteConfig(n=1, N=129, checks=("semigroup-law",))).results
    assert rows and all(math.isnan(row.residual) and not row.passed for row in rows), [r.residual for r in rows]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_without_its_one_fails_the_pointwise_row(monkeypatch, n):
    # |x|^k in place of (1 + |x|)^k, through the package's one weight formula
    monkeypatch.setattr(weights, "_weight", lambda k, sq: np.sqrt(sq) ** weights._checked_exponent(k))
    (row,) = run_suite(SuiteConfig(n=n, N=17, checks=("weights",))).results
    assert row.name == "weights[pointwise]" and not row.passed


@pytest.mark.parametrize(
    "cfg, sharp",
    [
        (SuiteConfig(n=2, N=65), True),
        (SuiteConfig(n=2, N=64), False),  # 0 is no grid point: M_k is not sharp
        (SuiteConfig(n=2, N=65, space=SpaceSpec.make(0, "Lp", 2)), True),
    ],
    ids=["sup", "even-N", "Lp"],
)
def test_operator_bound_rows_state_the_norm_they_check(cfg, sharp):
    rows = _operator_rows(cfg)
    assert len(rows) == 6 and all(r.passed for r in rows)
    for r in rows:
        meta = r.meta
        assert meta["sharp"] is sharp
        assert meta["norm"] <= meta["bound"] * (1 + 1e-15)
        assert meta["attained"] == pytest.approx(meta["norm"], rel=1e-14)
        assert meta["tail_estimate"] >= 0
        if sharp:
            assert meta["bound"] - meta["norm"] <= meta["tail_estimate"] + 1e-15 * meta["bound"]
        assert ("column_norm" in meta) is (cfg.space.kind.value == "Lp")


@pytest.mark.parametrize("n, N", [(1, 257), (2, 33), (3, 17)])
def test_classical_row_meta_names_both_runs(n, N):
    # on a heat solution the residual falls in t, so only coarse window 0 is
    # refined, and both sides equal the dense whole-run residuals bit for bit
    cfg = SuiteConfig(n=n, N=N, checks=("classical",))
    (row,) = run_suite(cfg).results
    f = verify._Inputs(cfg).unit_gaussian
    for key, grid_N, dt in (("coarse", N, 1e-2), ("fine", 2 * N - 2, 5e-3)):
        times = np.arange(0.5, 1.5 + dt / 2, dt)
        g = make_grid(n, cfg.L, grid_N)
        whole = verify.classical_residual(times, verify.apply_many(times, f.sampled(g)), cfg.margin)
        assert row.meta[key] == whole
    grids = {k: row.meta[k] for k in ("N", "fine_N", "dt", "fine_dt", "refined")}
    assert grids == {"N": N, "fine_N": 2 * N - 2, "dt": 1e-2, "fine_dt": 5e-3, "refined": [0]}
    assert row.passed


@pytest.mark.parametrize(
    "n, N, eps, lo, hi",
    [
        *((n, N, 1e-3, lo, hi) for n, N in ((1, 257), (2, 33)) for lo, hi in ((0.8, 0.9), (0.82, 0.88), (1.234, 1.5))),
        (1, 257, 3e-5, 0.82, 0.88),  # at n=2, N=33 even 1e-4 passes, as with the whole fine run
    ],
)
def test_time_local_symbol_mutant_fails_the_classical_row(monkeypatch, n, N, eps, lo, hi):
    # the symbol times 1 + eps at real times in (lo, hi) on both grids,
    # through the one path decision.  The coarse residual rises where the
    # defect starts and ends, and that sends the fine run there.
    path = semigroup._path

    def mutated(z, g, method=None):
        m, factor = path(z, g, method)
        t = complex(z)
        if m is Method.SPECTRAL and t.imag == 0 and lo < t.real < hi:
            factor = factor * (1 + eps) ** (1 / g.n)
        return m, factor

    row = lambda: run_suite(SuiteConfig(n=n, N=N, checks=("classical",))).results
    (unmutated,) = row()
    assert unmutated.passed and unmutated.meta["refined"] == [0]
    monkeypatch.setattr(semigroup, "_path", mutated)
    (mutated_row,) = row()
    assert mutated_row.name == "classical[gaussian;dt=1e-2]" and not mutated_row.passed
    # coarse window j spans [0.5 + 0.01 j, 0.52 + 0.01 j]
    refined = mutated_row.meta["refined"]
    assert refined[0] == 0 and any(lo < 0.52 + 0.01 * j and 0.5 + 0.01 * j < hi for j in refined[1:])


def test_traced_functions_resolve_on_the_package():
    # the benchmark's tracer patches these names, so a rename would otherwise
    # break only a traced benchmark run
    import importlib.util

    import gausspoisson

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(getattr(gausspoisson, module, None), attr, None)), f"{module}.{attr}"
    with tracing.Tracer() as tracer:
        gausspoisson.kernel.kernel_tail_bound(1.0, 0.5, 2.0, 1, 0)
    assert [span.name for span in tracer.spans] == ["kernel.tail_bound"]
    # the tracer patches the class's own __call__: without one it would be
    # handed type.__call__
    assert "__call__" in vars(gausspoisson.fields.GaussianMixture)
    mix = gausspoisson.random_gaussian_mixture(2, rng=1)
    with tracing.Tracer() as tracer:
        mix.sampled(make_grid(2, 3.0, 9))
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("grid_field.sample", "fields.mixture_eval")
    assert inner.parent is outer
