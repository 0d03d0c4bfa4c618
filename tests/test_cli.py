"""Command line: config parsing, subcommands, exit codes, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausspoisson

from gausspoisson import (
    Method,
    SuiteConfig,
    apply,
    field_rule,
    make_grid,
    read_field_csv,
    read_trajectory,
    sample,
    write_field_csv,
)
from gausspoisson import cli
from gausspoisson.cli import ConfigError, main, read_config, write_config

FAST = "grid.N=257\nchecks=weights,contour\n"


def test_read_config_parses_flat_keys(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("# comment\n\ngrid.N = 257\nseed=3\n")
    assert read_config(p) == {"grid.N": "257", "seed": "3"}


def test_read_config_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("grid.N=257\nnonsense line\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        read_config(p)
    p.write_text("a=1\na=2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config(p)
    p.write_text("=3\n")
    with pytest.raises(ConfigError, match="empty key"):
        read_config(p)
    with pytest.raises(ConfigError, match="cannot read"):
        read_config(tmp_path / "missing.cfg")


def test_write_config_round_trips(tmp_path):
    mapping = {"grid.N": "257", "zetas": "1,0.5+0.5i", "seed": "3"}
    p = tmp_path / "w.cfg"
    write_config(mapping, p)
    assert read_config(p) == mapping


def test_evolve_single_time_matches_library(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\n")
    out = tmp_path / "run"
    code = main(
        ["evolve", "--config", str(cfg), "--rule", "gaussian", "--zeta", "0.5+0.25i",
         "--out", str(out)]
    )
    assert code == 0
    got = read_field_csv(out / "field.csv")
    g = make_grid(1, 12.0, 257)
    expect = apply(0.5 + 0.25j, sample(g, field_rule("gaussian")))
    assert np.max(np.abs(got.values - expect.values)) < 1e-15


def test_evolve_trajectory_and_zero_time(tmp_path):
    out = tmp_path / "traj"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\n")
    code = main(
        ["evolve", "--config", str(cfg), "--rule", "gaussian", "--times", "0,0.25,0.5",
         "--out", str(out)]
    )
    assert code == 0
    traj = read_trajectory(out)
    assert traj.times == (0.0, 0.25, 0.5)
    g = make_grid(1, 12.0, 257)
    f = sample(g, field_rule("gaussian"))
    assert np.array_equal(traj.states[0].values, f.values)


def test_evolve_input_file(tmp_path):
    g = make_grid(1, 6.0, 129)
    f = sample(g, field_rule("gaussian"))
    src = tmp_path / "start.csv"
    write_field_csv(f, src)
    out = tmp_path / "run"
    code = main(["evolve", "--input", str(src), "--zeta", "0.5", "--out", str(out)])
    assert code == 0
    got = read_field_csv(out / "field.csv")
    assert got.grid == g  # grid comes from the file, not the config


def test_evolve_header_only_input_exits_two(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("x1,re_1,im_1\r\n")
    assert main(["evolve", "--input", str(src), "--zeta", "0.1", "--out", str(tmp_path / "run")]) == 2


def test_evolve_input_validation(tmp_path, capsys):
    out = tmp_path / "x"
    gaussian = ["--rule", "gaussian"]
    cases = [
        ["--zeta", "1"],  # no input source
        [*gaussian, "--input", "f.csv", "--zeta", "1"],  # both input sources
        gaussian,  # neither zeta nor times
        [*gaussian, "--zeta", "1", "--times", "1"],  # both zeta and times
        ["--rule", "bogus", "--zeta", "1"],  # unknown rule
        [*gaussian, "--zeta", "1", "--method", "magic"],  # unknown method
        # bad times: malformed, negative, out of order
        [*gaussian, "--zeta", "1 2"],
        [*gaussian, "--zeta", "abc"],
        [*gaussian, "--times", "1,abc"],
        [*gaussian, "--times", "-1,0"],
        [*gaussian, "--times", "1,0.5"],
    ]
    for args in cases:
        assert main(["evolve", *args, "--out", str(out)]) == 2, args
        # nothing is written, not even the output directory
        assert not out.exists(), args
    # an infinite time is blamed as such, not as a non-finite field value;
    # trajectory times are checked before anything is evolved
    for flag, value, message in (
        ("--zeta", "inf", "complex time must be finite"),
        ("--times", "0,inf", "times must be finite, got inf"),
    ):
        capsys.readouterr()
        assert main(["evolve", *gaussian, flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_flag_overrides_config_value(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\nevolve.zeta=1\nevolve.rule=constant\n")
    out = tmp_path / "run"
    code = main(
        ["evolve", "--config", str(cfg), "--rule", "gaussian", "--out", str(out)]
    )
    assert code == 0
    effective = read_config(out / "effective.cfg")
    assert effective["evolve.rule"] == "gaussian"
    assert effective["evolve.zeta"] == "1"


def test_verify_passes_and_is_reproducible(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    captured = capsys.readouterr()
    assert "checks passed" in captured.out
    # re-running from the emitted effective config reproduces the report
    assert main(["verify", "--config", str(out1 / "effective.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_text() == (out2 / "report.csv").read_text()
    assert (out1 / "effective.cfg").read_text() == (out2 / "effective.cfg").read_text()


def test_verify_report_has_documented_header(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST)
    out = tmp_path / "run"
    main(["verify", "--config", str(cfg), "--out", str(out)])
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "check,anchor,residual,tolerance,pass"


def test_verify_failing_check_exits_one(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST + "tol.contour=1e-30\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1


def test_verify_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus.key=1\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert main(["verify", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "r")]) == 2
    # continuity geometry, the interior margin, the grid, the seed, the time
    # samples, the weight exponent and the tolerances are rejected when the
    # config is parsed, before any check runs
    for bad in (
        "rays=1.3", "radii=0.25,0.5", "radii=", "margin=0.6", "grid.N=1", "grid.L=0", "grid.L=inf",
        "seed=-1", "zetas=0,1", "zetas=1,inf", "radii=inf,0.5", "tol.contour=nan", "tol.contour=-1",
        "zetas=", "rays=", "space.k=inf",
    ):
        cfg.write_text(FAST + bad + "\n")
        out = tmp_path / "bad"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.csv").exists()
    # a margin that leaves an empty interior window on an even N
    cfg.write_text("grid.N=4\nmargin=0.45\nchecks=weights,contour\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2
    assert not (tmp_path / "empty" / "report.csv").exists()


def test_verify_infinite_p_exits_two(tmp_path):
    # every Lp norm read 1.0 at p=inf, so the semigroup-law and mild rows
    # failed with residual 1; the paper's Lp spaces have a finite p
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST + "space.kind=Lp\nspace.p=inf\n")
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["evolve", "--rule", "gaussian", "--zeta", "0.5"],
        ["verify"],
        ["table", "--check", "continuity"],
    ],
    ids=["evolve", "verify", "table"],
)
def test_output_under_a_regular_file_exits_two(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=129\nchecks=weights\nradii=0.5,0.25\nrays=0\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*command, "--config", str(cfg), "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_makes_its_output_directory_before_running_the_suite(tmp_path, capsys, monkeypatch):
    def must_not_run(cfg):
        raise AssertionError("the suite ran before --out was made")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_two(tmp_path):
    assert main([]) == 2  # missing subcommand
    assert main(["verify"]) == 2  # missing --out
    assert main(["frobnicate", "--out", "x"]) == 2


def test_table_continuity(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\nradii=0.5,0.25,0.125\nrays=0\n")
    out = tmp_path / "tab"
    assert main(["table", "--check", "continuity", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "continuity_table.csv").read_text().splitlines()
    assert lines[0] == "ray,radius,residual"
    residuals = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(residuals) == 3
    assert residuals[0] > residuals[-1]


def test_table_generator_and_mild(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=513\n")
    out_g = tmp_path / "gen"
    assert main(["table", "--check", "generator", "--config", str(cfg), "--out", str(out_g)]) == 0
    lines = (out_g / "generator_table.csv").read_text().splitlines()
    assert lines[0] == "dt,r1,r2,r3"
    assert len(lines) == 5
    out_m = tmp_path / "mild"
    assert main(["table", "--check", "mild", "--config", str(cfg), "--out", str(out_m)]) == 0
    lines = (out_m / "mild_table.csv").read_text().splitlines()
    assert lines[0] == "steps,residual"
    res = [float(line.split(",")[1]) for line in lines[1:]]
    assert res == sorted(res, reverse=True)  # refinement helps monotonically


def test_table_check_from_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\nradii=0.5,0.25\nrays=0\ntable.check=continuity\n")
    out = tmp_path / "tab"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "continuity_table.csv").exists()
    assert read_config(out / "effective.cfg")["table.check"] == "continuity"


def test_table_requires_known_check(tmp_path):
    assert main(["table", "--out", str(tmp_path / "x")]) == 2


COMMAND_KEYS = "evolve.rule=constant\nevolve.zeta=1\nevolve.method=spectral\ntable.check=mild\n"


def test_each_subcommand_reads_the_command_keys_and_uses_its_own(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.N=257\nchecks=weights,contour\nradii=0.5,0.25\nrays=0\n" + COMMAND_KEYS)
    suite = SuiteConfig(N=257, checks=("weights", "contour"), radii=(0.5, 0.25), rays=(0.0,)).to_mapping()
    runs = {
        "verify": ([], {}),
        "table": (["--check", "continuity"], {"table.check": "continuity"}),  # the flag wins
        "evolve": (["--rule", "gaussian"], {"evolve.rule": "gaussian", "evolve.zeta": "1", "evolve.method": "spectral"}),
    }
    for command, (flags, own) in runs.items():
        out = tmp_path / command
        assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 0
        assert read_config(out / "effective.cfg") == suite | own
    assert (tmp_path / "table" / "continuity_table.csv").exists()


@pytest.mark.parametrize("key", ["evolve.methd", "evolve.tims", "table.chek", "out"])
@pytest.mark.parametrize("command", [["evolve", "--rule", "gaussian", "--zeta", "1"], ["verify"], ["table", "--check", "mild"]])
def test_unknown_command_key_exits_two_from_every_subcommand(tmp_path, capsys, key, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{FAST}{key}=spectral\n")
    out = tmp_path / "run"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown configuration key {key!r}" in capsys.readouterr().err
    assert not out.exists()  # no report.csv, effective.cfg or field


def test_effective_config_rerun_is_identical(tmp_path):
    out1 = tmp_path / "a"
    assert main(["evolve", "--rule", "gaussian", "--zeta", "1", "--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["evolve", "--config", str(out1 / "effective.cfg"), "--out", str(out2)]) == 0
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    assert (out1 / "effective.cfg").read_bytes() == (out2 / "effective.cfg").read_bytes()


def test_verify_report_identical_across_blas_threads(tmp_path):
    # per-axis quadrature runs on BLAS matrix products, so the report must not
    # depend on how many threads the BLAS library uses.  N=65 because OpenBLAS
    # keeps products of 33x33 matrices on one thread whatever the setting;
    # the groups are the ones that evolve by quadrature
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid.n=2\ngrid.N=65\nchecks=path-agreement,holomorphy,contour,operator-bound\n")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        code = "import sys; from gausspoisson.cli import main; sys.exit(main(sys.argv[1:]))"
        done = _run_python(code, "verify", "--config", str(cfg), "--out", str(out),
                           OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert done.returncode in (0, 1), done.stderr
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_import_loads_no_scipy():
    # scipy.fft and scipy.special are imported where they are used; importing
    # either with the package would add about 0.3 s to every command's start
    code = "import sys, gausspoisson; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_loads_no_concurrent_futures():
    # the CSV writer's and the suite's threads use ``threading``; importing
    # ``concurrent.futures`` with the package would add about 16 ms to every
    # command's start
    code = "import sys, gausspoisson; print('concurrent.futures' in sys.modules)"
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_m_runs_the_cli(tmp_path):
    # ``python -m gausspoisson`` is the console script without an install
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gausspoisson", *args], env=_env(), capture_output=True, text=True, timeout=300
        )

    shown = run("--help")
    assert shown.returncode == 0, shown.stderr
    assert "evolve" in shown.stdout
    bad = run("evolve", "--out", str(tmp_path / "out"), "--bogus")
    assert bad.returncode == 2
    assert "unrecognized arguments: --bogus" in bad.stderr
    assert not (tmp_path / "out").exists()


def test_demos_run(tmp_path):
    # the demos are the package's public-API callers outside the tests; all
    # five start at once, one BLAS thread each
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert len(demos) == 5
    env = _env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    running = [
        subprocess.Popen([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in demos
    ]
    try:
        for demo, process in zip(demos, running):
            _, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, f"{demo.name}: {stderr}"
    finally:  # none outlives a failure
        for process in running:
            process.kill()
            process.wait()


def _env(**extra):
    """The environment of a fresh interpreter that imports this checkout's
    package, with extra variables."""
    src = str(Path(gausspoisson.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_python(code, *args, **env):
    """Run ``python -c code args`` in a fresh interpreter that imports this
    checkout's package, with extra environment variables."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_env(**env), capture_output=True, text=True, timeout=300
    )
