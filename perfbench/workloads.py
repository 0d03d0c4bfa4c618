"""The benchmark's workloads: input set-up, one measured iteration, output checks.

Each workload drives ``gausspoisson`` from outside through its public API or
its command line.  Inputs come only from the workload seed: the verify
workloads pass it as the config ``seed``, the evolve workload draws its input
field from it.

A workload object offers ``iterate()`` (the measured step) and
``check(output)``, which returns ``(attempted, failed)`` operation counts.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

import gausspoisson
from gausspoisson import cli, semigroup, verify

HERE = Path(__file__).resolve().parent
EXPECTED_ROWS = HERE / "expected_rows.txt"

# Grid overrides per workload and scale.  "full" is what the benchmark
# measures; "tiny" keeps the self-test quick.
GRIDS = {
    "verify-1d-ref": {"full": {}, "tiny": {"grid.N": "129"}},
    "verify-2d": {"full": {"grid.n": "2", "grid.N": "129"}, "tiny": {"grid.n": "2", "grid.N": "17"}},
    "evolve-2d-csv": {"full": {"grid.n": "2", "grid.L": "12", "grid.N": "513"}, "tiny": {"grid.n": "2", "grid.L": "12", "grid.N": "65"}},
}

# evolve steps: one complex time by quadrature, then real times (spectral by
# default) from that output; the oracle for every state is the closed-form
# evolution of the input mixture at the summed time
EVOLVE_ZETA = "1+0.5i"
EVOLVE_TIMES = (0.25, 0.5, 1.0)
# max |output - oracle| / max |oracle|.  The spectral steps are periodic: the
# field spreads with time, and at t=1 their wrap error reaches up to 6.4e-6
# of the field maximum on seeds 0-4 (quadrature output: below 1e-13)
EVOLVE_REL_TOL = 1e-4


def input_mixture(seed: int, n: int):
    """The evolve workload's input: a seeded 2-component Gaussian mixture."""
    return gausspoisson.random_gaussian_mixture(n, m=2, terms=3, rng=np.random.default_rng(seed))


def write_inputs(name: str, scale: str, seed: int, work: Path) -> None:
    """Set-up: parse the configuration and write the workload's input files.

    For the verify workloads this is the reference config with the grid
    overrides and the seed; for evolve it is the input field CSV.
    """
    overrides = GRIDS[name][scale]
    if name.startswith("verify"):
        mapping = cli.read_config(Path("configs") / "reference.cfg")
        mapping.update(overrides)
        mapping["seed"] = str(seed)
        verify.SuiteConfig.from_mapping(mapping)
        cli.write_config(mapping, work / "workload.cfg")
    else:
        grid = gausspoisson.make_grid(int(overrides["grid.n"]), float(overrides["grid.L"]), int(overrides["grid.N"]))
        gausspoisson.write_field_csv(input_mixture(seed, grid.n).sampled(grid), work / "input.csv")


def load(name: str, scale: str, seed: int, work: Path):
    if name.startswith("verify"):
        return VerifyWorkload(work)
    return EvolveWorkload(work, seed, GRIDS[name][scale])


class VerifyWorkload:
    """``run_suite`` on the workload config; one operation per report row."""

    def __init__(self, work: Path):
        self.cfg = verify.SuiteConfig.from_mapping(cli.read_config(work / "workload.cfg"))
        self.expected = EXPECTED_ROWS.read_text().split()
        self.operations = len(self.expected)
        self.reference_csv = None

    def prepare(self) -> None:
        pass

    def iterate(self):
        return self.run(self.cfg)

    @staticmethod
    def run(cfg):
        return verify.run_suite(cfg)

    def check(self, report):
        """A row fails when its residual is not finite (a crashed check), when
        its name is not the expected one at that position, or when its CSV
        line differs from the first checked report (reports are deterministic).
        A FAIL verdict on a finite residual is the program's answer, not a
        failed operation."""
        rows = report.results
        lines = report.to_csv_text().splitlines()[1:]
        if self.reference_csv is None:
            self.reference_csv = lines
        failed = 0
        for i in range(max(len(rows), len(self.expected))):
            if i >= len(rows) or i >= len(self.expected):
                failed += 1
                continue
            row = rows[i]
            if (
                not np.isfinite(row.residual)
                or row.name != self.expected[i]
                or i >= len(self.reference_csv)
                or lines[i] != self.reference_csv[i]
            ):
                failed += 1
        return max(len(rows), len(self.expected)), failed

    @staticmethod
    def verdicts(report) -> dict:
        crashed = [r.name for r in report.results if not np.isfinite(r.residual)]
        failing = [r.name for r in report.results if np.isfinite(r.residual) and not r.passed]
        return {"checks_failed": failing, "checks_crashed": crashed}


class EvolveWorkload:
    """Two ``gausspoisson evolve`` command lines per iteration.

    Operations: the two CLI calls and the four output fields (``field.csv``
    and three trajectory states).  The first iteration's outputs are checked
    against the closed-form oracle and read back with ``read_trajectory``;
    later iterations must reproduce them byte for byte.
    """

    def __init__(self, work: Path, seed: int, grid: dict):
        self.input = work / "input.csv"
        self.out_zeta = work / "evolved"
        self.out_times = work / "trajectory"
        self.grid = gausspoisson.make_grid(int(grid["grid.n"]), float(grid["grid.L"]), int(grid["grid.N"]))
        self.mixture = input_mixture(seed, self.grid.n)
        self.operations = 2 + len(self._outputs())
        self.reference_digests = None

    def _outputs(self):
        states = [self.out_times / f"state_{i:04d}.csv" for i in range(len(EVOLVE_TIMES))]
        return [self.out_zeta / "field.csv"] + states

    def prepare(self) -> None:
        """Remove the previous iteration's outputs (outside the timed step)."""
        for d in (self.out_zeta, self.out_times):
            shutil.rmtree(d, ignore_errors=True)

    def iterate(self):
        zeta = cli.main(["evolve", "--input", str(self.input), "--zeta", EVOLVE_ZETA, "--out", str(self.out_zeta)])
        times = ",".join(format(t, "g") for t in EVOLVE_TIMES)
        traj = cli.main(["evolve", "--input", str(self.out_zeta / "field.csv"), "--times", times, "--out", str(self.out_times)])
        return zeta, traj

    def check(self, exit_codes):
        outputs = self._outputs()
        failed = sum(1 for rc in exit_codes if rc != 0)
        attempted = len(exit_codes) + len(outputs)
        digests = [_file_digest(p) for p in outputs]
        if self.reference_digests is not None:
            failed += sum(1 for a, b in zip(digests, self.reference_digests) if a is None or a != b)
            return attempted, failed
        bad = self._oracle_failures()
        if bad == 0:
            self.reference_digests = digests
        return attempted, failed + bad

    def _oracle_failures(self) -> int:
        zeta = verify.parse_complex(EVOLVE_ZETA)
        expected = [zeta] + [zeta + t for t in EVOLVE_TIMES]
        try:
            fields = [gausspoisson.read_field_csv(self._outputs()[0])]
            traj = semigroup.read_trajectory(self.out_times)
        except (OSError, ValueError):
            return len(expected)
        if traj.times != EVOLVE_TIMES:
            return len(expected)
        fields += list(traj.states)
        bad = 0
        for z, f in zip(expected, fields):
            oracle = self.mixture.evolved(z).sampled(self.grid).values
            if f.grid != self.grid or f.values.shape != oracle.shape:
                bad += 1
                continue
            err = np.abs(f.values - oracle).max()
            bad += int(not err <= EVOLVE_REL_TOL * np.abs(oracle).max())
        return bad


def _file_digest(path: Path):
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "blake2b").hexdigest()
    except OSError:
        return None
