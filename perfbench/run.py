"""Benchmark of the gausspoisson library and command line.

Run from the root of the repository:

    python3 perfbench/run.py --workload verify-2d --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify-2d``: ``run_suite`` on ``configs/reference.cfg`` at ``grid.n=2``,
  ``grid.N=129``.
* ``evolve-2d-csv``: ``gausspoisson evolve`` (``cli.main``) at n=2, N=513 on a
  seeded 2-component Gaussian mixture: one complex time by quadrature, then
  three real times from that output.
* ``verify-1d-ref``: ``run_suite`` on ``configs/reference.cfg`` as it stands
  (n=1, N=1025).  It runs and traces like the others but is not listed in
  BENCHMARK.json: its ``wall_s`` (median of ~0.6-1.0 s suites) spread by
  20-27% of the median over ten seeds on a 2-vCPU VM whose speed swings
  1.6-2x over tens of seconds, too wide for a 25% regression bound.

The loop is closed: one caller runs the workload's iterations back to back in
this process, repeating until ``--seconds`` have passed (at least one
iteration).  Set-up runs in fresh processes several times and the median is
``setup_s``.  BLAS/OpenMP thread pools are pinned to one thread.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` runs the untraced loop, then a traced loop
that records spans around each module's public functions (see
``tracing.py``), then, for the verify workloads, each check group alone; it
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
every sample and the environment goes to ``.perfbench_out/results/``, and the
spans of a traced run to ``.perfbench_out/spans/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the set-up processes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

# fresh-process set-ups per run; evolve's writes a 263k-row CSV each time
SETUP_REPEATS = {"verify-1d-ref": 3, "verify-2d": 3, "evolve-2d-csv": 3}
SETUP_TIMEOUT_S = 120

# the seed's CHECK_GROUPS, one traced metric each
CHECK_GROUPS = (
    "weights",
    "kernel-mass",
    "fourier-symbol",
    "semigroup-law",
    "path-agreement",
    "gaussian-closed-form",
    "kernel-reproduction",
    "continuity",
    "holomorphy",
    "contour",
    "generator",
    "quotient-order",
    "mild",
    "operator-bound",
    "classical",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="gausspoisson benchmark")
    parser.add_argument("--workload", required=True, choices=("verify-1d-ref", "verify-2d", "evolve-2d-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test grids only")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def run_setup(name: str, scale: str, seed: int, work: Path) -> list:
    """Time each fresh-process set-up from spawn to exit; the last one's
    input files are the ones the workload reads."""
    times = []
    for _ in range(SETUP_REPEATS[name]):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, scale, str(seed), str(work)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}:\n{proc.stderr}")
    return times


@dataclasses.dataclass
class Loop:
    samples: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last_output: object = None


def measure(wl, seconds: float, tracer=None) -> Loop:
    """Run iterations back to back until ``seconds`` have passed; time only
    ``iterate()``, then check its output.  An exception fails every operation
    of that iteration."""
    loop = Loop()
    start = time.perf_counter()
    while not loop.samples or time.perf_counter() - start < seconds:
        wl.prepare()
        if tracer is not None:
            tracer.mark()
        timed = len(loop.samples)
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                output = wl.iterate()
            loop.samples.append(time.perf_counter() - t0)
            attempted, failed = wl.check(output)
            loop.last_output = output
        except Exception:
            traceback.print_exc()
            if len(loop.samples) == timed:
                loop.samples.append(time.perf_counter() - t0)
            attempted = failed = wl.operations
        loop.attempted += attempted
        loop.failed += failed
    return loop


def group_times(wl) -> dict:
    """Each check group run alone, untraced, next to the whole suite."""
    out = {}
    for group in CHECK_GROUPS:
        cfg = dataclasses.replace(wl.cfg, checks=(group,))
        t0 = time.perf_counter()
        wl.run(cfg)
        out[group] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "gausspoisson" / "__init__.py").is_file() or not (ROOT / "configs" / "reference.cfg").is_file():
        print("error: run from the root of a gausspoisson checkout (src/gausspoisson or configs/ missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("" if args.scale == "full" else f"-{args.scale}")
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = run_setup(args.workload, args.scale, args.seed, work)
        wl = workloads.load(args.workload, args.scale, args.seed, work)
        plain = measure(wl, args.seconds)
        wall = statistics.median(plain.samples)
        attempted, failed = plain.attempted, plain.failed
        extra = {}
        if args.trace:
            tracer = tracing.Tracer()
            traced = measure(wl, args.seconds, tracer=tracer)
            attempted += traced.attempted
            failed += traced.failed
            metrics = tracing.layer_metrics(tracer.spans, len(traced.samples))
            is_verify = isinstance(wl, workloads.VerifyWorkload)
            groups = group_times(wl) if is_verify else {}
            for group in CHECK_GROUPS:
                metrics[f"verify.group.{group}_s"] = (groups.get(group, 0.0), "s")
            metrics["verify.suite_s"] = (wall if is_verify else 0.0, "s")
            verdicts = wl.verdicts(plain.last_output) if is_verify and plain.last_output is not None else {}
            metrics["verify.checks_failed"] = (len(verdicts.get("checks_failed", [])), "count")
            metrics["verify.checks_crashed"] = (len(verdicts.get("checks_crashed", [])), "count")
            metrics["trace.overhead_s"] = (statistics.median(traced.samples) - wall, "s")
            metrics["error_rate"] = (failed / attempted, "ratio")
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(OUT / "spans" / f"{tag}.jsonl")
            extra = {"traced_samples": traced.samples, "verdicts": verdicts, "group_s": groups}
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment(),
        "wall_samples_s": plain.samples,
        "setup_samples_s": setup,
        **extra,
        "result": result,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<40} {value:.6g} {unit}")
    print(f"{args.workload}  wall_s samples: {len(plain.samples)}; correct: {result['correct']} ({failed}/{attempted} failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
