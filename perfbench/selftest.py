"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of the repository.  It passes when

* every workload, untraced and traced, prints a last line with exactly the
  result keys, a correct verdict, and every metric BENCHMARK.json names for
  that mode, each with its declared unit; and
* a deliberately corrupted output makes each workload's correctness check
  count a failed operation.

Exit code 0 on success, 1 on any failed expectation.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def check_printed_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: last line is a JSON object")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']}/{result['attempted']} failed")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared}, f"{label}: every declared metric printed, no other")
            for m in declared:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       f"{label}: {m['name']} in {m['unit']}")


def check_corruption_is_counted(work: Path) -> None:
    for name in ("verify-1d-ref", "evolve-2d-csv"):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads.write_inputs(name, "tiny", 1, work)
        wl = workloads.load(name, "tiny", 1, work)
        wl.prepare()
        output = wl.iterate()
        expect(wl.check(output)[1] == 0, f"{name}: clean output passes")
        if name.startswith("verify"):
            rows = list(output.results)
            rows[3] = dataclasses.replace(rows[3], residual=float("inf"), passed=False)
            expect(wl.check(dataclasses.replace(output, results=tuple(rows)))[1] == 1, f"{name}: crashed row counted")
            rows = list(output.results)
            rows[0], rows[1] = rows[1], rows[0]
            expect(wl.check(dataclasses.replace(output, results=tuple(rows)))[1] == 2, f"{name}: reordered rows counted")
            rows = list(output.results)
            rows[5] = dataclasses.replace(rows[5], residual=rows[5].residual * 2 + 1e-3)
            expect(wl.check(dataclasses.replace(output, results=tuple(rows)))[1] == 1, f"{name}: changed residual counted")
        else:
            state = wl.out_times / "state_0001.csv"
            lines = state.read_text().splitlines()
            cells = lines[len(lines) // 2].split(",")
            cells[2] = format(float(cells[2]) + 1e-2, ".17g")
            lines[len(lines) // 2] = ",".join(cells)
            state.write_text("\n".join(lines) + "\n")
            expect(wl.check(output)[1] == 1, f"{name}: corrupted state counted against the first iteration")
            fresh = workloads.load(name, "tiny", 1, work)
            expect(fresh.check(output)[1] == 1, f"{name}: corrupted state counted by the closed-form oracle")
            expect(fresh.check((0, 2))[1] == 2, f"{name}: failing exit code counted beside the corrupted state")
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(spec)
    check_corruption_is_counted(ROOT / ".perfbench_out" / "selftest")
    print(f"{len(FAILURES)} failed expectation(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
