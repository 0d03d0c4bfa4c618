"""Summarize benchmark results files into one JSON document.

    python3 perfbench/summarize.py OUTPUT.json [RESULTS_DIR]

Reads every full-scale ``*.json`` written by ``run.py`` (default directory
``.perfbench_out/results``) and writes, per workload, each untraced metric's
values over the runs with their median, quartiles and spread (quartile
distance over the median), each traced metric as measured, and the
environment of the runs.  The committed baseline in ``perfbench/baseline/``
was made this way.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(results_dir: Path) -> dict:
    records = [json.loads(p.read_text()) for p in sorted(results_dir.glob("*.json"))]
    records = [r for r in records if r["scale"] == "full"]
    out = {"environment": records[0]["environment"] if records else {}, "workloads": {}}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = out["workloads"].setdefault(rec["workload"], {"untraced": {}, "traced": {}, "runs": []})
        result = rec["result"]
        entry["runs"].append(
            {
                "seed": rec["seed"],
                "trace": rec["trace"],
                "seconds": rec["seconds"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "wall_samples": len(rec["wall_samples_s"]),
            }
        )
        target = entry["traced"] if rec["trace"] else entry["untraced"]
        for name, metric in result["metrics"].items():
            target.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
        if rec["trace"] and rec.get("verdicts"):
            entry["verdicts"] = rec["verdicts"]
    for entry in out["workloads"].values():
        for metric in list(entry["untraced"].values()) + list(entry["traced"].values()):
            values = metric["values"]
            metric["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metric.update(q1=q1, q3=q3, spread=(q3 - q1) / metric["median"] if metric["median"] else None)
    return out


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    results_dir = Path(argv[2]) if len(argv) == 3 else Path(".perfbench_out") / "results"
    Path(argv[1]).write_text(json.dumps(summarize(results_dir), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
