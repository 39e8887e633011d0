"""Summarize benchmark result records across seeds.

    python3 perfbench/summarize.py [--results DIR] [--out FILE]

Reads the records ``run.py`` writes to ``perfbench/out/results/`` and, per
workload and metric, reports the median over seeds, the quartiles and the
spread (third minus first quartile, as a share of the median) that the
acceptance rule uses: ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def summarize(results_dir):
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, environment, failed = {}, defaultdict(list), {}, defaultdict(int)
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        key = (record["workload"], "trace" if record["trace"] else "plain")
        seeds[key].append(record["seed"])
        failed[key] += record["failed"]
        environment = record["environment"]
        for name, metric in record["metrics"].items():
            values[key][name].append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for (workload, mode), metrics in sorted(values.items()):
        rows = {}
        for name, vals in metrics.items():
            row = {"unit": units[name], "median": statistics.median(vals), "runs": len(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3)
                row["spread"] = (q3 - q1) / row["median"] if row["median"] else 0.0
            rows[name] = row
        out.setdefault(workload, {})[mode] = {
            "seeds": sorted(seeds[(workload, mode)]),
            "failed": failed[(workload, mode)],
            "metrics": rows,
        }
    environment = {k: v for k, v in environment.items() if k != "seed"}
    return {"environment": environment, "workloads": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=os.path.join(BENCH_DIR, "out", "results"))
    parser.add_argument("--out", default=None, help="also write the summary here as JSON")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    for workload, modes in summary["workloads"].items():
        for mode, block in modes.items():
            print(f"{workload} [{mode}] seeds {block['seeds']} failed {block['failed']}")
            for name, row in block["metrics"].items():
                spread = f"  spread {row['spread']:.4f}" if "spread" in row else ""
                print(f"  {name:44s} {row['median']:.6g} {row['unit']}{spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
