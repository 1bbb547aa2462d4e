#!/usr/bin/env python3
"""Summarize benchmark records: median and quartiles of each metric per
workload, and each end-to-end spread against its bound in BENCHMARK.json.

    python3 perfbench/summarize.py .bench_out/*-trace0.json [--out summary.json]

Spread is (q3 - q1) / median over the records of one workload, with the
quartiles of statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import ROOT, WORKLOAD_FIGURES


def summarize(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        values = defaultdict(list)
        for rec in recs:
            for name, m in rec["result"]["metrics"].items():
                values[name].append((m["value"], m["unit"]))
            if trace == 0:
                for name, value in rec["workload_figures"].items():
                    if value:
                        values[name].append((value, WORKLOAD_FIGURES[name]))
                values["failed_frac"].append((rec["failed_frac"], "ratio"))
        metrics = {}
        for name, pairs in values.items():
            xs = [v for v, _ in pairs]
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            med = statistics.median(xs)
            metrics[name] = {
                "unit": pairs[0][1],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": [rec["seed"] for rec in recs],
            "seconds": recs[0]["seconds"],
            "all_correct": all(rec["result"]["correct"] for rec in recs),
            "failed": sum(rec["result"]["failed"] for rec in recs),
            "attempted": sum(rec["result"]["attempted"] for rec in recs),
            "defects": sorted({d for rec in recs for d in rec.get("defects", [])}),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+", type=Path)
    p.add_argument("--out", type=Path, help="write the summary JSON here")
    args = p.parse_args(argv)
    records = [json.loads(path.read_text()) for path in args.records]
    summary = {"environment": records[0]["environment"], "workloads": summarize(records)}
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload, runs in summary["workloads"].items():
        for kind, run in runs.items():
            print(f"{workload} {kind}: {len(run['seeds'])} runs, "
                  f"{run['failed']}/{run['attempted']} failed")
            for name, m in run["metrics"].items():
                bound = bounds.get(name) if kind == "trace0" else None
                flag = ""
                if bound is not None:
                    flag = f"  bound {bound}" + ("  OVER BOUND" if m["spread"] > bound else
                                                 "  over bound/3" if m["spread"] > bound / 3 else "")
                print(f"  {name:<42} median {m['median']:<14.6g} spread {m['spread']:.4f}"
                      f" {m['unit']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
