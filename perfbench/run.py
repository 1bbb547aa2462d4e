#!/usr/bin/env python3
"""Benchmark of the groupshap command line: three workloads, end-to-end and
per-layer metrics, with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; without it the
benchmark exits 2. Each workload is driven through ``groupshap.cli.main`` in
this process. One iteration runs the workload's commands once; after a
warm-up iteration at tiny size, iterations repeat until their command time
adds up to --seconds, and figures are medians over iterations. setup_s is
timed in fresh interpreters: import, input generation and the warm-up.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced iterations over the same budget and prints the per-layer metrics.
The last line of stdout is one JSON object; the full record (environment,
samples, output digests, failures) is written under .bench_out/, and the
spans of a traced run beside it. perfbench/README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_small", "mc_large", "pipeline")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# end-to-end figures that only some workloads have; reported from the
# untraced iterations of a traced run, and printed by every run
WORKLOAD_FIGURES = {
    "reps_per_s": "1/s",
    "train_s": "s",
    "explain_rows_per_s": "rows/s",
    "exact_rows_per_s": "rows/s",
}
TRACE_FIGURES = {"trace.overhead_frac": "ratio", "trace.valid": "bool"}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="command time to measure")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# set-up: imports and input generation, timed in fresh interpreters


def setup_probe(args) -> int:
    """Child mode: time `import groupshap.cli`, input generation and warm-up."""
    start = time.perf_counter()
    import workloads

    probe_dir = Path(args.setup_probe)
    wl = workloads.make(args.workload, args.seed, probe_dir / "run", args.tiny)
    wl.generate_inputs()
    warm = warm_up(args.workload, args.seed, probe_dir)
    elapsed = time.perf_counter() - start
    inputs = {p.name: workloads.sha256(p) for p in wl.inputs}
    print(json.dumps({"setup_s": elapsed, "inputs": inputs, "failures": warm.failures}))
    return 0


def warm_up(workload: str, seed: int, workdir: Path) -> Iteration:
    """One iteration at tiny size, so first-call work is done before timing."""
    import workloads

    wl = workloads.make(workload, seed, workdir / "warm-up", tiny=True)
    wl.generate_inputs()
    return run_iteration(wl)


def run_setup_probes(args, workdir: Path, n: int) -> list[dict]:
    records = []
    for i in range(n):
        probe_dir = workdir / f"probe{i}"
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0", "--setup-probe", str(probe_dir),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return records


# --------------------------------------------------------------------------
# iterations


@dataclass
class Iteration:
    times: dict[str, float]
    failures: list[str]
    notes: list[str]
    digests: dict[str, str]
    spans: list | None = None

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_cli(argv, tracer):
    from groupshap import cli

    out, err = io.StringIO(), io.StringIO()
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, (argv,))
        except Exception:  # a traceback is a failed operation, not the end of the run
            rc = "traceback"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, err.getvalue(), elapsed


def run_iteration(wl, tracer=None) -> Iteration:
    import workloads

    wl.start_iteration()
    times, failures, notes, digests = {}, [], [], {}
    for cmd in wl.commands:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        rc, err, times[cmd.name] = run_cli(cmd.argv, tracer)
        if rc != 0:
            failures.append(f"{cmd.name}: exit {rc}: {err.strip()[-500:]}")
        else:
            try:
                note = cmd.check()
                if note:
                    notes.append(f"{cmd.name}: {note}")
            except workloads.CheckFailed as exc:
                failures.append(f"{cmd.name}: {exc}")
            except Exception as exc:  # an unreadable output is a failed check
                failures.append(f"{cmd.name}: check raised {exc!r}")
        for path in cmd.outputs:
            digests[path.name] = workloads.sha256(path) if path.exists() else "missing"
    spans = tracer.take() if tracer is not None else None
    return Iteration(times, failures, notes, digests, spans)


def measure(wl, seconds: float, trace: bool) -> tuple[list[Iteration], list[Iteration]]:
    """Iterations until their command time reaches `seconds`.

    A traced run alternates untraced and traced iterations and ends on a
    traced one, so both kinds see the same machine state.
    """
    import tracing

    tracer = tracing.Tracer() if trace else None
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    measured = 0.0
    while True:
        use_tracer = trace and len(traced) < len(untraced)
        it = run_iteration(wl, tracer if use_tracer else None)
        (traced if use_tracer else untraced).append(it)
        measured += it.wall
        if measured >= seconds and len(traced) == (len(untraced) if trace else 0):
            return untraced, traced


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


# --------------------------------------------------------------------------
# environment


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# main


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupshap" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probes = run_setup_probes(args, workdir, SETUP_PROBES if not args.trace else 1)

    import groupshap
    import tracing
    import workloads

    if SRC not in Path(groupshap.__file__).resolve().parents:
        print(f"perfbench: groupshap imported from {groupshap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, workdir / "run", args.tiny)
    wl.generate_inputs()
    inputs = {p.name: workloads.sha256(p) for p in wl.inputs}
    failures = []
    for i, rec in enumerate(probes):
        if rec["inputs"] != inputs:
            failures.append(f"set-up probe {i}: inputs differ from those of the same seed")
        failures.extend(f"set-up probe {i} warm-up: {msg}" for msg in rec["failures"])

    warm = warm_up(args.workload, args.seed, workdir)
    untraced, traced = measure(wl, args.seconds, bool(args.trace))
    iterations = [warm] + untraced + traced
    for it in iterations:
        failures.extend(it.failures)
    attempted = len(probes) + sum(len(it.times) for it in iterations)
    figures = {k: 0.0 for k in WORKLOAD_FIGURES}
    figures.update(_median_by_key([wl.derived(it.times) for it in untraced]))
    wall = statistics.median(it.wall for it in untraced)
    e2e = {
        "setup_s": statistics.median(rec["setup_s"] for rec in probes),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args.seed),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "defects": sorted({note for it in iterations for note in it.notes}),
        "setup_samples_s": [rec["setup_s"] for rec in probes],
        "iterations": [
            {"kind": kind, "times": it.times, "wall": it.wall}
            for kind, its in (("warm-up", [warm]), ("untraced", untraced), ("traced", traced))
            for it in its
        ],
        "digests": {"inputs": inputs, "outputs": untraced[-1].digests},
        "end_to_end": e2e,
        "workload_figures": figures,
    }

    if args.trace:
        layers = _median_by_key([tracing.layer_metrics(it.spans) for it in traced])
        layers.update(figures)
        layers["trace.overhead_frac"] = statistics.median(it.wall for it in traced) / wall - 1.0
        valid = all(it.digests == untraced[0].digests for it in untraced + traced)
        layers["trace.valid"] = 1.0 if valid else 0.0
        units = dict(tracing.LAYER_UNITS, **WORKLOAD_FIGURES, **TRACE_FIGURES)
        metrics = _metric_block(layers, units)
        record["per_layer"] = layers
        spans_file = workdir / "spans.jsonl"
        write_spans(spans_file, traced)
        record["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        metrics = _metric_block(e2e, END_TO_END)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = result
    # inputs and outputs are known by their digests; keep the record and spans
    for bulky in ("run", "warm-up"):
        shutil.rmtree(workdir / bulky, ignore_errors=True)
    record_file = OUT / f"{workdir.name}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(args, record, metrics, record_file)
    print(json.dumps(result))
    return 0


def write_spans(path: Path, traced: list[Iteration]) -> None:
    with open(path, "w") as fh:
        for i, it in enumerate(traced):
            for s in it.spans:
                info = list(s.info) if isinstance(s.info, tuple) else s.info
                fh.write(json.dumps({"iteration": i, **s._asdict(), "info": info}) + "\n")


def print_summary(args, record, metrics, record_file: Path) -> None:
    n = len(record["iterations"])
    res_failed = len(record["failures"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} iterations (1 warm-up), {res_failed} failures")
    for msg in record["failures"][:10]:
        print(f"  FAILED {msg}")
    for msg in record["defects"]:
        print(f"  DEFECT {msg}")
    shown = dict(metrics)
    if not args.trace:
        figures = record["workload_figures"]
        for name, unit in WORKLOAD_FIGURES.items():
            shown[name] = {"value": figures[name] or "n/a", "unit": unit}
        shown["failed_frac"] = {"value": record["failed_frac"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"  {name:<42} {m['value']!s:>24} {m['unit']}")
    if args.trace and not record["per_layer"]["trace.valid"]:
        print("  trace INVALID: traced outputs differ from untraced outputs")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"record {os.path.relpath(record_file, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
