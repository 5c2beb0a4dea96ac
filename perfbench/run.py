#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds a traced pass whose spans give the per-layer metrics
and ``trace.overhead_frac``, and writes the spans as Chrome trace-event
JSON to ``trace-<workload>.json`` next to the result file. Every run
appends its record (host info, every figure, the failures) to the result
file, ``perfbench/out/results.jsonl`` unless ``--results`` names another,
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed correctness check
makes the run exit 1.

Compare two result files (for example the parent commit's and a
change's)::

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
``perfbench/METRICS.md`` says what each workload measures and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("search", "replay-open", "fleet-closed", "serve-live")
#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def import_program() -> float:
    """Import every layer from this checkout's ``src``; return seconds.

    Refuses to run against any other copy of the program, so a
    directory without ``src/repro`` fails instead of measuring an
    installed package.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program to measure: {SRC}/repro is "
                         f"missing")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.rago.hetero  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.workloads  # noqa: F401
    seconds = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return seconds


def make_workload(name: str, seconds: float, tiny: bool):
    import workloads

    if name == "search":
        return workloads.SearchWorkload(tiny)
    if name == "replay-open":
        return workloads.ReplayOpenWorkload(tiny)
    if name == "fleet-closed":
        return workloads.FleetClosedWorkload(tiny)
    import serve_live

    return serve_live.ServeLiveWorkload(ROOT, seconds, tiny)


def host_info() -> Dict[str, Any]:
    """Result metadata: not gated, so growing the program is not a
    regression."""
    import numpy

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            # A ref packed into .git/packed-refs stays unresolved (None).
            path = os.path.join(ROOT, ".git", ref[5:])
            commit = None
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    lines += sum(1 for _ in handle)
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "src_repro_lines": lines}


def run_passes(workload, state, budget: float, minimum: int) -> List[Any]:
    """Run at least ``minimum`` untraced passes, then more while the next
    one is expected (from the median pass so far) to end within
    ``budget``."""
    import workloads

    passes: List[Any] = []
    took: List[float] = []
    start = time.perf_counter()
    while len(passes) < minimum or (time.perf_counter() - start
                                    + statistics.median(took) <= budget):
        began = time.perf_counter()
        passes.append(workload.run_pass(state, workloads.NULL_TRACER))
        gc.collect()
        took.append(time.perf_counter() - began)
    return passes


def measure(name: str, seed: int, seconds: float, traced: bool,
            tiny: bool) -> Dict[str, Any]:
    """Run one workload; return the run's record."""
    import checks
    import workloads

    import_s = import_program()
    # A traced run gives its untraced passes half the time, then runs
    # one traced pass.
    budget = seconds / 2 if traced else seconds
    workload = make_workload(name, budget, tiny)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, workloads.NULL_TRACER)
        setups.append(time.perf_counter() - start)
    passes = run_passes(workload, state, budget,
                        1 if traced else workload.min_passes)
    runs = list(passes)
    layers: Dict[str, float] = {}
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        traced_pass = workload.run_pass(workload.setup(seed, tracer), tracer)
        runs.append(traced_pass)
        # Figures an untraced pass already measured (serve-live's client
        # side) come from it; the rest from the traced pass.
        layers = dict(traced_pass.layers, **passes[0].layers)
        layers["workloads.trace_s"] = tracer.outermost_seconds(
            "workloads.trace")

        def basis(result):
            return result.seconds if result.basis is None else result.basis

        layers["trace.overhead_frac"] = basis(traced_pass) / statistics.median(
            basis(result) for result in passes) - 1.0

    digests = [result.digest for result in runs if result.digest is not None]
    unrepeatable = checks.check_repeatable(name, digests)
    failures = [line for result in runs for line in result.failures]
    failures += unrepeatable
    attempted = sum(result.attempted for result in runs)
    failed = min(attempted,
                 sum(result.failed for result in runs) + len(unrepeatable))

    pass_setups = [s for result in passes for s in result.setup_samples]
    setup_s = import_s + statistics.median(setups)
    if pass_setups:
        setup_s += statistics.median(pass_setups)
    rusage = resource.RUSAGE_CHILDREN if name == "serve-live" \
        else resource.RUSAGE_SELF
    e2e = {
        "setup_s": setup_s,
        "work_s": statistics.median(result.seconds for result in passes),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
    }
    named: Dict[str, float] = {}
    for key in passes[0].values:
        named[key] = statistics.median(result.values[key] for result in passes)
    named["failed_frac"] = failed / attempted
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(traced), "size": "tiny" if tiny else "full",
            "host": host_info(), "correct": not failures and failed == 0,
            "attempted": attempted, "failed": failed, "failures": failures,
            "e2e": e2e, "named": named, "layers": layers,
            "passes": len(passes),
            "pass_seconds": [result.seconds for result in passes],
            "digest": digests[0] if digests else None,
            "_tracer": tracer}


def result_line(record: Dict[str, Any], benchmark: Dict[str, Any]
                ) -> Dict[str, Any]:
    """The run's last stdout line: end-to-end metrics untraced, every
    per-layer metric traced (0 where the workload does not reach the
    layer)."""
    if record["trace"]:
        figures = dict(record["named"], **record["layers"])
        wanted = benchmark["per_layer"]
    else:
        figures = record["e2e"]
        wanted = benchmark["end_to_end"]
    metrics = {entry["name"]: {"value": float(figures.get(entry["name"], 0.0)),
                               "unit": entry["unit"]}
               for entry in wanted}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_human(record: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    entries = {entry["name"]: entry for entry in
               benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({record['passes']} untraced pass(es), "
          f"{record['attempted']} operations, {record['failed']} failed)")
    sections = [("end to end", record["e2e"]),
                ("workload figures", record["named"])]
    if record["trace"]:
        sections.append(("per layer (traced pass)", record["layers"]))
    for title, figures in sections:
        print(f"  {title}:")
        for key, value in figures.items():
            entry = entries.get(key, {"unit": "", "better": ""})
            print(f"    {key:<34} {value:>14.6g} {entry['unit']:<9} "
                  f"{entry['better']}")
    for line in record["failures"]:
        print(f"  FAILED: {line}")


def verdict(values_a: List[float], values_b: List[float], lower: bool,
            bound: Optional[float]) -> str:
    """How B's runs of one metric compare with A's.

    A metric whose run-to-run spread exceeds its bound (on either side)
    is unresolved unless every run of one side beats every run of the
    other; a metric without a bound is only reported.
    """
    qa, qb = stats.quartiles(values_a), stats.quartiles(values_b)
    if bound is None:
        return "same" if values_a == values_b else "(ungated)"
    change = (qb[1] - qa[1]) / qa[1]
    worse = change if lower else -change
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if lower:
        all_better = max(values_b) < min(values_a)
        all_worse = min(values_b) > max(values_a)
    else:
        all_better = min(values_b) > max(values_a)
        all_worse = max(values_b) < min(values_a)
    if spread > bound and not (all_better or all_worse):
        return "unresolved (spread above bound)"
    if worse > bound:
        return "WORSE (beyond bound)"
    if -worse > spread and (all_better or spread <= bound):
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, benchmark: Dict[str, Any]) -> int:
    """Print medians and quartiles of two result files' untraced runs,
    one row per workload and metric: the end-to-end metrics with a
    verdict against their bound, then the workload's ungated figures."""

    def load(path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def cell(values):
        q1, median, q3 = stats.quartiles(values)
        return f"{median:>10.4g} [{q1:.4g}, {q3:.4g}]"

    entries = {entry["name"]: entry for entry in
               benchmark["end_to_end"] + benchmark["per_layer"]}
    runs_a, runs_b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<13} {'metric':<25} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'B vs A':>8}  verdict")
    for name in WORKLOADS:
        a = [r for r in runs_a if r["workload"] == name and not r["trace"]]
        b = [r for r in runs_b if r["workload"] == name and not r["trace"]]
        if not a or not b:
            continue
        rows = [("e2e", entry["name"]) for entry in benchmark["end_to_end"]]
        rows += [("named", key) for key in sorted(a[0]["named"])
                 if all(key in r["named"] for r in a + b)]
        for section, metric in rows:
            values_a = [r[section][metric] for r in a]
            values_b = [r[section][metric] for r in b]
            entry = entries.get(metric, {"better": "lower"})
            median_a = stats.quartiles(values_a)[1]
            change = ((stats.quartiles(values_b)[1] - median_a) / median_a
                      if median_a else 0.0)
            outcome = verdict(values_a, values_b, entry["better"] == "lower",
                              entry.get("bound") if section == "e2e"
                              else None)
            print(f"{name:<13} {metric:<25} {cell(values_a):<32} "
                  f"{cell(values_b):<32} {change:>+8.1%}  {outcome}")
        same = {r["seed"]: r["digest"] for r in a}
        pairs = [(same[r["seed"]], r["digest"]) for r in b
                 if r["seed"] in same and r["digest"] is not None]
        if pairs:
            identical = all(x == y for x, y in pairs)
            print(f"{name:<13} simulated outputs "
                  f"{'identical' if identical else 'DIFFER'} on "
                  f"{len(pairs)} shared seed(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (for the tests)")
    parser.add_argument("--results", default=os.path.join(OUT,
                                                          "results.jsonl"),
                        help="result file each run appends its record to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        return compare(*args.compare, benchmark)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size == "tiny")
    tracer = record.pop("_tracer")
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    if tracer is not None:
        path = os.path.join(os.path.dirname(os.path.abspath(args.results)),
                            f"trace-{args.workload}.json")
        tracer.write_chrome_trace(path)
        record["chrome_trace"] = os.path.relpath(path, ROOT)
    with open(args.results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print_human(record, benchmark)
    print(json.dumps(result_line(record, benchmark)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
