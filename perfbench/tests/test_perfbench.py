"""Tests of the repository benchmark, ``perfbench/run.py``.

Every workload runs at its tiny size through the same command the
benchmark is run with, once untraced and once traced. The tests check
the result line against ``BENCHMARK.json``, the human-readable figures,
the Chrome trace and the compare mode, and that a corrupted search
frontier or a request that never completes fails the run.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("search", "replay-open", "fleet-closed", "serve-live")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)
UNITS = {entry["name"]: entry["unit"]
         for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

#: The figures each workload reports on every run, besides failed_frac.
FIGURES = {
    "search": ("search_s", "search_best_qps_per_chip"),
    "replay-open": ("sim_req_per_s", "sim_ttft_p50_ms", "sim_ttft_p99_ms",
                    "slo_attainment"),
    "fleet-closed": ("sim_req_per_s", "sim_ttft_p50_ms", "sim_ttft_p99_ms",
                     "slo_attainment"),
    "serve-live": ("serve_ack_p50_ms", "serve_ack_p99_ms", "serve_max_rate"),
}

#: Per-layer metrics a traced run of each workload must measure (> 0).
LAYERS = {
    "search": ("search.case_iv_s", "search.hetero_iv_s",
               "search.case_iv.self_s", "search.hetero_iv.self_s",
               "search.case_iv.plans", "search.case_iv.candidates",
               "search.case_iv.frontier", "stage_perf.calls",
               "stage_perf.s", "assembly.calls", "pareto.calls",
               "pareto.in_points"),
    "replay-open": ("workloads.trace_s", "engine.submit_s",
                    "engine.drain_s", "engine.events",
                    "engine.host_us_per_event", "metrics.report_s",
                    "sim.queue.decode.p95_ms", "sim.util.prefix"),
    "fleet-closed": ("sessions.driver_s", "fleet.submit_calls",
                     "fleet.submit_s", "fleet.step_calls", "fleet.step_s",
                     "routing.select_calls", "routing.select_s",
                     "policies.admit_calls", "engine.events",
                     "metrics.report_s", "sim.tier.paid.attainment",
                     "sim.fairness.jain", "sim.replica.imbalance"),
    "serve-live": ("serve.ack_p99_ms.r200", "serve.completion_lag_p99_ms",
                   "serve.stats_rtt_p99_ms", "serve.acks",
                   "serve.completions", "client.gen_lag_p99_ms"),
}


def _run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _tiny(workload, trace, results):
    return ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", "--results",
            str(results)]


def _result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    results = tmp_path_factory.mktemp("perfbench") / "results.jsonl"
    runs = {(workload, trace): _run(_tiny(workload, trace, results))
            for workload in WORKLOADS for trace in (0, 1)}
    return results, runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tiny_runs, workload):
    proc = tiny_runs[1][workload, 0]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in line["metrics"].items()
            } == {entry["name"]: entry["unit"]
                  for entry in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_figure_prints_with_its_unit(tiny_runs, workload):
    output = tiny_runs[1][workload, 0].stdout
    names = [entry["name"] for entry in BENCHMARK["end_to_end"]]
    names += list(FIGURES[workload]) + ["failed_frac"]
    for name in names:
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(UNITS[name])}\s"
        assert re.search(pattern, output, re.MULTILINE), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tiny_runs, workload):
    results, runs = tiny_runs
    proc = runs[workload, 1]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _result_line(proc)
    assert line["correct"] is True
    metrics = line["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]}
    for name in LAYERS[workload] + FIGURES[workload]:
        assert metrics[name]["value"] > 0, name
    with open(results.parent / f"trace-{workload}.json",
              encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        assert event["args"]["parent"] < event["args"]["span"]


def test_compare_prints_every_workload_and_metric(tiny_runs):
    results = tiny_runs[0]
    proc = _run(["--compare", str(results), str(results)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in WORKLOADS:
        for entry in BENCHMARK["end_to_end"]:
            assert re.search(rf"^{re.escape(workload)}\s+"
                             rf"{re.escape(entry['name'])}\s", proc.stdout,
                             re.MULTILINE), (workload, entry["name"])
    assert "WORSE" not in proc.stdout
    assert "DIFFER" not in proc.stdout


def _faulty_run(tmp_path, patch, args):
    """Run the benchmark in a process where ``patch`` (source code) has
    broken the program first."""
    script = tmp_path / "faulty.py"
    script.write_text(textwrap.dedent(f"""\
        import runpy
        import sys

        sys.path.insert(0, {os.path.join(ROOT, 'src')!r})
        """) + textwrap.dedent(patch) + textwrap.dedent(f"""\
        sys.argv = [{RUN!r}] + {args!r}
        runpy.run_path({RUN!r}, run_name="__main__")
        """))
    return _run([], script=str(script))


def test_corrupted_frontier_fails_the_run(tmp_path):
    proc = _faulty_run(tmp_path, """\
        import dataclasses
        from repro.rago.session import OptimizerSession

        optimize = OptimizerSession.optimize

        def corrupted(self, *args, **kwargs):
            result = optimize(self, *args, **kwargs)
            point = result.frontier[-1]
            result.frontier[-1] = dataclasses.replace(
                point, qps_per_chip=point.qps_per_chip * 1.5)
            return result

        OptimizerSession.optimize = corrupted
        """, _tiny("search", 0, tmp_path / "results.jsonl"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = _result_line(proc)
    assert line["correct"] is False and line["failed"] >= 1
    assert "re-assembles to" in proc.stdout


def test_request_that_never_completes_fails_the_run(tmp_path):
    proc = _faulty_run(tmp_path, """\
        from repro.sim.engine import ServingEngine

        submit = ServingEngine.submit
        dropped = set()

        def dropping(self, *args, **kwargs):
            if self.offered == 7 and id(self) not in dropped:
                dropped.add(id(self))
                return None
            return submit(self, *args, **kwargs)

        ServingEngine.submit = dropping
        """, _tiny("replay-open", 0, tmp_path / "results.jsonl"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    line = _result_line(proc)
    assert line["correct"] is False and line["failed"] >= 1
    assert "requests completed" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "search", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
