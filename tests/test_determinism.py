"""Determinism across interpreter hash seeds.

``replay``, ``optimize`` and ``whatif`` must not depend on string-hash
order (set or dict iteration over hashed keys): the same command under two
``PYTHONHASHSEED`` values has to write byte-identical output, both on
stdout and in its ``--json`` artifact. The capacity-planning example
(the split-generation search's shipped caller) is held to the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _run(args, hash_seed, workdir):
    json_path = workdir / f"out-{hash_seed}.json"
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args, "--json", str(json_path)],
        env=_env(hash_seed), cwd=workdir, capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    # The artifact path is echoed on stdout; neutralize it so only the
    # simulated output is compared.
    stdout = result.stdout.replace(str(json_path).encode(), b"<json>")
    return stdout, json_path.read_bytes()


@pytest.mark.parametrize("args", [
    ["replay", "--case", "i", "--llm", "8B", "--duration", "5"],
    ["optimize", "--case", "i", "--llm", "8B"],
    ["whatif", "--case", "i", "--llm", "1B", "--servers", "16",
     "--duration", "2", "--schedules", "1", "--replicas", "1,2"],
], ids=["replay", "optimize", "whatif"])
def test_output_is_byte_identical_across_hash_seeds(args, tmp_path):
    first = _run(args, 1, tmp_path)
    second = _run(args, 2, tmp_path)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[1]  # a non-empty artifact was written


def test_fleet_replay_of_identity_trace_is_byte_identical_across_hash_seeds(
        tmp_path):
    """Session keys and tier names are strings: routing pins and tier
    tables must not follow their hash order."""
    from repro.hardware import ClusterSpec
    from repro.rago.session import OptimizerSession
    from repro.schema import case_i_hyperscale
    from repro.workloads import (ClosedLoopDriver, UserPopulation,
                                 resolve_tier_policy)

    session = OptimizerSession(case_i_hyperscale("1B"),
                               ClusterSpec(num_servers=16))
    engine = session.serving_engine()
    population = UserPopulation(users=16, think_time=0.2, seed=3,
                                tiers=resolve_tier_policy("free-paid"))
    ClosedLoopDriver(population, engine, horizon=2.0).run()
    trace_path = tmp_path / "tiered.jsonl"
    engine.recorded_trace(scenario="sessions").to_jsonl(str(trace_path))
    args = ["replay", "--case", "i", "--llm", "1B", "--servers", "16",
            "--trace", str(trace_path), "--replicas", "2",
            "--routing", "session-affine"]
    first = _run(args, 1, tmp_path)
    second = _run(args, 2, tmp_path)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert b"fairness:" in first[0]  # the tier tables were reported


def test_capacity_planning_example_is_byte_identical_across_hash_seeds(
        tmp_path):
    outputs = []
    for hash_seed in (1, 2):
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "capacity_planning.py")],
            env=_env(hash_seed), cwd=tmp_path, capture_output=True,
            timeout=300)
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]
