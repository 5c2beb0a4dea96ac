"""Determinism across interpreter hash seeds.

``replay`` and ``optimize`` must not depend on string-hash order (set
or dict iteration over hashed keys): the same command under two
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
], ids=["replay", "optimize"])
def test_output_is_byte_identical_across_hash_seeds(args, tmp_path):
    first = _run(args, 1, tmp_path)
    second = _run(args, 2, tmp_path)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[1]  # a non-empty artifact was written


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
