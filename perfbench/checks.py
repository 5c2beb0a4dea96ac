"""Correctness checks on the program's outputs.

Each check returns a list of human-readable failures (empty when the
output is right), so a run can count every failure in ``failed`` and
the tests can feed deliberately broken outputs through the same code.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple


def digest(value: Any) -> str:
    """SHA-256 of a JSON rendering; floats print with all their digits."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strictly_rising(points: Sequence[Tuple[float, float]],
                    label: str) -> List[str]:
    """A Pareto frontier sorted by cost must rise strictly in both axes."""
    failures = []
    for index in range(1, len(points)):
        (cost_a, value_a), (cost_b, value_b) = points[index - 1], points[index]
        if not (cost_a < cost_b and value_a < value_b):
            failures.append(
                f"{label}: frontier point {index} ({cost_b!r}, {value_b!r}) "
                f"does not rise above ({cost_a!r}, {value_a!r})")
    return failures


def check_search(label: str, perf_model: Any, frontier: Sequence[Any],
                 assemble: Any) -> List[str]:
    """Every frontier point re-assembles to exactly its reported TTFT and
    QPS/chip, and the frontier rises strictly in both."""
    if not frontier:
        return [f"{label}: empty frontier"]
    failures = []
    for index, perf in enumerate(frontier):
        again = assemble(perf_model, perf.schedule)
        if again.ttft != perf.ttft or again.qps_per_chip != perf.qps_per_chip:
            failures.append(
                f"{label}: frontier point {index} reports ttft={perf.ttft!r} "
                f"qps/chip={perf.qps_per_chip!r} but re-assembles to "
                f"ttft={again.ttft!r} qps/chip={again.qps_per_chip!r}")
    failures += strictly_rising(
        [(perf.ttft, perf.qps_per_chip) for perf in frontier], label)
    return failures


def check_hetero(label: str, result: Any) -> List[str]:
    """The split-generation frontier rises strictly and never loses to
    the best homogeneous plan."""
    failures = strictly_rising(
        [(point.ttft, point.qps_per_dollar) for point in result.frontier],
        label)
    if not result.hetero_gain >= 1.0:
        failures.append(f"{label}: hetero_gain {result.hetero_gain!r} < 1")
    return failures


def check_des(label: str, submitted: int, completed: int, report: Any,
              tiers: Mapping[str, Mapping[str, int]]) -> List[str]:
    """Nothing submitted to the DES is lost: overall and per tier."""
    failures = []
    if completed != submitted:
        failures.append(f"{label}: {completed} of {submitted} requests "
                        f"completed after the run")
    if report.offered != submitted or report.completed != submitted:
        failures.append(f"{label}: report counts {report.completed} "
                        f"completed / {report.offered} offered, expected "
                        f"{submitted}")
    for tier, counts in tiers.items():
        if counts["completed"] != counts["submitted"]:
            failures.append(f"{label}: tier {tier} completed "
                            f"{counts['completed']} of {counts['submitted']}")
        section = report.tiers.get(tier, {})
        if section.get("completed") != counts["submitted"]:
            failures.append(f"{label}: report tier {tier} completed "
                            f"{section.get('completed')}, expected "
                            f"{counts['submitted']}")
    return failures


def check_serve(label: str, submits: int, acks: int, completions: int,
                errors: int, report: Dict[str, Any] | None) -> List[str]:
    """Every live submit is acked and completed, no error line came
    back, and the final report accounts for every ack."""
    failures = []
    if acks != submits:
        failures.append(f"{label}: {acks} acks for {submits} submits")
    if completions != submits:
        failures.append(f"{label}: {completions} completions for "
                        f"{submits} submits")
    if errors:
        failures.append(f"{label}: {errors} error line(s)")
    envelope = (report or {}).get("report") or {}
    completed = envelope.get("spec", {}).get("completed")
    if completed != acks:
        failures.append(f"{label}: final report completed={completed!r}, "
                        f"acks={acks}")
    return failures


def check_repeatable(label: str, digests: Sequence[str]) -> List[str]:
    """Every repetition of a deterministic pass produced the same
    simulated outputs."""
    if len(set(digests)) > 1:
        return [f"{label}: simulated outputs differ across repetitions "
                f"({len(set(digests))} distinct digests in {len(digests)})"]
    return []
