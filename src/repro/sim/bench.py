"""Canonical DES hot-path benchmark harness.

One fixed workload -- a Case I hyperscale network replaying a seeded
800 QPS poisson trace -- shared by everything that measures the
engine's throughput: the ``repro bench`` subcommand and the CI
events/sec floor in ``benchmarks/test_bench_event_throughput.py``.
Keeping the scenario in one place means every number quoted anywhere
(README, CI artifacts, benchmark JSON) is the same replay.

Events/sec is the honest figure of merit here: the shipped engine
processes the *same* event count as the reference
:class:`~repro.sim.oracle.OracleServingEngine` on this workload (one
arrival per request, one advance per decode step, one free + one
complete per batch dispatch), so an engine/oracle events-per-second
ratio is a pure wall-clock speedup, not an event-count artifact.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Type

from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim.engine import ServingEngine
from repro.sim.serving import replay
from repro.workloads import poisson_trace
from repro.workloads.traces import RequestTrace

__all__ = [
    "BenchResult",
    "canonical_network",
    "canonical_trace",
    "replay_trace",
    "profile_replay",
    "format_result",
]

#: Arrival rate of the canonical trace (requests per second). The
#: loaded regime is deliberate: the oracle's per-step O(live-requests)
#: bookkeeping is exactly what the slab path removes, so a lightly
#: loaded trace would understate (and a saturated one overstate) the
#: speedup a real sweep sees.
CANONICAL_RATE_QPS = 800.0

#: Requests of the canonical CI replay (approximate: the trace is a
#: seeded poisson draw over ``requests / rate`` seconds).
CANONICAL_REQUESTS = 100_000


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one timed replay of the canonical workload.

    Attributes:
        requests: Requests submitted.
        completed: Requests that finished decoding.
        events: DES events the engine processed.
        wall_seconds: Wall-clock seconds for submit + drain.
        events_per_sec: ``events / wall_seconds``.
        requests_per_sec: ``completed / wall_seconds``.
    """

    requests: int
    completed: int
    events: int
    wall_seconds: float
    events_per_sec: float
    requests_per_sec: float


def canonical_network() -> Tuple[RAGPerfModel, Schedule]:
    """The benchmark deployment: Case I hyperscale 8B on 32 servers."""
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


def canonical_trace(requests: int = CANONICAL_REQUESTS,
                    seed: int = 42) -> RequestTrace:
    """A seeded poisson trace sized to roughly ``requests`` arrivals."""
    duration = requests / CANONICAL_RATE_QPS
    return poisson_trace(CANONICAL_RATE_QPS, duration, seed=seed,
                         mean_decode_len=128)


def replay_trace(perf_model: RAGPerfModel, schedule: Schedule,
                 trace: RequestTrace,
                 engine_cls: Type[ServingEngine] = ServingEngine,
                 ) -> BenchResult:
    """Time one :func:`~repro.sim.serving.replay` of the whole trace.

    ``engine_cls`` selects the engine under test: the shipped
    :class:`ServingEngine`, or a subclass such as the reference
    :class:`~repro.sim.oracle.OracleServingEngine`.
    """
    engine = engine_cls(perf_model, schedule)
    start = time.perf_counter()  # simlint: allow[no-wallclock-in-sim]
    replay(engine, trace)
    wall = time.perf_counter() - start  # simlint: allow[no-wallclock-in-sim]
    wall = max(wall, 1e-9)
    events = engine.events_processed
    return BenchResult(
        requests=trace.num_requests,
        completed=engine.completed,
        events=events,
        wall_seconds=wall,
        events_per_sec=events / wall,
        requests_per_sec=engine.completed / wall,
    )


def profile_replay(perf_model: RAGPerfModel, schedule: Schedule,
                   trace: RequestTrace, top: int = 15,
                   ) -> Tuple[BenchResult, str]:
    """cProfile one replay; returns (result, top-N table text).

    The wall clock inside ``result`` includes profiler overhead, so
    quote events/sec from an unprofiled :func:`replay_trace` run and
    use this table for *where the time goes*.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    result = replay_trace(perf_model, schedule, trace)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return result, stream.getvalue()


def format_result(result: BenchResult,
                  label: Optional[str] = None) -> str:
    """One aligned summary block for CLI / CI log output."""
    lines = []
    if label:
        lines.append(label)
    lines.extend([
        f"  requests      : {result.requests}",
        f"  completed     : {result.completed}",
        f"  events        : {result.events}",
        f"  wall seconds  : {result.wall_seconds:.3f}",
        f"  events/sec    : {result.events_per_sec:,.0f}",
        f"  requests/sec  : {result.requests_per_sec:,.0f}",
    ])
    return "\n".join(lines)
