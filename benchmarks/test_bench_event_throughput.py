"""DES hot-path throughput guard (the CI events/sec floor).

Replays the canonical 100k-request trace (see :mod:`repro.sim.bench`)
through the slab-backed engine under pytest-benchmark and pins two
things:

* an absolute events/sec floor, generous enough for slow shared CI
  runners but far above what any accidental reintroduction of
  per-event allocation churn would produce;
* a >= 3x events/sec speedup over the closure-per-event reference
  engine (:class:`~repro.sim.oracle.OracleServingEngine`) on the same
  trace, kept honest by the parity suite's guarantee that both engines
  process identical event counts.

Both sides take the best of several rounds so one noisy-neighbor round
cannot fail the gate; a real regression slows every round.
"""

from repro.sim.bench import (
    canonical_network,
    canonical_trace,
    format_result,
    replay_trace,
)
from repro.sim.oracle import OracleServingEngine

#: Absolute floor, roughly half the slowest replay observed on a
#: loaded development box (and ~20% of a quiet one) -- headroom for
#: CI hardware, not for regressions.
EVENTS_PER_SEC_FLOOR = 25_000.0

#: The acceptance bar: the slab engine must replay the canonical
#: trace at >= 3x the oracle's events/sec.
SPEEDUP_FLOOR = 3.0


def test_bench_canonical_replay_floor_and_speedup(benchmark):
    perf_model, schedule = canonical_network()
    trace = canonical_trace()

    fast_runs = []

    def run():
        result = replay_trace(perf_model, schedule, trace)
        fast_runs.append(result)
        return result

    benchmark.pedantic(run, iterations=1, rounds=3)
    fast = max(fast_runs, key=lambda r: r.events_per_sec)

    oracle_runs = [replay_trace(perf_model, schedule, trace,
                                engine_cls=OracleServingEngine)
                   for _ in range(2)]
    oracle = max(oracle_runs, key=lambda r: r.events_per_sec)

    print()
    print(format_result(fast, "engine (best of 3)"))
    print(format_result(oracle, "oracle (best of 2)"))
    speedup = fast.events_per_sec / oracle.events_per_sec
    print(f"  speedup       : {speedup:.2f}x events/sec")

    assert fast.completed == trace.num_requests
    assert fast.events == oracle.events  # honest ratio: same work
    assert fast.events_per_sec >= EVENTS_PER_SEC_FLOOR, (
        f"hot path regressed below the CI floor: "
        f"{fast.events_per_sec:,.0f} < {EVENTS_PER_SEC_FLOOR:,.0f} "
        f"events/sec")
    assert speedup >= SPEEDUP_FLOOR, (
        f"engine only {speedup:.2f}x the oracle "
        f"(floor {SPEEDUP_FLOOR}x)")
