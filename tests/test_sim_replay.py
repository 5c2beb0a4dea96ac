"""The open-loop trace driver carries request identity everywhere.

``repro.sim.replay`` is the one trace-to-engine submission path. A
recorded free/paid closed-loop trace must report the same tiers, and
keep every session on one replica under session-affine routing, whether
it replays through one engine, a fixed fleet, an autoscaled fleet or
``repro replay --replicas``.
"""

import json

import pytest

from repro import config
from repro.cli import main
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim import (
    Autoscaler,
    FleetEngine,
    ServingEngine,
    ServingSimulator,
    SLOTarget,
    parse_autoscale_spec,
    replay,
)
from repro.workloads import (
    ClosedLoopDriver,
    UserPopulation,
    resolve_tier_policy,
)

_SLO = SLOTarget(ttft=0.5, tpot=0.05)


@pytest.fixture(scope="module")
def network():
    pm = RAGPerfModel(case_i_hyperscale("8B"), ClusterSpec(num_servers=32))
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


@pytest.fixture(scope="module")
def tiered_trace(network):
    """A recorded free/paid closed-loop trace (identity on every
    request)."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    population = UserPopulation(users=24, think_time=0.1, seed=11,
                                session_len=3,
                                tiers=resolve_tier_policy("free-paid"))
    ClosedLoopDriver(population, engine, horizon=3.0).run()
    trace = engine.recorded_trace(scenario="sessions")
    assert trace.has_identity
    return trace


def _tiers(trace):
    return sorted({request.tier for request in trace.requests})


def _assert_sessions_sticky(fleet):
    homes = {}
    for slot, engine in enumerate(fleet.engines):
        for record in engine.records:
            homes.setdefault(record.session_id, set()).add(slot)
    assert homes and None not in homes
    assert all(len(slots) == 1 for slots in homes.values()), homes


def test_single_engine_replay_reports_every_tier(network, tiered_trace):
    pm, schedule = network
    report = replay(ServingEngine(pm, schedule),
                    tiered_trace).report(tiered_trace, slo=_SLO)
    assert sorted(report.tiers) == _tiers(tiered_trace) == ["free", "paid"]
    # ServingSimulator is the same driver over a fresh engine.
    assert ServingSimulator(pm, schedule).run(tiered_trace,
                                              slo=_SLO) == report


def test_session_affine_fleet_keeps_identity(network, tiered_trace):
    pm, schedule = network
    single = ServingSimulator(pm, schedule).run(tiered_trace, slo=_SLO)
    fleet = replay(FleetEngine(pm, schedule, replicas=2,
                               routing="session-affine"), tiered_trace)
    report = fleet.report(tiered_trace, slo=_SLO)
    assert sorted(report.tiers) == sorted(single.tiers)
    assert report.completed == tiered_trace.num_requests
    _assert_sessions_sticky(fleet)


def test_autoscaler_run_trace_keeps_identity(network, tiered_trace):
    pm, schedule = network
    single = ServingSimulator(pm, schedule).run(tiered_trace, slo=_SLO)
    fleet = FleetEngine(pm, schedule, replicas=2, routing="session-affine")
    autoscaler = Autoscaler.from_config(
        fleet, parse_autoscale_spec("policy=queue-depth,min=2,max=2"),
        slo=_SLO)
    autoscaler.run_trace(tiered_trace)
    report = fleet.report(tiered_trace, slo=_SLO)
    assert sorted(report.tiers) == sorted(single.tiers)
    assert report.completed == tiered_trace.num_requests
    _assert_sessions_sticky(fleet)


def test_cli_fleet_replay_keeps_identity(tiered_trace, tmp_path, capsys):
    trace_path = tmp_path / "tiered.jsonl"
    tiered_trace.to_jsonl(str(trace_path))
    base = ["replay", "--case", "i", "--llm", "1B", "--servers", "16",
            "--trace", str(trace_path)]
    reports = {}
    for label, extra in (("single", []),
                         ("fleet", ["--replicas", "2",
                                    "--routing", "session-affine"])):
        path = tmp_path / f"{label}.json"
        assert main(base + extra + ["--json", str(path)]) == 0
        reports[label] = json.loads(path.read_text())
    out = capsys.readouterr().out
    assert out.count("fairness:") == 2
    single_tiers = config.from_config(reports["single"]["report"]).tiers
    fleet_tiers = config.from_config(reports["fleet"]["report"]).tiers
    assert sorted(single_tiers) == ["free", "paid"]
    assert sorted(fleet_tiers) == sorted(single_tiers)
    per_replica = reports["fleet"]["fleet"]["per_replica"]
    assert sum(entry["completed"] for entry in per_replica) \
        == tiered_trace.num_requests
