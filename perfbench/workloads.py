"""The benchmark's workloads, driven through the program's public API.

Each workload builds its inputs from the seed in :meth:`setup` and runs
one repetition of its fixed work in :meth:`run_pass`. Only the calls the
CLI itself makes are used: ``OptimizerSession`` (search, evaluation and
engine construction), ``split_generation_search``, ``ServingEngine`` /
``FleetEngine`` through the session, ``ClosedLoopDriver`` and
``python -m repro serve``.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import checks
import tracing

#: Stage names of the Case I pipeline, as the serving report keys them.
QUEUE_STAGES = ("retrieval", "prefix", "decode")
UTIL_RESOURCES = ("prefix", "retrieval-servers")


@dataclass
class PassResult:
    """One repetition of a workload's fixed work.

    Attributes:
        seconds: Host seconds of the timed work (``work_s``).
        attempted / failed: Operations tried and operations that failed
            (a search that raised, a request lost, a failed check).
        failures: What failed, one line each.
        digest: Hash of every simulated output (None where the outputs
            depend on wall-clock timing).
        values: The workload's named end-to-end figures.
        layers: Per-layer figures (traced passes only).
        setup_samples: Set-up times measured inside the pass (server
            start-ups); the runner adds their median to ``setup_s``.
        basis: The per-pass cost that ``trace.overhead_frac`` compares
            between traced and untraced passes (``seconds`` when None).
    """

    seconds: float
    attempted: int
    failed: int
    failures: List[str]
    digest: Optional[str]
    values: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    setup_samples: List[float] = field(default_factory=list)
    basis: Optional[float] = None


def _span_layers(tracer: tracing.Tracer, *names: str,
                 separator: str = ".") -> Dict[str, float]:
    """Call counts and seconds of the named spans.

    Each span name ``n`` yields ``n<separator>calls`` and
    ``n<separator>s`` (outermost time, so recursion is not double
    counted).
    """
    totals = tracer.totals()
    layers = {}
    for name in names:
        layers[f"{name}{separator}calls"] = totals.get(name, (0, 0.0, 0.0))[0]
        layers[f"{name}{separator}s"] = tracer.outermost_seconds(name)
    return layers


def _ms(seconds: float) -> float:
    return seconds * 1e3


class SearchWorkload:
    """Cold Algorithm 1 search of the paper's four cases plus the
    split-generation (hetero) search of Case IV. Batch work, no
    arrivals. The seed sets the order of the five searches."""

    name = "search"
    min_passes = 2

    def __init__(self, tiny: bool = False) -> None:
        from repro.rago.search import SearchConfig

        self.llm = "70B"
        self.servers = 16
        #: None searches with the program's defaults; tiny caps the
        #: chip budget and batch sizes so a pass takes about 2 s.
        self.config = SearchConfig(budget_xpus=8, max_batch=4,
                                   max_decode_batch=16) if tiny else None
        #: TTFT limit (s) for ``search_best_qps_per_chip`` on Case IV.
        self.ttft_limit = 0.2

    def setup(self, seed: int, tracer: Any) -> Dict[str, Any]:
        import random

        from repro import ClusterSpec
        from repro.schema import (case_i_hyperscale, case_ii_long_context,
                                  case_iii_iterative,
                                  case_iv_rewriter_reranker)

        cluster = ClusterSpec(num_servers=self.servers)
        schemas = {
            "case_i": case_i_hyperscale(llm=self.llm),
            "case_ii": case_ii_long_context(llm=self.llm),
            "case_iii": case_iii_iterative(llm=self.llm),
            "case_iv": case_iv_rewriter_reranker(llm=self.llm),
        }
        order = list(schemas) + ["hetero_iv"]
        random.Random(seed).shuffle(order)
        return {"cluster": cluster, "schemas": schemas, "order": order}

    def run_pass(self, state: Dict[str, Any], tracer: Any) -> PassResult:
        traced = isinstance(tracer, tracing.Tracer)
        perf_models: List[Any] = []
        outputs: Dict[str, Any] = {}
        failures: List[str] = []
        values = {"search_s": 0.0}
        layers: Dict[str, float] = {}
        hits = misses = 0
        # Each search is timed (and traced) alone and checked outside
        # its span, and its result is dropped before the next one starts,
        # so no search pays for collecting another's garbage and the
        # checks' re-assembly is not counted as search work.
        for label in state["order"]:
            gc.collect()
            with (tracing.instrument(tracer, perf_models) if traced
                  else contextlib.nullcontext()):
                start = time.perf_counter()
                with tracer.span(f"search.{label}"):
                    outcome = self._search(label, state)
                values["search_s"] += time.perf_counter() - start
            for model in perf_models:
                hits += model.cache_stats["hits"]
                misses += model.cache_stats["misses"]
            perf_models.clear()
            if isinstance(outcome, str):
                failures.append(outcome)
                continue
            failures += self._check(label, outcome, outputs)
            if label == "case_iv":
                result = outcome[1]
                within = [p.qps_per_chip for p in result.frontier
                          if p.ttft <= self.ttft_limit]
                values["search_best_qps_per_chip"] = max(within, default=0.0)
                layers["search.case_iv.plans"] = result.num_plans
                layers["search.case_iv.candidates"] = result.num_candidates
                layers["search.case_iv.frontier"] = len(result.frontier)
            del outcome
        if traced:
            totals = tracer.totals()
            for label in ("case_i", "case_ii", "case_iii", "case_iv",
                          "hetero_iv"):
                _, total, own = totals.get(f"search.{label}", (0, 0.0, 0.0))
                layers[f"search.{label}_s"] = total
                if label in ("case_iv", "hetero_iv"):
                    layers[f"search.{label}.self_s"] = own
            layers.update(_span_layers(tracer, "stage_perf", "assembly",
                                       "pareto"))
            layers["stage_perf.cache_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
            layers["pareto.in_points"] = tracer.counts.get(
                "pareto.in_points", 0)
        return PassResult(seconds=values["search_s"],
                          attempted=len(state["order"]),
                          failed=len(failures), failures=failures,
                          digest=checks.digest(outputs), values=values,
                          layers=layers)

    def _search(self, label: str, state: Dict[str, Any]) -> Any:
        """Run one cold search; a failure comes back as its message."""
        from repro import OptimizerSession
        from repro.errors import ReproError
        from repro.rago.hetero import split_generation_search

        schemas, cluster = state["schemas"], state["cluster"]
        try:
            if label == "hetero_iv":
                return split_generation_search(schemas["case_iv"], cluster,
                                               config=self.config)
            session = OptimizerSession(schemas[label], cluster)
            return session, session.optimize(self.config)
        except ReproError as error:
            return f"{label}: raised {error!r}"

    @staticmethod
    def _check(label: str, outcome: Any, outputs: Dict[str, Any]
               ) -> List[str]:
        """Check one search's result and record its simulated outputs."""
        from repro import assemble

        if label == "hetero_iv":
            outputs[label] = {
                "gain": outcome.hetero_gain,
                "frontier": [[p.prefill_xpu, p.decode_xpu, p.ttft, p.qps,
                              p.qps_per_dollar, p.prefill_chips,
                              p.decode_chips, p.servers]
                             for p in outcome.frontier]}
            return checks.check_hetero(label, outcome)
        session, result = outcome
        outputs[label] = {
            "plans": result.num_plans,
            "candidates": result.num_candidates,
            "frontier": [[p.ttft, p.tpot, p.qps_per_chip, p.total_xpus,
                          p.schedule.describe()] for p in result.frontier]}
        return checks.check_search(label, session.perf_model,
                                   result.frontier, assemble)


class _NullTracer:
    """Stands in for :class:`tracing.Tracer` on untraced passes."""

    @staticmethod
    def span(name: str, request: Optional[int] = None):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def _report_values(report: Any, completed: int, seconds: float
                   ) -> Dict[str, float]:
    return {"sim_req_per_s": completed / seconds,
            "sim_ttft_p50_ms": _ms(report.ttft["p50"]),
            "sim_ttft_p99_ms": _ms(report.ttft["p99"]),
            "slo_attainment": report.slo_attainment["joint"]}


def _report_layers(report: Any) -> Dict[str, float]:
    layers = {}
    for stage in QUEUE_STAGES:
        layers[f"sim.queue.{stage}.p95_ms"] = _ms(
            report.queueing[stage]["p95_wait"])
    for resource in UTIL_RESOURCES:
        layers[f"sim.util.{resource}"] = report.utilization[resource]
    return layers


def _report_digest(report: Any, records: List[Any]) -> str:
    from repro import config

    return checks.digest({
        "report": config.to_config(report),
        "records": [[r.request_id, r.arrival, r.decode_len,
                     r.first_token_time, r.completion_time]
                    for r in records]})


def _case_i_session(servers: int):
    from repro import ClusterSpec, OptimizerSession
    from repro.schema import case_i_hyperscale

    return OptimizerSession(case_i_hyperscale(llm="8B"),
                            ClusterSpec(num_servers=servers))


class ReplayOpenWorkload:
    """One ``ServingEngine`` replaying a seeded Poisson trace open loop
    in simulated time, on the throughput-optimal Case I 8B schedule at
    0.9 of its analytic saturation QPS (what ``repro replay`` runs)."""

    name = "replay-open"
    min_passes = 2
    load = 0.9

    def __init__(self, tiny: bool = False) -> None:
        self.requests = 2_000 if tiny else 100_000

    def setup(self, seed: int, tracer: Any) -> Dict[str, Any]:
        from repro.sim import SLOTarget
        from repro.workloads import poisson_trace

        session = _case_i_session(16)
        chosen = session.optimize().max_qps_per_chip
        rate = self.load * chosen.qps
        with tracer.span("workloads.trace"):
            trace = poisson_trace(
                rate, self.requests / rate, seed=seed,
                mean_decode_len=session.schema.sequences.decode_len)
        return {"session": session, "schedule": chosen.schedule,
                "trace": trace,
                "slo": SLOTarget(ttft=5.0 * chosen.ttft,
                                 tpot=2.0 * chosen.tpot)}

    def run_pass(self, state: Dict[str, Any], tracer: Any) -> PassResult:
        session, trace = state["session"], state["trace"]
        traced = isinstance(tracer, tracing.Tracer)
        lens = trace.decode_lens or (None,) * trace.num_requests
        gc.collect()
        with (tracing.instrument(tracer) if traced
              else contextlib.nullcontext()):
            engine = session.serving_engine(state["schedule"])
            start = time.perf_counter()
            for arrival, decode_len in zip(trace.arrivals, lens):
                engine.submit(arrival, decode_len=decode_len)
            engine.drain()
            report = engine.report(trace, slo=state["slo"])
            seconds = time.perf_counter() - start
        submitted = trace.num_requests
        failures = checks.check_des(self.name, submitted, engine.completed,
                                    report, {})
        layers: Dict[str, float] = {}
        if traced:
            layers = _engine_layers(tracer, engine.events_processed,
                                    ("engine.submit", "engine.drain"))
            layers.update(_report_layers(report))
        result = PassResult(
            seconds=seconds, attempted=submitted,
            failed=submitted - engine.completed + len(failures),
            failures=failures,
            digest=_report_digest(report, engine.records),
            values=_report_values(report, engine.completed, seconds),
            layers=layers)
        del engine, report
        return result


def _engine_layers(tracer: tracing.Tracer, events: int,
                   driving: tuple) -> Dict[str, float]:
    """Engine-level figures shared by the DES workloads."""
    layers = {
        "engine.submit_s": tracer.outermost_seconds("engine.submit"),
        "engine.drain_s": tracer.outermost_seconds("engine.drain"),
        "engine.events": events,
        "metrics.report_s": tracer.outermost_seconds("metrics.report"),
    }
    busy = sum(tracer.outermost_seconds(name) for name in driving)
    layers["engine.host_us_per_event"] = busy / events * 1e6 if events else 0.0
    layers.update(_span_layers(tracer, "policies.admit", separator="_"))
    return layers


class FleetClosedWorkload:
    """A 4-replica ``FleetEngine`` with session-affine routing and tier
    priority admission, driven closed loop in simulated time by a seeded
    free/paid ``UserPopulation`` (``repro replay --population``).

    The schedule is decode-bound on purpose (8 decode chips against 32
    prefix chips), so decode admission is where requests queue and the
    tier ranks decide who waits; 600 users with 2 requests each in
    flight and 50 ms think time keep the fleet saturated.
    """

    name = "fleet-closed"
    min_passes = 2
    replicas = 4

    def __init__(self, tiny: bool = False) -> None:
        self.users = 40 if tiny else 600
        self.horizon = 1.0 if tiny else 8.0

    def setup(self, seed: int, tracer: Any) -> Dict[str, Any]:
        from repro.pipeline import PlacementGroup, Schedule
        from repro.schema import Stage
        from repro.sim import PriorityAdmission, SLOTarget
        from repro.workloads import UserPopulation, resolve_tier_policy

        session = _case_i_session(16)
        schedule = Schedule(
            groups=(PlacementGroup((Stage.PREFIX,), 32),
                    PlacementGroup((Stage.DECODE,), 8)),
            batches={Stage.PREFIX: 1, Stage.DECODE: 64,
                     Stage.RETRIEVAL: 32})
        perf = session.evaluate(schedule)
        tiers = resolve_tier_policy("free-paid")
        population = UserPopulation(users=self.users, tiers=tiers,
                                    think_time=0.05, concurrency=2,
                                    session_len=4, seed=seed)
        admission = PriorityAdmission(tier_priority=tuple(
            (tier.name, tier.rank) for tier in tiers.tiers))
        return {"session": session, "schedule": schedule,
                "population": population, "admission": admission,
                "slo": SLOTarget(ttft=5.0 * perf.ttft, tpot=2.0 * perf.tpot)}

    def run_pass(self, state: Dict[str, Any], tracer: Any) -> PassResult:
        from repro.workloads import ClosedLoopDriver

        traced = isinstance(tracer, tracing.Tracer)
        gc.collect()
        with (tracing.instrument(tracer) if traced
              else contextlib.nullcontext()):
            fleet = state["session"].fleet_engine(
                state["schedule"], replicas=self.replicas,
                routing="session-affine", admission=state["admission"])
            driver = ClosedLoopDriver(state["population"], fleet,
                                      horizon=self.horizon)
            start = time.perf_counter()
            with tracer.span("sessions.driver"):
                driver.run()
            trace = fleet.recorded_trace(scenario="sessions")
            report = fleet.report(trace, slo=state["slo"])
            seconds = time.perf_counter() - start
        tiers = driver.tier_counts()
        failures = checks.check_des(self.name, driver.submitted,
                                    driver.completed, report, tiers)
        events = sum(engine.events_processed for engine in fleet.engines)
        layers: Dict[str, float] = {}
        if traced:
            layers = _engine_layers(tracer, events, ("sessions.driver",))
            layers["sessions.driver_s"] = tracer.outermost_seconds(
                "sessions.driver")
            layers.update(_span_layers(tracer, "fleet.submit", "fleet.step",
                                       "routing.select", separator="_"))
            layers.update(_report_layers(report))
            for tier in ("paid", "free"):
                layers[f"sim.tier.{tier}.attainment"] = \
                    report.tiers[tier]["slo_attainment"]["joint"]
            layers["sim.fairness.jain"] = report.fairness["jain_completions"]
            done = [stats["completed"] for stats in fleet.replica_stats()]
            layers["sim.replica.imbalance"] = max(done) / statistics.mean(done)
        records = sorted(fleet.records, key=lambda r: r.request_id)
        result = PassResult(
            seconds=seconds, attempted=driver.submitted,
            failed=driver.submitted - driver.completed + len(failures),
            failures=failures, digest=_report_digest(report, records),
            values=_report_values(report, driver.completed, seconds),
            layers=layers)
        del fleet, driver, report, records
        return result
