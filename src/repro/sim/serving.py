"""The open-loop trace driver over the serving engines.

:func:`replay` is the one place a :class:`~repro.workloads.traces.RequestTrace`
is pushed into an engine: it submits every request record -- arrival,
decode length and ``user_id`` / ``session_id`` / ``tier`` identity --
through :func:`submit_request` into anything with the engine ``submit``
signature (:class:`~repro.sim.engine.ServingEngine`,
:class:`~repro.sim.fleet.FleetEngine`, the reference
:class:`~repro.sim.oracle.OracleServingEngine`), then drains it or
steps it to a horizon. ``repro replay``, the whatif cells, the
autoscaler's control loop and the throughput benchmark all drive
engines through it, so a fleet sees the same identity (tiers, session
keys) a single engine does.

:class:`ServingSimulator` is the batch front door built on the driver:
it replays a trace (or bare arrivals, wrapped in an anonymous trace)
through a fresh engine and returns the aggregate artifact --
:class:`~repro.sim.metrics.ServingReport` for a trace,
:class:`~repro.sim.metrics.ServingMetrics` for bare arrivals.

The queueing network itself -- placement-group resources, batch
stations, the continuous-batching decode executor, pluggable
dispatch/admission policies -- lives in :mod:`repro.sim.engine`, and
the same engine also powers the live asyncio front-end in
:mod:`repro.serve`. Iterative-retrieval schemas (Case III) run through
the engine's retrieval-hook and re-prefix stations; the closed-form
counterpart is the cohort model in :mod:`repro.pipeline.iterative`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import ConfigError
from repro.pipeline.assembly import Schedule
from repro.pipeline.stage_perf import RAGPerfModel
from repro.sim.engine import DispatchSelection, ServingEngine
from repro.sim.metrics import (
    LiveSnapshot,
    MetricsAccumulator,
    RequestRecord,
    ServingMetrics,
    ServingReport,
    SLOTarget,
    _interpolated_percentile,
    _latency_summary,
)
from repro.sim.policies import AdmissionPolicy
from repro.workloads.traces import Request, RequestTrace

__all__ = [
    "replay",
    "submit_request",
    "ServingSimulator",
    "RequestRecord",
    "ServingMetrics",
    "ServingReport",
    "SLOTarget",
    "LiveSnapshot",
    "MetricsAccumulator",
    "DispatchSelection",
    "_interpolated_percentile",
    "_latency_summary",
]


def submit_request(engine, request: Request) -> RequestRecord:
    """Submit one trace record, identity included, into ``engine``."""
    return engine.submit(request.arrival, decode_len=request.decode_len,
                         user_id=request.user_id,
                         session_id=request.session_id, tier=request.tier)


def replay(engine, trace: RequestTrace, horizon: Optional[float] = None):
    """Open-loop drive: submit all of ``trace``, then run ``engine``.

    Args:
        engine: A fresh engine or fleet (anything with the engine
            ``submit`` / ``step`` / ``drain`` lifecycle).
        trace: The requests to inject, in arrival order.
        horizon: Optional hard stop; the engine is stepped to it
            instead of drained, so unfinished requests stay unfinished.

    Returns:
        ``engine``, advanced (build reports and metrics from it).
    """
    for request in trace.requests:
        submit_request(engine, request)
    if horizon is None:
        engine.drain()
    else:
        engine.step(until=horizon)
    return engine


class ServingSimulator:
    """Simulate one schedule serving a stream of requests.

    Args:
        perf_model: Calibrated stage cost models.
        schedule: The deployment under test.
        max_wait: Legacy global partial-batch deadline; fills in any
            dispatch policy whose own ``max_wait`` is unset (per-stage
            batch latency when both are None).
        seed: Seed for the iterative retrieval-position sampler.
        dispatch: Dispatch policy for the pre-decode stations -- a
            policy instance, a registry name, or a per-stage mapping
            (deadline flush when omitted).
        admission: Decode admission policy instance or registry name
            (greedy when omitted).
    """

    def __init__(self, perf_model: RAGPerfModel, schedule: Schedule,
                 max_wait: Optional[float] = None, seed: int = 0,
                 dispatch: DispatchSelection = None,
                 admission: Union[None, str, AdmissionPolicy] = None) -> None:
        self._perf_model = perf_model
        self._schedule = schedule
        self._max_wait = max_wait
        self._seed = seed
        self._dispatch = dispatch
        self._admission = admission
        # Engines are single-use; build one eagerly so schedule/schema
        # validation still fails at construction time, as it always has.
        self._engine: Optional[ServingEngine] = self._fresh_engine()

    def _fresh_engine(self) -> ServingEngine:
        return ServingEngine(self._perf_model, self._schedule,
                             max_wait=self._max_wait, seed=self._seed,
                             dispatch=self._dispatch,
                             admission=self._admission)

    def _take_engine(self) -> ServingEngine:
        """The pre-built engine, or a fresh one on repeated runs."""
        engine, self._engine = self._engine, None
        if engine is None or engine.offered:
            engine = self._fresh_engine()
        return engine

    def run(self, workload: Union[RequestTrace, Sequence[float]],
            horizon: Optional[float] = None,
            decode_lengths: Optional[Sequence[int]] = None,
            slo: Optional[SLOTarget] = None,
            ) -> Union[ServingMetrics, ServingReport]:
        """Inject requests and simulate to completion.

        Args:
            workload: A :class:`~repro.workloads.traces.RequestTrace`
                (per-request decode lengths and metadata travel inside
                it) or bare sorted arrival timestamps in seconds.
            horizon: Optional hard stop; unfinished requests are dropped
                from the completed statistics.
            decode_lengths: Optional per-request generation lengths for
                the bare-arrivals form (same order as the arrivals);
                None uses the workload profile's decode length.
            slo: Latency targets for attainment accounting (trace
                workloads only; defaults to unconstrained).

        Returns:
            A :class:`ServingReport` for a trace workload, a
            :class:`ServingMetrics` for bare arrivals.

        Raises:
            ConfigError: on empty/unsorted arrivals, mismatched
                decode-length counts, or a trace replay in which zero
                requests finish before the horizon.
        """
        if isinstance(workload, RequestTrace):
            if decode_lengths is not None:
                raise ConfigError(
                    "decode_lengths travel inside the trace; do not pass "
                    "both")
            engine = replay(self._take_engine(), workload, horizon)
            return engine.report(workload, slo or SLOTarget())
        if slo is not None:
            raise ConfigError(
                "SLO accounting needs a RequestTrace workload")
        trace = RequestTrace(arrivals=workload, decode_lens=decode_lengths)
        return replay(self._take_engine(), trace, horizon).metrics()
