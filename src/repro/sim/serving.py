"""Open-loop driver over the incremental serving engine.

:class:`ServingSimulator` is the batch front door to the request-level
DES: it validates a whole workload up front, submits every request to a
fresh :class:`~repro.sim.engine.ServingEngine`, drains it, and returns
the aggregate artifact -- :class:`~repro.sim.metrics.ServingMetrics`
for bare arrival lists (legacy API) or a
:class:`~repro.sim.metrics.ServingReport` for a
:class:`~repro.workloads.traces.RequestTrace` (the artifact behind
``repro replay``).

The queueing network itself -- placement-group resources, batch
stations, the continuous-batching decode executor, pluggable
dispatch/admission policies -- lives in :mod:`repro.sim.engine`; this
module adds only the one-shot replay discipline. Replays through the
engine are bit-identical to the pre-refactor monolithic simulator
(pinned by regression tests), and the same engine also powers the live
asyncio front-end in :mod:`repro.serve`.

Iterative-retrieval schemas (Case III) run through the engine's
retrieval-hook and re-prefix stations; the closed-form counterpart is
the cohort model in :mod:`repro.pipeline.iterative`.
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
from repro.workloads.traces import RequestTrace

__all__ = [
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
        self._schema = perf_model.schema
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
            engine = self._replay(list(workload.arrivals), horizon,
                                  workload.decode_lens,
                                  requests=(workload.requests
                                            if workload.has_identity
                                            else None))
            return engine.report(workload, slo or SLOTarget())
        if slo is not None:
            raise ConfigError(
                "SLO accounting needs a RequestTrace workload")
        return self._replay(workload, horizon, decode_lengths).metrics()

    def _replay(self, arrivals: Sequence[float], horizon: Optional[float],
                decode_lengths: Optional[Sequence[int]],
                requests: Optional[Sequence] = None) -> ServingEngine:
        """Open-loop drive: submit the whole workload, then run.

        ``requests`` carries the trace's identity-bearing records when
        the workload has them; anonymous replays leave it None and pay
        no per-submission identity lookups.
        """
        if not arrivals:
            raise ConfigError("need at least one arrival")
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ConfigError("arrivals must be sorted")
        if decode_lengths is not None:
            if len(decode_lengths) != len(arrivals):
                raise ConfigError(
                    "decode_lengths must match arrivals in length")
            if any(length <= 0 for length in decode_lengths):
                raise ConfigError("decode lengths must be positive")
        engine = self._take_engine()
        if requests is not None:
            for request in requests:
                engine.submit(request.arrival,
                              decode_len=request.decode_len,
                              user_id=request.user_id,
                              session_id=request.session_id,
                              tier=request.tier)
        else:
            for index, time in enumerate(arrivals):
                engine.submit(time,
                              decode_len=None if decode_lengths is None
                              else int(decode_lengths[index]))
        if horizon is not None:
            engine.step(until=horizon)
        else:
            engine.drain()
        return engine
