"""Request-level discrete-event serving simulation.

The analytical assembly (:mod:`repro.pipeline.assembly`) predicts
steady-state TTFT and QPS in closed form. This package simulates the
same deployment at request granularity -- arrivals, per-stage batching
queues, busy servers, continuous-batching decode -- so the closed-form
predictions can be validated and transient effects (bursts, queueing
delay, tail latency) can be studied.

The simulation consumes the same :class:`~repro.pipeline.Schedule` and
:class:`~repro.pipeline.RAGPerfModel` as the analytical path: stage
*service times* come from the calibrated cost models; the DES adds only
queueing and batching dynamics on top. The core is the incremental
:class:`ServingEngine` (explicit ``submit`` / ``step`` / ``drain``
lifecycle, running metrics, completion listeners); batching and
admission are pluggable policies (:mod:`repro.sim.policies`).
:func:`replay` is the one open-loop trace driver: it submits every
:class:`~repro.workloads.traces.RequestTrace` record, identity
included, into an engine or a :class:`FleetEngine` and drains it, and
:class:`ServingSimulator` wraps it to yield a :class:`ServingReport`
with SLO attainment, latency percentiles and queueing breakdowns,
while :mod:`repro.serve` feeds the same engine from a live asyncio
request stream.
"""

from repro.sim.autoscale import (
    AUTOSCALE_POLICIES,
    AutoscaleConfig,
    AutoscalePolicy,
    Autoscaler,
    FleetView,
    QueueDepthPolicy,
    ScalingEvent,
    SLOAttainmentPolicy,
    TargetUtilizationPolicy,
    autoscale_spec,
    parse_autoscale_spec,
    resolve_autoscale_policy,
)
from repro.sim.engine import EventQueue, ServingEngine, Simulation
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import (
    LiveSnapshot,
    MetricsAccumulator,
    RequestRecord,
    ServingMetrics,
    ServingReport,
    SLOTarget,
    jain_index,
)
from repro.sim.policies import (
    ADMISSION_POLICIES,
    DISPATCH_POLICIES,
    AdmissionPolicy,
    DeadlineFlushPolicy,
    DispatchPolicy,
    FullBatchPolicy,
    GreedyAdmission,
    PriorityAdmission,
    SizeCappedPolicy,
    TokenBudgetAdmission,
    admission_spec,
    parse_admission_policy,
)
from repro.sim.routing import (
    ROUTING_POLICIES,
    JoinIdleQueueRouting,
    LeastInFlightRouting,
    PowerOfTwoChoicesRouting,
    ReplicaView,
    RoundRobinRouting,
    RoutingPolicy,
    SessionAffineRouting,
    WeightedQPSRouting,
    resolve_routing_policy,
)
from repro.sim.serving import ServingSimulator, replay, submit_request

__all__ = [
    "EventQueue",
    "Simulation",
    "ServingEngine",
    "FleetEngine",
    "ServingSimulator",
    "replay",
    "submit_request",
    "ServingMetrics",
    "ServingReport",
    "SLOTarget",
    "RequestRecord",
    "LiveSnapshot",
    "MetricsAccumulator",
    "jain_index",
    "DispatchPolicy",
    "DeadlineFlushPolicy",
    "FullBatchPolicy",
    "SizeCappedPolicy",
    "AdmissionPolicy",
    "GreedyAdmission",
    "TokenBudgetAdmission",
    "PriorityAdmission",
    "DISPATCH_POLICIES",
    "ADMISSION_POLICIES",
    "parse_admission_policy",
    "admission_spec",
    "RoutingPolicy",
    "ReplicaView",
    "RoundRobinRouting",
    "LeastInFlightRouting",
    "WeightedQPSRouting",
    "PowerOfTwoChoicesRouting",
    "JoinIdleQueueRouting",
    "SessionAffineRouting",
    "ROUTING_POLICIES",
    "resolve_routing_policy",
    "AutoscalePolicy",
    "TargetUtilizationPolicy",
    "QueueDepthPolicy",
    "SLOAttainmentPolicy",
    "AUTOSCALE_POLICIES",
    "resolve_autoscale_policy",
    "AutoscaleConfig",
    "parse_autoscale_spec",
    "autoscale_spec",
    "ScalingEvent",
    "FleetView",
    "Autoscaler",
]
