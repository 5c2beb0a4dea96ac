"""Serving-simulation data types and the incremental metrics pipeline.

Everything the DES measures lives here: the per-request lifecycle
(:class:`RequestRecord`), latency targets (:class:`SLOTarget`), the two
result artifacts (:class:`ServingMetrics` for bare-arrival runs,
:class:`ServingReport` for trace replays), and the
:class:`MetricsAccumulator` that builds them **incrementally** -- each
completion is folded in as it happens, so a live front-end can snapshot
running statistics mid-flight (:class:`LiveSnapshot`) while a batch
replay still gets the exact aggregates the pre-refactor simulator
computed after the fact.

Historically these types lived in :mod:`repro.sim.serving`; they moved
here so the incremental engine (:mod:`repro.sim.engine`) can use them
without importing the open-loop driver. The old import paths keep
working via re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.schema.stages import Stage, pipeline_stages

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schema.ragschema import RAGSchema
    from repro.workloads.traces import RequestTrace


@dataclass
class RequestRecord:
    """Lifecycle of one request through the simulated deployment.

    Attributes:
        request_id: Arrival index.
        arrival: Arrival time in seconds.
        decode_len: Tokens this request generates (the workload profile's
            decode length unless per-request lengths were supplied).
        stage_completions: Completion time per pipeline stage.
        stage_enqueues: Last enqueue time per stage (queueing bookkeeping).
        queue_waits: Accumulated queueing delay per stage (a stage visited
            repeatedly, e.g. iterative re-prefix, accumulates).
        first_token_time: When the prefix stage finished (first token).
        completion_time: When the last decode step finished.
        user_id: Issuing user, when the workload carries identity
            (closed-loop populations); None for anonymous open-loop
            arrivals.
        session_id: Session the request belongs to (requests within a
            session are correlated and route sticky under
            session-affine policies); None when anonymous.
        tier: SLO tier label (e.g. ``"free"``/``"paid"``) used by
            tier-aware admission and per-tier reporting; None when
            anonymous.
        slab: Engine-local index into the engine's per-stage
            bookkeeping slabs (-1 until submitted). Deliberately
            separate from ``request_id``, which a fleet rewrites to the
            fleet-wide arrival index after submission; excluded from
            equality so records compare on lifecycle alone.
    """

    request_id: int
    arrival: float
    decode_len: int = 0
    user_id: Optional[str] = None
    session_id: Optional[str] = None
    tier: Optional[str] = None
    stage_completions: Dict[Stage, float] = field(default_factory=dict)
    stage_enqueues: Dict[Stage, float] = field(default_factory=dict)
    queue_waits: Dict[Stage, float] = field(default_factory=dict)
    first_token_time: Optional[float] = None
    completion_time: Optional[float] = None
    slab: int = field(default=-1, repr=False, compare=False)

    @property
    def ttft(self) -> Optional[float]:
        """Seconds from arrival to first token (None if unfinished)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival

    @property
    def tpot(self) -> Optional[float]:
        """Mean seconds per generated token (None if unfinished)."""
        if self.completion_time is None or self.first_token_time is None:
            return None
        return (self.completion_time - self.first_token_time) \
            / max(self.decode_len, 1)


@dataclass
class ServingMetrics:
    """Aggregate results of one simulation run.

    Attributes:
        completed: Requests that finished decoding.
        offered: Requests injected.
        duration: Seconds from first arrival to last completion.
        throughput: Completed requests per second over ``duration``.
        mean_ttft / p99_ttft: TTFT statistics over completed requests.
        mean_tpot: Mean (completion - first token) / decode_len.
        utilization: Busy-time fraction per pre-decode resource over the
            run (group name -> [0, 1]); shows which tier the schedule
            actually saturates.
        records: Per-request lifecycles.
    """

    completed: int
    offered: int
    duration: float
    throughput: float
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float
    utilization: Dict[str, float] = field(default_factory=dict)
    records: List[RequestRecord] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class SLOTarget:
    """Per-request latency targets a served request must meet.

    Attributes:
        ttft: TTFT target in seconds (None = dimension unconstrained).
        tpot: TPOT target in seconds (None = dimension unconstrained).
    """

    ttft: Optional[float] = None
    tpot: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in (("ttft", self.ttft), ("tpot", self.tpot)):
            if value is not None and value <= 0:
                raise ConfigError(f"SLO {name} must be positive when set")

    def check(self, record: RequestRecord) -> Dict[str, Optional[bool]]:
        """Per-dimension verdict for one completed request.

        An unconstrained dimension verdicts None; an unfinished request
        fails every constrained dimension.
        """
        ttft_ok: Optional[bool] = None
        tpot_ok: Optional[bool] = None
        if self.ttft is not None:
            ttft_ok = record.ttft is not None and record.ttft <= self.ttft
        if self.tpot is not None:
            tpot_ok = record.tpot is not None and record.tpot <= self.tpot
        return {"ttft": ttft_ok, "tpot": tpot_ok,
                "joint": (None if ttft_ok is None and tpot_ok is None
                          else ttft_ok is not False and tpot_ok is not False)}


def _interpolated_percentile(sorted_values: Sequence[float],
                             fraction: float) -> float:
    """Linear-interpolated percentile over pre-sorted values.

    Raises:
        ConfigError: on an empty sample (degenerate runs must surface
            as configuration errors, not index errors).
    """
    if not sorted_values:
        raise ConfigError("cannot take a percentile of zero samples")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("percentile fraction must be in [0, 1]")
    rank = fraction * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) \
        + sorted_values[high] * weight


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every user got the same allocation, approaching ``1/n``
    as one user monopolizes it. An empty or all-zero sample scores
    0.0 (no allocation to be fair about).
    """
    total = float(sum(values))
    square_sum = float(sum(value * value for value in values))
    if not values or square_sum == 0.0:
        return 0.0
    return (total * total) / (len(values) * square_sum)


def _latency_summary(sorted_values: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": sum(sorted_values) / len(sorted_values),
        "p50": _interpolated_percentile(sorted_values, 0.50),
        "p95": _interpolated_percentile(sorted_values, 0.95),
        "p99": _interpolated_percentile(sorted_values, 0.99),
    }


@dataclass(frozen=True)
class ServingReport:
    """Scenario-level outcome of replaying a trace through a schedule.

    The serializable artifact behind ``repro replay``: aggregates only
    (``records`` ride along for programmatic drill-down but are
    excluded from equality and from the :mod:`repro.config` envelope).

    Attributes:
        scenario: The trace's generating scenario name.
        offered / completed: Requests injected / finished.
        duration: Seconds from first arrival to last completion.
        throughput: Completed requests per second.
        slo: The targets attainment was measured against.
        slo_attainment: Fraction of completed requests meeting the
            ``ttft`` target, the ``tpot`` target, and both (``joint``).
            An unconstrained dimension counts as met.
        ttft / tpot: mean/p50/p95/p99 latency summaries (interpolated
            percentiles, seconds).
        queueing: Per-stage queue-wait breakdown (stage name ->
            mean/p95/max wait in seconds) over completed requests.
        utilization: Busy-time fraction per pre-decode resource.
        trace_metadata: The replayed trace's metadata, for provenance.
        tiers: Per-SLO-tier breakdown (tier name -> offered/completed
            counts, per-tier SLO attainment, p95 latencies, and the
            worst per-user TTFT p95 within the tier). Empty when the
            workload carried no identity, so anonymous runs compare
            equal to pre-identity reports.
        fairness: Cross-user fairness summary -- ``users`` and a
            Jain index over per-user completion counts
            (``jain_completions``, 1.0 = perfectly even). Empty when
            anonymous.
        records: Per-request lifecycles (not serialized, not compared).
    """

    scenario: str
    offered: int
    completed: int
    duration: float
    throughput: float
    slo: SLOTarget
    slo_attainment: Dict[str, float]
    ttft: Dict[str, float]
    tpot: Dict[str, float]
    queueing: Dict[str, Dict[str, float]]
    utilization: Dict[str, float]
    trace_metadata: Dict[str, Any] = field(default_factory=dict)
    tiers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fairness: Dict[str, float] = field(default_factory=dict)
    records: List[RequestRecord] = field(default_factory=list,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.completed < 0 or self.offered < 0:
            raise ConfigError("request counts must be non-negative")

    @property
    def completion_rate(self) -> float:
        """Fraction of offered requests that finished."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class LiveSnapshot:
    """Running statistics of an in-flight engine, O(1) to take.

    Attributes:
        now: Current simulated time in seconds.
        offered: Requests submitted so far.
        completed: Requests finished so far.
        in_flight: Submitted but unfinished requests.
        throughput: Completions per second since the first arrival.
        mean_ttft / mean_tpot: Running means over completed requests
            (0.0 before the first completion).
    """

    now: float
    offered: int
    completed: int
    in_flight: int
    throughput: float
    mean_ttft: float
    mean_tpot: float


class MetricsAccumulator:
    """Folds request lifecycles into serving statistics incrementally.

    The engine calls :meth:`add` at submission and :meth:`finish` at
    completion; between those calls the accumulator can answer
    :meth:`snapshot` from running sums alone. :meth:`metrics` and
    :meth:`report` reproduce -- value for value -- the aggregates the
    pre-refactor batch simulator computed, so an open-loop replay
    through the engine stays bit-identical.

    Internally the final artifacts are built from **incremental
    reservoirs** fed at :meth:`finish` -- latency triples tagged with
    the submission index and per-stage wait lists -- rather than by
    re-walking every record's dicts at report time. The reproduced
    float arithmetic is order-exact: TTFT statistics sum over the
    sorted sample, while the TPOT mean sums in submission order
    (unsorted), exactly as the record-walking implementation did.
    """

    def __init__(self, schema: "RAGSchema") -> None:
        self._schema = schema
        self._records: List[RequestRecord] = []
        self._first_arrival: Optional[float] = None
        self._completed = 0
        self._ttft_sum = 0.0
        self._ttft_count = 0
        self._tpot_sum = 0.0
        self._last_completion = 0.0
        self._utilization_fn = None
        # id(record) -> submission index (records are held in
        # _records forever, so ids stay live and unique).
        self._index: Dict[int, int] = {}
        # (submission index, ttft, tpot) per completed-with-first-token
        # request, appended in completion order; submission indices are
        # unique ints, so sorting never compares the float fields.
        self._lat: List[tuple] = []
        # stage -> waits of completed requests, in completion order.
        self._stage_waits: Dict[Stage, List[float]] = {}
        # Identity reservoirs, fed only for records that carry
        # user/session/tier identity; all stay empty on anonymous
        # workloads so the anonymous report shape is untouched.
        self._tier_offered: Dict[str, int] = {}
        self._tier_completed: Dict[str, int] = {}
        # tier -> (submission index, ttft, tpot), completion order.
        self._tier_lat: Dict[str, List[tuple]] = {}
        self._user_ttfts: Dict[str, List[float]] = {}
        self._user_completed: Dict[str, int] = {}
        self._user_tier: Dict[str, str] = {}

    @staticmethod
    def _identity_tier(record: RequestRecord) -> Optional[str]:
        """The tier bucket a record reports under (None = anonymous)."""
        if record.tier is not None:
            return record.tier
        if record.user_id is not None or record.session_id is not None:
            return "(untiered)"
        return None

    # -- engine feed ---------------------------------------------------

    def add(self, record: RequestRecord) -> None:
        """Register a submitted request.

        Submission order is not guaranteed to be arrival order (an
        engine accepts any arrival at or after its simulated clock), so
        the earliest arrival is tracked as a running minimum rather
        than assumed to be the first record's.
        """
        self._index[id(record)] = len(self._records)
        self._records.append(record)
        if self._first_arrival is None \
                or record.arrival < self._first_arrival:
            self._first_arrival = record.arrival
        tier = self._identity_tier(record)
        if tier is not None:
            self._tier_offered[tier] = self._tier_offered.get(tier, 0) + 1

    def finish(self, record: RequestRecord) -> None:
        """Fold in one completed request (completion_time set).

        The record's latency and queue-wait values are captured into
        the reservoirs here; later mutation of a finished record does
        not alter subsequent reports.
        """
        self._completed += 1
        completion = record.completion_time
        if completion > self._last_completion:
            self._last_completion = completion
        tier = self._identity_tier(record)
        if tier is not None:
            self._tier_completed[tier] = \
                self._tier_completed.get(tier, 0) + 1
            user = record.user_id
            if user is not None:
                self._user_completed[user] = \
                    self._user_completed.get(user, 0) + 1
                self._user_tier[user] = tier
        first_token = record.first_token_time
        if first_token is not None:
            # Same arithmetic as the ttft/tpot properties, inlined:
            # finish() runs once per completion on the hot path.
            ttft = first_token - record.arrival
            decode_len = record.decode_len
            tpot = (completion - first_token) \
                / (decode_len if decode_len > 1 else 1)
            self._ttft_sum += ttft
            self._ttft_count += 1
            self._tpot_sum += tpot
            self._lat.append((self._index[id(record)], ttft, tpot))
            if tier is not None:
                entry = (self._index[id(record)], ttft, tpot)
                bucket = self._tier_lat.get(tier)
                if bucket is None:
                    self._tier_lat[tier] = [entry]
                else:
                    bucket.append(entry)
                if record.user_id is not None:
                    sample = self._user_ttfts.get(record.user_id)
                    if sample is None:
                        self._user_ttfts[record.user_id] = [ttft]
                    else:
                        sample.append(ttft)
            stage_waits = self._stage_waits
            for stage, wait in record.queue_waits.items():
                bucket = stage_waits.get(stage)
                if bucket is None:
                    stage_waits[stage] = [wait]
                else:
                    bucket.append(wait)

    # -- introspection -------------------------------------------------

    @property
    def offered(self) -> int:
        """Requests registered so far."""
        return len(self._records)

    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return self._completed

    @property
    def records(self) -> List[RequestRecord]:
        """All registered records, in submission order."""
        return self._records

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier offered/completed counts so far, sorted by tier
        name (empty when the workload carries no identity)."""
        return {tier: {"offered": self._tier_offered.get(tier, 0),
                       "completed": self._tier_completed.get(tier, 0)}
                for tier in sorted(self._tier_offered)}

    def snapshot(self, now: float) -> LiveSnapshot:
        """Running statistics at simulated time ``now`` (O(1))."""
        elapsed = 0.0
        if self._first_arrival is not None:
            elapsed = max(now - self._first_arrival, 0.0)
        return LiveSnapshot(
            now=now,
            offered=self.offered,
            completed=self._completed,
            in_flight=self.offered - self._completed,
            throughput=self._completed / elapsed if elapsed > 0 else 0.0,
            mean_ttft=(self._ttft_sum / self._ttft_count
                       if self._ttft_count else 0.0),
            mean_tpot=(self._tpot_sum / self._ttft_count
                       if self._ttft_count else 0.0),
        )

    # -- final artifacts -----------------------------------------------

    def metrics(self,
                utilization_of: Optional[Dict[str, float]] = None,
                ) -> ServingMetrics:
        """The batch-run aggregate (pre-refactor ``ServingMetrics``).

        Args:
            utilization_of: Resource-name -> busy-seconds totals; the
                accumulator normalizes them by the run duration.
        """
        lat = self._lat
        if self._completed and lat:
            # finish() maintains the running max(completion) and add()
            # the running min(arrival); completions exist here, so
            # neither is stale.
            duration = max(self._last_completion - self._first_arrival,
                           1e-12)
            throughput = self._completed / duration
            ttfts = sorted(entry[1] for entry in lat)
            mean_ttft = sum(ttfts) / len(ttfts)
            # Same interpolated estimator as report()/latency summaries:
            # the one run must never emit two different p99s.
            p99 = _interpolated_percentile(ttfts, 0.99)
            # The TPOT mean sums in submission order, unsorted --
            # the float-op order the record-walking implementation
            # used (bit-identity pinned by tests).
            mean_tpot = sum(entry[2] for entry in sorted(lat)) / len(lat)
        else:
            duration = throughput = mean_ttft = p99 = mean_tpot = 0.0
        utilization = {}
        if duration > 0 and utilization_of:
            utilization = {name: min(busy / duration, 1.0)
                           for name, busy in utilization_of.items()}
        return ServingMetrics(
            completed=self._completed,
            offered=len(self._records),
            duration=duration,
            throughput=throughput,
            mean_ttft=mean_ttft,
            p99_ttft=p99,
            mean_tpot=mean_tpot,
            utilization=utilization,
            records=self._records,
        )

    def report(self, trace: "RequestTrace", slo: SLOTarget,
               utilization_of: Optional[Dict[str, float]] = None,
               ) -> ServingReport:
        """The trace-replay artifact (pre-refactor ``ServingReport``).

        Raises:
            ConfigError: when zero requests finished -- a degenerate run
                must surface as a configuration error, not bad math.
        """
        metrics = self.metrics(utilization_of)
        # The reservoir holds exactly the completed-with-first-token
        # requests; sorting by submission index restores the records
        # order the record-walking implementation iterated in.
        lat = sorted(self._lat)
        if not lat:
            raise ConfigError(
                "zero requests finished the replay; raise the horizon or "
                "lower the offered load before asking for a report")
        n = len(lat)
        ttfts = sorted(entry[1] for entry in lat)
        tpots = sorted(entry[2] for entry in lat)
        met_ttft = [slo.ttft is None or entry[1] <= slo.ttft
                    for entry in lat]
        met_tpot = [slo.tpot is None or entry[2] <= slo.tpot
                    for entry in lat]
        attainment = {
            "ttft": sum(met_ttft) / n,
            "tpot": sum(met_tpot) / n,
            "joint": sum(a and b for a, b in zip(met_ttft, met_tpot)) / n,
        }
        tiers = self._tier_sections(slo)
        fairness: Dict[str, float] = {}
        if self._user_completed:
            counts = [self._user_completed[user]
                      for user in sorted(self._user_completed)]
            fairness = {
                "users": float(len(counts)),
                "jain_completions": jain_index(counts),
            }
        queueing: Dict[str, Dict[str, float]] = {}
        stage_order = [stage for stage in pipeline_stages(self._schema)
                       if stage is not Stage.DECODE] + [Stage.DECODE]
        for stage in stage_order:
            bucket = self._stage_waits.get(stage)
            if not bucket:
                continue
            waits = sorted(bucket)
            queueing[stage.value] = {
                "mean_wait": sum(waits) / len(waits),
                "p95_wait": _interpolated_percentile(waits, 0.95),
                "max_wait": waits[-1],
            }
        return ServingReport(
            scenario=trace.scenario,
            offered=metrics.offered,
            completed=metrics.completed,
            duration=metrics.duration,
            throughput=metrics.throughput,
            slo=slo,
            slo_attainment=attainment,
            ttft=_latency_summary(ttfts),
            tpot=_latency_summary(tpots),
            queueing=queueing,
            utilization=dict(metrics.utilization),
            trace_metadata=dict(trace.metadata),
            tiers=tiers,
            fairness=fairness,
            records=metrics.records,
        )

    def _tier_sections(self, slo: SLOTarget) -> Dict[str, Dict[str, Any]]:
        """Per-tier report sections, sorted by tier name.

        Empty when no completed request carried identity. A tier's
        attainment/percentiles cover its completed-with-first-token
        requests; ``worst_user_p95_ttft`` is the maximum per-user TTFT
        p95 inside the tier (the user the tier is failing hardest).
        """
        sections: Dict[str, Dict[str, Any]] = {}
        for tier in sorted(self._tier_lat):
            entries = self._tier_lat[tier]
            count = len(entries)
            ttfts = sorted(entry[1] for entry in entries)
            tpots = sorted(entry[2] for entry in entries)
            met_ttft = [slo.ttft is None or entry[1] <= slo.ttft
                        for entry in entries]
            met_tpot = [slo.tpot is None or entry[2] <= slo.tpot
                        for entry in entries]
            users = sorted(user for user, user_tier
                           in self._user_tier.items() if user_tier == tier)
            worst_user_p95 = 0.0
            for user in users:
                sample = self._user_ttfts.get(user)
                if sample:
                    worst_user_p95 = max(
                        worst_user_p95,
                        _interpolated_percentile(sorted(sample), 0.95))
            sections[tier] = {
                "offered": self._tier_offered.get(tier, 0),
                "completed": self._tier_completed.get(tier, 0),
                "users": len(users),
                "slo_attainment": {
                    "ttft": sum(met_ttft) / count,
                    "tpot": sum(met_tpot) / count,
                    "joint": sum(a and b for a, b
                                 in zip(met_ttft, met_tpot)) / count,
                },
                "ttft_p95": _interpolated_percentile(ttfts, 0.95),
                "tpot_p95": _interpolated_percentile(tpots, 0.95),
                "worst_user_p95_ttft": worst_user_p95,
            }
        return sections
