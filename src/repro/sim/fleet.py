"""Multi-replica fleet over the incremental serving engine.

The provisioning model (:mod:`repro.rago.provisioning`) answers "how
many replicas sustain this load" analytically; :class:`FleetEngine`
is the subsystem that tests the answer under live traffic. It fronts
N independent :class:`~repro.sim.engine.ServingEngine` replicas --
homogeneous by default, per-replica schedule overrides allowed --
behind the engine's own submit/step/drain lifecycle, so every
existing driver (the open-loop replay in ``repro replay``, the live
asyncio front-end in :mod:`repro.serve`) scales out without changing
shape.

Which replica an arrival lands on is a pluggable
:class:`~repro.sim.routing.RoutingPolicy` (round robin by default);
:meth:`FleetEngine.swap_replica` performs a **rolling schedule swap**:
the old engine keeps draining its in-flight work while new arrivals
route around it, so a reconfiguration loses zero requests. The same
drain discipline makes the fleet **elastic**: :meth:`add_replica`
grows it by a routable slot mid-run and :meth:`remove_replica`
shrinks it without dropping in-flight work -- the two primitives the
autoscaling control loop (:mod:`repro.sim.autoscale`) drives.

Merged artifacts (:meth:`snapshot` / :meth:`metrics` /
:meth:`report`) fold every replica's request records into one
:class:`~repro.sim.metrics.MetricsAccumulator`, so fleet-level
latency percentiles, SLO attainment and throughput use exactly the
same estimators as a single engine; utilization fractions are
fleet-slot averages (summed busy seconds over all engines that ever
occupied a slot, divided by the slot count).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError, ReproError
from repro.pipeline.assembly import Schedule, assemble
from repro.pipeline.stage_perf import RAGPerfModel
from repro.sim.engine import CompletionFn, DispatchSelection, ServingEngine
from repro.sim.metrics import (
    LiveSnapshot,
    MetricsAccumulator,
    RequestRecord,
    ServingMetrics,
    ServingReport,
    SLOTarget,
)
from repro.sim.policies import AdmissionPolicy
from repro.sim.routing import (
    ReplicaView,
    RoutingPolicy,
    resolve_routing_policy,
)
from repro.workloads.traces import Request, RequestTrace

__all__ = ["FleetEngine"]

#: Replica lifecycle states (slot generations move left to right).
_ACTIVE, _DRAINING, _RETIRED = "active", "draining", "retired"


class _ReplicaEntry:
    """One engine generation occupying a fleet slot."""

    __slots__ = ("slot", "engine", "state", "weight")

    def __init__(self, slot: int, engine: ServingEngine,
                 weight: float) -> None:
        self.slot = slot
        self.engine = engine
        self.state = _ACTIVE
        self.weight = weight


class FleetEngine:
    """N serving-engine replicas behind one submit/step/drain lifecycle.

    Args:
        perf_model: Calibrated stage cost models (shared by every
            replica; all replicas serve the same workload schema).
        schedule: The deployment each replica runs -- one
            :class:`~repro.pipeline.Schedule` for a homogeneous fleet,
            or a sequence of schedules for per-replica overrides (the
            sequence length fixes the slot count).
        replicas: Slot count for the homogeneous form (must match the
            sequence length when both are given).
        routing: Request-routing policy -- an instance, a registry
            name from :data:`~repro.sim.routing.ROUTING_POLICIES`, or
            None for round robin.
        max_wait / seed / dispatch / admission: Per-engine knobs,
            passed through to every replica (see
            :class:`~repro.sim.engine.ServingEngine`).
        on_complete: Optional listener invoked with each finished
            request's record. Completions within one :meth:`step` are
            delivered replica by replica (each replica's stream stays
            time-ordered).

    Raises:
        ConfigError: on an empty fleet, a replica-count mismatch, or
            an unknown routing policy.
    """

    def __init__(self, perf_model: RAGPerfModel,
                 schedule: Union[Schedule, Sequence[Schedule]],
                 replicas: Optional[int] = None,
                 routing: Union[None, str, RoutingPolicy] = None,
                 max_wait: Optional[float] = None, seed: int = 0,
                 dispatch: DispatchSelection = None,
                 admission: Union[None, str, AdmissionPolicy] = None,
                 on_complete: Optional[CompletionFn] = None) -> None:
        if isinstance(schedule, Schedule):
            count = 1 if replicas is None else replicas
            if count < 1:
                raise ConfigError("a fleet needs at least one replica")
            schedules: List[Schedule] = [schedule] * count
        else:
            schedules = list(schedule)
            if not schedules:
                raise ConfigError("a fleet needs at least one replica")
            if replicas is not None and replicas != len(schedules):
                raise ConfigError(
                    f"replicas={replicas} contradicts the "
                    f"{len(schedules)} per-replica schedules")
        self._perf_model = perf_model
        self._schema = perf_model.schema
        self._routing = resolve_routing_policy(routing)
        self._engine_knobs = dict(max_wait=max_wait, seed=seed,
                                  dispatch=dispatch, admission=admission)
        self._listeners: List[CompletionFn] = \
            [on_complete] if on_complete is not None else []
        self._accumulator = MetricsAccumulator(self._schema)
        self._engines: List[_ReplicaEntry] = []
        self._active: Dict[int, _ReplicaEntry] = {}
        self._submitted: Dict[int, int] = {slot: 0 for slot
                                           in range(len(schedules))}
        self._template = schedules[0]
        self._next_slot = len(schedules)
        self._now = 0.0
        # Active-replica-count integral over time; the utilization
        # denominator once the fleet has been resized (static fleets
        # keep the exact constant-count division).
        self._replica_seconds = 0.0
        self._resized = False
        # Routing-snapshot caches: the sorted active-slot order and one
        # frozen ReplicaView per slot, reused across submits until the
        # slot's observable state actually changes (a million-request
        # replay otherwise allocates a fresh view list per arrival).
        self._order: List[int] = []
        self._views: Dict[int, ReplicaView] = {}
        self._candidates: List[ReplicaView] = []
        for slot, replica_schedule in enumerate(schedules):
            self._install(slot, replica_schedule)

    # -- construction --------------------------------------------------

    def _install(self, slot: int, schedule: Schedule) -> _ReplicaEntry:
        engine = ServingEngine(self._perf_model, schedule,
                               on_complete=self._request_done,
                               **self._engine_knobs)
        try:
            weight = assemble(self._perf_model, schedule).qps
        except ReproError:
            weight = 1.0
        entry = _ReplicaEntry(slot, engine, weight)
        self._engines.append(entry)
        self._active[slot] = entry
        self._membership_changed(slot)
        return entry

    def _membership_changed(self, slot: int) -> None:
        """Invalidate routing caches after ``slot`` joined or left the
        active set (a swapped slot also changes engine and weight)."""
        self._views.pop(slot, None)
        self._order = sorted(self._active)

    def _request_done(self, record: RequestRecord) -> None:
        self._accumulator.finish(record)
        for listener in self._listeners:
            listener(record)

    # -- introspection -------------------------------------------------

    @property
    def schema(self):
        """The workload schema every replica serves."""
        return self._schema

    @property
    def replicas(self) -> int:
        """Active (routable) replica count. Static fleets keep their
        constructed size; an autoscaled fleet's count moves with
        :meth:`add_replica` / :meth:`remove_replica`."""
        return len(self._active)

    @property
    def routing(self) -> RoutingPolicy:
        """The routing policy in force."""
        return self._routing

    @property
    def engines(self) -> List[ServingEngine]:
        """Every engine generation ever installed, creation order
        (active, draining and retired alike)."""
        return [entry.engine for entry in self._engines]

    @property
    def active_slots(self) -> List[int]:
        """Routable slot indices, ascending."""
        return sorted(self._active)

    def active_weights(self) -> List[float]:
        """Analytical-QPS routing weights of the active replicas,
        slot order (the autoscaler's capacity denominator)."""
        return [self._active[slot].weight for slot in sorted(self._active)]

    @property
    def schedules(self) -> List[Schedule]:
        """The active replicas' schedules, slot order."""
        return [self._active[slot].engine.schedule
                for slot in sorted(self._active)]

    @property
    def now(self) -> float:
        """Current simulated time in seconds (the fleet steps every
        replica to the same bound)."""
        return self._now

    @property
    def replica_seconds(self) -> float:
        """Integrated active-replica count over simulated time -- the
        resource cost an elastic fleet is judged on (equals
        ``replicas * now`` while the size never changes)."""
        return self._replica_seconds

    @property
    def offered(self) -> int:
        """Requests submitted across the fleet."""
        return self._accumulator.offered

    @property
    def completed(self) -> int:
        """Requests finished across the fleet."""
        return self._accumulator.completed

    @property
    def in_flight(self) -> int:
        """Submitted but unfinished requests across the fleet."""
        return self.offered - self.completed

    @property
    def records(self) -> List[RequestRecord]:
        """All submitted records, fleet submission order."""
        return self._accumulator.records

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier offered/completed counts across the fleet (empty
        when the traffic carries no identity)."""
        return self._accumulator.tier_counts()

    def add_listener(self, listener: CompletionFn) -> None:
        """Subscribe an additional fleet-wide completion listener."""
        self._listeners.append(listener)

    def replica_stats(self) -> List[Dict[str, Any]]:
        """Per-replica breakdown, one record per engine generation.

        Keys: ``slot``, ``state`` (active/draining/retired),
        ``schedule`` (one-line description), ``offered`` /
        ``completed`` / ``in_flight`` counts, ``throughput`` and the
        running ``mean_ttft`` / ``mean_tpot`` -- the raw material of
        the reporting layer's fleet section and the CI smoke check.
        """
        stats = []
        for entry in self._engines:
            snap = entry.engine.snapshot()
            stats.append({
                "slot": entry.slot,
                "state": entry.state,
                "schedule": entry.engine.schedule.describe(),
                "offered": entry.engine.offered,
                "completed": entry.engine.completed,
                "in_flight": entry.engine.in_flight,
                "throughput": snap.throughput,
                "mean_ttft": snap.mean_ttft,
                "mean_tpot": snap.mean_tpot,
            })
        return stats

    # -- lifecycle -----------------------------------------------------

    def submit(self, arrival: float, decode_len: Optional[int] = None,
               *, user_id: Optional[str] = None,
               session_id: Optional[str] = None,
               tier: Optional[str] = None) -> RequestRecord:
        """Route one request to a replica at simulated time ``arrival``.

        The routing policy sees every **active** slot (draining and
        retired replicas are never offered); validation of the arrival
        and decode length is the chosen engine's. Identity kwargs ride
        the record through to per-tier metrics, and ``session_id`` is
        offered to the routing policy as its sticky key (session-affine
        policies pin a session to one replica).

        Returns:
            The request's live :class:`RequestRecord`.

        Raises:
            ConfigError: when no slot is routable, the policy answers
                a slot it was not offered, or the engine rejects the
                submission.
        """
        views = self._views
        candidates = self._candidates
        del candidates[:]
        for slot in self._order:
            entry = self._active[slot]
            in_flight = entry.engine.in_flight
            submitted = self._submitted[slot]
            view = views.get(slot)
            if view is None or view.in_flight != in_flight \
                    or view.submitted != submitted:
                view = ReplicaView(index=slot, in_flight=in_flight,
                                   submitted=submitted,
                                   weight=entry.weight)
                views[slot] = view
            candidates.append(view)
        slot = self._routing.select(candidates, now=arrival,
                                    session_key=session_id)
        entry = self._active.get(slot)
        if entry is None:
            raise ConfigError(
                f"routing policy {self._routing.name!r} chose slot "
                f"{slot}, which is not routable")
        record = entry.engine.submit(arrival, decode_len=decode_len,
                                     user_id=user_id,
                                     session_id=session_id, tier=tier)
        # Re-key to a fleet-global id: every engine numbers its own
        # submissions from zero, and downstream consumers (completion
        # routing in repro.serve) key on request_id, so per-replica ids
        # must not collide. Safe to overwrite here: no event has run
        # yet, and the engine only reads the id from decode admission
        # onward. (Iterative schemas sample retrieval positions from
        # seed + request_id, so a fleet replica's draws differ from a
        # standalone engine replaying the same subtrace -- ids are
        # fleet-scoped by design.)
        record.request_id = self._accumulator.offered
        self._submitted[slot] += 1
        self._accumulator.add(record)
        return record

    def step(self, until: float) -> float:
        """Advance every replica's simulated time to ``until``.

        Draining replicas keep stepping (that is what drains them);
        a replica whose clock already passed ``until`` -- possible
        after a :meth:`drain` -- is left where it is.

        Returns:
            The fleet's simulated time after the step.
        """
        if until < self._now:
            raise ConfigError("cannot step backwards in time")
        for entry in self._engines:
            # Retired generations hold no in-flight work; walking them
            # forever would make every tick O(total generations) on a
            # long-lived autoscaled fleet.
            if entry.state != _RETIRED:
                entry.engine.step(until=max(until, entry.engine.now))
        self._advance_clock(until)
        self._settle()
        return self._now

    def next_event_time(self) -> Optional[float]:
        """The fleet-wide earliest queued event's timestamp, or None.

        The lockstep bound for closed-loop drivers: stepping the fleet
        past this time would let one replica's completion feedback
        target another replica's past.
        """
        times = [time for entry in self._engines
                 if entry.state != _RETIRED
                 for time in (entry.engine.next_event_time(),)
                 if time is not None]
        return min(times) if times else None

    def drain(self) -> float:
        """Run every replica's network empty.

        Returns:
            The simulated time of the fleet's last event.
        """
        for entry in self._engines:
            if entry.state != _RETIRED:
                # The non-sealing drain: the fleet reuses replicas
                # across fleet-level drains (settle, then keep routing),
                # so the engine's public single-use seal must not trip.
                entry.engine._run_to_quiescence()
        self._advance_clock(max(
            [self._now] + [entry.engine.now for entry in self._engines]))
        self._settle()
        return self._now

    def _advance_clock(self, until: float) -> None:
        """Move the fleet clock forward, integrating replica-seconds
        (the active count is piecewise constant between calls)."""
        if until > self._now:
            self._replica_seconds += len(self._active) \
                * (until - self._now)
            self._now = until

    def swap_replica(self, slot: int, schedule: Schedule) -> ServingEngine:
        """Rolling schedule swap: replace ``slot``'s engine.

        The old engine stops receiving traffic immediately and keeps
        draining its in-flight requests as the fleet steps (zero
        requests are lost); a fresh engine with ``schedule`` takes
        over the slot for new arrivals. The slot's routing counters
        persist, so fair policies do not flood the newcomer.

        Args:
            slot: The fleet slot to reconfigure.
            schedule: The replacement deployment.

        Returns:
            The swapped-in :class:`~repro.sim.engine.ServingEngine`.

        Raises:
            ConfigError: for an unknown or already-draining slot.
        """
        entry = self._active.get(slot)
        if entry is None:
            known = ", ".join(str(s) for s in sorted(self._active))
            raise ConfigError(
                f"no active replica at slot {slot}; active slots: "
                f"{known or 'none'}")
        entry.state = _RETIRED if entry.engine.in_flight == 0 \
            else _DRAINING
        del self._active[slot]
        self._membership_changed(slot)
        return self._install(slot, schedule).engine

    def add_replica(self, schedule: Optional[Schedule] = None) -> int:
        """Grow the fleet by one replica (the scale-up primitive).

        The new engine occupies a fresh slot and is routable
        immediately. Its routing counter starts at the **minimum** of
        the active slots' counters, not zero, so fairness-seeking
        policies (round robin, weighted) fold it into the rotation
        instead of flooding it to "catch up" on traffic it never saw.

        Args:
            schedule: The newcomer's deployment; None replicates the
                fleet's construction-time schedule.

        Returns:
            The new replica's slot index (slots are never reused, so
            the index doubles as a scale-event identifier).
        """
        slot = self._next_slot
        self._next_slot += 1
        self._resized = True
        baseline = min((self._submitted[s] for s in self._active),
                       default=0)
        self._submitted[slot] = baseline
        entry = self._install(slot, schedule or self._template)
        # A replica born mid-run starts its clock at the fleet's now,
        # not zero -- its busy-time accounting must not invent idle
        # history (and step() already never moves a clock backwards).
        entry.engine.step(until=self._now)
        return slot

    def remove_replica(self, slot: Optional[int] = None) -> ServingEngine:
        """Shrink the fleet by one replica, losing zero requests.

        The chosen engine stops receiving traffic immediately and
        keeps draining its in-flight work as the fleet steps --
        exactly the :meth:`swap_replica` drain, minus the replacement.

        Args:
            slot: The slot to retire; None picks the active slot with
                the fewest in-flight requests (ties to the
                highest-numbered, i.e. youngest, slot) so a scale-down
                drains as little work as possible.

        Returns:
            The draining :class:`~repro.sim.engine.ServingEngine`.

        Raises:
            ConfigError: for an unknown/already-draining slot, or when
                removal would leave no active replica.
        """
        if len(self._active) <= 1:
            raise ConfigError(
                "cannot remove the last active replica; a fleet must "
                "keep at least one")
        if slot is None:
            slot = min(self._active,
                       key=lambda s: (self._active[s].engine.in_flight,
                                      -s))
        entry = self._active.get(slot)
        if entry is None:
            known = ", ".join(str(s) for s in sorted(self._active))
            raise ConfigError(
                f"no active replica at slot {slot}; active slots: "
                f"{known or 'none'}")
        entry.state = _RETIRED if entry.engine.in_flight == 0 \
            else _DRAINING
        del self._active[slot]
        self._membership_changed(slot)
        self._resized = True
        return entry.engine

    def _settle(self) -> None:
        """Retire draining replicas whose in-flight work finished."""
        for entry in self._engines:
            if entry.state == _DRAINING and entry.engine.in_flight == 0:
                entry.state = _RETIRED

    # -- results -------------------------------------------------------

    def busy_times(self) -> Dict[str, float]:
        """Slot-averaged busy seconds per resource name: summed over
        every engine generation, divided by the replica count, so the
        derived utilization reads as "the average replica's busy
        fraction". A fleet that has been resized divides by the
        **time-weighted** average active count instead -- dividing
        all generations' busy seconds by whatever size the fleet
        happens to end at would inflate (or dilute) the fraction."""
        merged: Dict[str, float] = {}
        for entry in self._engines:
            for name, busy in entry.engine.busy_times().items():
                merged[name] = merged.get(name, 0.0) + busy
        if self._resized and self._now > 0:
            slots = max(self._replica_seconds / self._now, 1.0)
        else:
            slots = max(self.replicas, 1)
        return {name: busy / slots for name, busy in merged.items()}

    def snapshot(self) -> LiveSnapshot:
        """Fleet-wide running statistics at the current time (O(1))."""
        return self._accumulator.snapshot(self._now)

    def metrics(self) -> ServingMetrics:
        """Merged aggregate metrics over everything submitted."""
        return self._accumulator.metrics(self.busy_times())

    def report(self, trace: RequestTrace,
               slo: Optional[SLOTarget] = None) -> ServingReport:
        """The merged fleet-level :class:`ServingReport`.

        Same estimators as a single engine's report, fed with every
        replica's records; per-replica drill-down comes from
        :meth:`replica_stats` or each engine's own ``report``.
        """
        return self._accumulator.report(trace, slo or SLOTarget(),
                                        self.busy_times())

    def recorded_trace(self, **metadata) -> RequestTrace:
        """The fleet's observed submissions as one replayable trace,
        arrival-ordered (stable, so same-instant submissions keep
        their fleet tie-break rank). Metadata defaults to
        ``{"scenario": "live"}``; keyword arguments merge on top.

        Raises:
            ConfigError: when nothing has been submitted.
        """
        records = self._accumulator.records
        if not records:
            raise ConfigError("no submissions recorded; an empty trace "
                              "cannot be built")
        merged: Dict[str, Any] = {"scenario": "live"}
        merged.update(metadata)
        ordered = sorted(records, key=lambda r: r.arrival)
        return RequestTrace(
            requests=tuple(
                Request(arrival=r.arrival, decode_len=r.decode_len,
                        user_id=r.user_id, session_id=r.session_id,
                        tier=r.tier)
                for r in ordered),
            metadata=merged,
        )
