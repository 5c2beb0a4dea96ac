"""Discrete-event core and the incremental serving engine.

Two layers live here:

* :class:`Simulation` / :class:`EventQueue` -- the minimal DES kernel.
  Callbacks are scheduled at absolute times and executed in order; ties
  break by insertion order, which keeps runs deterministic. ``run`` can
  stop at a horizon and be resumed, so the same kernel drives both
  batch replays and incremental stepping.
* :class:`ServingEngine` -- the request-level serving network (batch
  stations time-multiplexing placement-group resources, a retrieval
  tier, a continuous-batching decode executor) with an **explicit
  lifecycle**: :meth:`~ServingEngine.submit` injects one request,
  :meth:`~ServingEngine.step` advances simulated time to a bound, and
  :meth:`~ServingEngine.drain` runs the network empty. Requests can be
  submitted *while* time advances, which is what turns the simulator
  from a closed-box trace replayer into the core of a live,
  socket-facing front-end (:mod:`repro.serve`).

:func:`~repro.sim.serving.replay` is the open-loop driver over this
engine: it submits a whole trace up front, identity included, and
drains.

The engine has one wiring: a slab-backed event queue (integer event
kinds dispatched through a handler table, timestamps drained in
batches), flat per-stage bookkeeping slabs instead of per-request
dicts, and a bucketized decode executor that is O(1) amortized per
step. The original closure-per-event network lives on outside the
shipped package as :class:`repro.sim.oracle.OracleServingEngine`, the
reference that parity tests pin this engine to bit for bit
(:class:`~repro.sim.metrics.ServingReport`, records and event counts)
on every registered scenario.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigError
from repro.pipeline.assembly import Schedule, derive_retrieval_servers
from repro.pipeline.stage_perf import RAGPerfModel
from repro.schema.stages import Stage, pipeline_stages
from repro.sim.metrics import (
    LiveSnapshot,
    MetricsAccumulator,
    RequestRecord,
    ServingMetrics,
    ServingReport,
    SLOTarget,
)
from repro.sim.policies import (
    AdmissionPolicy,
    DispatchPolicy,
    GreedyAdmission,
    TokenBudgetAdmission,
    resolve_admission_policy,
    resolve_dispatch_policy,
)
from repro.workloads.traces import Request, RequestTrace

#: An event callback receives the simulation so it can schedule more.
EventFn = Callable[["Simulation"], None]

#: Per-stage dispatch selection: one policy (or registry name) for all
#: stages, or a mapping from stage to policy/name.
DispatchSelection = Union[None, str, DispatchPolicy,
                          Mapping[Stage, Union[str, DispatchPolicy]]]


#: Kind 0 is the generic-callback event: its payload is an
#: :data:`EventFn` and dispatching it simply calls ``payload(sim)``.
#: This keeps the original closure API (and the reference engine in
#: :mod:`repro.sim.oracle`) running unchanged on the slab-backed queue.
KIND_CALLBACK = 0

_SLAB_GROW = 512


class EventQueue:
    """Slab-backed priority queue of kind-dispatched events.

    The heap itself holds only scalar ``(time, sequence, slot)``
    triples -- ties break by insertion order, which keeps runs
    deterministic. Per-event payloads live in preallocated parallel
    slabs (an integer ``kind`` array and an ``arg`` payload list)
    indexed by ``slot`` and recycled through a free list, so steady
    state pushes allocate nothing but the heap tuple.

    :meth:`push` keeps the historical closure API: it files the
    callback under :data:`KIND_CALLBACK`. Hot paths use
    :meth:`push_event` with an integer kind registered on the owning
    :class:`Simulation`, avoiding a closure per event.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = itertools.count()
        self._kinds = array("i")
        self._args: List[Any] = []
        self._free: List[int] = []

    def _grow(self) -> None:
        base = len(self._args)
        self._kinds.extend([0] * _SLAB_GROW)
        self._args.extend([None] * _SLAB_GROW)
        self._free.extend(range(base + _SLAB_GROW - 1, base - 1, -1))

    def push_event(self, time: float, kind: int, arg: Any) -> None:
        """Schedule a kind-dispatched event at an absolute time."""
        if time < 0:
            raise ConfigError("event time must be non-negative")
        free = self._free
        if not free:
            self._grow()
        slot = free.pop()
        self._kinds[slot] = kind
        self._args[slot] = arg
        heapq.heappush(self._heap, (time, next(self._counter), slot))

    def push(self, time: float, callback: EventFn) -> None:
        """Schedule a callback at an absolute time."""
        self.push_event(time, KIND_CALLBACK, callback)

    def pop(self) -> Tuple[float, EventFn]:
        """Remove and return the earliest (time, callback).

        Raises:
            ConfigError: when the earliest event is kind-dispatched --
                those carry no standalone callback; they are drained by
                :meth:`Simulation.run` through its handler table.
        """
        time, _, slot = heapq.heappop(self._heap)
        kind = self._kinds[slot]
        arg = self._args[slot]
        self._args[slot] = None
        self._free.append(slot)
        if kind != KIND_CALLBACK:
            raise ConfigError(
                "kind-dispatched events drain through Simulation.run, "
                "not EventQueue.pop")
        return time, arg

    def peek_time(self) -> float:
        """The earliest scheduled time without removing the event.

        Raises:
            ConfigError: when the queue is empty -- there is no earliest
                event to peek at.
        """
        if not self._heap:
            raise ConfigError(
                "cannot peek an empty event queue: no events are "
                "scheduled")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _run_callback(sim: "Simulation", callback: EventFn) -> None:
    """Handler for :data:`KIND_CALLBACK`: the payload is the event."""
    callback(sim)


class Simulation:
    """Event loop with a monotonically advancing clock.

    Event dispatch goes through an integer-kind handler table: kind 0
    invokes the payload as a callback (the classic closure API), and
    components register additional kinds via :meth:`register_handler`
    so their hot paths schedule ``(kind, payload)`` pairs instead of
    constructing a closure per event.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._handlers: List[Callable[["Simulation", Any], None]] = \
            [_run_callback]

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    def register_handler(
            self, handler: Callable[["Simulation", Any], None]) -> int:
        """Register an event handler; returns its integer kind."""
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def schedule(self, delay: float, callback: EventFn) -> None:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigError("delay must be non-negative")
        self._queue.push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: EventFn) -> None:
        """Schedule a callback at an absolute time (>= now)."""
        if time < self._now:
            raise ConfigError("cannot schedule in the past")
        self._queue.push(time, callback)

    def schedule_event(self, delay: float, kind: int, arg: Any) -> None:
        """Schedule a kind-dispatched event ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigError("delay must be non-negative")
        self._queue.push_event(self._now + delay, kind, arg)

    # simlint: hotpath
    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the queue drains or limits are reached.

        The loop drains in timestamp batches: the clock is pinned once
        per distinct time and every event sharing it (including
        zero-delay events a handler pushes mid-batch, which take higher
        sequence numbers) runs in one inner pass -- same order the
        per-event loop produced, with one heap inspection per batch
        instead of per event.

        Args:
            until: Stop once the clock would pass this time (remaining
                events stay queued, keeping their insertion order so an
                incremental caller can resume without reordering ties).
            max_events: Safety valve against runaway simulations; a
                per-call budget, so a long-lived incremental engine can
                step indefinitely.

        Raises:
            ConfigError: when ``max_events`` is exhausted (almost always
                a modelling bug such as a self-rescheduling zero-delay
                event).
        """
        queue = self._queue
        heap = queue._heap
        kinds = queue._kinds
        args = queue._args
        free = queue._free
        handlers = self._handlers
        heappop = heapq.heappop
        processed = 0
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                self._now = until
                return
            self._now = time
            while heap and heap[0][0] == time:
                if processed >= max_events:
                    raise ConfigError(
                        f"simulation exceeded {max_events} events; "
                        f"likely a zero-delay event loop")
                slot = heappop(heap)[2]
                kind = kinds[slot]
                arg = args[slot]
                args[slot] = None
                free.append(slot)
                self._events_processed += 1
                processed += 1
                handlers[kind](self, arg)
        if until is not None and until > self._now:
            self._now = until


class _Resource:
    """A set of chips (or servers) that one batch occupies at a time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy = False
        # Stations sharing this resource, in build order: on release,
        # each gets a try_dispatch until one claims the resource.
        self.stations: List[Any] = []
        self.busy_time = 0.0

    def release(self, sim: Simulation) -> None:
        self.busy = False
        for station in self.stations:
            station.try_dispatch(sim)
            if self.busy:
                break


def _release_resource(sim: Simulation, resource: _Resource) -> None:
    """Handler for the resource-free events."""
    resource.release(sim)


def _complete_batch(sim: Simulation, payload: Tuple) -> None:
    """Handler for the batch-completion events."""
    payload[0]._complete(sim, payload[1])


def _flush_station(sim: Simulation, station: "_BatchStation") -> None:
    """Handler for the partial-batch flush events."""
    station._flush(sim)


class _BatchStation:
    """One pipeline stage batching requests on a shared resource.

    A batch occupies the resource for its *initiation interval*
    (``batch / throughput``): pipeline-parallel prefill overlaps
    consecutive batches, so the resource frees before the batch's full
    latency has elapsed; results are delivered at the latency.

    When to fire and how much to take are delegated to a
    :class:`~repro.sim.policies.DispatchPolicy` (already resolved
    against this stage's default deadline). Free/complete/flush events
    are scheduled through integer kinds instead of per-dispatch
    closures, and per-request bookkeeping writes the engine's flat
    per-stage slabs (NaN = untouched) instead of per-record dicts.
    """

    __slots__ = ("stage", "batch_size", "perf_fn", "resource", "policy",
                 "queue", "_oldest_enqueue", "_flush_scheduled", "_eng",
                 "_si", "_enq", "_comp", "_wait", "_n", "_downstream",
                 "_sets_first_token")

    def __init__(self, stage: Stage, batch_size: int,
                 perf_fn: Callable[[int], "object"], resource: _Resource,
                 engine: "ServingEngine",
                 downstream: Callable[[Simulation, RequestRecord], None],
                 policy: DispatchPolicy, sets_first_token: bool) -> None:
        self.stage = stage
        self.batch_size = batch_size
        self.perf_fn = perf_fn
        self.resource = resource
        self.policy = policy
        self.queue: List[RequestRecord] = []
        self._oldest_enqueue: Optional[float] = None
        self._flush_scheduled = False
        self._eng = engine
        self._si = engine._stage_slot[stage]
        # The slab lists are extended in place and never reassigned, so
        # stations can hold direct references (one attribute load per
        # hot-path touch instead of two).
        self._enq = engine._slab_enq
        self._comp = engine._slab_comp
        self._wait = engine._slab_wait
        self._n = engine._nstages
        self._downstream = downstream
        self._sets_first_token = sets_first_token
        resource.stations.append(self)

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self.queue.append(record)
        self._enq[record.slab * self._n + self._si] = sim.now
        if self._oldest_enqueue is None:
            self._oldest_enqueue = sim.now
        self.try_dispatch(sim)

    def try_dispatch(self, sim: Simulation) -> None:
        if self.resource.busy or not self.queue:
            return
        waited = sim.now - self._oldest_enqueue
        take = self.policy.take(len(self.queue), self.batch_size, waited)
        if take > 0:
            self._dispatch(sim, take)
        elif not self._flush_scheduled:
            delay = self.policy.flush_delay(waited)
            if delay is not None:
                self._flush_scheduled = True
                sim.schedule_event(max(delay, 0.0), self._eng._k_flush,
                                   self)

    def _flush(self, sim: Simulation) -> None:
        # Force-dispatch the partial batch (float rounding must not turn
        # the staleness check into a zero-delay reschedule loop).
        self._flush_scheduled = False
        if not self.resource.busy and self.queue:
            self._dispatch(sim, self.policy.flush_take(len(self.queue),
                                                       self.batch_size))

    # simlint: hotpath
    def _dispatch(self, sim: Simulation, take: int) -> None:
        batch = self.queue[:take]
        del self.queue[:take]
        now = sim.now
        eng = self._eng
        n = self._n
        si = self._si
        enq = self._enq
        wait = self._wait
        for record in batch:
            i = record.slab * n + si
            prev = wait[i]
            delta = now - enq[i]
            wait[i] = delta if prev != prev else prev + delta
        self._oldest_enqueue = now if self.queue else None
        self.resource.busy = True
        perf = self.perf_fn(take)
        latency = perf.latency
        occupancy = take / perf.request_qps
        if occupancy > latency:
            occupancy = latency
        self.resource.busy_time += occupancy
        sim.schedule_event(occupancy, eng._k_free, self.resource)
        sim.schedule_event(latency, eng._k_complete, (self, batch))

    # simlint: hotpath
    def _complete(self, sim: Simulation,
                  batch: List[RequestRecord]) -> None:
        now = sim.now
        n = self._n
        si = self._si
        comp = self._comp
        for record in batch:
            comp[record.slab * n + si] = now
        downstream = self._downstream
        if self._sets_first_token:
            for record in batch:
                if record.first_token_time is None:
                    record.first_token_time = now
                downstream(sim, record)
        else:
            for record in batch:
                downstream(sim, record)


class _DecodeExecutor:
    """Bucketized continuous-batching decode.

    Sequences join at step boundaries and leave after their own decode
    length (variable-length requests mix in the batch, which is why the
    paper reports worst-case TPOT); *who* joins at a boundary is the
    :class:`~repro.sim.policies.AdmissionPolicy`'s call. For iterative
    schemas (Case III), a sequence that hits one of its retrieval
    positions leaves through ``retrieval_hook`` (to the retrieval +
    re-prefix stations) and re-joins via :meth:`accept` once the new
    context has been integrated.

    Each step is O(1) amortized instead of O(batch), yet numerically
    and order-identical to the walk-the-batch reference executor in
    :mod:`repro.sim.oracle` (pinned by parity tests):

    * Each live sequence's next interesting step (finish, or departure
      to iterative retrieval) is computed once at admission and the
      entry is filed in a per-step *bucket*; the advance event touches
      only the bucket due at that step instead of walking the whole
      batch.
    * Step-boundary times are produced by one ``t + step_latency``
      addition per boundary, exactly the float sequence a per-step
      event chain produces, so timestamps match bit for bit.
    * Admission inputs are reconstructed arithmetically
      (``remaining(s) = target + base - s``; the summed token debt is
      an O(1) running counter), with closed-form fast paths for the
      stock greedy / token-budget policies and an exact
      materialized-list fallback for custom policies.
    """

    def __init__(self, capacity: int, step_latency: float,
                 decode_len: int,
                 on_complete: Callable[[Simulation, RequestRecord], None],
                 admission: AdmissionPolicy, engine: "ServingEngine",
                 retrieval_hook: Optional[
                     Callable[[Simulation, RequestRecord], None]] = None,
                 positions_fn: Optional[
                     Callable[[RequestRecord], List[int]]] = None) -> None:
        sim = engine._sim
        self._q = sim._queue  # direct pushes on the hot path
        self._k_kick = sim.register_handler(self._on_kick)
        self._k_adv = sim.register_handler(self._on_adv)
        self.capacity = capacity
        self.step_latency = step_latency
        self.decode_len = decode_len
        self.on_complete = on_complete
        self.admission = admission
        self.retrieval_hook = retrieval_hook
        self.positions_fn = positions_fn
        self.running = False
        self._si = engine._stage_slot[Stage.DECODE]
        self._enq = engine._slab_enq
        self._wait = engine._slab_wait
        self._n = engine._nstages
        # Progress/position bookkeeping only matters when requests can
        # leave decode for iterative retrieval and come back; the plain
        # pipeline skips those dict writes per request.
        self._track = retrieval_hook is not None or positions_fn is not None
        self.waiting: Deque[RequestRecord] = deque()
        self._waiting_lens: Deque[int] = deque()
        # serial -> [record, target, base, serial, positions]; dict
        # insertion order == admission order == the reference
        # executor's remaining-list scan order.
        self._live: Dict[int, list] = {}
        self._serial = 0
        self._buckets: Dict[int, list] = {}
        self._tb_sum = 0  # sum(target + base) over live entries
        self._step_index = 0  # step boundary the clock last crossed
        self._progress: Dict[int, int] = {}
        self._positions: Dict[int, List[int]] = {}
        self._greedy = type(admission) is GreedyAdmission
        self._budget = admission \
            if type(admission) is TokenBudgetAdmission else None
        # Only priority-aware policies pay the stable insert at accept;
        # stock policies keep the plain appends on the hot path.
        self._reorders = admission.reorders_waiting
        self._waiting_prio: Deque[int] = deque()
        self._fin: list = []  # reusable per-event scratch buffers
        self._dep: list = []

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self._enq[record.slab * self._n + self._si] = sim.now
        if self._reorders:
            # Stable insert: higher rank first, FIFO within a rank,
            # lens kept parallel.
            rank = self.admission.priority(record)
            prio = self._waiting_prio
            idx = len(prio)
            while idx > 0 and prio[idx - 1] < rank:
                idx -= 1
            self.waiting.insert(idx, record)
            self._waiting_lens.insert(
                idx, record.decode_len or self.decode_len)
            prio.insert(idx, rank)
        else:
            self.waiting.append(record)
            self._waiting_lens.append(record.decode_len or self.decode_len)
        if not self.running:
            self.running = True
            sim.schedule_event(0.0, self._k_kick, None)

    def _on_kick(self, sim: Simulation, _: None) -> None:
        """Handler for the idle -> running transition event."""
        self._boundary(sim)

    # simlint: hotpath
    def _on_adv(self, sim: Simulation, _: None) -> None:
        """Handler for a step-boundary advance event.

        Entries land in their bucket exactly at their precomputed
        finish-or-depart step, so every bucketed entry leaves the
        batch here; finishes resolve before departures, matching the
        reference executor's scan order.
        """
        s = self._step_index + 1
        self._step_index = s
        bucket = self._buckets.pop(s, None)
        if bucket is not None:
            fin = self._fin
            dep = self._dep
            for entry in bucket:
                if s - entry[2] >= entry[1]:
                    fin.append(entry)
                else:
                    del entry[4][0]
                    dep.append(entry)
            if fin:
                live = self._live
                progress = self._progress
                track = self._track
                now = sim.now
                on_complete = self.on_complete
                for entry in fin:
                    del live[entry[3]]
                    self._tb_sum -= entry[1] + entry[2]
                    record = entry[0]
                    if track:
                        progress[record.request_id] = s - entry[2]
                    record.completion_time = now
                    on_complete(sim, record)
                del fin[:]
            if dep:
                live = self._live
                progress = self._progress
                hook = self.retrieval_hook
                for entry in dep:
                    del live[entry[3]]
                    self._tb_sum -= entry[1] + entry[2]
                    progress[entry[0].request_id] = s - entry[2]
                    hook(sim, entry[0])
                del dep[:]
        if self.waiting:
            self._boundary(sim)
            return
        if not self._live:
            self.running = False
            return
        # Nothing to admit: schedule the next advance inline, pushing
        # the event straight into the queue slabs (the scheduling-call
        # chain is pure overhead at one event per decode step).
        q = self._q
        free = q._free
        if not free:
            q._grow()
        slot = free.pop()
        q._kinds[slot] = self._k_adv
        q._args[slot] = None
        heapq.heappush(q._heap, (sim.now + self.step_latency,
                                 next(q._counter), slot))

    def _remaining(self, s: int) -> List[int]:
        """Materialized remaining-token list, in admission order."""
        return [entry[1] + entry[2] - s for entry in self._live.values()]

    def _boundary(self, sim: Simulation) -> None:
        """Admit waiting work at the current boundary and schedule the
        next advance."""
        s = self._step_index
        waiting = self.waiting
        if waiting:
            lens = self._waiting_lens
            capacity = self.capacity
            live_count = len(self._live)
            if self._greedy:
                admitted = capacity - live_count
                if len(waiting) < admitted:
                    admitted = len(waiting)
                if admitted < 0:
                    admitted = 0
            elif self._budget is not None:
                policy = self._budget
                budget = policy.max_tokens
                if lens[0] > budget:
                    # Delegate to the real policy so the head-of-line
                    # overflow raises its exact ConfigError.
                    policy.admit(list(lens), self._remaining(s), capacity)
                slots = capacity - live_count
                debt = self._tb_sum - live_count * s
                admitted = 0
                for length in lens:
                    if admitted >= slots or debt + length > budget:
                        break
                    debt += length
                    admitted += 1
            else:
                admitted = self.admission.admit(
                    list(lens), self._remaining(s), capacity)
            now = sim.now
            if self._reorders:
                prio = self._waiting_prio
                for _ in range(admitted):
                    prio.popleft()
            for _ in range(admitted):
                self._admit(now, s, waiting.popleft(), lens.popleft())
        if not self._live:
            self.running = False
            return
        sim.schedule_event(self.step_latency, self._k_adv, None)

    def _admit(self, now: float, s: int, record: RequestRecord,
               length: int) -> None:
        if self._track:
            rid = record.request_id
            prog = self._progress.get(rid)
            if prog is None:
                prog = 0
                self._progress[rid] = 0
                if self.positions_fn is not None:
                    positions = list(self.positions_fn(record))
                else:
                    positions = []
                self._positions[rid] = positions
            else:
                positions = self._positions[rid]
        else:
            prog = 0
            positions = ()
        i = record.slab * self._n + self._si
        wait = self._wait
        prev = wait[i]
        delta = now - self._enq[i]
        wait[i] = delta if prev != prev else prev + delta
        base = s - prog
        k_evt = length - prog
        if positions:
            k_dep = positions[0] - prog
            if k_dep < 1:
                k_dep = 1
            if k_dep < k_evt:
                k_evt = k_dep
        serial = self._serial
        self._serial = serial + 1
        entry = [record, length, base, serial, positions]
        self._live[serial] = entry
        self._tb_sum += length + base
        bucket = self._buckets.get(s + k_evt)
        if bucket is None:
            self._buckets[s + k_evt] = [entry]
        else:
            bucket.append(entry)


#: A completion listener receives each finished request's record.
CompletionFn = Callable[[RequestRecord], None]


class ServingEngine:
    """Incremental, resumable request-level serving simulation.

    One engine owns one :class:`Simulation` and the station network for
    one schedule; its lifecycle is explicit so callers choose the
    driving mode:

    * **open loop** (what :func:`~repro.sim.serving.replay` does):
      submit every request of a trace, then :meth:`drain`;
    * **incremental / live**: interleave :meth:`submit` and
      :meth:`step` as requests arrive in wall time, reading
      :meth:`snapshot` for running statistics and streaming completions
      through ``on_complete``.

    An engine is single-use: once drained (or stepped past a horizon),
    build a new one for the next run. Submissions need not arrive in
    timestamp order -- any arrival at or after the engine's current
    simulated time is schedulable -- but an arrival behind the clock
    is an out-of-order timestamp and raises
    :class:`~repro.errors.ConfigError` (the live front-end in
    :mod:`repro.serve` derives arrivals from a monotonic wall clock,
    so its streams always satisfy this).

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
        on_complete: Optional listener invoked synchronously (during
            :meth:`step`/:meth:`drain`) with each finished request's
            :class:`~repro.sim.metrics.RequestRecord`.
    """

    def __init__(self, perf_model: RAGPerfModel, schedule: Schedule,
                 max_wait: Optional[float] = None, seed: int = 0,
                 dispatch: DispatchSelection = None,
                 admission: Union[None, str, AdmissionPolicy] = None,
                 on_complete: Optional[CompletionFn] = None) -> None:
        self._perf_model = perf_model
        self._schedule = schedule
        self._schema = perf_model.schema
        self._servers = schedule.retrieval_servers
        if self._servers is None:
            self._servers = derive_retrieval_servers(perf_model, schedule)
        self._max_wait = max_wait
        self._seed = seed
        self._dispatch = dispatch
        self._admission = resolve_admission_policy(admission)
        self._listeners: List[CompletionFn] = \
            [on_complete] if on_complete is not None else []
        self._drained = False
        self._sim = Simulation()
        self._accumulator = MetricsAccumulator(self._schema)
        self._next_id = 0
        self._stations: Dict[Stage, Any] = {}
        self._decode: Optional[Any] = None
        # Per-request, per-stage bookkeeping slabs: three
        # flat float lists with stride == number of pipeline stages,
        # NaN = never touched. Materialized into the record's dicts
        # once, at completion.
        stages_all = pipeline_stages(self._schema)
        self._stage_slot = {stage: i
                            for i, stage in enumerate(stages_all)}
        self._stage_items = tuple(self._stage_slot.items())
        self._nstages = len(stages_all)
        self._slab_enq: List[float] = []
        self._slab_comp: List[float] = []
        self._slab_wait: List[float] = []
        self._slab_pad = [math.nan] * self._nstages
        self._slab_n = 0  # requests slabbed so far (the next slab index)
        self._queue = self._sim._queue  # direct arrival pushes in submit
        self._build()

    # -- construction --------------------------------------------------

    def _stage_perf_fn(self, stage: Stage, resource_amount: int):
        plan = self._schedule.shard_plans.get(stage)
        cache: Dict[int, Any] = {}

        def perf(batch: int):
            # RAGPerfModel.perf is pure; memoizing per (stage, amount)
            # skips the plan-cache plumbing on the dispatch hot path.
            result = cache.get(batch)
            if result is None:
                result = self._perf_model.perf(stage, batch,
                                               resource_amount, plan=plan)
                cache[batch] = result
            return result

        return perf

    def _station_policy(self, stage: Stage,
                        default_wait: float) -> DispatchPolicy:
        """The stage's dispatch policy, resolved against its deadline.

        Deadline precedence: the policy's own ``max_wait``, then the
        engine-wide ``max_wait`` argument, then the stage's batch
        latency.
        """
        selection = self._dispatch
        if isinstance(selection, Mapping):
            selection = selection.get(stage)
        policy = resolve_dispatch_policy(selection)
        if self._max_wait is not None:
            default_wait = self._max_wait
        return policy.resolve(default_wait)

    def _build(self) -> None:
        schema = self._schema
        sim = self._sim
        self._k_arrival = sim.register_handler(self._on_arrival)
        self._k_free = sim.register_handler(_release_resource)
        self._k_complete = sim.register_handler(_complete_batch)
        self._k_flush = sim.register_handler(_flush_station)
        stages = [stage for stage in pipeline_stages(schema)
                  if stage is not Stage.DECODE]
        resources: Dict[int, _Resource] = {}
        for index, group in enumerate(self._schedule.groups):
            resources[index] = _Resource(
                name="+".join(str(s) for s in group.stages))
        retrieval_resource = _Resource("retrieval-servers")
        self._resources = [res for res in resources.values()
                           if "decode" not in res.name]
        if schema.has_retrieval:
            self._resources.append(retrieval_resource)

        # Build stations back to front so each knows its successor.
        deliver_next = self._enter_decode
        for stage in reversed(stages):
            if stage is Stage.RETRIEVAL:
                resource = retrieval_resource
                amount = self._servers
            else:
                group_index = next(
                    i for i, group in enumerate(self._schedule.groups)
                    if stage in group.stages)
                resource = resources[group_index]
                amount = self._schedule.groups[group_index].num_xpus
            batch = self._schedule.batches[stage]
            perf_fn = self._stage_perf_fn(stage, amount)
            policy = self._station_policy(stage, perf_fn(batch).latency)
            station = self._make_station(
                stage, batch, perf_fn, resource, deliver_next, policy,
                sets_first_token=stage is Stage.PREFIX)
            self._stations[stage] = station
            deliver_next = station.accept
        self._entry = deliver_next

        decode_group = next(group for group in self._schedule.groups
                            if Stage.DECODE in group.stages)
        decode_batch = self._schedule.batches[Stage.DECODE]
        decode_perf = self._perf_model.perf(Stage.DECODE, decode_batch,
                                            decode_group.num_xpus)
        step_latency = decode_perf.latency / schema.sequences.decode_len

        retrieval_hook = None
        positions_fn = None
        if schema.is_iterative:
            # Iterative retrieval + re-prefix stations: retrieval shares
            # the CPU servers with the initial retrieval; the re-prefix
            # time-multiplexes the prefix group's chips (§6.1 [III]).
            iter_batch = (self._schedule.iterative_batch
                          or self._schedule.batches[Stage.RETRIEVAL])
            prefix_index = next(
                i for i, group in enumerate(self._schedule.groups)
                if Stage.PREFIX in group.stages)
            retrieval_perf_fn = self._stage_perf_fn(Stage.RETRIEVAL,
                                                    self._servers)
            prefix_perf_fn = self._stage_perf_fn(
                Stage.PREFIX, self._schedule.groups[prefix_index].num_xpus)
            # The re-prefix delivers straight into decode: the first
            # token was already produced by the initial prefix.
            iter_prefix = self._make_station(
                Stage.PREFIX, iter_batch, prefix_perf_fn,
                resources[prefix_index], self._enter_decode,
                self._station_policy(Stage.PREFIX,
                                     prefix_perf_fn(iter_batch).latency),
                sets_first_token=False)
            iter_retrieval = self._make_station(
                Stage.RETRIEVAL, iter_batch, retrieval_perf_fn,
                retrieval_resource, iter_prefix.accept,
                self._station_policy(Stage.RETRIEVAL,
                                     retrieval_perf_fn(iter_batch).latency),
                sets_first_token=False)
            retrieval_hook = iter_retrieval.accept
            retrievals = schema.retrieval_frequency - 1
            base_seed = self._seed

            def positions_fn(record: RequestRecord):
                from repro.workloads.sequences import (
                    sample_retrieval_positions,
                )
                length = record.decode_len or schema.sequences.decode_len
                count = min(retrievals, max(length - 1, 0))
                return sample_retrieval_positions(
                    length, count, seed=base_seed + record.request_id)

        self._decode = self._make_decode(
            capacity=decode_batch, step_latency=step_latency,
            decode_len=schema.sequences.decode_len,
            retrieval_hook=retrieval_hook, positions_fn=positions_fn)

    def _make_station(self, stage: Stage, batch_size: int,
                      perf_fn: Callable[[int], "object"],
                      resource: _Resource,
                      downstream: Callable[[Simulation, RequestRecord],
                                           None],
                      policy: DispatchPolicy,
                      sets_first_token: bool) -> _BatchStation:
        """One batch station feeding ``downstream``; ``sets_first_token``
        stamps each record's first-token time on its first completion."""
        return _BatchStation(stage, batch_size, perf_fn, resource, self,
                             downstream, policy, sets_first_token)

    def _make_decode(self, **knobs) -> _DecodeExecutor:
        """The decode executor (``knobs``: capacity, step_latency,
        decode_len, retrieval_hook, positions_fn)."""
        return _DecodeExecutor(on_complete=self._request_done,
                               admission=self._admission, engine=self,
                               **knobs)

    def _enter_decode(self, sim: Simulation, record: RequestRecord) -> None:
        self._decode.accept(sim, record)

    def _on_arrival(self, sim: Simulation, record: RequestRecord) -> None:
        self._entry(sim, record)

    def _materialize(self, record: RequestRecord) -> None:
        """Fill the record's per-stage dicts from the engine slabs.

        Runs once per request, at completion, before the accumulator
        and listeners observe the record -- the engine's only
        per-request dict work. NaN marks a stage never touched
        (NaN != NaN, so ``v == v`` is the "was set" test).
        """
        base = record.slab * self._nstages
        enq = self._slab_enq
        comp = self._slab_comp
        wait = self._slab_wait
        enqueues = record.stage_enqueues
        completions = record.stage_completions
        waits = record.queue_waits
        for stage, offset in self._stage_items:
            i = base + offset
            v = enq[i]
            if v == v:
                enqueues[stage] = v
            v = comp[i]
            if v == v:
                completions[stage] = v
            v = wait[i]
            if v == v:
                waits[stage] = v

    def _request_done(self, sim: Simulation, record: RequestRecord) -> None:
        self._materialize(record)
        self._accumulator.finish(record)
        for listener in self._listeners:
            listener(record)

    # -- lifecycle -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._sim.now

    @property
    def offered(self) -> int:
        """Requests submitted so far."""
        return self._accumulator.offered

    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return self._accumulator.completed

    @property
    def in_flight(self) -> int:
        """Submitted but unfinished requests."""
        return self.offered - self.completed

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier offered/completed counts so far (empty when the
        traffic carries no identity)."""
        return self._accumulator.tier_counts()

    @property
    def events_processed(self) -> int:
        """DES events executed so far (the bench harness's numerator)."""
        return self._sim.events_processed

    @property
    def records(self) -> List[RequestRecord]:
        """All submitted records, in submission order."""
        return self._accumulator.records

    @property
    def schema(self):
        """The workload schema this engine serves."""
        return self._schema

    @property
    def schedule(self) -> Schedule:
        """The deployment under test."""
        return self._schedule

    def add_listener(self, listener: CompletionFn) -> None:
        """Subscribe an additional completion listener."""
        self._listeners.append(listener)

    def submit(self, arrival: float, decode_len: Optional[int] = None,
               *, user_id: Optional[str] = None,
               session_id: Optional[str] = None,
               tier: Optional[str] = None) -> RequestRecord:
        """Inject one request at simulated time ``arrival``.

        Args:
            arrival: Arrival timestamp in simulated seconds. Must be
                finite, non-negative, and at or after the engine's
                current time (submissions need not be sorted among
                themselves -- metrics account for the earliest arrival
                regardless of submission order).
            decode_len: Tokens this request generates (the workload
                profile's decode length when None).
            user_id / session_id / tier: Optional identity carried by
                multi-user workloads; rides the record into tier-aware
                admission and per-tier reporting. Anonymous submissions
                leave all three None.

        Returns:
            The request's live :class:`RequestRecord` (its fields fill
            in as the simulation advances).

        Raises:
            ConfigError: on a timestamp behind the engine's clock, a
                non-positive decode length, or an engine that has
                already been drained (single-use lifecycle).
        """
        record = self._new_record(arrival, decode_len, user_id,
                                  session_id, tier)
        # The slab index is engine-local and deliberately separate
        # from request_id (FleetEngine rewrites request_id to the
        # fleet-wide arrival index after submission).
        record.slab = self._slab_n
        self._slab_n += 1
        pad = self._slab_pad
        self._slab_enq.extend(pad)
        self._slab_comp.extend(pad)
        self._slab_wait.extend(pad)
        # Push the arrival event at its absolute time straight into the
        # slab queue: arrival >= now was validated by _new_record, and
        # replay-heavy callers submit whole traces, so the call layers
        # matter.
        q = self._queue
        free = q._free
        if not free:
            q._grow()
        slot = free.pop()
        q._kinds[slot] = self._k_arrival
        q._args[slot] = record
        heapq.heappush(q._heap, (arrival, next(q._counter), slot))
        return record

    def _new_record(self, arrival: float, decode_len: Optional[int],
                    user_id: Optional[str], session_id: Optional[str],
                    tier: Optional[str]) -> RequestRecord:
        """Validate one submission and register its record (the part
        of :meth:`submit` that does not depend on the wiring)."""
        if self._drained:
            raise ConfigError(
                "engine already drained; a ServingEngine is single-use "
                "-- build a new engine for the next run")
        if not isinstance(arrival, (int, float)) \
                or not math.isfinite(arrival):
            raise ConfigError("arrival must be a finite number")
        if arrival < 0:
            raise ConfigError("arrival times must be non-negative")
        if arrival < self._sim.now:
            raise ConfigError(
                f"out-of-order timestamp: arrival {arrival} is in the "
                f"engine's past (simulated time {self._sim.now})")
        if decode_len is None:
            decode_len = self._schema.sequences.decode_len
        if decode_len <= 0:
            raise ConfigError("decode lengths must be positive")
        record = RequestRecord(request_id=self._next_id, arrival=arrival,
                               decode_len=int(decode_len),
                               user_id=user_id, session_id=session_id,
                               tier=tier)
        self._next_id += 1
        self._accumulator.add(record)
        return record

    def step(self, until: float) -> float:
        """Advance simulated time to ``until``, processing due events.

        Events scheduled past ``until`` stay queued (in order), so
        stepping is resumable; completions fire listeners synchronously.

        Returns:
            The engine's simulated time after the step (``until``).
        """
        if until < self._sim.now:
            raise ConfigError("cannot step backwards in time")
        self._sim.run(until=until)
        return self._sim.now

    def next_event_time(self) -> Optional[float]:
        """The earliest queued event's timestamp, or None when idle.

        Conservative co-simulation hook: a driver interleaving several
        engines (closed-loop fleets) must never advance one engine past
        another's earliest pending event, or cross-engine feedback
        lands in the past.
        """
        queue = self._sim._queue
        return queue.peek_time() if queue else None

    def drain(self) -> float:
        """Run the network empty: process every remaining event.

        After a drain the engine is spent: further :meth:`submit` calls
        raise :class:`~repro.errors.ConfigError` (the documented
        single-use lifecycle, previously corrupted silently).

        Returns:
            The simulated time of the last event.
        """
        self._sim.run()
        self._drained = True
        return self._sim.now

    def _run_to_quiescence(self) -> float:
        """Run the event queue empty *without* sealing the engine.

        :class:`~repro.sim.fleet.FleetEngine` owns its replicas'
        lifecycle and reuses them across fleet-level drains (drain to
        settle retirements, then keep routing traffic), so its drain
        must not trip the public single-use seal.

        Returns:
            The simulated time of the last event.
        """
        self._sim.run()
        return self._sim.now

    # -- results -------------------------------------------------------

    def busy_times(self) -> Dict[str, float]:
        """Accumulated busy seconds per pre-decode resource name."""
        return {resource.name: resource.busy_time
                for resource in self._resources}

    def snapshot(self) -> LiveSnapshot:
        """Running statistics at the engine's current time (O(1))."""
        return self._accumulator.snapshot(self._sim.now)

    def metrics(self) -> ServingMetrics:
        """Aggregate metrics over everything submitted so far."""
        return self._accumulator.metrics(self.busy_times())

    def report(self, trace: RequestTrace,
               slo: Optional[SLOTarget] = None) -> ServingReport:
        """The trace-level :class:`ServingReport` for this run.

        Args:
            trace: The traffic that was (or would be) replayed; supplies
                scenario name and metadata. Use :meth:`recorded_trace`
                for a live run.
            slo: Latency targets (unconstrained when None).
        """
        return self._accumulator.report(trace, slo or SLOTarget(),
                                        self.busy_times())

    def recorded_trace(self, **metadata) -> RequestTrace:
        """The submissions observed so far, as a replayable trace.

        Every engine submission carries an explicit decode length, so
        the trace replays to the same per-request lifecycles. Records
        are emitted in arrival order (a stable sort, so same-instant
        submissions keep their tie-break rank); submission order may
        differ when the caller injected out-of-order timestamps.
        Metadata defaults to ``{"scenario": "live"}``; keyword
        arguments merge on top.

        Raises:
            ConfigError: when nothing has been submitted (an empty
                trace is not representable).
        """
        records = self._accumulator.records
        if not records:
            raise ConfigError("no submissions recorded; an empty trace "
                              "cannot be built")
        merged = {"scenario": "live"}
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
