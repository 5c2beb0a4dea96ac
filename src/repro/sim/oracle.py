"""Reference serving engine: the closure-per-event DES network.

:class:`OracleServingEngine` is the original wiring of the serving
network, kept as the executable specification that the shipped
:class:`~repro.sim.engine.ServingEngine` is checked against. Every
event is a closure, every per-stage timestamp goes straight into the
record's dicts, and the decode executor walks the whole running batch
each step -- slow, but obviously right. The parity suite pins the two
engines to bit-identical :class:`~repro.sim.metrics.ServingReport`\\ s,
records and event counts, and the CI perf floor times the shipped
engine against this one on the same canonical replay.

Nothing in the production package imports this module; tests, the
perf-floor benchmark and ``repro bench --oracle`` do.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.schema.stages import Stage
from repro.sim.engine import ServingEngine, Simulation, _Resource
from repro.sim.metrics import RequestRecord
from repro.sim.policies import AdmissionPolicy, DispatchPolicy

__all__ = ["OracleServingEngine"]


class _OracleBatchStation:
    """One pipeline stage batching requests on a shared resource.

    A batch occupies the resource for its *initiation interval*
    (``batch / throughput``): pipeline-parallel prefill overlaps
    consecutive batches, so the resource frees before the batch's full
    latency has elapsed; results are delivered at the latency.

    When to fire and how much to take are delegated to a
    :class:`~repro.sim.policies.DispatchPolicy` (already resolved
    against this stage's default deadline).
    """

    def __init__(self, stage: Stage, batch_size: int,
                 perf_fn: Callable[[int], "object"], resource: _Resource,
                 deliver: Callable[[Simulation, RequestRecord], None],
                 policy: DispatchPolicy) -> None:
        self.stage = stage
        self.batch_size = batch_size
        self.perf_fn = perf_fn
        self.resource = resource
        self.deliver = deliver
        self.policy = policy
        self.queue: List[RequestRecord] = []
        self._oldest_enqueue: Optional[float] = None
        self._flush_scheduled = False
        resource.stations.append(self)

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self.queue.append(record)
        record.stage_enqueues[self.stage] = sim.now
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
                sim.schedule(max(delay, 0.0), self._flush)

    def _flush(self, sim: Simulation) -> None:
        # Force-dispatch the partial batch (float rounding must not turn
        # the staleness check into a zero-delay reschedule loop).
        self._flush_scheduled = False
        if not self.resource.busy and self.queue:
            self._dispatch(sim, self.policy.flush_take(len(self.queue),
                                                       self.batch_size))

    def _dispatch(self, sim: Simulation, take: int) -> None:
        batch = self.queue[:take]
        del self.queue[:take]
        for record in batch:
            enqueued = record.stage_enqueues.get(self.stage, sim.now)
            record.queue_waits[self.stage] = \
                record.queue_waits.get(self.stage, 0.0) \
                + (sim.now - enqueued)
        self._oldest_enqueue = sim.now if self.queue else None
        self.resource.busy = True
        perf = self.perf_fn(take)
        latency = perf.latency
        occupancy = min(take / perf.request_qps, latency)
        self.resource.busy_time += occupancy

        def free(sim_: Simulation) -> None:
            self.resource.release(sim_)

        def complete(sim_: Simulation, batch_=batch) -> None:
            for record in batch_:
                record.stage_completions[self.stage] = sim_.now
            for record in batch_:
                self.deliver(sim_, record)

        sim.schedule(occupancy, free)
        sim.schedule(latency, complete)


class _OracleDecodeExecutor:
    """Continuous-batching decode: sequences join at step boundaries and
    leave after their own decode length (variable-length requests mix in
    the batch, which is why the paper reports worst-case TPOT).

    *Who* joins at a step boundary is the
    :class:`~repro.sim.policies.AdmissionPolicy`'s call.

    For iterative schemas (Case III), a sequence that hits one of its
    retrieval positions leaves the batch through ``retrieval_hook`` (to
    the retrieval + re-prefix stations) and re-joins via :meth:`accept`
    when the new context has been integrated.
    """

    def __init__(self, capacity: int, step_latency: float, decode_len: int,
                 on_complete: Callable[[Simulation, RequestRecord], None],
                 admission: AdmissionPolicy,
                 retrieval_hook: Optional[
                     Callable[[Simulation, RequestRecord], None]] = None,
                 positions_fn: Optional[
                     Callable[[RequestRecord], List[int]]] = None) -> None:
        self.capacity = capacity
        self.step_latency = step_latency
        self.decode_len = decode_len
        self.on_complete = on_complete
        self.admission = admission
        self.retrieval_hook = retrieval_hook
        self.positions_fn = positions_fn
        self.waiting: List[RequestRecord] = []
        self.remaining: List[List] = []  # [record, target]
        self.running = False
        self._progress: Dict[int, int] = {}
        self._positions: Dict[int, List[int]] = {}
        # Priority-aware policies reorder the waiting queue at accept;
        # stock policies keep the exact historical append (bit-identity
        # with pre-priority traces).
        self._reorders = admission.reorders_waiting
        self._waiting_prio: List[int] = []

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        if self._reorders:
            # Stable insert: higher rank first, FIFO within a rank.
            rank = self.admission.priority(record)
            prio = self._waiting_prio
            idx = len(prio)
            while idx > 0 and prio[idx - 1] < rank:
                idx -= 1
            self.waiting.insert(idx, record)
            prio.insert(idx, rank)
        else:
            self.waiting.append(record)
        record.stage_enqueues[Stage.DECODE] = sim.now
        if not self.running:
            self.running = True
            sim.schedule(0.0, self._step)

    def _admit(self, now: float, record: RequestRecord) -> None:
        if record.request_id not in self._progress:
            self._progress[record.request_id] = 0
            if self.positions_fn is not None:
                self._positions[record.request_id] = list(
                    self.positions_fn(record))
            else:
                self._positions[record.request_id] = []
        enqueued = record.stage_enqueues.get(Stage.DECODE, now)
        record.queue_waits[Stage.DECODE] = \
            record.queue_waits.get(Stage.DECODE, 0.0) + (now - enqueued)
        target = record.decode_len or self.decode_len
        self.remaining.append([record, target])

    def _step(self, sim: Simulation) -> None:
        # Admit new sequences per the admission policy.
        if self.waiting:
            admitted = self.admission.admit(
                [record.decode_len or self.decode_len
                 for record in self.waiting],
                [entry[1] - self._progress[entry[0].request_id]
                 for entry in self.remaining],
                self.capacity)
            if self._reorders:
                del self._waiting_prio[:admitted]
            for _ in range(admitted):
                self._admit(sim.now, self.waiting.pop(0))
        if not self.remaining:
            self.running = False
            return

        def advance(sim_: Simulation) -> None:
            finished = []
            departing = []
            for entry in self.remaining:
                record = entry[0]
                self._progress[record.request_id] += 1
                done = self._progress[record.request_id]
                if done >= entry[1]:
                    finished.append(entry)
                    continue
                positions = self._positions[record.request_id]
                if positions and done >= positions[0]:
                    positions.pop(0)
                    departing.append(entry)
            for entry in finished:
                self.remaining.remove(entry)
                entry[0].completion_time = sim_.now
                self.on_complete(sim_, entry[0])
            for entry in departing:
                self.remaining.remove(entry)
                self.retrieval_hook(sim_, entry[0])
            self._step(sim_)

        sim.schedule(self.step_latency, advance)


class OracleServingEngine(ServingEngine):
    """:class:`~repro.sim.engine.ServingEngine` on the reference network.

    Same constructor, lifecycle and results as the shipped engine; only
    the wiring differs: arrivals are scheduled as closures, stations and
    the decode executor are the closure-per-event classes above, and
    per-stage timestamps are written into each record's dicts as they
    happen (so no bookkeeping slabs are allocated or materialized).
    """

    def _make_station(self, stage: Stage, batch_size: int,
                      perf_fn: Callable[[int], "object"],
                      resource: _Resource,
                      downstream: Callable[[Simulation, RequestRecord],
                                           None],
                      policy: DispatchPolicy,
                      sets_first_token: bool) -> _OracleBatchStation:
        deliver = downstream
        if sets_first_token:
            def deliver(sim: Simulation, record: RequestRecord) -> None:
                if record.first_token_time is None:
                    record.first_token_time = sim.now
                downstream(sim, record)

        return _OracleBatchStation(stage, batch_size, perf_fn, resource,
                                   deliver, policy)

    def _make_decode(self, **knobs) -> _OracleDecodeExecutor:
        return _OracleDecodeExecutor(on_complete=self._request_done,
                                     admission=self._admission, **knobs)

    def submit(self, arrival: float, decode_len: Optional[int] = None,
               *, user_id: Optional[str] = None,
               session_id: Optional[str] = None,
               tier: Optional[str] = None) -> RequestRecord:
        record = self._new_record(arrival, decode_len, user_id,
                                  session_id, tier)
        self._sim.schedule_at(arrival,
                              lambda s, r=record: self._entry(s, r))
        return record

    def _request_done(self, sim: Simulation, record: RequestRecord) -> None:
        self._accumulator.finish(record)
        for listener in self._listeners:
            listener(record)
