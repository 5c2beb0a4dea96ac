"""Exhaustive schedule search with Pareto pruning (Algorithm 1).

The paper's Algorithm 1 proceeds in three steps: (1) profile each stage
across resource allocations and batch sizes, (2) generate schedules as
the Cartesian product of placement x allocation x batching options, and
(3) assemble end-to-end performance and keep the Pareto frontier.

A naive Cartesian product is astronomically large, but the objective
space is separable: TTFT is a *sum* of stage latencies and QPS is a *min*
over stage groups (harmonic within a collocated group), so partial
schedules can be merged pairwise and pruned to their Pareto subset after
every merge without losing any optimal point. That is exactly what this
module does; the final frontier candidates are re-evaluated through
:func:`repro.pipeline.assembly.assemble` so the reported numbers come
from the single authoritative composition path (including iterative-
retrieval adjustments).

Three things keep the search's cost close to linear in the points it
keeps:

* a serial merge of two Pareto lists is a two-pointer walk over their
  QPS levels, O(|L| + |R|), not a sorted cross product;
* allocations arrive in lexicographic order, so the plan loop keeps a
  stack of merged prefixes and recomputes only from the first group
  whose chip count changed (and from the retrieval-spanning group when
  the retrieval-server count changed);
* candidates stay plain tuples; a :class:`Schedule` is built only for
  the points that survive the frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigError, ScheduleError
from repro.pipeline.assembly import PipelinePerf, PlacementGroup, Schedule, assemble
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.batching import batch_options
from repro.rago.pareto import pareto_front
from repro.rago.placement import Placement, enumerate_placements
from repro.rago.allocation import enumerate_allocations
from repro.schema.stages import Stage, spans_retrieval, ttft_stages

#: A partial schedule's batching choices:
#: ((stage, batch, sharding plan or None), ...).
_Choices = Tuple[Tuple[Stage, int, object], ...]
#: Partial-schedule option: (ttft seconds, qps, choices).
_Option = Tuple[float, float, _Choices]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs bounding RAGO's search space (the paper's "granularity").

    The plan-space fields (``budget_xpus``, ``placements``,
    ``allocations``) and the batch caps bound both
    :func:`search_schedules` and the split-generation search
    (:func:`repro.rago.hetero.split_generation_search`);
    ``collect_per_plan`` and ``max_frontier_points`` only apply to
    :func:`search_schedules`.

    Attributes:
        budget_xpus: Total accelerator budget; None uses the cluster's.
        max_batch: Largest pre-decode batch size considered.
        max_decode_batch: Largest decode batch size considered.
        placements: Restrict the placement plans searched (None = all
            legal plans); used for the placement-sensitivity study.
        allocations: Restrict the chip allocations searched (None = all
            power-of-two splits within the budget); tuples must match a
            placement's group count and are skipped otherwise. Used by
            the LLM-extension baseline's fixed 1:1 prefix:decode split.
        collect_per_plan: Also return a per-(placement, allocation)
            Pareto frontier for the composition analyses (Figs. 16, 18).
        max_frontier_points: Safety cap on retained candidates between
            pruning passes.
    """

    budget_xpus: Optional[int] = None
    max_batch: int = 128
    max_decode_batch: int = 1024
    placements: Optional[Sequence[Placement]] = None
    allocations: Optional[Sequence[Tuple[int, ...]]] = None
    collect_per_plan: bool = False
    max_frontier_points: int = 4096

    def __post_init__(self) -> None:
        # Normalize the restriction containers to nested tuples so that
        # equal restrictions compare equal (and serialization round-trips
        # exactly) no matter which sequence type the caller used.
        if self.placements is not None:
            object.__setattr__(self, "placements", tuple(
                tuple(tuple(group) for group in placement)
                for placement in self.placements))
        if self.allocations is not None:
            object.__setattr__(self, "allocations", tuple(
                tuple(allocation) for allocation in self.allocations))


@dataclass(frozen=True)
class PlanFrontier:
    """Pareto frontier of one placement + allocation plan."""

    placement: Placement
    allocation: Tuple[int, ...]
    points: Tuple[Tuple[float, float], ...]  # (ttft, qps_per_chip)


@dataclass
class SearchResult:
    """Outcome of a schedule search.

    Attributes:
        frontier: Pareto-optimal end-to-end performances (each carries
            its schedule), sorted by ascending TTFT.
        num_plans: Placement x allocation plans evaluated.
        num_candidates: Batching-policy points surviving plan-level
            pruning.
        per_plan: Optional per-plan frontiers (when collected).
    """

    frontier: List[PipelinePerf]
    num_plans: int = 0
    num_candidates: int = 0
    per_plan: List[PlanFrontier] = field(default_factory=list)

    @property
    def max_qps_per_chip(self) -> PipelinePerf:
        """Frontier point with the highest QPS/chip."""
        if not self.frontier:
            raise ScheduleError("empty frontier")
        return max(self.frontier, key=lambda perf: perf.qps_per_chip)

    @property
    def min_ttft(self) -> PipelinePerf:
        """Frontier point with the lowest TTFT."""
        if not self.frontier:
            raise ScheduleError("empty frontier")
        return min(self.frontier, key=lambda perf: perf.ttft)


def _prune(options: List[_Option]) -> List[_Option]:
    """Pareto subset: minimize ttft, maximize qps."""
    if not options:
        return []
    options.sort(key=lambda opt: (opt[0], -opt[1]))
    pruned: List[_Option] = []
    best_qps = -math.inf
    for option in options:
        if option[1] > best_qps:
            pruned.append(option)
            best_qps = option[1]
    return pruned


class _Profiler:
    """Caches per-stage and per-group option sets (Algorithm 1, step 1)."""

    def __init__(self, perf_model: RAGPerfModel, config: SearchConfig) -> None:
        self.perf_model = perf_model
        self._config = config
        self._schema = perf_model.schema
        self._ttft_set = set(ttft_stages(self._schema))
        freq = self._schema.retrieval_frequency
        self._visits: Dict[Stage, float] = {}
        if self._schema.is_iterative:
            self._visits[Stage.RETRIEVAL] = float(freq)
            self._visits[Stage.PREFIX] = float(freq)
        self._stage_cache: Dict[Tuple[Stage, int], List[_Option]] = {}
        self._group_cache: Dict[Tuple[Tuple[Stage, ...], int],
                                List[_Option]] = {}

    def stage_options(self, stage: Stage, resource: int) -> List[_Option]:
        """Pareto (ttft, qps) points over batch sizes and sharding plans
        for one stage."""
        key = (stage, resource)
        if key in self._stage_cache:
            return self._stage_cache[key]
        options: List[_Option] = []
        visits = self._visits.get(stage, 1.0)
        for batch in batch_options(stage, self._config.max_batch,
                                   self._config.max_decode_batch):
            try:
                perfs = self.perf_model.perf_options(stage, batch, resource)
            except CapacityError:
                continue
            for perf in perfs:
                ttft = perf.latency if stage in self._ttft_set else 0.0
                qps = perf.request_qps / visits
                options.append((ttft, qps,
                                ((stage, batch, perf.plan),)))
        pruned = _prune(options)
        self._stage_cache[key] = pruned
        return pruned

    def group_options(self, stages: Tuple[Stage, ...],
                      num_xpus: int) -> List[_Option]:
        """Pareto points for a collocated group (harmonic throughput)."""
        key = (stages, num_xpus)
        if key in self._group_cache:
            return self._group_cache[key]
        # Accumulate (ttft_sum, inverse_qps_sum, batches) across stages.
        # A cross product, like _harmonic_merge and for the same reason
        # (harmonic throughput); the result is cached per key.
        partial: List[Tuple[float, float, Tuple[Tuple[Stage, int], ...]]]
        partial = [(0.0, 0.0, ())]
        for stage in stages:
            stage_opts = self.stage_options(stage, num_xpus)
            if not stage_opts:
                partial = []
                break
            merged = []
            for acc_ttft, acc_inv, acc_batches in partial:
                for ttft, qps, batches in stage_opts:
                    merged.append((acc_ttft + ttft, acc_inv + 1.0 / qps,
                                   acc_batches + batches))
            # Prune on (ttft, inverse-qps): both minimized.
            merged.sort(key=lambda opt: (opt[0], opt[1]))
            pruned = []
            best_inv = math.inf
            for option in merged:
                if option[1] < best_inv:
                    pruned.append(option)
                    best_inv = option[1]
            partial = pruned
        options = [(ttft, 1.0 / inv, batches)
                   for ttft, inv, batches in partial if inv > 0]
        pruned = _prune(options)
        self._group_cache[key] = pruned
        return pruned


def _serial_merge(left: List[_Option], right: List[_Option]) -> List[_Option]:
    """Compose two disaggregated segments: TTFT adds, QPS takes the min.

    Both inputs must be Pareto lists as :func:`_prune` returns them:
    TTFT and QPS both strictly rising. Then the composed frontier is a
    two-pointer walk in O(|left| + |right|): each step emits the cheapest
    pair that reaches the next QPS level (the smaller of the two current
    QPS values) and advances whichever side set it, or both on a tie. The
    walk's pair for every level is the minimal ``(i, j)``, and float
    addition is monotone, so the result -- choice tuples included -- is
    exactly ``_prune`` of the full cross product.
    """
    merged: List[_Option] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a_ttft, a_qps, a_b = left[i]
        b_ttft, b_qps, b_b = right[j]
        ttft = a_ttft + b_ttft
        point = (ttft, a_qps if a_qps <= b_qps else b_qps, a_b + b_b)
        if merged and merged[-1][0] == ttft:
            # Same TTFT, higher QPS: the previous level is dominated.
            merged[-1] = point
        else:
            merged.append(point)
        if a_qps <= b_qps:
            i += 1
        if b_qps <= a_qps:
            j += 1
    return merged


def _harmonic_merge(left: List[_Option],
                    right: List[_Option]) -> List[_Option]:
    """Compose two time-multiplexed segments: TTFT adds, QPS composes
    harmonically (the §6.1 retrieval-stall rule for collocated groups
    that straddle the retrieval stage).

    This keeps the full cross product: a harmonic QPS depends on both
    sides at once, not on the smaller one, so no QPS threshold splits
    the walk the way :func:`_serial_merge` does. It runs only when the
    plan loop rebuilds a spanning group's prefix, which keeps it cheap.
    """
    merged = [(a_ttft + b_ttft,
               1.0 / (1.0 / a_qps + 1.0 / b_qps),
               a_b + b_b)
              for a_ttft, a_qps, a_b in left
              for b_ttft, b_qps, b_b in right]
    return _prune(merged)


def _plans(config: SearchConfig, retrieval: _Profiler,
           group_profiler: Callable[[Tuple[Stage, ...]], _Profiler]
           ) -> Iterator[Tuple[Placement, Tuple[int, ...], int,
                               List[_Option]]]:
    """Algorithm 1's plan loop: placement x allocation, batching composed.

    Yields ``(placement, allocation, retrieval_servers, options)`` for
    every plan in ``config``'s space; ``options`` (the plan's Pareto
    (ttft, qps, choices) points) is empty when the plan is infeasible.
    ``group_profiler`` costs each placement group, so one search can run
    groups on different XPU generations; ``retrieval`` costs retrieval
    and its model supplies the schema and the cluster's shape.

    Raises:
        ConfigError: on a budget outside the cluster.
    """
    schema = retrieval.perf_model.schema
    cluster = retrieval.perf_model.cluster
    budget = config.budget_xpus or cluster.total_xpus
    if budget <= 0:
        raise ConfigError("budget_xpus must be positive")
    if budget > cluster.total_xpus:
        raise ConfigError(f"budget {budget} exceeds the cluster's "
                          f"{cluster.total_xpus} XPUs")
    placements = (config.placements if config.placements is not None
                  else enumerate_placements(schema))
    retrieval_floor = (retrieval.perf_model.retrieval.min_servers()
                       if schema.has_retrieval else 0)

    for placement in placements:
        profilers = [group_profiler(group) for group in placement]
        try:
            group_minimums = [
                max(profiler.perf_model.min_resource(stage) for stage in group)
                for group, profiler in zip(placement, profilers)]
        except CapacityError:
            continue
        if config.allocations is not None:
            allocations = [
                allocation for allocation in config.allocations
                if len(allocation) == len(placement)
                and sum(allocation) <= budget
                and all(chips >= minimum for chips, minimum
                        in zip(allocation, group_minimums))
            ]
        else:
            try:
                allocations = list(enumerate_allocations(group_minimums,
                                                         budget))
            except ConfigError:
                continue
        spanning_index = next(
            (index for index, group in enumerate(placement)
             if len(group) > 1 and spans_retrieval(group, schema)),
            None)
        # merged[k] composes groups 0..k (§6.1 applied) for the
        # allocation and retrieval-server count it was built with; an
        # empty entry ends the stack (that group is infeasible).
        merged: List[List[_Option]] = []
        built_for: Tuple[int, ...] = ()
        built_servers = 0
        for allocation in allocations:
            servers = 0
            retrieval_opts: List[_Option] = []
            if schema.has_retrieval:
                servers = max(retrieval_floor,
                              cluster.servers_for_xpus(sum(allocation)))
                if servers <= cluster.num_servers:
                    retrieval_opts = retrieval.stage_options(Stage.RETRIEVAL,
                                                             servers)
                if not retrieval_opts:
                    yield placement, allocation, servers, []
                    continue
            # Allocations come in lexicographic order, so consecutive
            # ones mostly share a head: keep the merged prefix up to the
            # first group whose chips changed. From the spanning group
            # on, the prefix also depends on the retrieval servers.
            keep = 0
            while keep < len(merged) and allocation[keep] == built_for[keep]:
                keep += 1
            if spanning_index is not None and servers != built_servers:
                keep = min(keep, spanning_index)
            del merged[keep:]
            for index in range(keep, len(placement)):
                if merged and not merged[-1]:
                    break
                group_opts = profilers[index].group_options(
                    placement[index], allocation[index])
                if group_opts and index == spanning_index:
                    # §6.1: chips idle during retrieval between the
                    # group's stages -- retrieval joins its cycle.
                    group_opts = _harmonic_merge(group_opts,
                                                 retrieval_opts)
                merged.append(group_opts if not merged or not group_opts
                              else _serial_merge(merged[-1], group_opts))
            built_for, built_servers = allocation, servers
            options = merged[-1] if merged else []
            if options and schema.has_retrieval and spanning_index is None:
                options = _serial_merge(options, retrieval_opts)
            yield placement, allocation, servers, options


def search_schedules(perf_model: RAGPerfModel,
                     config: Optional[SearchConfig] = None) -> SearchResult:
    """Run Algorithm 1 and return the TTFT vs. QPS/chip frontier.

    Raises:
        ScheduleError: when no feasible schedule exists in the budget.
        ConfigError: on inconsistent configuration.
    """
    config = config or SearchConfig()
    schema = perf_model.schema
    cluster = perf_model.cluster
    profiler = _Profiler(perf_model, config)

    # (ttft, qps_per_chip, groups, servers, choices): a Schedule is
    # built only for the points that survive the frontier.
    candidates: List[Tuple[float, float, Tuple[PlacementGroup, ...], int,
                           _Choices]] = []
    per_plan: List[PlanFrontier] = []
    num_plans = 0
    num_candidates = 0

    for placement, allocation, servers, options in _plans(
            config, profiler, lambda group: profiler):
        num_plans += 1
        if not options:
            continue
        charged_chips = max(sum(allocation),
                            servers * cluster.xpus_per_server)
        groups = tuple(PlacementGroup(stages=group, num_xpus=chips)
                       for group, chips in zip(placement, allocation))
        num_candidates += len(options)
        plan = [(ttft, qps / charged_chips, groups, servers, choices)
                for ttft, qps, choices in options]
        candidates += plan
        if config.collect_per_plan:
            front = pareto_front([point[:2] for point in plan],
                                 cost=lambda p: p[0],
                                 value=lambda p: p[1])
            per_plan.append(PlanFrontier(placement=placement,
                                         allocation=allocation,
                                         points=tuple(front)))
        if len(candidates) > config.max_frontier_points:
            candidates = pareto_front(candidates,
                                      cost=lambda c: c[0],
                                      value=lambda c: c[1])

    if not candidates:
        raise ScheduleError(
            f"no feasible schedule for {schema.name} within "
            f"{config.budget_xpus or cluster.total_xpus} XPUs"
        )
    front = pareto_front(candidates, cost=lambda c: c[0],
                         value=lambda c: c[1])

    # Re-assemble the surviving schedules through the authoritative
    # composition path (adds TPOT and iterative-retrieval effects). For
    # iterative schemas (Case III), the decoder-initiated retrieval
    # batch size is its own policy knob (§5.3/§6.1 [III]): sweep it per
    # surviving schedule and let the Pareto pass keep the best.
    performances: List[PipelinePerf] = []
    iterative_options: List[Optional[int]] = [None]
    if schema.is_iterative:
        iterative_options = list(batch_options(
            Stage.RETRIEVAL, config.max_batch, config.max_decode_batch))
    for _, _, groups, servers, choices in front:
        schedule = Schedule(
            groups=groups,
            batches={stage: batch for stage, batch, _ in choices},
            retrieval_servers=servers if schema.has_retrieval else None,
            shard_plans={stage: plan for stage, _, plan in choices
                         if plan is not None},
        )
        for iterative_batch in iterative_options:
            candidate = schedule if iterative_batch is None else Schedule(
                groups=schedule.groups,
                batches=schedule.batches,
                retrieval_servers=schedule.retrieval_servers,
                iterative_batch=iterative_batch,
                shard_plans=schedule.shard_plans,
            )
            performances.append(assemble(perf_model, candidate))
    performances = pareto_front(performances,
                                cost=lambda perf: perf.ttft,
                                value=lambda perf: perf.qps_per_chip)
    performances.sort(key=lambda perf: perf.ttft)
    return SearchResult(frontier=performances, num_plans=num_plans,
                        num_candidates=num_candidates, per_plan=per_plan)
