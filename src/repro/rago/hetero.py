"""Heterogeneous accelerator selection (resource-*type* allocation).

RAGO's resource allocation assigns "the type and quantity of resources
to each component" (§1). The main search fixes one XPU generation for
the whole pipeline; this extension explores *split-generation* plans:
the pre-prefix stages (compute-bound prefill work) on one generation and
decode (memory-bandwidth-bound) on another. Because different chips cost
differently, plans are compared by QPS per dollar rather than QPS per
chip.

The motivating insight is the paper's own Fig. 7a: faster accelerators
mostly shift the bottleneck, so spending premium chips where the
workload is compute-bound and cheaper high-bandwidth-per-dollar chips on
decode can beat a homogeneous fleet.

The search is Algorithm 1's own plan loop (:func:`repro.rago.search._plans`)
with a per-group cost model, so it shares every rule of the homogeneous
search -- including §6.1's harmonic retrieval stall for collocated
groups that straddle retrieval -- and follows the plan-space fields of
:class:`~repro.rago.search.SearchConfig` (``budget_xpus``,
``placements``, ``allocations``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, ScheduleError
from repro.hardware.accelerator import XPU_A, XPU_B, XPU_C, XPUSpec
from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.pareto import pareto_front
from repro.rago.search import SearchConfig, _plans, _Profiler
from repro.schema.ragschema import RAGSchema
from repro.schema.stages import Stage

#: Default hourly prices per generation (scaled with capability).
DEFAULT_XPU_PRICES: Dict[str, float] = {
    "XPU-A": 1.40,
    "XPU-B": 2.20,
    "XPU-C": 4.20,
}
#: Retrieval-host hourly price.
DEFAULT_SERVER_PRICE = 5.00

GENERATIONS: Tuple[XPUSpec, ...] = (XPU_A, XPU_B, XPU_C)

#: A priced plan point as the search keeps it: :class:`HeteroPoint`'s
#: fields, in order, as a plain tuple.
_Point = Tuple[str, str, float, float, float, float, int, int, int]


@dataclass(frozen=True)
class HeteroPoint:
    """One split-generation operating point.

    Attributes:
        prefill_xpu / decode_xpu: Generation names per tier.
        ttft: Time-to-first-token in seconds.
        qps: Requests per second.
        dollars_per_hour: Fleet price.
        qps_per_dollar: Throughput per hourly dollar.
        prefill_chips / decode_chips: Chips per tier.
        servers: Hosts priced (retrieval servers or the chips' hosts).
    """

    prefill_xpu: str
    decode_xpu: str
    ttft: float
    qps: float
    dollars_per_hour: float
    qps_per_dollar: float
    prefill_chips: int
    decode_chips: int
    servers: int


@dataclass
class HeteroResult:
    """Frontier of split-generation plans.

    Attributes:
        frontier: Pareto points over (ttft, qps_per_dollar).
        best_homogeneous: The best single-generation point.
        best: The overall best-throughput-per-dollar point.
    """

    frontier: List[HeteroPoint]
    best_homogeneous: HeteroPoint
    best: HeteroPoint

    @property
    def hetero_gain(self) -> float:
        """QPS-per-dollar gain of the best plan over homogeneous."""
        return self.best.qps_per_dollar / self.best_homogeneous.qps_per_dollar


def split_generation_search(schema: RAGSchema, cluster: ClusterSpec,
                            prices: Optional[Dict[str, float]] = None,
                            server_price: float = DEFAULT_SERVER_PRICE,
                            config: Optional[SearchConfig] = None) -> HeteroResult:
    """Search split-generation plans for a schema.

    For every (prefill generation, decode generation) pair, runs
    Algorithm 1's plan loop with the decode group costed on the decode
    generation and every other group (and retrieval) on the prefill
    generation, prices each plan, and returns the (TTFT, QPS/$)
    frontier.

    Raises:
        ScheduleError: when no feasible plan exists.
        ConfigError: on unpriced generations or a budget outside the
            cluster.
    """
    prices = dict(DEFAULT_XPU_PRICES if prices is None else prices)
    config = config or SearchConfig(max_batch=64, max_decode_batch=512)
    for xpu in GENERATIONS:
        if xpu.name not in prices:
            raise ConfigError(f"no price for generation {xpu.name}")
    if server_price <= 0:
        raise ConfigError("server_price must be positive")

    profilers = {xpu.name: _Profiler(RAGPerfModel(schema,
                                                  replace(cluster, xpu=xpu)),
                                     config)
                 for xpu in GENERATIONS}
    # A HeteroPoint is built only for the points the result reports.
    points: List[_Point] = []
    for prefill_xpu, decode_xpu in product(GENERATIONS, repeat=2):
        prefill = profilers[prefill_xpu.name]
        decode = profilers[decode_xpu.name]
        plans = _plans(config, prefill,
                       lambda group: decode if group == (Stage.DECODE,)
                       else prefill)
        for _, allocation, servers, options in plans:
            decode_chips = allocation[-1]
            prefill_chips = sum(allocation) - decode_chips
            # Every occupied host is paid for, retrieval or not.
            hosts = max(servers, cluster.servers_for_xpus(sum(allocation)))
            dollars = (prefill_chips * prices[prefill_xpu.name]
                       + decode_chips * prices[decode_xpu.name]
                       + hosts * server_price)
            points += [(prefill_xpu.name, decode_xpu.name, ttft, qps,
                        dollars, qps / dollars, prefill_chips, decode_chips,
                        hosts)
                       for ttft, qps, _ in options]

    if not points:
        raise ScheduleError(f"no feasible hetero plan for {schema.name}")
    frontier = [HeteroPoint(*point)
                for point in pareto_front(points, cost=lambda p: p[2],
                                          value=lambda p: p[5])]
    best = max(frontier, key=lambda p: p.qps_per_dollar)
    best_homogeneous = HeteroPoint(*max((p for p in points if p[0] == p[1]),
                                        key=lambda p: p[5]))
    return HeteroResult(frontier=frontier,
                        best_homogeneous=best_homogeneous, best=best)
