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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ConfigError, ScheduleError
from repro.hardware.accelerator import XPU_A, XPU_B, XPU_C, XPUSpec
from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.search import (
    SearchConfig,
    _Profiler,
    _prune,
    _serial_merge,
)
from repro.rago.allocation import enumerate_allocations
from repro.rago.placement import enumerate_placements
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
        servers: Retrieval hosts.
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


def _cluster_with(base: ClusterSpec, xpu: XPUSpec) -> ClusterSpec:
    return ClusterSpec(num_servers=base.num_servers,
                       xpus_per_server=base.xpus_per_server, xpu=xpu,
                       cpu=base.cpu, pcie_bandwidth=base.pcie_bandwidth)


def split_generation_search(schema: RAGSchema, cluster: ClusterSpec,
                            prices: Optional[Dict[str, float]] = None,
                            server_price: float = DEFAULT_SERVER_PRICE,
                            config: Optional[SearchConfig] = None) -> HeteroResult:
    """Search split-generation plans for a schema.

    For every (prefill generation, decode generation) pair, composes the
    pre-prefix stage options on the prefill generation with decode
    options on the decode generation, prices the result, and returns the
    (TTFT, QPS/$) frontier.

    Raises:
        ScheduleError: when no feasible plan exists.
        ConfigError: on unpriced generations.
    """
    prices = dict(DEFAULT_XPU_PRICES if prices is None else prices)
    config = config or SearchConfig(max_batch=64, max_decode_batch=512)
    for xpu in GENERATIONS:
        if xpu.name not in prices:
            raise ConfigError(f"no price for generation {xpu.name}")
    if server_price <= 0:
        raise ConfigError("server_price must be positive")

    perf_models = {xpu.name: RAGPerfModel(schema, _cluster_with(cluster, xpu))
                   for xpu in GENERATIONS}
    profilers = {name: _Profiler(model, config)
                 for name, model in perf_models.items()}
    budget = cluster.total_xpus
    placements = enumerate_placements(schema)
    retrieval_floor = (perf_models[XPU_C.name].retrieval.min_servers()
                       if schema.has_retrieval else 0)

    points: List[Tuple[float, float, HeteroPoint]] = []
    for prefill_xpu in GENERATIONS:
        prefill_profiler = profilers[prefill_xpu.name]
        prefill_model = perf_models[prefill_xpu.name]
        for decode_xpu in GENERATIONS:
            decode_profiler = profilers[decode_xpu.name]
            decode_model = perf_models[decode_xpu.name]
            for placement in placements:
                pre_groups = placement[:-1]
                try:
                    minimums = [max(prefill_model.min_resource(stage)
                                    for stage in group)
                                for group in pre_groups]
                    minimums.append(
                        decode_model.min_resource(Stage.DECODE))
                except CapacityError:  # model does not fit this chip
                    continue
                try:
                    allocations = list(enumerate_allocations(minimums,
                                                             budget))
                except ConfigError:
                    continue
                for allocation in allocations:
                    total = sum(allocation)
                    servers = max(retrieval_floor,
                                  cluster.servers_for_xpus(total))
                    if servers > cluster.num_servers:
                        continue
                    options = None
                    feasible = True
                    for group, chips in zip(pre_groups, allocation[:-1]):
                        group_opts = prefill_profiler.group_options(group,
                                                                    chips)
                        if not group_opts:
                            feasible = False
                            break
                        options = group_opts if options is None else \
                            _serial_merge(options, group_opts)
                    if not feasible:
                        continue
                    decode_opts = decode_profiler.stage_options(
                        Stage.DECODE, allocation[-1])
                    if not decode_opts:
                        continue
                    options = decode_opts if options is None else \
                        _serial_merge(options, decode_opts)
                    if schema.has_retrieval:
                        retr_opts = prefill_profiler.stage_options(
                            Stage.RETRIEVAL, servers)
                        if not retr_opts:
                            continue
                        options = _serial_merge(options, retr_opts)
                    prefill_chips = sum(allocation[:-1])
                    decode_chips = allocation[-1]
                    dollars = (prefill_chips * prices[prefill_xpu.name]
                               + decode_chips * prices[decode_xpu.name]
                               + servers * server_price)
                    for ttft, qps, _ in _prune(options):
                        point = HeteroPoint(
                            prefill_xpu=prefill_xpu.name,
                            decode_xpu=decode_xpu.name,
                            ttft=ttft,
                            qps=qps,
                            dollars_per_hour=dollars,
                            qps_per_dollar=qps / dollars,
                            prefill_chips=prefill_chips,
                            decode_chips=decode_chips,
                            servers=servers,
                        )
                        points.append((ttft, qps / dollars, point))

    if not points:
        raise ScheduleError(f"no feasible hetero plan for {schema.name}")

    # Pareto over (ttft, qps_per_dollar).
    points.sort(key=lambda entry: (entry[0], -entry[1]))
    frontier: List[HeteroPoint] = []
    best_value = -1.0
    for ttft, value, point in points:
        if value > best_value:
            frontier.append(point)
            best_value = value

    best = max(frontier, key=lambda p: p.qps_per_dollar)
    homogeneous = [entry[2] for entry in points
                   if entry[2].prefill_xpu == entry[2].decode_xpu]
    best_homogeneous = max(homogeneous,
                           key=lambda p: p.qps_per_dollar)
    return HeteroResult(frontier=frontier,
                        best_homogeneous=best_homogeneous, best=best)
