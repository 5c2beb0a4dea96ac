"""Heterogeneous (split-generation) allocation tests."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import RAGPerfModel
from repro.rago.hetero import (
    DEFAULT_XPU_PRICES,
    GENERATIONS,
    HeteroResult,
    split_generation_search,
)
from repro.rago.search import SearchConfig, search_schedules
from repro.schema import case_i_hyperscale, case_ii_long_context, llm_only


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(num_servers=32)


@pytest.fixture(scope="module")
def result(cluster):
    return split_generation_search(llm_only("8B"), cluster)


def test_frontier_monotone(result):
    ttfts = [p.ttft for p in result.frontier]
    values = [p.qps_per_dollar for p in result.frontier]
    assert ttfts == sorted(ttfts)
    assert values == sorted(values)


def test_best_at_least_homogeneous(result):
    assert result.hetero_gain >= 1.0
    assert result.best.qps_per_dollar >= \
        result.best_homogeneous.qps_per_dollar


def test_pricing_consistent(result):
    for point in result.frontier:
        expected = (point.prefill_chips
                    * DEFAULT_XPU_PRICES[point.prefill_xpu]
                    + point.decode_chips
                    * DEFAULT_XPU_PRICES[point.decode_xpu]
                    + point.servers * 5.00)
        assert point.dollars_per_hour == pytest.approx(expected)
        assert point.qps_per_dollar == pytest.approx(
            point.qps / point.dollars_per_hour)


def test_retrieval_workload_keeps_server_floor(cluster):
    result = split_generation_search(case_i_hyperscale("8B"), cluster)
    for point in result.frontier:
        assert point.servers >= 16


def test_price_sensitivity_changes_choice(cluster):
    # Make the premium generation essentially free: every best plan
    # should use it everywhere.
    prices = {"XPU-A": 100.0, "XPU-B": 100.0, "XPU-C": 0.01}
    result = split_generation_search(llm_only("8B"), cluster,
                                     prices=prices)
    assert result.best.prefill_xpu == "XPU-C"
    assert result.best.decode_xpu == "XPU-C"


def test_missing_price_rejected(cluster):
    with pytest.raises(ConfigError):
        split_generation_search(llm_only("8B"), cluster,
                                prices={"XPU-C": 4.2})


def test_invalid_server_price(cluster):
    with pytest.raises(ConfigError):
        split_generation_search(llm_only("8B"), cluster, server_price=0)


def test_result_type(result):
    assert isinstance(result, HeteroResult)
    assert result.frontier


def test_case_iv_hetero_search_runs(cluster):
    from repro.schema import case_iv_rewriter_reranker
    result = split_generation_search(case_iv_rewriter_reranker("8B"),
                                     cluster)
    assert result.frontier
    assert result.hetero_gain >= 1.0


def test_homogeneous_point_matches_algorithm_1():
    # Case II collocates stages that straddle retrieval, so §6.1's
    # harmonic retrieval stall decides the homogeneous baseline: the
    # split search must price the very plan Algorithm 1 finds on that
    # generation.
    schema = case_ii_long_context(llm="70B")
    cluster = ClusterSpec(num_servers=16)
    point = split_generation_search(schema, cluster).best_homogeneous
    xpu = next(xpu for xpu in GENERATIONS if xpu.name == point.prefill_xpu)
    search = search_schedules(
        RAGPerfModel(schema, replace(cluster, xpu=xpu)),
        SearchConfig(max_batch=64, max_decode_batch=512,
                     collect_per_plan=True))
    charged = max(point.prefill_chips + point.decode_chips,
                  point.servers * cluster.xpus_per_server)
    matches = [
        plan for plan in search.per_plan
        if sum(plan.allocation[:-1]) == point.prefill_chips
        and plan.allocation[-1] == point.decode_chips
        and any(ttft == point.ttft
                and qps_per_chip * charged == pytest.approx(point.qps,
                                                            rel=1e-9)
                for ttft, qps_per_chip in plan.points)]
    assert matches


def test_budget_caps_every_plan(cluster):
    config = SearchConfig(budget_xpus=8, max_batch=64, max_decode_batch=512)
    result = split_generation_search(llm_only("8B"), cluster, config=config)
    assert result.frontier
    for point in result.frontier:
        assert point.prefill_chips + point.decode_chips <= 8


def test_budget_above_cluster_rejected(cluster):
    config = SearchConfig(budget_xpus=cluster.total_xpus + 1)
    with pytest.raises(ConfigError):
        split_generation_search(llm_only("8B"), cluster, config=config)


def test_allocation_restriction_followed(cluster):
    config = SearchConfig(allocations=[(4, 4)], max_batch=64,
                          max_decode_batch=512)
    result = split_generation_search(llm_only("8B"), cluster, config=config)
    assert result.frontier
    for point in result.frontier:
        assert (point.prefill_chips, point.decode_chips) == (4, 4)
