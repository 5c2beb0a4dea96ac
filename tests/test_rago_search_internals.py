"""Unit tests for the search engine's internal composition operators.

The exhaustive search relies on three algebraic facts: Pareto pruning
after a merge loses no optimal point, serial merges compose TTFT by sum
and QPS by min, and harmonic merges model time multiplexing. These tests
pin the operators directly, check the linear serial merge against the
brute-force cross product it replaces, and check the plan loop's
merged-prefix reuse against a fresh fold for every plan.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.search import (SearchConfig, _harmonic_merge, _plans,
                               _Profiler, _prune, _serial_merge)
from repro.schema import Stage
from repro.schema.paradigms import (case_ii_long_context,
                                    case_iv_rewriter_reranker)
from repro.schema.stages import spans_retrieval


def opt(ttft, qps, tag="x"):
    return (ttft, qps, ((Stage.PREFIX, 1, tag),))


def _brute_serial_merge(left, right):
    """Reference serial merge: ``_prune`` of the full cross product."""
    return _prune([(a_ttft + b_ttft, min(a_qps, b_qps), a_b + b_b)
                   for a_ttft, a_qps, a_b in left
                   for b_ttft, b_qps, b_b in right])


@st.composite
def pareto_lists(draw, tag):
    """Pareto option lists as ``_prune`` returns them: TTFT and QPS both
    strictly rising. Small-integer steps make equal QPS values across
    the two sides and exact TTFT-sum ties common; the 1e16 base makes
    float sums of distinct TTFTs round together."""
    base = draw(st.sampled_from([0.0, 0.5, 1e16]))
    scale = draw(st.sampled_from([1.0, 0.1, 2.0]))
    steps = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                          max_size=8))
    options = []
    ttft, qps = base, 0.0
    for index, (ttft_step, qps_step) in enumerate(steps):
        ttft += ttft_step * scale
        qps += qps_step
        if options and ttft <= options[-1][0]:
            continue  # the step vanished in rounding
        options.append((ttft, qps, ((Stage.PREFIX, index, tag),)))
    return options


class TestPrune:
    def test_keeps_incomparable(self):
        options = [opt(1.0, 10.0), opt(2.0, 20.0)]
        assert len(_prune(list(options))) == 2

    def test_drops_dominated(self):
        options = [opt(1.0, 10.0), opt(2.0, 5.0)]
        pruned = _prune(list(options))
        assert len(pruned) == 1
        assert pruned[0][1] == 10.0

    def test_sorted_output(self):
        options = [opt(3.0, 30.0), opt(1.0, 10.0), opt(2.0, 20.0)]
        pruned = _prune(list(options))
        assert [p[0] for p in pruned] == [1.0, 2.0, 3.0]

    def test_empty(self):
        assert _prune([]) == []


class TestSerialMerge:
    def test_sum_and_min(self):
        left = [opt(1.0, 10.0, "l")]
        right = [opt(2.0, 5.0, "r")]
        merged = _serial_merge(left, right)
        assert len(merged) == 1
        ttft, qps, choices = merged[0]
        assert ttft == pytest.approx(3.0)
        assert qps == pytest.approx(5.0)
        assert len(choices) == 2

    def test_merge_prunes_cross_products(self):
        left = [opt(1.0, 10.0), opt(2.0, 20.0)]
        right = [opt(1.0, 10.0), opt(2.0, 20.0)]
        merged = _serial_merge(left, right)
        # (1+1, min 10), (1+2, min 10) dominated, (2+1, 10) dominated,
        # (2+2, 20) -> two survivors.
        assert len(merged) == 2
        assert merged[0][:2] == (2.0, 10.0)
        assert merged[1][:2] == (4.0, 20.0)

    def test_no_optimal_point_lost(self):
        # Brute-force cross product agrees with merge+prune on the
        # Pareto set.
        left = [opt(t, q) for t, q in ((1, 5), (2, 9), (4, 12))]
        right = [opt(t, q) for t, q in ((1, 4), (3, 11))]
        merged = _serial_merge(list(left), list(right))
        brute = [(a[0] + b[0], min(a[1], b[1]))
                 for a, b in itertools.product(left, right)]
        brute_front = []
        for point in sorted(brute, key=lambda p: (p[0], -p[1])):
            if not brute_front or point[1] > brute_front[-1][1]:
                brute_front.append(point)
        assert [m[:2] for m in merged] == brute_front


class TestSerialMergeMatchesCrossProduct:
    @settings(deadline=None, max_examples=300)
    @given(left=pareto_lists("l"), right=pareto_lists("r"))
    @example(left=[], right=[opt(1.0, 2.0, "r")])
    @example(left=[opt(1.0, 2.0, "l")], right=[])
    @example(left=[opt(1.0, 2.0, "l")], right=[opt(3.0, 2.0, "r")])
    @example(left=[opt(1.0, 1.0, "l1"), opt(2.0, 3.0, "l2")],
             right=[opt(1.0, 2.0, "r1"), opt(2.0, 3.0, "r2")])
    @example(left=[opt(1e16, 1.0, "l1"), opt(1e16 + 2, 2.0, "l2")],
             right=[opt(1e16, 3.0, "r")])
    def test_equals_brute_force(self, left, right):
        # Tuples compared whole: values, order and which choices win.
        assert _serial_merge(left, right) == _brute_serial_merge(left, right)


def _reference_options(profiler, schema, placement, allocation, servers):
    """A plan's options folded from scratch with the reference merges."""
    retrieval_opts = []
    if schema.has_retrieval:
        if servers <= profiler.perf_model.cluster.num_servers:
            retrieval_opts = profiler.stage_options(Stage.RETRIEVAL, servers)
        if not retrieval_opts:
            return []
    spanning = False
    options = None
    for group, chips in zip(placement, allocation):
        group_opts = profiler.group_options(group, chips)
        if group_opts and len(group) > 1 and spans_retrieval(group, schema):
            spanning = True
            group_opts = _harmonic_merge(group_opts, retrieval_opts)
        if not group_opts:
            return []
        options = group_opts if options is None \
            else _brute_serial_merge(options, group_opts)
    if schema.has_retrieval and not spanning:
        options = _brute_serial_merge(options, retrieval_opts)
    return options


class TestPlanPrefixReuse:
    @pytest.mark.parametrize("schema, servers, budget", [
        (case_ii_long_context(llm="70B"), 8, None),
        (case_iv_rewriter_reranker(llm="70B"), 16, 16),
    ], ids=["case-ii", "case-iv"])
    def test_every_plan_matches_a_fresh_fold(self, schema, servers, budget):
        config = SearchConfig(budget_xpus=budget)
        profiler = _Profiler(RAGPerfModel(schema,
                                          ClusterSpec(num_servers=servers)),
                             config)
        plans = list(_plans(config, profiler, lambda group: profiler))
        assert any(options for _, _, _, options in plans)
        for placement, allocation, servers, options in plans:
            assert options == _reference_options(
                profiler, schema, placement, allocation, servers), (
                placement, allocation, servers)

    def test_retrieval_server_changes_rebuild_the_spanning_prefix(self):
        # The case II walk above only guards the §6.1 prefix if some
        # placement's allocations keep the spanning group's chips while
        # the retrieval-server count changes.
        schema = case_ii_long_context(llm="70B")
        config = SearchConfig()
        profiler = _Profiler(RAGPerfModel(schema, ClusterSpec(num_servers=8)),
                             config)
        changes = 0
        previous = None
        for placement, allocation, servers, _ in _plans(
                config, profiler, lambda group: profiler):
            spanning = next((index for index, group in enumerate(placement)
                             if len(group) > 1
                             and spans_retrieval(group, schema)), None)
            if (spanning is not None and previous is not None
                    and previous[0] == placement
                    and previous[1][:spanning + 1] == allocation[:spanning + 1]
                    and previous[2] != servers):
                changes += 1
            previous = (placement, allocation, servers)
        assert changes > 0


class TestHarmonicMerge:
    def test_harmonic_composition(self):
        left = [opt(1.0, 10.0, "l")]
        right = [opt(2.0, 40.0, "r")]
        merged = _harmonic_merge(left, right)
        ttft, qps, _ = merged[0]
        assert ttft == pytest.approx(3.0)
        assert qps == pytest.approx(1.0 / (1 / 10 + 1 / 40))

    def test_harmonic_below_min(self):
        left = [opt(0.0, 10.0)]
        right = [opt(0.0, 10.0)]
        merged = _harmonic_merge(left, right)
        assert merged[0][1] == pytest.approx(5.0)
        assert merged[0][1] < 10.0

    def test_fast_partner_barely_hurts(self):
        slow = [opt(0.0, 10.0)]
        fast = [opt(0.0, 1e6)]
        merged = _harmonic_merge(slow, fast)
        assert merged[0][1] == pytest.approx(10.0, rel=1e-4)
