"""Fig. 17: task-placement sensitivity."""

from repro.experiments import fig17


def test_bench_fig17(run_experiment):
    _check(run_experiment(fig17))


def test_bench_fig17_full(run_experiment):
    """The same claims at the full search density (``fast=False``)."""
    _check(run_experiment(fig17, fast=False))


def _check(out):
    c2 = out.data["C-II"]
    c4 = out.data["C-IV"]
    # C-II: placement barely matters (~2% in the paper).
    assert c2["hybrid (all)"] / c2["collocated"] < 1.15
    # C-IV: hybrid placement beats full collocation (paper: up to 1.5x)
    # because the rewriter's decode stage and the retrieval stall drag
    # the collocated group down.
    assert c4["hybrid (all)"] >= c4["collocated"]
    # The hybrid space always contains the pure policies.
    for case in (c2, c4):
        assert case["hybrid (all)"] >= case["disaggregated"] - 1e-9
        assert case["hybrid (all)"] >= case["collocated"] - 1e-9
