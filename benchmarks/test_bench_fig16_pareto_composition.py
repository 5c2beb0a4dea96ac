"""Fig. 16: Pareto frontier composition across plans."""

from repro.experiments import fig16


def test_bench_fig16(run_experiment):
    _check(run_experiment(fig16))


def test_bench_fig16_full(run_experiment):
    """The same claims at the full search density (``fast=False``)."""
    _check(run_experiment(fig16, fast=False))


def _check(out):
    for case in ("C-II", "C-IV"):
        stats = out.data[case]
        # The global frontier is stitched from multiple distinct
        # placement/allocation plans -- no one-size-fits-all schedule.
        assert stats["plans_on_frontier"] > 1
        assert stats["plans_evaluated"] >= stats["plans_on_frontier"]
        # The frontier trades latency for throughput.
        frontier = stats["frontier"]
        assert len(frontier) >= 2
        assert frontier[0][0] < frontier[-1][0]
        assert frontier[0][1] < frontier[-1][1]
