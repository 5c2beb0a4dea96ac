"""Pareto-frontier utilities.

RAGO's objective space is (TTFT, QPS/chip): minimize the first, maximize
the second. A point is dominated when another point is at least as good
on both axes and strictly better on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ParetoPoint:
    """A generic (cost, value) objective point with an attached payload.

    Attributes:
        cost: Objective to minimize (e.g. TTFT seconds).
        value: Objective to maximize (e.g. QPS/chip).
        payload: Arbitrary attachment (e.g. the schedule).
    """

    cost: float
    value: float
    payload: object = None


def pareto_front(items: Sequence[T], cost: Callable[[T], float],
                 value: Callable[[T], float]) -> List[T]:
    """Non-dominated subset of ``items``, sorted by ascending cost.

    Minimizes ``cost`` and maximizes ``value``. Duplicate-cost points keep
    only the best value; a point equal on both axes to a kept point is
    dropped (any one representative suffices).
    """
    if not items:
        return []
    ordered = sorted(items, key=lambda item: (cost(item), -value(item)))
    front: List[T] = []
    best_value = float("-inf")
    for item in ordered:
        # The sort puts a cost's best value first, so a same-cost
        # follower never passes this test.
        item_value = value(item)
        if item_value <= best_value:
            continue
        front.append(item)
        best_value = item_value
    return front


def dominates(cost_a: float, value_a: float, cost_b: float,
              value_b: float) -> bool:
    """Whether point A dominates point B (min cost, max value)."""
    at_least_as_good = cost_a <= cost_b and value_a >= value_b
    strictly_better = cost_a < cost_b or value_a > value_b
    return at_least_as_good and strictly_better
