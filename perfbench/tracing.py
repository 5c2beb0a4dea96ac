"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: around the calls the
benchmark makes itself, and around the layers' public calls by wrapping
them for the duration of one traced pass (:func:`instrument`). Nothing
inside ``src/repro`` is changed, and the untraced passes run the
program exactly as it ships.

A span is ``[name, start, end, parent, request]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span
(-1 at the top level), and ``request`` is the id shared by every
operation on one simulated request (the engine's ``offered`` count at
submission, which is the id the request receives).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        index = self.open(name, request)
        try:
            yield
        finally:
            self.close(index)

    def open(self, name: str, request: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][REQUEST]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- summaries -----------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        A span's self time is its duration minus the durations of its
        direct children (spans nest strictly: the benchmark is single
        threaded). Recursive calls of one name count each level.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, Tuple[int, float, float]] = {}
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            calls, total, own = totals.get(span[NAME], (0, 0.0, 0.0))
            totals[span[NAME]] = (calls + 1, total + duration,
                                  own + duration - child_time[index])
        return totals

    def outermost_seconds(self, name: str) -> float:
        """Total duration of ``name`` spans not nested in another
        ``name`` span (so recursion is not double counted)."""
        total = 0.0
        for span in self.spans:
            parent = span[PARENT]
            nested = False
            while parent >= 0:
                if self.spans[parent][NAME] == name:
                    nested = True
                    break
                parent = self.spans[parent][PARENT]
            if span[NAME] == name and not nested:
                total += span[END] - span[START]
        return total

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: X``)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, (name, start, end, parent, request) in enumerate(
                self.spans):
            args: Dict[str, Any] = {"span": index, "parent": parent}
            if request is not None:
                args["request"] = request
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 1, "tid": 1,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": args})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"counts": self.counts}}, handle,
                      separators=(",", ":"))


def _wrap(tracer: Tracer, name: str, function: Callable,
          request_of: Optional[Callable[[tuple], Optional[int]]] = None,
          on_call: Optional[Callable[[tuple], None]] = None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        index = tracer.open(name, request_of(args) if request_of else None)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, perf_models: Optional[list] = None
               ) -> Iterator[None]:
    """Wrap the layers' public calls with spans, restoring them on exit.

    Args:
        tracer: Receives the spans.
        perf_models: When given, every :class:`RAGPerfModel` whose
            ``perf_options`` runs is appended once, so the caller can
            read the cache counters of models built inside the program
            (the hetero search builds its own).
    """
    from repro.pipeline import assembly
    from repro.pipeline.stage_perf import RAGPerfModel
    from repro.rago import pareto
    from repro.sim import policies, routing
    from repro.sim.engine import ServingEngine
    from repro.sim.fleet import FleetEngine

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_function(function: Callable, name: str,
                       on_call: Optional[Callable] = None) -> None:
        # Modules bind these by name at import, so rebind every copy.
        wrapped = _wrap(tracer, name, function, on_call=on_call)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None \
                    and module.__dict__.get(function.__name__) is function:
                patch(module, function.__name__, wrapped)

    seen_models: set = set()

    def note_model(args: tuple) -> None:
        model = args[0]
        if perf_models is not None and id(model) not in seen_models:
            seen_models.add(id(model))
            perf_models.append(model)

    def offered(args: tuple) -> int:
        return args[0].offered

    patch(RAGPerfModel, "perf_options",
          _wrap(tracer, "stage_perf", RAGPerfModel.perf_options,
                on_call=note_model))
    patch_function(assembly.assemble, "assembly")
    patch_function(pareto.pareto_front, "pareto",
                   on_call=lambda args: tracer.count("pareto.in_points",
                                                     len(args[0])))
    patch(ServingEngine, "submit",
          _wrap(tracer, "engine.submit", ServingEngine.submit,
                request_of=offered))
    patch(ServingEngine, "drain",
          _wrap(tracer, "engine.drain", ServingEngine.drain))
    patch(ServingEngine, "report",
          _wrap(tracer, "metrics.report", ServingEngine.report))
    patch(FleetEngine, "submit",
          _wrap(tracer, "fleet.submit", FleetEngine.submit,
                request_of=offered))
    patch(FleetEngine, "step",
          _wrap(tracer, "fleet.step", FleetEngine.step))
    patch(FleetEngine, "report",
          _wrap(tracer, "metrics.report", FleetEngine.report))
    for module, base, method, name in (
            (routing, routing.RoutingPolicy, "select", "routing.select"),
            (policies, policies.AdmissionPolicy, "admit", "policies.admit")):
        for value in list(vars(module).values()):
            if isinstance(value, type) and issubclass(value, base) \
                    and method in value.__dict__:
                patch(value, method,
                      _wrap(tracer, name, value.__dict__[method]))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
