"""Request traces: first-class workloads for the serving simulator.

A :class:`RequestTrace` is a tuple of :class:`Request` records -- each
an arrival timestamp, an optional decode length, and optional identity
(``user_id`` / ``session_id`` / ``tier``) -- plus metadata recording
how the trace was generated (scenario name, rate, seed). Traces are the
currency of the traffic subsystem -- every scenario is a seeded
generator returning one, :func:`repro.sim.replay` pushes one --
identity included -- into any engine or fleet, and
:mod:`repro.config` round-trips one, so an experiment's exact traffic
is a reproducible artifact. The historical parallel-tuple views
(``trace.arrivals`` / ``trace.decode_lens``) remain as cached
read-only properties, and ``RequestTrace(arrivals=...,
decode_lens=...)`` still constructs (the compat spelling wraps each
pair in an anonymous :class:`Request`).

Built-in scenario generators (all seeded):

* :func:`poisson_trace` -- the paper's memoryless baseline,
* :func:`bursty_trace` -- a Markov-modulated (on/off) Poisson process,
  the classic model for flash crowds,
* :func:`diurnal_trace` -- an inhomogeneous Poisson process following a
  sinusoidal rate curve (day/night load), sampled by thinning,
* :meth:`RequestTrace.from_jsonl` -- replay of a recorded trace file.

``SCENARIOS`` maps scenario names to generators for the ``repro
replay`` front-end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.workloads.sequences import sample_decode_lengths


@dataclass(frozen=True)
class Request:
    """One request of a trace: arrival, shape, and optional identity.

    Attributes:
        arrival: Non-negative arrival timestamp in seconds.
        decode_len: Optional generation length; None means the
            workload profile's default decode length.
        user_id: Originating user, when the trace models a population.
        session_id: Conversation the request belongs to (correlated
            requests share one), when known.
        tier: The user's SLO tier name (``free`` / ``paid`` / ...),
            when known.
    """

    arrival: float
    decode_len: Optional[int] = None
    user_id: Optional[str] = None
    session_id: Optional[str] = None
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise ConfigError("arrival times must be finite and "
                              "non-negative")
        if self.decode_len is not None and self.decode_len <= 0:
            raise ConfigError("decode lengths must be positive")

    @property
    def has_identity(self) -> bool:
        """Whether any identity field travels with the request."""
        return (self.user_id is not None or self.session_id is not None
                or self.tier is not None)


def requests_from_arrays(
        arrivals: Iterable[float],
        decode_lens: Optional[Sequence[int]] = None,
) -> Tuple[Request, ...]:
    """Zip parallel arrival/length arrays into anonymous requests.

    The bulk-construction path behind the compat
    ``RequestTrace(arrivals=..., decode_lens=...)`` spelling and the
    scenario generators.
    """
    times = [float(t) for t in arrivals]
    if decode_lens is None:
        return tuple(Request(arrival=t) for t in times)
    lens = [int(n) for n in decode_lens]
    if len(lens) != len(times):
        raise ConfigError("decode_lens must match arrivals in length")
    return tuple(Request(arrival=t, decode_len=n)
                 for t, n in zip(times, lens))


@dataclass(frozen=True, init=False)
class RequestTrace:
    """One stream of requests plus how it was produced.

    Attributes:
        requests: The :class:`Request` records, sorted by arrival.
        metadata: How the trace was produced (scenario name, rate,
            seed, source file ...). JSON-scalar values only, so traces
            serialize exactly.

    The compat keyword spelling ``RequestTrace(arrivals=...,
    decode_lens=...)`` wraps the parallel tuples in anonymous
    requests; ``trace.arrivals`` and ``trace.decode_lens`` remain as
    cached read-only tuple views for every consumer of the old shape.
    """

    requests: Tuple[Request, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __init__(self, requests: Optional[Iterable[Request]] = None,
                 metadata: Optional[Dict[str, Any]] = None,
                 arrivals: Optional[Iterable[float]] = None,
                 decode_lens: Optional[Sequence[int]] = None) -> None:
        if requests is not None and arrivals is not None:
            raise ConfigError(
                "pass either requests or the compat arrivals/"
                "decode_lens tuples, not both")
        if requests is None:
            if arrivals is None:
                raise ConfigError("a trace needs at least one request")
            records = requests_from_arrays(arrivals, decode_lens)
        else:
            if decode_lens is not None:
                raise ConfigError(
                    "decode_lens only combines with arrivals; requests "
                    "carry their own lengths")
            records = tuple(requests)
            for record in records:
                if not isinstance(record, Request):
                    raise ConfigError(
                        f"requests must be Request records, got "
                        f"{type(record).__name__}")
        if not records:
            raise ConfigError("a trace needs at least one request")
        previous = 0.0
        for record in records:
            if record.arrival < previous:
                raise ConfigError("arrivals must be sorted")
            previous = record.arrival
        with_lens = sum(1 for record in records
                        if record.decode_len is not None)
        if with_lens not in (0, len(records)):
            raise ConfigError(
                f"either every request carries decode_len or none does "
                f"({with_lens} of {len(records)} do)")
        object.__setattr__(self, "requests", records)
        object.__setattr__(self, "metadata",
                           {} if metadata is None else metadata)
        # Cached parallel-tuple views (the pre-record API): computed
        # once here so consumers iterating trace.arrivals pay no
        # per-access rebuild.
        object.__setattr__(self, "_arrivals",
                           tuple(record.arrival for record in records))
        object.__setattr__(
            self, "_decode_lens",
            tuple(record.decode_len for record in records)
            if with_lens else None)

    # -- introspection -------------------------------------------------

    @property
    def arrivals(self) -> Tuple[float, ...]:
        """Sorted arrival timestamps (the historical tuple view)."""
        return self._arrivals

    @property
    def decode_lens(self) -> Optional[Tuple[int, ...]]:
        """Per-request decode lengths, or None when unset (the
        historical tuple view)."""
        return self._decode_lens

    @property
    def has_identity(self) -> bool:
        """Whether any request carries user/session/tier identity."""
        return any(record.has_identity for record in self.requests)

    @property
    def num_requests(self) -> int:
        """How many requests the trace injects."""
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """Seconds from time zero to the last arrival."""
        return self.arrivals[-1]

    @property
    def mean_rate(self) -> float:
        """Average offered load in requests per second."""
        span = self.metadata.get("duration", self.duration)
        if not span:
            return float(len(self.arrivals))
        return len(self.arrivals) / float(span)

    @property
    def scenario(self) -> str:
        """The generating scenario's name (``custom`` when unknown)."""
        return str(self.metadata.get("scenario", "custom"))

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        return (f"{self.scenario} trace: {self.num_requests} requests "
                f"over {self.duration:.2f}s (~{self.mean_rate:.1f} QPS)")

    def with_metadata(self, **entries: Any) -> "RequestTrace":
        """A copy with extra metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(entries)
        return replace(self, metadata=merged)

    # -- replay files --------------------------------------------------

    def to_jsonl(self, path: str) -> None:
        """Write the trace as JSON Lines.

        The first line carries the metadata; every following line is
        one request (``{"arrival": t}`` plus ``"decode_len"`` and the
        identity fields when set). The format is append-friendly, so
        recorded production logs convert line by line.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"metadata": self.metadata}) + "\n")
            for request in self.requests:
                row: Dict[str, Any] = {"arrival": request.arrival}
                if request.decode_len is not None:
                    row["decode_len"] = request.decode_len
                for key in ("user_id", "session_id", "tier"):
                    value = getattr(request, key)
                    if value is not None:
                        row[key] = value
                handle.write(json.dumps(row) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "RequestTrace":
        """Load a trace written by :meth:`to_jsonl` (or recorded in the
        same shape). Pre-identity files -- bare ``arrival`` /
        ``decode_len`` rows -- load bit-identically.

        Raises:
            ConfigError: on malformed lines, unsorted arrivals, or a
                mix of requests with and without ``decode_len``.
        """
        metadata: Dict[str, Any] = {}
        records = []
        lengths = 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as error:
            raise ConfigError(f"cannot read trace file: {error}") from error
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigError(
                    f"{path}:{number}: invalid JSON: {error}") from error
            if not isinstance(row, dict):
                raise ConfigError(f"{path}:{number}: expected an object")
            if "metadata" in row:
                if not isinstance(row["metadata"], dict):
                    raise ConfigError(
                        f"{path}:{number}: metadata must be an object")
                metadata.update(row["metadata"])
                continue
            if "arrival" not in row:
                raise ConfigError(
                    f"{path}:{number}: request line needs an 'arrival'")
            decode_len = None
            if "decode_len" in row:
                decode_len = int(row["decode_len"])
                lengths += 1
            records.append(Request(
                arrival=float(row["arrival"]),
                decode_len=decode_len,
                user_id=None if row.get("user_id") is None
                else str(row["user_id"]),
                session_id=None if row.get("session_id") is None
                else str(row["session_id"]),
                tier=None if row.get("tier") is None
                else str(row["tier"]),
            ))
        if lengths and lengths != len(records):
            raise ConfigError(
                f"{path}: either every request line carries decode_len "
                f"or none does ({lengths} of {len(records)} do)")
        if not records:
            raise ConfigError(f"{path}: trace file holds no requests")
        metadata.setdefault("scenario", "replay")
        metadata.setdefault("source", path)
        return cls(requests=tuple(records), metadata=metadata)


# ---------------------------------------------------------------------------
# Seeded scenario generators.
# ---------------------------------------------------------------------------

#: sample_decode_lengths' shifted-geometric floor: means at or below it
#: cannot be sampled, so such traces fall back to fixed lengths.
_MIN_SAMPLED_DECODE_LEN = 16


def _decode_lens_for(count: int, mean_decode_len: Optional[int],
                     seed: int) -> Optional[Tuple[int, ...]]:
    """Per-request decode lengths (geometric tail) when a mean is set."""
    if mean_decode_len is None or count == 0:
        return None
    if mean_decode_len <= 0:
        raise ConfigError("mean_decode_len must be positive")
    if mean_decode_len <= _MIN_SAMPLED_DECODE_LEN:
        return (int(mean_decode_len),) * count
    # minimum is passed explicitly so this floor and the sampler's can
    # never drift apart.
    lengths = sample_decode_lengths(count, mean=mean_decode_len,
                                    minimum=_MIN_SAMPLED_DECODE_LEN,
                                    seed=seed)
    return tuple(int(n) for n in lengths)


def _check_rate_duration(rate_qps: float, duration: float) -> None:
    if rate_qps <= 0 or duration <= 0:
        raise ConfigError("rate_qps and duration must be positive")


def poisson_trace(rate_qps: float, duration: float, seed: int = 0,
                  mean_decode_len: Optional[int] = None) -> RequestTrace:
    """A homogeneous Poisson request stream.

    Args:
        rate_qps: Mean requests per second.
        duration: Observation window in seconds.
        seed: RNG seed (arrivals and decode lengths both derive from it).
        mean_decode_len: When set, sample per-request decode lengths
            with this mean instead of using the workload default.
    """
    _check_rate_duration(rate_qps, duration)
    rng = np.random.default_rng(seed)
    arrivals = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / rate_qps)
        if now >= duration:
            break
        arrivals.append(now)
    if not arrivals:
        raise ConfigError(
            f"poisson scenario produced no arrivals (rate {rate_qps} over "
            f"{duration}s with seed {seed}); raise rate or duration")
    return RequestTrace(
        requests=requests_from_arrays(
            arrivals, _decode_lens_for(len(arrivals), mean_decode_len,
                                       seed)),
        metadata={"scenario": "poisson", "rate_qps": rate_qps,
                  "duration": duration, "seed": seed,
                  "mean_decode_len": mean_decode_len},
    )


def bursty_trace(rate_qps: float, duration: float, seed: int = 0,
                 mean_decode_len: Optional[int] = None,
                 burst_factor: float = 4.0, on_fraction: float = 0.2,
                 mean_cycle: float = 2.0) -> RequestTrace:
    """A Markov-modulated on/off Poisson stream (flash-crowd traffic).

    The process alternates between an *on* state serving
    ``burst_factor`` times the baseline rate and an *off* state whose
    rate is scaled down so the long-run average stays ``rate_qps``.
    Sojourn times are exponential, making this a two-state MMPP.

    Args:
        rate_qps: Long-run average requests per second.
        duration: Observation window in seconds.
        seed: RNG seed.
        mean_decode_len: Optional per-request decode-length mean.
        burst_factor: On-state rate as a multiple of ``rate_qps``
            (must exceed 1).
        on_fraction: Long-run fraction of time spent bursting, in
            (0, 1).
        mean_cycle: Mean seconds of one on+off cycle.
    """
    _check_rate_duration(rate_qps, duration)
    if burst_factor <= 1.0:
        raise ConfigError("burst_factor must exceed 1")
    if not 0.0 < on_fraction < 1.0:
        raise ConfigError("on_fraction must be in (0, 1)")
    if mean_cycle <= 0:
        raise ConfigError("mean_cycle must be positive")
    on_rate = burst_factor * rate_qps
    off_rate = rate_qps * (1.0 - burst_factor * on_fraction) \
        / (1.0 - on_fraction)
    if off_rate < 0:
        raise ConfigError(
            "burst_factor * on_fraction must not exceed 1 (the off state "
            "cannot have a negative rate)")
    mean_on = on_fraction * mean_cycle
    mean_off = (1.0 - on_fraction) * mean_cycle
    rng = np.random.default_rng(seed)
    arrivals = []
    now = 0.0
    bursting = False
    while now < duration:
        sojourn = rng.exponential(mean_on if bursting else mean_off)
        end = min(now + sojourn, duration)
        rate = on_rate if bursting else off_rate
        if rate > 0:
            t = now
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= end:
                    break
                arrivals.append(t)
        now = end
        bursting = not bursting
    if not arrivals:
        raise ConfigError(
            f"bursty scenario produced no arrivals (rate {rate_qps} over "
            f"{duration}s with seed {seed}); raise rate or duration")
    return RequestTrace(
        requests=requests_from_arrays(
            arrivals, _decode_lens_for(len(arrivals), mean_decode_len,
                                       seed)),
        metadata={"scenario": "bursty", "rate_qps": rate_qps,
                  "duration": duration, "seed": seed,
                  "mean_decode_len": mean_decode_len,
                  "burst_factor": burst_factor,
                  "on_fraction": on_fraction, "mean_cycle": mean_cycle},
    )


def diurnal_trace(rate_qps: float, duration: float, seed: int = 0,
                  mean_decode_len: Optional[int] = None,
                  amplitude: float = 0.8,
                  period: Optional[float] = None) -> RequestTrace:
    """An inhomogeneous Poisson stream following a sinusoidal rate curve.

    The instantaneous rate is ``rate_qps * (1 + amplitude *
    sin(2*pi*t/period))``, sampled exactly by thinning a homogeneous
    process at the peak rate -- the standard day/night load model
    compressed into the simulated window.

    Args:
        rate_qps: Mean requests per second over one period.
        duration: Observation window in seconds.
        seed: RNG seed.
        mean_decode_len: Optional per-request decode-length mean.
        amplitude: Peak-to-mean swing in [0, 1); 0 degenerates to
            Poisson.
        period: Seconds per day/night cycle; defaults to ``duration``
            (one full cycle inside the window).
    """
    _check_rate_duration(rate_qps, duration)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError("amplitude must be in [0, 1)")
    cycle = duration if period is None else period
    if cycle <= 0:
        raise ConfigError("period must be positive")
    peak = rate_qps * (1.0 + amplitude)
    rng = np.random.default_rng(seed)
    arrivals = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / peak)
        if now >= duration:
            break
        rate = rate_qps * (1.0 + amplitude
                           * math.sin(2.0 * math.pi * now / cycle))
        if rng.uniform() <= rate / peak:
            arrivals.append(now)
    if not arrivals:
        raise ConfigError(
            f"diurnal scenario produced no arrivals (rate {rate_qps} over "
            f"{duration}s with seed {seed}); raise rate or duration")
    return RequestTrace(
        requests=requests_from_arrays(
            arrivals, _decode_lens_for(len(arrivals), mean_decode_len,
                                       seed)),
        metadata={"scenario": "diurnal", "rate_qps": rate_qps,
                  "duration": duration, "seed": seed,
                  "mean_decode_len": mean_decode_len,
                  "amplitude": amplitude, "period": cycle},
    )


#: Scenario name -> generator; every generator shares the
#: (rate_qps, duration, seed, mean_decode_len) core signature.
SCENARIOS = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "diurnal": diurnal_trace,
}


def scenario_trace(name: str, rate_qps: float, duration: float,
                   seed: int = 0, mean_decode_len: Optional[int] = None,
                   **knobs: Any) -> RequestTrace:
    """Generate a built-in scenario by name (the ``repro replay``
    front-end).

    Args:
        name: One of ``poisson``, ``bursty``, ``diurnal``.
        rate_qps / duration / seed / mean_decode_len: Shared core knobs.
        **knobs: Scenario-specific extras (e.g. ``burst_factor``).

    Raises:
        ConfigError: for unknown scenario names or bad knobs.
    """
    try:
        generator = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(
            f"unknown scenario {name!r}; known: {known}") from None
    try:
        return generator(rate_qps, duration, seed=seed,
                         mean_decode_len=mean_decode_len, **knobs)
    except TypeError as error:
        raise ConfigError(
            f"bad knobs for scenario {name!r}: {error}") from error


def trace_from_arrivals(arrivals: Iterable[float],
                        decode_lens: Optional[Sequence[int]] = None,
                        **metadata: Any) -> RequestTrace:
    """Wrap loose arrival lists (the pre-trace API) into a trace."""
    return RequestTrace(
        requests=requests_from_arrays(arrivals, decode_lens),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Trace analytics (the `repro trace` inspection subcommand).
# ---------------------------------------------------------------------------


def rate_curve(trace: RequestTrace,
               bins: int = 24) -> List[Tuple[float, float]]:
    """The trace's arrival-rate curve as (bin center, QPS) points.

    The observation window is the trace's generating ``duration`` when
    recorded in metadata (so trailing silence shows up as a zero-rate
    tail), otherwise the span to the last arrival.

    Raises:
        ConfigError: on a non-positive bin count.
    """
    if bins < 1:
        raise ConfigError("bins must be at least 1")
    span = float(trace.metadata.get("duration", trace.duration))
    if span <= 0:
        # All arrivals at one instant: a single spike bin.
        return [(trace.arrivals[0], float(trace.num_requests))]
    width = span / bins
    counts = [0] * bins
    for time in trace.arrivals:
        counts[min(int(time / width), bins - 1)] += 1
    return [((index + 0.5) * width, count / width)
            for index, count in enumerate(counts)]


def burstiness_cv(trace: RequestTrace) -> float:
    """Coefficient of variation of the trace's inter-arrival times.

    The classic burstiness scalar: ~1 for a memoryless Poisson stream,
    >1 for bursty (clustered) traffic, <1 for smoother-than-Poisson
    pacing.

    Raises:
        ConfigError: with fewer than two arrivals (no inter-arrival
            sample) or a zero mean inter-arrival (all arrivals
            coincident).
    """
    if trace.num_requests < 2:
        raise ConfigError(
            "burstiness needs at least two arrivals to form an "
            "inter-arrival sample")
    gaps = np.diff(np.asarray(trace.arrivals, dtype=float))
    mean = float(gaps.mean())
    if mean <= 0:
        raise ConfigError(
            "all arrivals are coincident; inter-arrival burstiness is "
            "undefined")
    return float(gaps.std() / mean)


def trace_stats(trace: RequestTrace, bins: int = 24) -> Dict[str, Any]:
    """One flat record of a trace's shape, for tables and comparisons.

    Keys: ``scenario``, ``requests``, ``duration``, ``mean_qps``,
    ``peak_qps`` (highest rate-curve bin), ``burstiness_cv`` (None when
    undefined), and -- when per-request lengths travel with the trace
    -- ``decode_mean`` / ``decode_p50`` / ``decode_p95`` /
    ``decode_max``.
    """
    curve = rate_curve(trace, bins=bins)
    try:
        cv: Optional[float] = burstiness_cv(trace)
    except ConfigError:
        cv = None
    stats: Dict[str, Any] = {
        "scenario": trace.scenario,
        "requests": trace.num_requests,
        "duration": float(trace.metadata.get("duration", trace.duration)),
        "mean_qps": trace.mean_rate,
        "peak_qps": max(rate for _, rate in curve),
        "burstiness_cv": cv,
        "decode_mean": None,
        "decode_p50": None,
        "decode_p95": None,
        "decode_max": None,
    }
    if trace.decode_lens is not None:
        lens = np.asarray(trace.decode_lens, dtype=float)
        stats.update(
            decode_mean=float(lens.mean()),
            decode_p50=float(np.percentile(lens, 50)),
            decode_p95=float(np.percentile(lens, 95)),
            decode_max=float(lens.max()),
        )
    return stats


def tier_stats(trace: RequestTrace) -> Dict[str, Dict[str, Any]]:
    """Per-tier request shape, keyed by tier name in sorted order.

    Each entry reports the attainment-relevant load the tier offers:
    request count, share of the trace, distinct users, and the decode
    length mean/p95 (None when lengths do not travel with the trace).
    Requests without a tier are grouped under ``(untiered)``. Empty
    when the trace carries no identity at all.
    """
    grouped: Dict[str, List[Request]] = {}
    if trace.has_identity:
        for request in trace.requests:
            tier = request.tier if request.tier is not None \
                else "(untiered)"
            grouped.setdefault(tier, []).append(request)
    stats: Dict[str, Dict[str, Any]] = {}
    total = trace.num_requests
    for tier in sorted(grouped):
        requests = grouped[tier]
        users = {request.user_id for request in requests
                 if request.user_id is not None}
        lens = [request.decode_len for request in requests
                if request.decode_len is not None]
        arr = np.asarray(lens, dtype=float) if lens else None
        stats[tier] = {
            "requests": len(requests),
            "share": len(requests) / total,
            "users": len(users),
            "decode_mean": None if arr is None else float(arr.mean()),
            "decode_p95": None if arr is None
            else float(np.percentile(arr, 95)),
        }
    return stats


def session_stats(trace: RequestTrace) -> Dict[str, Any]:
    """Session-structure summary of an identity-carrying trace.

    Keys: ``users``, ``sessions``, ``sessions_per_user`` (mean over
    users with at least one session), ``requests_per_session`` (mean),
    and ``max_session_len``. Zeroed when no request carries a
    ``session_id``.
    """
    sessions: Dict[str, int] = {}
    user_sessions: Dict[str, set] = {}
    for request in trace.requests:
        if request.session_id is None:
            continue
        sessions[request.session_id] = \
            sessions.get(request.session_id, 0) + 1
        if request.user_id is not None:
            user_sessions.setdefault(request.user_id, set()).add(
                request.session_id)
    users = {request.user_id for request in trace.requests
             if request.user_id is not None}
    if not sessions:
        return {"users": len(users), "sessions": 0,
                "sessions_per_user": 0.0, "requests_per_session": 0.0,
                "max_session_len": 0}
    per_user = [len(owned) for owned in user_sessions.values()]
    return {
        "users": len(users),
        "sessions": len(sessions),
        "sessions_per_user": (sum(per_user) / len(per_user))
        if per_user else 0.0,
        "requests_per_session":
            sum(sessions.values()) / len(sessions),
        "max_session_len": max(sessions.values()),
    }
