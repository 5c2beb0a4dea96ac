"""The ``serve-live`` workload: a ``repro serve`` subprocess driven open
loop in wall time by this process over at most two connections.

Each fixed rate gets a fresh server (a live engine is single use). The
client sends seeded Poisson arrivals on one connection and reads acks
and completions back on it; a second connection polls ``stats``. Every
request is timed from when it was due, so a stalled server also delays
the requests queued behind the stall, and the generator's own lateness
is reported next to the acks.

The server runs in real time (time scale 1) on the knee schedule of
Case I, 1B, 256 servers (analytic 7486 QPS), so the top rate, 6000/s,
is 80% of the simulated capacity. The simulated deployment does not
saturate and every phase's last completion lands within ~0.1 s of its
last submit; what grows with the rate is host work in the server, not
a simulated queue. (At a fast-forward scale every rate would saturate
this deployment; on smaller ones the simulated tail after the last
submit runs to seconds.)
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import queue
import re
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import checks
import stats
import tracing
from workloads import PassResult

SERVER_ARGS = ("--case", "i", "--llm", "1B", "--servers", "256",
               "--time-scale", "1")
STARTUP_TIMEOUT_S = 120.0
#: Wall seconds allowed after the last submit for completions to land.
TAIL_TIMEOUT_S = 20.0
STATS_INTERVAL_S = 0.1


def _cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeLiveWorkload:
    """Open-loop wall-clock traffic at fixed rates against ``repro
    serve``; ``work_s`` is the server's CPU seconds over the sweep."""

    name = "serve-live"
    min_passes = 1

    def __init__(self, root: str, seconds: float, tiny: bool = False) -> None:
        self.root = root
        self.rates = (100, 200) if tiny else (200, 1000, 3000, 6000)
        self.reference_rate = self.rates[1] if tiny else 1000
        #: Ack p99 limit (ms) a rate must hold to count in serve_max_rate;
        #: completions may lag one more pump tick (20 ms by default).
        self.ack_limit_ms = 20.0
        self.lag_limit_ms = self.ack_limit_ms + 20.0
        self.phase_s = max(0.5, seconds / len(self.rates))

    def setup(self, seed: int, tracer: Any) -> Dict[str, Any]:
        from repro.workloads import poisson_trace

        traces = {}
        for index, rate in enumerate(self.rates):
            with tracer.span("workloads.trace"):
                traces[rate] = poisson_trace(rate, self.phase_s,
                                             seed=seed * 101 + index,
                                             mean_decode_len=128)
        return {"traces": traces}

    def run_pass(self, state: Dict[str, Any], tracer: Any) -> PassResult:
        traced = isinstance(tracer, tracing.Tracer)
        rates = (self.reference_rate,) if traced else self.rates
        phases = {rate: self._phase(rate, state["traces"][rate])
                  for rate in rates}
        failures: List[str] = []
        failed = 0
        for rate, phase in phases.items():
            failures += checks.check_serve(
                f"{self.name} r{rate}", phase["submits"], phase["acks"],
                phase["completions"], phase["errors"], phase["report"])
            failed += phase["lost"] + phase["errors"]
        reference = phases[self.reference_rate]
        kept = [rate for rate, phase in phases.items()
                if phase["ack_p99_ms"] <= self.ack_limit_ms
                and phase["completion_lag_p99_ms"] <= self.lag_limit_ms
                and phase["lost"] == 0 and phase["errors"] == 0]
        values = {"serve_ack_p50_ms": reference["ack_p50_ms"],
                  "serve_ack_p99_ms": reference["ack_p99_ms"]}
        if not traced:
            values["serve_max_rate"] = float(max(kept, default=0))
        layers = {f"serve.ack_p99_ms.r{rate}": phase["ack_p99_ms"]
                  for rate, phase in phases.items()}
        layers.update({
            "serve.completion_lag_p99_ms": reference["completion_lag_p99_ms"],
            "serve.stats_rtt_p99_ms": reference["stats_rtt_p99_ms"],
            "serve.acks": sum(p["acks"] for p in phases.values()),
            "serve.completions": sum(p["completions"]
                                     for p in phases.values()),
            "serve.errors": sum(p["errors"] for p in phases.values()),
            "client.gen_lag_p99_ms": reference["gen_lag_p99_ms"],
        })
        if traced:
            _spans(tracer, reference)
        return PassResult(
            seconds=sum(p["server_cpu_s"] for p in phases.values()),
            attempted=sum(p["submits"] for p in phases.values()),
            failed=failed + len(failures), failures=failures, digest=None,
            values=values, layers=layers,
            setup_samples=[p["startup_s"] for p in phases.values()],
            basis=reference["client_cpu_s"] / max(reference["submits"], 1))

    # -- one fixed-rate phase ------------------------------------------

    def _phase(self, rate: int, trace: Any) -> Dict[str, Any]:
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.join(self.root, "src"))
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *SERVER_ARGS],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        output: List[str] = []

        def pump_output() -> None:
            for line in proc.stdout:
                output.append(line)
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump_output, daemon=True)
        reader.start()
        try:
            port = None
            while port is None:
                remaining = started + STARTUP_TIMEOUT_S - time.perf_counter()
                try:
                    line = lines.get(timeout=max(remaining, 0.01))
                except queue.Empty:
                    raise RuntimeError("repro serve did not announce its "
                                       "port in time") from None
                if line is None:
                    raise RuntimeError("repro serve exited before serving:\n"
                                       + "".join(output))
                match = re.search(r"serving on [\w.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
            startup_s = time.perf_counter() - started
            cpu_start = _cpu_seconds(proc.pid)
            client_start = time.process_time()
            phase = asyncio.run(_drive(
                port, trace, lambda: _cpu_seconds(proc.pid) - cpu_start))
            phase["client_cpu_s"] = time.process_time() - client_start
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"repro serve exited with "
                                   f"{proc.returncode}:\n" + "".join(output))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join(timeout=10)
            proc.stdout.close()
        phase["startup_s"] = startup_s
        return phase


async def _drive(port: int, trace: Any,
                 server_cpu: Callable[[], float]) -> Dict[str, Any]:
    """Send ``trace`` open loop, collect every reply, shut the server
    down and summarise the phase."""
    due = trace.arrivals
    lens = trace.decode_lens
    count = len(due)
    sent = [math.nan] * count
    acked = [math.nan] * count
    done = [math.nan] * count
    sim_done = [math.nan] * count
    sim_arrival = [math.nan] * count
    outcome: Dict[str, Any] = {"errors": 0, "report": None}
    finished = asyncio.Event()
    completions = 0

    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 20)
    stats_reader, stats_writer = await asyncio.open_connection("127.0.0.1",
                                                               port)

    async def read_replies() -> None:
        nonlocal completions
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            op = message.get("op")
            if op == "ack":
                index = message["id"]
                acked[index] = now
                sim_arrival[index] = message["arrival"]
            elif op == "completion":
                index = message["id"]
                done[index] = now
                sim_done[index] = message["completion_time"]
                completions += 1
                if completions == count:
                    finished.set()
            elif op == "report":
                outcome["report"] = message
                return
            else:
                outcome["errors"] += 1

    rtts: List[float] = []
    polling = True

    async def poll_stats() -> None:
        while polling:
            before = time.perf_counter()
            stats_writer.write(b'{"op": "stats"}\n')
            await stats_writer.drain()
            if not await stats_reader.readline():
                return
            rtts.append(time.perf_counter() - before)
            await asyncio.sleep(STATS_INTERVAL_S)

    replies = asyncio.create_task(read_replies())
    poller = asyncio.create_task(poll_stats())
    try:
        base = time.perf_counter() + 0.05
        index = 0
        while index < count:
            now = time.perf_counter()
            wait = base + due[index] - now
            if wait > 0:
                await asyncio.sleep(wait)
                now = time.perf_counter()
            batch = []
            while index < count and base + due[index] <= now:
                batch.append(json.dumps({"op": "submit", "id": index,
                                         "decode_len": lens[index]}))
                sent[index] = now
                index += 1
            writer.write(("\n".join(batch) + "\n").encode())
            await writer.drain()
        try:
            await asyncio.wait_for(finished.wait(), TAIL_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # the checks count what never arrived
        outcome["server_cpu_s"] = server_cpu()
        polling = False
        await asyncio.wait_for(poller, TAIL_TIMEOUT_S)
        writer.write(b'{"op": "shutdown"}\n')
        await writer.drain()
        await asyncio.wait_for(replies, 60)
    finally:
        for task in (replies, poller):
            if not task.done():
                task.cancel()
        await asyncio.gather(replies, poller, return_exceptions=True)
        writer.close()
        stats_writer.close()

    ack_ms = [(acked[i] - (base + due[i])) * 1e3 for i in range(count)
              if not math.isnan(acked[i])]
    gen_lag_ms = [(sent[i] - (base + due[i])) * 1e3 for i in range(count)]
    # The server maps wall to simulated time from its own start; the
    # earliest ack bounds that epoch, which places each completion's
    # simulated finish on this process's clock.
    scale = float(SERVER_ARGS[SERVER_ARGS.index("--time-scale") + 1])
    epochs = [acked[i] - sim_arrival[i] / scale for i in range(count)
              if not math.isnan(acked[i])]
    epoch = min(epochs, default=0.0)
    lag_ms = [(done[i] - (epoch + sim_done[i] / scale)) * 1e3
              for i in range(count) if not math.isnan(done[i])]
    acks = len(ack_ms)
    return {
        "submits": count,
        "acks": acks,
        "completions": completions,
        "errors": outcome["errors"],
        "report": outcome["report"],
        "lost": sum(1 for i in range(count)
                    if math.isnan(acked[i]) or math.isnan(done[i])),
        "server_cpu_s": outcome["server_cpu_s"],
        "ack_p50_ms": stats.percentile(ack_ms, 50),
        "ack_p99_ms": stats.percentile(ack_ms, 99),
        "gen_lag_p99_ms": stats.percentile(gen_lag_ms, 99),
        "completion_lag_p99_ms": stats.percentile(lag_ms, 99),
        "stats_rtt_p99_ms": stats.percentile([r * 1e3 for r in rtts], 99),
        "timeline": (base, due, sent, acked, done),
    }


def _spans(tracer: tracing.Tracer, phase: Dict[str, Any]) -> None:
    """Client-side spans of one phase: submit-to-ack and ack-to-completion
    per request, sharing the request's id."""
    base, due, sent, acked, done = phase["timeline"]
    for index in range(len(due)):
        if math.isnan(acked[index]):
            continue
        tracer.spans.append(["serve.submit", sent[index], acked[index], -1,
                             index])
        if not math.isnan(done[index]):
            tracer.spans.append(["serve.completion", acked[index],
                                 done[index], -1, index])
