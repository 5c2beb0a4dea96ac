"""Command-line interface.

Subcommands::

    python -m repro list                      # registered experiments
    python -m repro run fig5 [--full]         # regenerate an artifact
    python -m repro optimize --case iv --llm 70B [--max-ttft 0.2]
    python -m repro optimize --config workload.json [--json out.json]
    python -m repro sweep --case i --llms 1B,8B --servers 16,32
    python -m repro whatif --trace recorded.jsonl --replicas 1,2,4
    python -m repro replay --case i --scenario bursty [--json out.json]
    python -m repro serve --case i --port 8707 [--time-scale 100]
    python -m repro trace recorded.jsonl [other.jsonl ...]
    python -m repro provision --case i --qps 500
    python -m repro lint src/repro [--baseline .simlint-baseline.json]

``optimize`` runs RAGO on one of the four paradigm presets or on a
serialized :mod:`repro.config` file (a schema or a full optimization
config) and prints the Pareto frontier plus the schedules selected for
each objective; ``sweep`` searches a grid of (LLM size, cluster size)
cells over any :mod:`repro.distrib` executor backend (``--backend
serial/process/sockets``), with a hand-written grid file via
``--config grid.yaml`` (the :mod:`repro.config.yamlish` subset);
``whatif`` replays one recorded trace against a policy grid
(schedules x replicas x routing x autoscale) and prints the
chip-seconds vs SLO-attainment Pareto table, caching cell outcomes
content-keyed on disk (``--cache DIR``) so edited grids recompute
only changed cells; ``replay`` exercises the
selected schedule under live traffic -- a seeded scenario (poisson /
bursty / diurnal) or a recorded JSONL trace -- through the
discrete-event simulator and reports SLO attainment, latency
percentiles and queueing breakdowns (``--replicas N`` routes the same
traffic across an N-engine fleet; ``--autoscale policy=...,min=...,
max=...`` replays through an elastic fleet whose control loop
grows/shrinks the replica count and prints the scaling timeline);
``serve`` puts the same engine -- or, with ``--replicas``, a routed
multi-replica fleet, or, with ``--autoscale``, an elastic one -- behind
a live asyncio JSON-lines socket (requests stream in, per-request
completions stream out, the observed traffic is recorded as a
replayable trace);
``trace`` inspects and compares recorded JSONL traces (rate curves,
burstiness, decode-length stats) before replay;
``lint`` runs the :mod:`repro.analysis` determinism & drift linter
(simlint) over the source tree -- wall-clock/unseeded-RNG leaks into
sim paths, listener rebinds, registry drift -- with per-line
``# simlint: allow[rule-id]`` suppressions and a committed baseline so
CI fails only on *new* findings.
"""

from __future__ import annotations

import argparse
import functools
import json
from typing import List, Optional

from repro import config as config_module
from repro.config import OptimizationConfig
from repro.errors import ConfigError, ReproError
from repro.hardware.accelerator import XPU_A, XPU_B, XPU_C
from repro.hardware.cluster import ClusterSpec
from repro.rago.objectives import ServiceObjective
from repro.rago.session import OptimizerSession
from repro.reporting.experiments import EXPERIMENTS, get_experiment
from repro.schema.paradigms import (
    case_i_hyperscale,
    case_ii_long_context,
    case_iii_iterative,
    case_iv_rewriter_reranker,
)
from repro.sim.autoscale import (
    AUTOSCALE_POLICIES,
    Autoscaler,
    autoscale_spec,
    parse_autoscale_spec,
)
from repro.sim.fleet import FleetEngine
from repro.sim.policies import (
    ADMISSION_POLICIES,
    DISPATCH_POLICIES,
    admission_spec,
    parse_admission_policy,
)
from repro.sim.routing import ROUTING_POLICIES
from repro.workloads.traces import SCENARIOS

#: Accelerator generations by their --xpu letter (Table 2).
_XPU_BY_LETTER = {"A": XPU_A, "B": XPU_B, "C": XPU_C}

#: Choice lists shared by several subcommands.
_CASES = ("i", "ii", "iii", "iv")
_BACKENDS = ("serial", "process", "sockets")


def _tier_admission(policy):
    """Priority admission ranking decode admission by the tier set's ranks."""
    from repro.sim.policies import PriorityAdmission

    return PriorityAdmission(tier_priority=tuple(
        (tier.name, tier.rank) for tier in policy.tiers))


def _workload_flags() -> argparse.ArgumentParser:
    """The workload/cluster flags of optimize, whatif, replay and serve."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--case", choices=_CASES, default="i",
                       help="paradigm (Table 3)")
    flags.add_argument("--llm", default="8B",
                       help="generative LLM size label (1B/8B/70B/405B)")
    flags.add_argument("--context", type=int, default=1_000_000,
                       help="context length for case ii")
    flags.add_argument("--retrievals", type=int, default=4,
                       help="retrieval frequency for case iii")
    flags.add_argument("--servers", type=int, default=None,
                       help="cluster host servers (4 XPUs each, default "
                            "32); overrides a --config cluster")
    flags.add_argument("--xpu", choices=tuple(_XPU_BY_LETTER), default=None,
                       help="accelerator generation (Table 2, default C); "
                            "overrides a --config cluster")
    return flags


def _source_flags(schedule: bool) -> argparse.ArgumentParser:
    """Where the served schedule comes from: a config file, an SLO to
    search under and (replay/serve) an explicit schedule file."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", dest="config_path", default=None,
                       help="serialized workload or optimization config "
                            "(repro.config JSON); overrides --case/--llm")
    flags.add_argument("--max-ttft", type=float, default=None,
                       help="TTFT SLO in seconds for the search; replaces "
                            "--config's TTFT bound (other bounds stay in "
                            "force)")
    if schedule:
        flags.add_argument("--schedule", dest="schedule_path", default=None,
                           help="use this exact schedule -- a schedule "
                                "envelope or a replay/serve --json "
                                "artifact -- instead of searching")
    return flags


def _policy_flags() -> argparse.ArgumentParser:
    """The engine policy and fleet flags of replay and serve."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--dispatch", choices=sorted(DISPATCH_POLICIES),
                       default=None,
                       help="batch-dispatch policy for pre-decode stages "
                            "(default deadline-flush)")
    flags.add_argument("--admission", default=None, metavar="POLICY",
                       help=f"decode admission policy: "
                            f"{'/'.join(sorted(ADMISSION_POLICIES))} or "
                            f"token-budget=<int> (default greedy)")
    flags.add_argument("--tiers", default=None, metavar="SPEC",
                       help="SLO tier set: a registry name (single/"
                            "free-paid) or custom=<name>:<rank>[:<share>]"
                            "|...; multi-tier sets derive a priority "
                            "admission policy")
    flags.add_argument("--replicas", type=int, default=None,
                       help="run a fleet of N engine replicas (default 1: "
                            "a single engine)")
    flags.add_argument("--routing", choices=sorted(ROUTING_POLICIES),
                       default=None,
                       help="fleet request-routing policy "
                            "(default round-robin)")
    flags.add_argument("--autoscale", default=None, metavar="SPEC",
                       help=f"elastic fleet: policy=NAME,min=N,max=N"
                            f"[,interval=S,cooldown=S,up=X,down=X]; "
                            f"policies: "
                            f"{'/'.join(sorted(AUTOSCALE_POLICIES))} "
                            f"(exclusive with --replicas)")
    flags.add_argument("--slo-ttft", type=float, default=None,
                       help="TTFT target in seconds for attainment "
                            "accounting (default: 5x analytical TTFT)")
    flags.add_argument("--slo-tpot", type=float, default=None,
                       help="TPOT target in seconds for attainment "
                            "accounting (default: 2x analytical TPOT)")
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAGO reproduction: experiments and schedule search",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    workload = _workload_flags()
    policy = _policy_flags()

    listing = commands.add_parser("list",
                                  help="list regenerable paper artifacts")
    listing.set_defaults(handler=_command_list)

    run = commands.add_parser("run", help="regenerate one table/figure")
    run.set_defaults(handler=_command_run)
    run.add_argument("experiment", help="artifact id, e.g. fig5 or table4")
    run.add_argument("--full", action="store_true",
                     help="use the paper's full sweep densities")
    run.add_argument("--json", dest="json_path", default=None,
                     help="also dump the structured data to a JSON file")

    optimize = commands.add_parser(
        "optimize", parents=[workload, _source_flags(schedule=False)],
        help="run RAGO on a preset or config file")
    optimize.set_defaults(handler=_command_optimize)
    optimize.add_argument("--json", dest="json_path", default=None,
                          help="also dump the frontier and chosen schedule "
                               "to a JSON file")

    sweep = commands.add_parser(
        "sweep", help="search a grid of LLM sizes x cluster sizes")
    sweep.set_defaults(handler=functools.partial(_command_sweep,
                                                 parser=sweep))
    sweep.add_argument("--case", choices=_CASES, default="i")
    sweep.add_argument("--llms", default="1B,8B",
                       help="comma-separated LLM size labels")
    sweep.add_argument("--servers", default="32",
                       help="comma-separated host-server counts")
    sweep.add_argument("--context", type=int, default=1_000_000)
    sweep.add_argument("--retrievals", type=int, default=4)
    sweep.add_argument("--xpu", choices=tuple(_XPU_BY_LETTER), default="C")
    sweep.add_argument("--processes", type=int, default=1,
                       help="worker processes for the sweep executor")
    sweep.add_argument("--backend", choices=_BACKENDS, default=None,
                       help="sweep executor backend (default: process "
                            "when --processes > 1, else serial); all "
                            "backends produce identical tables")
    sweep.add_argument("--config", dest="grid_config_path", default=None,
                       help="grid file (yamlish subset: scalars, nested "
                            "maps, lists); keys mirror the flags, and "
                            "explicit flags override the file")
    sweep.add_argument("--json", dest="json_path", default=None,
                       help="also dump the tidy result table to a JSON file")

    whatif = commands.add_parser(
        "whatif", parents=[workload],
        help="replay a recorded trace against a policy grid")
    whatif.set_defaults(handler=functools.partial(_command_whatif,
                                                  parser=whatif))
    whatif.add_argument("--trace", dest="trace_path", default=None,
                        help="recorded JSONL trace to replay (exclusive "
                             "with --scenario)")
    whatif.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default=None,
                        help="generate this traffic scenario instead of "
                             "replaying a recording (default poisson)")
    whatif.add_argument("--rate", type=float, default=None,
                        help="offered QPS for a generated scenario "
                             "(default: 0.7x the best schedule's "
                             "saturation QPS)")
    whatif.add_argument("--duration", type=float, default=20.0,
                        help="generated scenario length in seconds "
                             "(default 20)")
    whatif.add_argument("--seed", type=int, default=0,
                        help="scenario RNG seed")
    whatif.add_argument("--schedules", type=int, default=3,
                        help="grid over the top-N frontier schedules by "
                             "QPS/chip (default 3)")
    whatif.add_argument("--replicas", default="1",
                        help="comma-separated fixed fleet sizes "
                             "(default 1)")
    whatif.add_argument("--routing", default="none",
                        help="semicolon-separated routing policies; "
                             "'none' = engine default")
    whatif.add_argument("--autoscale", default="none",
                        help="semicolon-separated autoscale specs "
                             "(policy=NAME,min=N,max=N...); 'none' = "
                             "fixed fleet (specs contain commas, hence "
                             "semicolons)")
    whatif.add_argument("--slo-ttft", type=float, default=None,
                        help="TTFT target in seconds (default: 5x the "
                             "best schedule's analytical TTFT)")
    whatif.add_argument("--slo-tpot", type=float, default=None,
                        help="TPOT target in seconds (default: 2x "
                             "analytical TPOT)")
    whatif.add_argument("--backend", choices=_BACKENDS, default=None,
                        help="executor backend (default: process when "
                             "--workers > 1, else serial)")
    whatif.add_argument("--workers", type=int, default=1,
                        help="executor worker count (default 1)")
    whatif.add_argument("--cache", dest="cache_dir", default=None,
                        help="content-keyed cell cache directory; "
                             "edited grids recompute only changed cells")
    whatif.add_argument("--config", dest="grid_config_path", default=None,
                        help="grid file (yamlish subset); keys mirror "
                             "the flags, and explicit flags override "
                             "the file")
    whatif.add_argument("--json", dest="json_path", default=None,
                        help="dump the whatif_result envelope (plus "
                             "workload/cluster/trace) to a JSON file")

    replay = commands.add_parser(
        "replay", parents=[workload, _source_flags(schedule=True), policy],
        help="replay live traffic through a searched schedule")
    replay.set_defaults(handler=_command_replay)
    replay.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default=None,
                        help="built-in traffic scenario to generate "
                             "(default poisson; exclusive with --trace)")
    replay.add_argument("--trace", dest="trace_path", default=None,
                        help="replay a recorded JSONL trace instead of "
                             "generating a scenario")
    replay.add_argument("--load", type=float, default=0.7,
                        help="offered load as a fraction of the schedule's "
                             "analytical saturation QPS (default 0.7)")
    replay.add_argument("--rate", type=float, default=None,
                        help="absolute offered QPS; overrides --load")
    replay.add_argument("--duration", type=float, default=10.0,
                        help="scenario length in seconds (default 10)")
    replay.add_argument("--seed", type=int, default=0,
                        help="scenario RNG seed")
    replay.add_argument("--population", default=None, metavar="SPEC",
                        help="closed-loop user population: "
                             "users=N[,think=S,concurrency=N,session=N,"
                             "decode=N,seed=N,tiers=NAME]; replaces the "
                             "open-loop scenario (users submit, think, "
                             "resubmit until --duration)")
    replay.add_argument("--json", dest="json_path", default=None,
                        help="dump the serving report (plus schedule and "
                             "trace envelopes) to a JSON file")

    serve = commands.add_parser(
        "serve", parents=[workload, _source_flags(schedule=True), policy],
        help="serve a live request stream over a socket")
    serve.set_defaults(handler=_command_serve)
    serve.add_argument("--serve-config", dest="serve_config_path",
                       default=None,
                       help="serve_config envelope (repro.config JSON) "
                            "with server settings; explicit flags "
                            "override individual fields")
    serve.add_argument("--host", default=None,
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port; 0 binds an ephemeral port and "
                            "prints it (default 0)")
    serve.add_argument("--tick", type=float, default=None,
                       help="wall seconds between engine advances "
                            "(default 0.02)")
    serve.add_argument("--time-scale", type=float, default=None,
                       help="simulated seconds per wall second "
                            "(default 1.0; raise to fast-forward)")
    serve.add_argument("--record", dest="record_path", default=None,
                       help="write the observed arrivals as a replayable "
                            "JSONL trace on shutdown")
    serve.add_argument("--json", dest="json_path", default=None,
                       help="dump the final serving report (plus "
                            "schedule, trace and server envelopes) to a "
                            "JSON file on shutdown")

    trace_cmd = commands.add_parser(
        "trace", help="inspect/compare recorded JSONL traces")
    trace_cmd.set_defaults(handler=_command_trace)
    trace_cmd.add_argument("paths", nargs="+", metavar="TRACE",
                           help="recorded JSONL trace files "
                                "(RequestTrace.to_jsonl / repro serve "
                                "--record output)")
    trace_cmd.add_argument("--bins", type=int, default=24,
                           help="rate-curve resolution (default 24 bins)")

    lint = commands.add_parser(
        "lint", help="run the determinism & drift linter (simlint)")
    lint.set_defaults(handler=_command_lint)
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      metavar="PATH",
                      help="files/directories to lint "
                           "(default src/repro)")
    lint.add_argument("--rule", action="append", dest="rules",
                      metavar="RULE-ID", default=None,
                      help="run only this rule (repeatable; default: "
                           "every registered rule)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument("--baseline", dest="baseline_path", default=None,
                      help="committed baseline JSON; only findings "
                           "absent from it fail the run")
    lint.add_argument("--write-baseline", action="store_true",
                      help="snapshot the current findings into "
                           "--baseline and exit 0 (adopting them)")
    lint.add_argument("--json", dest="json_path", default=None,
                      help="dump the findings (and baseline verdict) "
                           "to a JSON report file")
    lint.add_argument("--explain", dest="explain_rule", default=None,
                      metavar="RULE-ID",
                      help="print the evidence chain behind every "
                           "finding of this rule (the call path an "
                           "interprocedural rule walked)")
    lint.add_argument("--audit-suppressions", action="store_true",
                      help="also report stale # simlint: allow[...] "
                           "comments that no longer shield a finding")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on stale suppressions too (with "
                           "--audit-suppressions)")
    lint.add_argument("--cache", dest="cache_dir",
                      default=".simlint-cache", metavar="DIR",
                      help="content-keyed per-module summary cache "
                           "for the interprocedural rules (default "
                           ".simlint-cache)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the summary cache for this run")

    bench = commands.add_parser(
        "bench", help="profile the DES hot path on the canonical trace")
    bench.set_defaults(handler=_command_bench)
    bench.add_argument("--requests", type=int, default=None,
                       help="trace size (default: the canonical "
                            "100k-request replay)")
    bench.add_argument("--top", type=int, default=15,
                       help="profile table rows (default 15)")
    bench.add_argument("--oracle", action="store_true",
                       help="also replay through the reference "
                            "closure-per-event engine and report the "
                            "speedup")
    bench.add_argument("--no-profile", action="store_true",
                       help="skip cProfile; print only the timed "
                            "replay numbers")

    prov = commands.add_parser(
        "provision", help="size a fleet for a target load")
    prov.set_defaults(handler=_command_provision)
    prov.add_argument("--case", choices=_CASES, default="i")
    prov.add_argument("--llm", default="8B")
    prov.add_argument("--context", type=int, default=1_000_000)
    prov.add_argument("--retrievals", type=int, default=4)
    prov.add_argument("--servers", type=int, default=32)
    prov.add_argument("--qps", type=float, required=True,
                      help="target requests per second")
    prov.add_argument("--max-ttft", type=float, default=None)
    return parser


def _schema_for(args: argparse.Namespace, llm: Optional[str] = None):
    llm = llm or args.llm
    if args.case == "i":
        return case_i_hyperscale(llm)
    if args.case == "ii":
        return case_ii_long_context(args.context, llm)
    if args.case == "iii":
        return case_iii_iterative(llm, retrieval_frequency=args.retrievals)
    return case_iv_rewriter_reranker(llm)


def _write_json(path: str, payload) -> None:
    """Dump one --json artifact and say where it went."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {path}")


def _command_list(args: argparse.Namespace) -> int:
    width = max(len(exp_id) for exp_id in EXPERIMENTS)
    for exp_id, exp in sorted(EXPERIMENTS.items()):
        print(f"{exp_id.ljust(width)}  {exp.title}")
        print(f"{' ' * width}  claim: {exp.paper_claim}")
    return 0


def _jsonable(value):
    """Convert experiment data (tuple keys, dataclasses) to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _command_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    output = experiment.runner()(fast=not args.full)
    print(output)
    if args.json_path:
        _write_json(args.json_path, {
            "exp_id": output.exp_id,
            "title": output.title,
            "notes": output.notes,
            "data": _jsonable(output.data),
        })
    return 0


def _load_optimization_config(path: str) -> OptimizationConfig:
    """Load an optimize --config file: either a bare schema envelope or
    a full optimization config."""
    loaded = config_module.load(path)
    if isinstance(loaded, OptimizationConfig):
        return loaded
    from repro.schema.ragschema import RAGSchema

    if isinstance(loaded, RAGSchema):
        return OptimizationConfig(schema=loaded)
    raise ConfigError(
        f"{path} holds a {type(loaded).__name__}; optimize expects a "
        f"rag_schema or optimization_config"
    )


def _resolve_cluster(args: argparse.Namespace,
                     loaded: Optional[ClusterSpec]) -> ClusterSpec:
    """The run's cluster: --config's, with explicit flags overriding."""
    import dataclasses

    cluster = loaded or ClusterSpec(num_servers=args.servers or 32,
                                    xpu=_XPU_BY_LETTER[args.xpu or "C"])
    overrides = {}
    if args.servers is not None and cluster.num_servers != args.servers:
        overrides["num_servers"] = args.servers
    if args.xpu is not None and cluster.xpu != _XPU_BY_LETTER[args.xpu]:
        overrides["xpu"] = _XPU_BY_LETTER[args.xpu]
    return dataclasses.replace(cluster, **overrides) if overrides \
        else cluster


def _print_workload(schema, cluster: ClusterSpec) -> None:
    """The workload/cluster header every searching command leads with."""
    print(f"workload: {schema.describe()}")
    print(f"cluster : {cluster.num_servers} servers x "
          f"{cluster.xpus_per_server} {cluster.xpu.name}")


def _resolve_session(args: argparse.Namespace) -> OptimizerSession:
    """One constrained session from --config / preset flags.

    Shared by ``optimize``, ``replay`` and ``serve``: loads the
    workload (file or preset), resolves the cluster, and merges
    constraints -- the config file's bounds first, then an explicit
    ``--max-ttft`` flag replaces the file's TTFT bound only. Prints the
    workload/cluster header.
    """
    search = None
    objective: Optional[ServiceObjective] = None
    if args.config_path:
        loaded = _load_optimization_config(args.config_path)
        schema = loaded.schema
        cluster = _resolve_cluster(args, loaded.cluster)
        search = loaded.search
        objective = loaded.objective
    else:
        schema = _schema_for(args)
        cluster = _resolve_cluster(args, None)
    _print_workload(schema, cluster)
    session = OptimizerSession(schema, cluster)
    if search is not None:
        session = session.with_search(search)
    if objective is not None:
        session = session.with_constraint(
            max_ttft=objective.max_ttft,
            max_tpot=objective.max_tpot,
            min_qps_per_chip=objective.min_qps_per_chip)
    if args.max_ttft is not None:
        session = session.with_constraint(max_ttft=args.max_ttft)
    return session


def _load_schedule(path: str, session: OptimizerSession):
    """Load an explicit schedule for replay/serve and evaluate it.

    Accepts either a bare ``schedule`` config envelope or a replay/serve
    ``--json`` artifact (whose ``"schedule"`` key holds one), so a
    recorded session closes the loop without extracting envelopes by
    hand.
    """
    from repro.pipeline import Schedule

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path}: invalid JSON: {error}") from error
    if isinstance(data, dict) and "config_version" in data:
        loaded = config_module.from_config(data)
    elif isinstance(data, dict) and isinstance(data.get("schedule"), dict):
        loaded = config_module.from_config(data["schedule"])
    else:
        raise ConfigError(
            f"{path} holds neither a schedule envelope nor a --json "
            f"artifact with a 'schedule' key")
    if not isinstance(loaded, Schedule):
        raise ConfigError(
            f"{path} holds a {type(loaded).__name__}; expected a schedule")
    return session.evaluate(loaded)


def _session_constrained(session: OptimizerSession) -> bool:
    """Whether any serving bound is in force on the session."""
    objective = session.objective
    return any(bound is not None for bound in
               (objective.max_ttft, objective.max_tpot,
                objective.min_qps_per_chip))


def _command_optimize(args: argparse.Namespace) -> int:
    session = _resolve_session(args)
    schema = session.schema
    cluster = session.cluster
    objective = session.objective
    constrained = _session_constrained(session)
    result = session.optimize()
    print(f"searched {result.num_plans} plans; frontier:")
    for perf in result.frontier:
        print(f"  ttft={perf.ttft * 1e3:9.1f} ms  "
              f"qps/chip={perf.qps_per_chip:8.3f}  xpus={perf.total_xpus}")
    if len(result.frontier) >= 2:
        from repro.reporting.ascii_plot import ascii_scatter

        points = [(perf.ttft, perf.qps_per_chip)
                  for perf in result.frontier]
        print()
        print(ascii_scatter({"frontier": points}, width=60, height=12,
                            x_label="TTFT (s)", y_label="QPS/chip",
                            log_x=True))
    if constrained:
        chosen = session.best()
        constraint = (f"TTFT <= {objective.max_ttft} s"
                      if objective.max_ttft is not None else f"{objective}")
        print(f"best schedule under {constraint}:")
    else:
        chosen = result.max_qps_per_chip
        print("throughput-optimal schedule:")
    print(f"  {chosen.schedule.describe()}")
    print(f"  ttft={chosen.ttft * 1e3:.1f} ms  "
          f"qps/chip={chosen.qps_per_chip:.3f}  "
          f"tpot={chosen.tpot * 1e3:.2f} ms")
    if args.json_path:
        _write_json(args.json_path, {
            "workload": config_module.to_config(schema),
            "cluster": config_module.to_config(cluster),
            "num_plans": result.num_plans,
            "num_candidates": result.num_candidates,
            "frontier": [
                {"ttft": perf.ttft, "tpot": perf.tpot,
                 "qps_per_chip": perf.qps_per_chip,
                 "total_xpus": perf.total_xpus}
                for perf in result.frontier
            ],
            "chosen": {
                "ttft": chosen.ttft,
                "tpot": chosen.tpot,
                "qps_per_chip": chosen.qps_per_chip,
                "schedule": config_module.to_config(chosen.schedule),
            },
        })
    return 0


def _print_schedule(chosen) -> None:
    """The chosen-schedule lines replay and serve print."""
    print(f"schedule: {chosen.schedule.describe()}")
    print(f"analytical: qps={chosen.qps:.1f}  "
          f"ttft={chosen.ttft * 1e3:.1f} ms  "
          f"tpot={chosen.tpot * 1e3:.2f} ms")


def _build_engine(session: OptimizerSession, schedule, *, replicas: int,
                  routing: Optional[str], autoscale, dispatch: Optional[str],
                  admission, slo):
    """The ``(engine, autoscaler)`` pair replay and serve drive.

    An autoscale config builds an elastic fleet starting at its floor
    with the controller over it; more than one replica, or an explicit
    ``routing`` (never silently ignored, even at one replica), builds a
    fixed fleet; anything else is one engine. The autoscaler is None
    unless the fleet is elastic.
    """
    if autoscale is not None:
        fleet = session.fleet_engine(schedule,
                                     replicas=autoscale.min_replicas,
                                     routing=routing, dispatch=dispatch,
                                     admission=admission)
        return fleet, Autoscaler.from_config(fleet, autoscale, slo=slo)
    if replicas > 1 or routing is not None:
        return session.fleet_engine(schedule, replicas=replicas,
                                    routing=routing, dispatch=dispatch,
                                    admission=admission), None
    return session.serving_engine(schedule, dispatch=dispatch,
                                  admission=admission), None


def _print_fleet(engine, autoscaler) -> None:
    """The per-replica and scaling tables replay and serve print after
    the serving report (nothing for a single engine)."""
    from repro.reporting import (format_fleet_breakdown,
                                 format_scaling_timeline)

    if isinstance(engine, FleetEngine):
        print()
        print(format_fleet_breakdown(engine.replica_stats()))
    if autoscaler is not None:
        print()
        print(format_scaling_timeline(
            autoscaler.timeline(),
            replica_seconds=autoscaler.replica_seconds))


def _policy_payload(dispatch: Optional[str], admission, engine,
                    autoscaler, autoscale) -> dict:
    """The --json ``policies`` / ``fleet`` / ``autoscale`` sections
    replay and serve both emit."""
    payload = {"policies": {"dispatch": dispatch or "deadline-flush",
                            "admission": admission_spec(admission)}}
    if isinstance(engine, FleetEngine):
        payload["policies"]["routing"] = engine.routing.name
        payload["fleet"] = {
            "replicas": engine.replicas,
            "routing": engine.routing.name,
            "per_replica": engine.replica_stats(),
        }
    if autoscaler is not None:
        payload["autoscale"] = {
            "spec": autoscale_spec(autoscale),
            "config": config_module.to_config(autoscale),
            "replica_seconds": autoscaler.replica_seconds,
            "events": autoscaler.timeline(),
        }
    return payload


def _command_replay(args: argparse.Namespace) -> int:
    from repro.reporting import format_serving_report
    from repro.sim import SLOTarget, replay
    from repro.workloads import RequestTrace, scenario_trace

    # Policy/fleet knobs must fail before the (expensive) search.
    admission = parse_admission_policy(args.admission)
    population = None
    if args.population is not None:
        import dataclasses

        from repro.workloads import parse_population_spec, parse_tiers_spec

        population = parse_population_spec(args.population)
        if args.tiers is not None:
            population = dataclasses.replace(
                population, tiers=parse_tiers_spec(args.tiers))
        if args.admission is None and len(population.tiers.tiers) > 1:
            # A multi-tier population wants tier-aware decode admission
            # by default; an explicit --admission still wins.
            admission = _tier_admission(population.tiers)
    elif args.tiers is not None:
        raise ConfigError(
            "--tiers shapes a closed-loop population; pass --population "
            "too")
    autoscale = None
    if args.autoscale is not None:
        if args.replicas is not None:
            raise ConfigError(
                "--autoscale manages the fleet size (min/max in the "
                "spec); drop --replicas")
        if population is not None:
            raise ConfigError(
                "--autoscale replays an open-loop trace; a closed-loop "
                "--population drives the engine directly -- drop one")
        autoscale = parse_autoscale_spec(args.autoscale)
    replicas = 1 if args.replicas is None else args.replicas
    if replicas < 1:
        raise ConfigError("--replicas must be at least 1")
    session = _resolve_session(args)
    schema = session.schema
    objective = session.objective
    if args.schedule_path:
        chosen = _load_schedule(args.schedule_path, session)
    elif _session_constrained(session):
        chosen = session.best()
    else:
        chosen = session.optimize().max_qps_per_chip
    _print_schedule(chosen)

    if population is not None:
        # Closed-loop traffic: the population self-generates against
        # the live engine, so open-loop generator knobs (and recorded
        # traces) cannot mix in. --duration doubles as the submission
        # horizon.
        defaults = {"scenario": None, "rate": None, "load": 0.7,
                    "seed": 0}
        clashing = [f"--{name}" for name, default in defaults.items()
                    if getattr(args, name) != default]
        if args.trace_path:
            clashing.insert(0, "--trace")
        if clashing:
            raise ConfigError(
                f"--population drives a closed loop; drop "
                f"{', '.join(clashing)} (they only apply to open-loop "
                f"traffic)")
        trace = None
        print(f"traffic : closed loop, {population.users} user(s), "
              f"tiers {population.tiers.name}, horizon "
              f"{args.duration:g}s")
    elif args.trace_path:
        # A recorded trace fixes the traffic entirely; generator knobs
        # alongside it would be silently dead, so reject the mix.
        defaults = {"scenario": None, "rate": None, "load": 0.7,
                    "duration": 10.0, "seed": 0}
        clashing = [f"--{name}" for name, default in defaults.items()
                    if getattr(args, name) != default]
        if clashing:
            raise ConfigError(
                f"--trace replays a recorded stream; drop "
                f"{', '.join(clashing)} (they only apply to generated "
                f"scenarios)")
        trace = RequestTrace.from_jsonl(args.trace_path)
    else:
        rate = args.rate if args.rate is not None \
            else args.load * chosen.qps
        if rate <= 0:
            raise ConfigError("offered rate must be positive; pass a "
                              "positive --rate or --load")
        # Generators fall back to fixed lengths for means too small for
        # the geometric sampler, so the schema's length passes through.
        trace = scenario_trace(
            args.scenario or "poisson", rate_qps=rate,
            duration=args.duration, seed=args.seed,
            mean_decode_len=schema.sequences.decode_len)
    if trace is not None:
        print(f"traffic : {trace.describe()}")

    slo = SLOTarget(
        ttft=args.slo_ttft if args.slo_ttft is not None
        else (objective.max_ttft or 5.0 * chosen.ttft),
        tpot=args.slo_tpot if args.slo_tpot is not None
        else (objective.max_tpot or 2.0 * chosen.tpot),
    )
    engine, autoscaler = _build_engine(
        session, chosen.schedule, replicas=replicas, routing=args.routing,
        autoscale=autoscale, dispatch=args.dispatch, admission=admission,
        slo=slo)
    driver = None
    if population is not None:
        # Closed-loop replay: the population submits, thinks, and
        # resubmits through the engine's completion listeners; the
        # recorded (identity-carrying) trace becomes the report's
        # traffic description.
        from repro.workloads import (ClosedLoopDriver, population_spec,
                                     tiers_spec)

        driver = ClosedLoopDriver(population, engine, horizon=args.duration)
        driver.run()
        trace = engine.recorded_trace(
            scenario="sessions",
            population=population_spec(population),
            tiers=tiers_spec(population.tiers))
        print(f"observed: {trace.describe()}")
    elif autoscaler is not None:
        # Elastic replay: the control loop tracks the trace's rate
        # curve from the fleet's floor.
        autoscaler.run_trace(trace)
    else:
        replay(engine, trace)
    report = engine.report(trace, slo=slo)
    print()
    print(format_serving_report(report))
    _print_fleet(engine, autoscaler)
    if args.json_path:
        # Workload + cluster envelopes (and the policy selections) ride
        # along so the report can be regenerated from this file alone.
        payload = {
            "report": config_module.to_config(report),
            "workload": config_module.to_config(schema),
            "cluster": config_module.to_config(session.cluster),
            "schedule": config_module.to_config(chosen.schedule),
            "trace": config_module.to_config(trace),
        }
        payload.update(_policy_payload(args.dispatch, admission, engine,
                                       autoscaler, autoscale))
        if driver is not None:
            payload["population"] = {
                "spec": population_spec(population),
                "tiers": tiers_spec(population.tiers),
                "per_tier": driver.tier_counts(),
            }
        _write_json(args.json_path, payload)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses

    from repro.reporting import format_live_summary, format_serving_report
    from repro.serve import LiveServer, ServeConfig

    # Resolve and validate the server settings before the (expensive)
    # schedule search: a bad --tick must fail in milliseconds.
    base = ServeConfig()
    if args.serve_config_path:
        loaded = config_module.load(args.serve_config_path)
        if not isinstance(loaded, ServeConfig):
            raise ConfigError(
                f"{args.serve_config_path} holds a "
                f"{type(loaded).__name__}; serve expects a serve_config")
        base = loaded
    overrides = {
        name: value for name, value in (
            ("host", args.host), ("port", args.port),
            ("tick", args.tick), ("time_scale", args.time_scale),
            ("slo_ttft", args.slo_ttft), ("slo_tpot", args.slo_tpot),
            ("replicas", args.replicas), ("routing", args.routing),
        ) if value is not None
    }
    if args.autoscale is not None:
        overrides["autoscale"] = parse_autoscale_spec(args.autoscale)
    serve_config = dataclasses.replace(base, **overrides)
    # Checked against the resolved config, not just the flags: an
    # autoscale envelope inside --serve-config must also refuse an
    # explicit --replicas rather than silently discarding it.
    if serve_config.autoscale is not None and args.replicas is not None:
        raise ConfigError(
            "--autoscale manages the fleet size (min/max in the "
            "spec); drop --replicas")
    admission = parse_admission_policy(args.admission)
    if args.tiers is not None:
        from repro.workloads import parse_tiers_spec

        tier_policy = parse_tiers_spec(args.tiers)
        if args.admission is not None:
            raise ConfigError(
                "--tiers derives a priority admission policy; drop "
                "--admission or encode the ranks there")
        if len(tier_policy.tiers) > 1:
            admission = _tier_admission(tier_policy)

    session = _resolve_session(args)
    objective = session.objective
    if args.schedule_path:
        chosen = _load_schedule(args.schedule_path, session)
    else:
        # Live serving wants the balanced frontier point: the knee of
        # the admissible sub-frontier (constraints from --config /
        # --max-ttft still apply).
        chosen = session.with_objective("knee").best()
    _print_schedule(chosen)

    if serve_config.slo_ttft is None:
        serve_config = dataclasses.replace(
            serve_config,
            slo_ttft=objective.max_ttft or 5.0 * chosen.ttft)
    if serve_config.slo_tpot is None:
        serve_config = dataclasses.replace(
            serve_config,
            slo_tpot=objective.max_tpot or 2.0 * chosen.tpot)

    autoscale = serve_config.autoscale
    engine, autoscaler = _build_engine(
        session, chosen.schedule, replicas=serve_config.replicas,
        routing=serve_config.routing, autoscale=autoscale,
        dispatch=args.dispatch, admission=admission,
        slo=serve_config.slo)
    server = LiveServer(engine, serve_config, autoscaler=autoscaler)

    def ready(host: str, port: int) -> None:
        fleet_note = ""
        if autoscale is not None:
            fleet_note = (f"; autoscaled fleet "
                          f"{autoscale.min_replicas}.."
                          f"{autoscale.max_replicas} replica(s) "
                          f"({autoscale.policy}), "
                          f"{serve_config.routing or 'round-robin'} "
                          f"routing")
        elif isinstance(engine, FleetEngine):
            fleet_note = (f"; fleet of {serve_config.replicas} "
                          f"replica(s), "
                          f"{serve_config.routing or 'round-robin'} "
                          f"routing")
        print(f"serving on {host}:{port} "
              f"(time scale {serve_config.time_scale:g}x; JSON-lines "
              f"ops: submit / stats / shutdown; Ctrl-C stops"
              f"{fleet_note})",
              flush=True)

    report = asyncio.run(server.run(ready=ready))
    if args.record_path and server.trace is not None:
        # The observed arrivals are worth keeping even when the session
        # was too degenerate to produce a report.
        server.trace.to_jsonl(args.record_path)
        print(f"recorded trace -> {args.record_path}")
    if report is None:
        if server.trace is None:
            print("shut down with zero submissions; no report to emit")
        else:
            print("shut down before any request completed; no report "
                  "to emit")
        return 0
    print()
    print(format_live_summary(server.snapshot()))
    print()
    print(format_serving_report(report))
    _print_fleet(engine, autoscaler)
    if args.json_path:
        payload = {
            "report": config_module.to_config(report),
            "workload": config_module.to_config(session.schema),
            "cluster": config_module.to_config(session.cluster),
            "schedule": config_module.to_config(chosen.schedule),
            "trace": config_module.to_config(server.trace),
            "serve": config_module.to_config(serve_config),
        }
        payload.update(_policy_payload(args.dispatch, admission, engine,
                                       autoscaler, autoscale))
        _write_json(args.json_path, payload)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.reporting import format_table
    from repro.reporting.ascii_plot import ascii_scatter
    from repro.workloads import (RequestTrace, rate_curve, session_stats,
                                 tier_stats, trace_stats)

    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    traces = [(path, RequestTrace.from_jsonl(path)) for path in args.paths]
    for path, trace in traces:
        print(f"{path}: {trace.describe()}")
    rows = []
    series = {}
    for path, trace in traces:
        stats = trace_stats(trace, bins=args.bins)
        rows.append([
            stats["scenario"], stats["requests"], stats["duration"],
            stats["mean_qps"], stats["peak_qps"],
            "-" if stats["burstiness_cv"] is None
            else stats["burstiness_cv"],
            "-" if stats["decode_mean"] is None else stats["decode_mean"],
            "-" if stats["decode_p95"] is None else stats["decode_p95"],
        ])
        if len(traces) == 1:
            label = "rate"
        else:
            import os

            label = os.path.basename(path)
            if label in series:
                label = f"{label}#{len(series)}"
        series[label] = rate_curve(trace, bins=args.bins)
    print()
    print(format_table(
        ("scenario", "requests", "duration (s)", "mean QPS", "peak QPS",
         "burstiness CV", "decode mean", "decode p95"),
        rows, title="trace statistics (CV ~1 poisson, >1 bursty)"))
    # Identity-carrying traces get the multi-user view: per-tier load
    # shares and the session structure (sorted, so diffs are stable).
    for path, trace in traces:
        tiers = tier_stats(trace)
        if not tiers:
            continue
        tier_rows = [
            [tier,
             stats["requests"],
             f"{stats['share'] * 100.0:.1f}%",
             stats["users"],
             "-" if stats["decode_mean"] is None
             else f"{stats['decode_mean']:.1f}",
             "-" if stats["decode_p95"] is None
             else f"{stats['decode_p95']:.1f}"]
            for tier, stats in sorted(tiers.items())
        ]
        print()
        print(format_table(
            ("tier", "requests", "share", "users", "decode mean",
             "decode p95"),
            tier_rows, title=f"tiers: {path}"))
        sessions = session_stats(trace)
        if sessions["sessions"]:
            print(f"sessions: {sessions['users']} user(s), "
                  f"{sessions['sessions']} session(s), "
                  f"{sessions['sessions_per_user']:.1f} sessions/user, "
                  f"{sessions['requests_per_session']:.1f} "
                  f"requests/session, longest {sessions['max_session_len']}")
    print()
    print(ascii_scatter(series, width=60, height=12,
                        x_label="time (s)", y_label="QPS"))
    return 0


def _axis(separator: str):
    """A config-file coercer rendering a list axis into the flag's
    string form (None entries become the 'none' token)."""
    def coerce(value):
        if isinstance(value, list):
            return separator.join(
                "none" if item is None else str(item) for item in value)
        return str(value)
    return coerce


#: Grid-file keys per command: key -> (args attribute, coercer). The
#: flag's default and choice list come from its argparse action; a file
#: value only lands when the flag still holds its default, so explicit
#: flags override the file.
_SWEEP_CONFIG_KEYS = {
    "case": ("case", str),
    "llms": ("llms", _axis(",")),
    "servers": ("servers", _axis(",")),
    "context": ("context", int),
    "retrievals": ("retrievals", int),
    "xpu": ("xpu", str),
    "processes": ("processes", int),
    "backend": ("backend", str),
}

_WHATIF_CONFIG_KEYS = {
    "case": ("case", str),
    "llm": ("llm", str),
    "context": ("context", int),
    "retrievals": ("retrievals", int),
    "servers": ("servers", int),
    "xpu": ("xpu", str),
    "trace": ("trace_path", str),
    "scenario": ("scenario", str),
    "rate": ("rate", float),
    "duration": ("duration", float),
    "seed": ("seed", int),
    "schedules": ("schedules", int),
    "replicas": ("replicas", _axis(",")),
    "routing": ("routing", _axis(";")),
    "autoscale": ("autoscale", _axis(";")),
    "slo_ttft": ("slo_ttft", float),
    "slo_tpot": ("slo_tpot", float),
    "backend": ("backend", str),
    "workers": ("workers", int),
    "cache": ("cache_dir", str),
}


def _apply_grid_config(args: argparse.Namespace,
                       parser: argparse.ArgumentParser,
                       spec: dict) -> None:
    """Fold a ``--config`` grid file (yamlish subset) into ``args``.

    File values fill flags still at their defaults; explicitly-passed
    flags win. Unknown keys are rejected, so a typo'd axis fails
    instead of silently sweeping the default, and a flag's argparse
    choice list binds its file value too (file values bypass argparse).
    """
    from repro.config import yamlish

    command = args.command
    data = yamlish.load(args.grid_config_path)
    if data is None:
        return
    if not isinstance(data, dict):
        raise ConfigError(
            f"{args.grid_config_path}: {command} config must be a "
            f"mapping of {command} keys")
    unknown = set(data) - set(spec)
    if unknown:
        raise ConfigError(
            f"{args.grid_config_path}: unknown {command} config "
            f"key(s) {', '.join(sorted(map(str, unknown)))}; known: "
            f"{', '.join(sorted(spec))}")
    actions = {action.dest: action for action in parser._actions}
    for key, value in data.items():
        attribute, coerce = spec[key]
        action = actions[attribute]
        if getattr(args, attribute) != action.default:
            continue
        try:
            value = coerce(value)
        except (TypeError, ValueError) as error:
            raise ConfigError(
                f"{args.grid_config_path}: bad value for "
                f"{key!r}: {error}") from error
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"bad {key} {value!r}; expected one of "
                f"{', '.join(action.choices)}")
        setattr(args, attribute, value)


def _split_tokens(text: str, separator: str):
    return [token.strip() for token in str(text).split(separator)
            if token.strip()]


def _parse_whatif_axes(args: argparse.Namespace):
    """The (replicas, routing, autoscale) axis tuples from their flag
    strings, validated before the (expensive) schedule search."""
    try:
        replicas = tuple(int(token)
                         for token in _split_tokens(args.replicas, ","))
    except ValueError as error:
        raise ConfigError(f"bad --replicas axis: {error}") from error
    routing = tuple(None if token == "none" else token
                    for token in _split_tokens(args.routing, ";"))
    for name in routing:
        if name is not None and name not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {name!r}; known: "
                f"{', '.join(sorted(ROUTING_POLICIES))} (or 'none')")
    autoscale = tuple(None if token == "none" else token
                      for token in _split_tokens(args.autoscale, ";"))
    for spec in autoscale:
        if spec is not None:
            parse_autoscale_spec(spec)  # fail fast on a bad spec
    if not replicas or not routing or not autoscale:
        raise ConfigError("whatif axes must be non-empty")
    return replicas, routing, autoscale


def _command_whatif(args: argparse.Namespace,
                    parser: argparse.ArgumentParser) -> int:
    from repro.rago.whatif import WhatIfGrid
    from repro.reporting import (
        format_whatif_table,
        format_worker_utilization,
    )
    from repro.sim import SLOTarget
    from repro.workloads import RequestTrace, scenario_trace

    if args.grid_config_path:
        _apply_grid_config(args, parser, _WHATIF_CONFIG_KEYS)
    replicas, routing, autoscale = _parse_whatif_axes(args)
    if args.schedules < 1:
        raise ConfigError("--schedules must be at least 1")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    if args.trace_path and args.scenario:
        raise ConfigError(
            "--trace replays a recording; drop --scenario")
    schema = _schema_for(args)
    cluster = _resolve_cluster(args, None)
    _print_workload(schema, cluster)
    session = OptimizerSession(schema, cluster)
    optimized = session.optimize()
    best = optimized.max_qps_per_chip
    candidates = sorted(optimized.frontier,
                        key=lambda perf: perf.qps_per_chip,
                        reverse=True)[:args.schedules]
    schedules = tuple(perf.schedule for perf in candidates)
    if args.trace_path:
        trace = RequestTrace.from_jsonl(args.trace_path)
    else:
        rate = args.rate if args.rate is not None else 0.7 * best.qps
        if rate <= 0:
            raise ConfigError("offered --rate must be positive")
        trace = scenario_trace(
            args.scenario or "poisson", rate_qps=rate,
            duration=args.duration, seed=args.seed,
            mean_decode_len=schema.sequences.decode_len)
    print(f"traffic : {trace.describe()}")
    slo = SLOTarget(
        ttft=args.slo_ttft if args.slo_ttft is not None
        else 5.0 * best.ttft,
        tpot=args.slo_tpot if args.slo_tpot is not None
        else 2.0 * best.tpot)
    grid = WhatIfGrid(schedules=schedules, replicas=replicas,
                      routing=routing, autoscale=autoscale)
    print(f"grid    : {len(schedules)} schedule(s) x policies = "
          f"{grid.num_cells} cell(s)")
    result = session.whatif(trace, grid, slo=slo, backend=args.backend,
                            workers=args.workers, cache=args.cache_dir)
    print()
    print(format_whatif_table(result))
    if result.workers:
        print()
        print(format_worker_utilization(result.workers))
    if args.json_path:
        _write_json(args.json_path, {
            "result": config_module.to_config(result),
            "workload": config_module.to_config(schema),
            "cluster": config_module.to_config(cluster),
            "trace": config_module.to_config(trace),
        })
    if result.ok_cells:
        return 0
    print("error: every whatif cell was infeasible")
    return 1


def _command_sweep(args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> int:
    if args.grid_config_path:
        _apply_grid_config(args, parser, _SWEEP_CONFIG_KEYS)
    try:
        llms = [label.strip() for label in args.llms.split(",")
                if label.strip()]
        server_counts = [int(token) for token in args.servers.split(",")
                         if token.strip()]
    except ValueError as error:
        raise ConfigError(f"bad sweep axis: {error}") from error
    if not llms or not server_counts:
        raise ConfigError("sweep needs at least one LLM and server count")
    schemas = [_schema_for(args, llm) for llm in llms]
    clusters = [ClusterSpec(num_servers=count, xpu=_XPU_BY_LETTER[args.xpu])
                for count in server_counts]
    session = OptimizerSession(schemas[0], clusters[0])
    sweep = session.sweep(schemas=schemas, clusters=clusters,
                          processes=args.processes,
                          backend=args.backend)
    print(f"swept {len(sweep)} cells "
          f"({len(llms)} LLMs x {len(server_counts)} cluster sizes, "
          f"{args.backend or 'default'} backend, "
          f"{args.processes} worker(s)):")
    print(sweep.to_table())
    if sweep.workers:
        from repro.reporting import format_worker_utilization

        print()
        print(format_worker_utilization(sweep.workers))
    failed = [cell for cell in sweep if not cell.ok]
    if failed:
        print(f"{len(failed)} cell(s) infeasible")
    if args.json_path:
        _write_json(args.json_path, {"rows": sweep.rows})
    if failed and len(failed) == len(sweep):
        print("error: every sweep cell was infeasible")
        return 1
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        audit_suppressions,
        baseline_payload,
        build_index,
        diff_against_baseline,
        finding_to_dict,
        iter_rule_table,
        load_baseline,
        resolve_lint_rules,
        run_rules,
        write_baseline,
    )
    from repro.reporting import (
        format_explanations,
        format_findings,
        format_table,
    )

    if args.list_rules:
        print(format_table(
            ("rule", "severity", "description"),
            [[rule.rule_id, rule.severity, rule.description]
             for rule in iter_rule_table()],
            title="simlint rules"))
        return 0
    cache_dir = None if args.no_cache else args.cache_dir
    index = build_index(args.paths, cache_dir=cache_dir)
    findings = run_rules(index, resolve_lint_rules(args.rules))
    if args.write_baseline:
        if not args.baseline_path:
            raise ConfigError("--write-baseline needs --baseline FILE")
        write_baseline(args.baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to "
              f"{args.baseline_path}")
        return 0
    new = findings
    new_count = None
    if args.baseline_path:
        baseline = load_baseline(args.baseline_path)
        new, _ = diff_against_baseline(findings, baseline)
        new_count = len(new)
    stale = []
    if args.audit_suppressions:
        stale = audit_suppressions(index, rules=args.rules)
    print(f"linted {', '.join(args.paths)} with simlint")
    print()
    print(format_findings(findings, new_count=new_count))
    if args.explain_rule:
        print()
        print(format_explanations(findings, args.explain_rule))
    if args.audit_suppressions:
        print()
        if stale:
            print(format_findings(stale))
        else:
            print("suppression audit: every allow[...] comment still "
                  "shields a finding")
    if args.json_path:
        payload = baseline_payload(findings)
        payload["paths"] = list(args.paths)
        if args.baseline_path:
            payload["baseline"] = args.baseline_path
            payload["new_findings"] = [finding_to_dict(finding)
                                       for finding in new]
        if args.audit_suppressions:
            payload["stale_suppressions"] = [finding_to_dict(finding)
                                             for finding in stale]
        _write_json(args.json_path, payload)
    if new:
        return 1
    if stale and args.strict:
        return 1
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.sim.bench import (
        canonical_network,
        canonical_trace,
        format_result,
        profile_replay,
        replay_trace,
    )

    perf_model, schedule = canonical_network()
    trace = canonical_trace() if args.requests is None \
        else canonical_trace(args.requests)
    print(f"canonical replay: {trace.num_requests} requests")
    result = replay_trace(perf_model, schedule, trace)
    print(format_result(result, "engine"))
    if args.oracle:
        from repro.sim.oracle import OracleServingEngine

        oracle = replay_trace(perf_model, schedule, trace,
                              engine_cls=OracleServingEngine)
        print(format_result(oracle, "oracle (reference engine)"))
        speedup = result.events_per_sec / oracle.events_per_sec
        print(f"  speedup       : {speedup:.2f}x events/sec")
    if not args.no_profile:
        _, table = profile_replay(perf_model, schedule, trace,
                                  top=args.top)
        print(table)
    return 0


def _command_provision(args: argparse.Namespace) -> int:
    from repro.pipeline.stage_perf import RAGPerfModel
    from repro.rago.provisioning import provision

    schema = _schema_for(args)
    cluster = ClusterSpec(num_servers=args.servers)
    objective = ServiceObjective(max_ttft=args.max_ttft) \
        if args.max_ttft is not None else ServiceObjective()
    perf_model = RAGPerfModel(schema, cluster)
    result = provision(perf_model, target_qps=args.qps,
                       objective=objective)
    print(f"workload: {schema.describe()}")
    print(f"target  : {args.qps:.1f} QPS"
          + (f" with TTFT <= {args.max_ttft} s"
             if args.max_ttft is not None else ""))
    print(f"fleet   : {result.replicas} replica(s) x "
          f"{result.perf.charged_chips} chips = "
          f"{result.budget_xpus} XPUs total "
          f"({result.total_qps:.1f} QPS sustained)")
    print(f"per-replica schedule: {result.perf.schedule.describe()}")
    print(f"  ttft={result.perf.ttft * 1e3:.1f} ms  "
          f"tpot={result.perf.tpot * 1e3:.2f} ms")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}")
        return 1
