"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``fig2``     — regenerate Figure 2 (all panels or one model);
* ``headline`` — the 75.76% / 91.86% aggregates, paper vs measured;
* ``tables``   — §2 step-count and wavelength-requirement tables;
* ``plan``     — plan Wrht for a given system and show the schedule
  (``--substrate`` additionally executes the plan on any registered
  substrate);
* ``sweep``    — ablation sweeps (wavelengths / payload / striping /
  substrates / hier-groups / bandwidth / faults / ocs-delay);
* ``serve``    — stream a seeded multi-job traffic mix through the
  online scheduler on one shared warm substrate and report throughput,
  JCT percentiles, queue depth, and cache hit rates.

Each handler imports what it runs, so ``import repro.cli`` loads no
subsystem and a command loads only the packages it uses: ``tables``,
``fig2`` and ``headline`` load no substrate, and no command loads scipy
unless a flow batch needs it.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import Iterator, List, Optional, Tuple

from . import units
from .errors import ConfigurationError, ReproError
from .models.catalog import PAPER_MODELS


def _cmd_fig2(args: argparse.Namespace) -> int:
    from .analysis.figure2 import (PAPER_SCALES, figure2, panels_to_csv,
                                   render_panel)

    models = [args.model] if args.model else list(PAPER_MODELS)
    scales = args.scales or list(PAPER_SCALES)
    panels = figure2(models=models, scales=scales, fidelity=args.fidelity)
    if args.csv:
        print(panels_to_csv(panels))
        return 0
    for model in models:
        print(render_panel(panels[model]))
        print()
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .analysis.headline import headline_reductions, render_headline

    result = headline_reductions()
    print(render_headline(result))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis.tables import (render_step_count_table,
                                  render_wavelength_requirement_table,
                                  step_count_table,
                                  wavelength_requirement_table)

    print(render_step_count_table(step_count_table(group_size=args.m),
                                  group_size=args.m))
    print()
    print(render_wavelength_requirement_table(
        wavelength_requirement_table()))
    return 0


def _cmd_plan_strategy(args: argparse.Namespace) -> int:
    """The strategy co-planner path of ``plan`` (``--strategy``)."""
    from .analysis.ascii_plot import simple_table
    from .core.topoplan import plan_strategy, strategy_plan_table
    from .models.strategies import parse_strategy

    # Full co-planning simulates concatenated demand programs; clip the
    # Wrht-scale default (128) to a fabric the search prices quickly.
    nodes = min(args.nodes, 32)
    if nodes != args.nodes:
        print(f"(clipping --nodes {args.nodes} to {nodes} for the "
              f"strategy co-planner)")
    model = args.model or "alexnet"
    strategies = None
    if args.strategy != "auto":
        try:
            strat = parse_strategy(args.strategy, world=nodes)
        except ConfigurationError:
            # An explicit spec (dp4+tp2) fixes its own world; follow it
            # rather than forcing --nodes.
            strat = parse_strategy(args.strategy)
            nodes = strat.world
            print(f"(planning at N={nodes}, the world spanned by "
                  f"{args.strategy!r})")
        strategies = [strat]
    table = strategy_plan_table(nodes, model, strategies=strategies)
    # An empty table raises PlanningError here, reported by main().
    best = plan_strategy(nodes, model, strategies=strategies)
    print(f"strategy co-plan for N={nodes}, model={model}:")
    print(f"  strategy           : {best.strategy.name}")
    print(f"  fabric             : {best.fabric}")
    if best.fabric == "hier-rack":
        print(f"  rack size / leader : g={best.group_size} "
              f"l={best.leader_index}")
    else:
        print(f"  collective/policy  : {best.algorithm}/{best.policy}")
        if best.program is not None:
            print(f"  reconfigurations   : "
                  f"{best.program.num_reconfigurations}")
    print(f"  steps              : {best.num_steps}")
    print(f"  predicted time     : {units.fmt_time(best.predicted_time)}")
    print()
    top = sorted(table, key=lambda p: p.predicted_time)[:10]
    print(simple_table(
        ["plan", "time", "steps"],
        [(p.label, units.fmt_time(p.predicted_time), p.num_steps)
         for p in top],
        title="top plans (full grid)"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    if getattr(args, "strategy", None):
        return _cmd_plan_strategy(args)
    from .config import Workload, default_optical
    from .core.planner import plan_wrht
    from .models.catalog import paper_workload

    if args.lookahead and args.substrate != "ocs-reconfig":
        raise ConfigurationError(
            "--lookahead requires --substrate ocs-reconfig (the program "
            "synthesiser lives on the OCS fabric)")
    system = default_optical(args.nodes, num_wavelengths=args.wavelengths)
    wl = (paper_workload(args.model) if args.model
          else Workload(data_bytes=args.bytes))
    plan = plan_wrht(system, wl)
    if args.substrate:
        # Dispatch through the registry (before printing, so that a
        # rejected input prints only its error); only the optical ring
        # takes the configured system, other fabrics derive their own.
        from .core.substrates import get_substrate

        extra = {"lookahead": True} if args.lookahead else {}
        sub = get_substrate(args.substrate,
                            system=system if args.substrate == "optical-ring"
                            else None, **extra)
        rep = sub.execute(plan.schedule, wl)
    print(f"Wrht plan for N={args.nodes}, w={args.wavelengths}, "
          f"payload={units.fmt_bytes(wl.data_bytes)}:")
    print(f"  group size m       : {plan.group_size}")
    print(f"  variant            : {plan.variant}")
    print(f"  steps              : {plan.num_steps}")
    print(f"  all-to-all shortcut: {plan.info.used_alltoall}")
    print(f"  predicted time     : {units.fmt_time(plan.predicted_time)}")
    if args.substrate:
        print(f"  simulated on {rep.substrate:<7}: "
              f"{units.fmt_time(rep.total_time)} "
              f"({rep.num_steps} steps)")
        # Cache behaviour (RWA / step / fluid / compile caches) is part
        # of describe(), so any substrate that memoizes work reports it.
        _print_cache_table([sub])
    if args.show_schedule:
        from .collectives.analysis import describe_schedule
        from .topology.ring import RingTopology
        ring = RingTopology(args.nodes, capacity=1.0)
        print()
        print(describe_schedule(plan.schedule, ring))
    return 0


def _print_cache_table(substrates=None, title: str = "cache statistics",
                       ) -> None:
    """One consolidated hit/miss table over ``substrates``.

    ``None`` aggregates over the whole process-local substrate pool —
    the sweep commands use that to sum every fabric they touched.
    Caches with zero traffic still print (a row of zeros is the honest
    answer); when no substrate reports counters at all the table is
    skipped.
    """
    from .analysis.ascii_plot import simple_table
    from .core.substrates import cache_stats

    stats = cache_stats(substrates)
    if not stats:
        return
    print(simple_table(
        ["cache", "hits", "misses", "skipped", "hit rate"],
        [(kind, row["hits"], row["misses"], row["skipped"],
          f"{row['hit_rate']:.1%}") for kind, row in sorted(stats.items())],
        title=title))


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import full_report
    scales = tuple(args.scales) if args.scales else None
    kwargs = {} if scales is None else {"scales": scales}
    print(full_report(**kwargs))
    return 0


def _validate_serve_args(args: argparse.Namespace) -> None:
    """Up-front validation of the serve knobs.

    Every numeric option is checked *before* any traffic or plan is
    built, so a bad flag fails in milliseconds with a
    :class:`~repro.errors.ConfigurationError` naming the flag — not
    minutes later deep inside the event loop.  NaN fails every
    comparison, so checks are phrased positively.
    """
    import math

    if args.capacity < 2:
        raise ConfigurationError(
            f"--capacity must be >= 2 nodes (a one-node fabric has "
            f"nothing to all-reduce), got {args.capacity}")
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    if not (math.isfinite(args.rate) and args.rate > 0):
        raise ConfigurationError(
            f"--rate must be a finite arrival rate > 0, got {args.rate}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.faults) and args.faults >= 0):
        raise ConfigurationError(
            f"--faults must be a finite fault rate >= 0, got {args.faults}")
    if not (math.isfinite(args.duration) and args.duration > 0):
        raise ConfigurationError(
            f"--duration must be a finite fault horizon > 0 seconds, "
            f"got {args.duration}")
    if args.fault_seed < 0:
        raise ConfigurationError(
            f"--fault-seed must be >= 0, got {args.fault_seed}")
    if not (math.isfinite(args.mttr) and args.mttr > 0):
        raise ConfigurationError(
            f"--mttr must be a finite mean repair time > 0, got {args.mttr}")
    if args.max_retries < 0:
        raise ConfigurationError(
            f"--max-retries must be >= 0, got {args.max_retries}")
    if not (math.isfinite(args.retry_backoff) and args.retry_backoff > 0):
        raise ConfigurationError(
            f"--retry-backoff must be a finite delay > 0, "
            f"got {args.retry_backoff}")
    if args.strategy and not args.model:
        raise ConfigurationError(
            "--strategy requires --model (the catalog model to lower)")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .analysis.ascii_plot import simple_table
    from .serving import (RetryPolicy, ServingEngine, adaptive_policy,
                          fixed_policy, poisson_traffic)

    _validate_serve_args(args)
    collectives = (fixed_policy(args.collective) if args.collective
                   else adaptive_policy(switch_bytes=args.switch_bytes))
    if getattr(args, "strategy", None):
        from .serving import strategy_traffic
        # One strategy-lowered training run per arrival, expanded into
        # one serving job per collective group, sized to the fabric.
        jobs = strategy_traffic(num_arrivals=args.jobs, model=args.model,
                                strategy=args.strategy, world=args.capacity,
                                arrival_rate=args.rate, seed=args.seed)
    else:
        # Job widths drawn by the traffic mix; a tiny fabric (capacity
        # 2-3) falls back to 2-wide jobs instead of the default 4/8/16
        # mix.
        node_choices = (tuple(n for n in (4, 8, 16) if n <= args.capacity)
                        or (2,))
        extra = {"models": [args.model]} if args.model else {}
        jobs = poisson_traffic(num_jobs=args.jobs, arrival_rate=args.rate,
                               seed=args.seed, node_choices=node_choices,
                               **extra)
    engine = ServingEngine(substrate_name=args.substrate,
                           capacity=args.capacity, policy=args.policy,
                           placement=args.placement,
                           collectives=collectives)
    faults = retry = None
    if args.faults > 0:
        from .faults import FaultPlan
        # Split the requested rate between fiber cuts and node crashes —
        # the two families that impair hosts and exercise retry.
        faults = FaultPlan.poisson(
            duration=args.duration, num_nodes=args.capacity,
            seed=args.fault_seed, link_rate=args.faults / 2,
            node_rate=args.faults / 2, mean_repair=args.mttr)
        retry = RetryPolicy(max_retries=args.max_retries,
                            backoff=args.retry_backoff)
    report = engine.run(jobs, faults=faults, retry=retry)
    head = report.headline()
    print(simple_table(
        ["metric", "value"],
        [("jobs served", int(head["jobs"])),
         ("steps served", int(head["steps"])),
         ("makespan", units.fmt_time(head["makespan_s"])),
         ("throughput", f"{head['throughput_jobs_per_s']:.2f} jobs/s"),
         ("", f"{head['throughput_steps_per_s']:.1f} steps/s"),
         ("JCT mean", units.fmt_time(head["jct_mean_s"])),
         ("JCT p50", units.fmt_time(head["jct_p50_s"])),
         ("JCT p99", units.fmt_time(head["jct_p99_s"])),
         ("queue depth max", int(head["max_queue_depth"])),
         ("queue depth mean", f"{head['mean_queue_depth']:.2f}")]
        + ([("preemptions", int(head["preemptions"])),
            ("retries", int(head["retries"])),
            ("failed jobs", int(head["failed_jobs"])),
            ("availability", f"{head['availability']:.2%}")]
           if faults is not None else []),
        title=f"serving: {args.jobs} jobs @ {args.rate}/s on "
              f"{report.substrate} x{report.capacity} "
              f"({report.policy}, {args.placement}, {report.collectives})"))
    if report.algorithm_mix:
        print(simple_table(
            ["collective", "messages"],
            sorted(report.algorithm_mix.items()),
            title="algorithm mix"))
    if args.show_jobs:
        print(simple_table(
            ["job", "model", "n", "steps", "wait", "service", "jct"],
            [(r.job.job_id, r.job.model, r.job.num_nodes, r.job.num_steps,
              units.fmt_time(r.wait_time), units.fmt_time(r.service_time),
              units.fmt_time(r.completion)) for r in report.records],
            title="per-job records (completion order)"))
    _print_cache_table([engine.substrate],
                       title="shared-substrate cache statistics")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.ascii_plot import simple_table
    from .analysis.sweeps import (bandwidth_sweep, crossover_sweep,
                                  fault_sweep, hier_group_sweep,
                                  ocs_delay_sweep, strategy_sweep,
                                  striping_sweep, substrate_sweep,
                                  wavelength_sweep)
    from .config import Workload
    from .models.catalog import paper_workload

    wl = (paper_workload(args.model) if args.model
          else Workload(data_bytes=args.bytes))
    if args.kind == "wavelengths":
        rows = wavelength_sweep(args.nodes, wl)
        print(simple_table(
            ["w", "wrht", "m", "steps", "o-ring"],
            [(r.num_wavelengths, units.fmt_time(r.wrht_time),
              r.wrht_group_size, r.wrht_steps,
              units.fmt_time(r.oring_time)) for r in rows],
            title=f"EXT-A1 wavelength sweep (N={args.nodes}, "
                  f"{wl.name})"))
    elif args.kind == "payload":
        payloads = [2 ** e * units.KB for e in range(0, 21, 2)]
        rows = crossover_sweep(args.nodes, payloads)
        print(simple_table(
            ["payload", "e-ring", "rd", "o-ring", "wrht", "winner"],
            [(units.fmt_bytes(r.data_bytes),
              *(units.fmt_time(r.times[a])
                for a in ("e-ring", "rd", "o-ring", "wrht")),
              r.winner()) for r in rows],
            title=f"EXT-A5 payload crossover (N={args.nodes})"))
    elif args.kind == "striping":
        rows = striping_sweep(args.nodes, wl)
        print(simple_table(
            ["configuration", "time", "steps", "detail"],
            [(r.label, units.fmt_time(r.time), r.steps, r.detail)
             for r in rows],
            title=f"EXT-A3 striping ablation (N={args.nodes}, "
                  f"{wl.name})"))
    elif args.kind == "hier-groups":
        rows = hier_group_sweep(args.nodes, wl)
        print(simple_table(
            ["g", "racks", "steps", "hier", "o-ring", "wrht"],
            [(r.group_size, r.num_groups, r.steps,
              units.fmt_time(r.hier_time), units.fmt_time(r.oring_time),
              units.fmt_time(r.wrht_time)) for r in rows],
            title=f"EXT-H1 hierarchical-fabric rack-size sweep "
                  f"(N={args.nodes}, {wl.name})"))
    elif args.kind == "substrates":
        rows = substrate_sweep(args.nodes, wl)
        print(simple_table(
            ["substrate", "kind", "time", "steps", "note"],
            [(r.substrate, r.kind,
              "-" if r.time != r.time else units.fmt_time(r.time),
              r.steps, r.note) for r in rows],
            title=f"EXT-S1 substrate comparison (N={args.nodes}, "
                  f"{wl.name}, ring all-reduce)"))
        _print_cache_table(title="cache statistics (all substrates)")
    elif args.kind == "faults":
        # Serving capacity, not collective scale: clip the sweep-wide
        # --nodes default (256) to a tractable shared fabric.
        capacity = min(args.nodes, 32)
        rows = fault_sweep(capacity=capacity)
        print(simple_table(
            ["faults/s", "done", "failed", "kills", "retries",
             "jct p99", "avail"],
            [(r.fault_rate, r.jobs, r.failed_jobs, r.preemptions,
              r.retries, units.fmt_time(r.jct_p99),
              f"{r.availability:.2%}") for r in rows],
            title=f"EXT-F1 fault-rate sweep (capacity={capacity}, "
                  f"retrying serving)"))
    elif args.kind == "ocs-delay":
        # Whole-schedule DP per cell: clip the sweep-wide --nodes
        # default (256) to a fabric the synthesiser prices quickly.
        nodes = min(args.nodes, 64)
        rows = ocs_delay_sweep(nodes, wl)
        print(simple_table(
            ["delay", "greedy", "lookahead", "speedup", "saved"],
            [(units.fmt_time(r.delay_s), units.fmt_time(r.greedy_time),
              units.fmt_time(r.lookahead_time), f"{r.speedup:.2f}x",
              r.reconfigs_saved) for r in rows],
            title=f"EXT-O1 OCS reconfiguration-delay sweep "
                  f"(N={nodes}, {wl.name}, recursive doubling, "
                  f"4 ports)"))
    elif args.kind == "strategies":
        # Every cell simulates concatenated demand programs; clip the
        # sweep-wide --nodes default (256) to a co-plannable fabric.
        nodes = min(args.nodes, 16)
        model = args.model or "alexnet"
        rows = strategy_sweep(nodes, model=model)
        rack_sizes = sorted({g for r in rows for g in r.hier_times})

        def _cell(t):
            return "-" if t is None else units.fmt_time(t)

        print(simple_table(
            ["strategy", "comm"]
            + [f"hier g={g}" for g in rack_sizes]
            + ["ocs best", "via"],
            [(r.strategy, units.fmt_bytes(r.comm_bytes),
              *(_cell(r.hier_times.get(g)) for g in rack_sizes),
              _cell(r.ocs_time),
              "-" if r.ocs_algorithm is None
              else f"{r.ocs_algorithm}/{r.ocs_policy}")
             for r in rows],
            title=f"EXT-T1 strategy x rack-size sweep (N={nodes}, "
                  f"{model})"))
    elif args.kind == "bandwidth":
        rows = bandwidth_sweep(args.nodes, wl)
        print(simple_table(
            ["link rate", "time", "steps", "compiles", "rebinds"],
            [(units.fmt_rate(r.link_rate), units.fmt_time(r.time),
              r.steps, r.compile_misses, r.compile_hits) for r in rows],
            title=f"EXT-A9 electrical bandwidth sweep (N={args.nodes}, "
                  f"{wl.name})"))
        _print_cache_table(title="cache statistics (all substrates)")
    return 0


class _SubstrateNames:
    """The registered substrate names, read only when argparse checks a
    ``--substrate`` value or prints help, so that building the parser
    loads no substrate."""

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    @staticmethod
    def _names() -> Tuple[str, ...]:
        from .core.substrates import available_substrates
        return available_substrates()


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text between words only, so that a name such as
    ``electrical-ring`` never splits across lines."""

    def _split_lines(self, text: str, width: int) -> List[str]:
        return textwrap.wrap(" ".join(text.split()), width,
                             break_on_hyphens=False)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Wrht (PPoPP'23) reproduction harness")
    sub = p.add_subparsers(dest="command", required=True)

    f2 = sub.add_parser("fig2", help="regenerate Figure 2")
    f2.add_argument("--model", choices=PAPER_MODELS)
    f2.add_argument("--scales", type=int, nargs="+")
    f2.add_argument("--fidelity", choices=("analytic", "simulate"),
                    default="analytic")
    f2.add_argument("--csv", action="store_true")
    f2.set_defaults(func=_cmd_fig2)

    hl = sub.add_parser("headline", help="75.76%%/91.86%% aggregates")
    hl.set_defaults(func=_cmd_headline)

    tb = sub.add_parser("tables", help="step/wavelength tables")
    tb.add_argument("--m", type=int, default=3)
    tb.set_defaults(func=_cmd_tables)

    pl = sub.add_parser("plan", help="plan Wrht for a system",
                        formatter_class=_HelpFormatter)
    pl.add_argument("--nodes", type=int, default=128)
    pl.add_argument("--wavelengths", type=int, default=64)
    pl.add_argument("--model", choices=PAPER_MODELS)
    pl.add_argument("--bytes", type=float, default=100 * units.MB)
    pl.add_argument("--show-schedule", action="store_true")
    pl.add_argument("--substrate", choices=_SubstrateNames(),
                    metavar="SUBSTRATE",
                    help="also execute the plan on this substrate "
                         "(%(choices)s)")
    pl.add_argument("--lookahead", action="store_true",
                    help="synthesize a whole-schedule switch program "
                         "instead of reconfiguring step by step "
                         "(ocs-reconfig only; never slower than the "
                         "greedy policy)")
    pl.add_argument("--strategy",
                    help="co-plan parallelization x fabric instead of "
                         "planning Wrht for a fixed workload: a spec like "
                         "dp4+tp2, a preset (dp / tp / dp+tp), or 'auto' "
                         "to search every strategy")
    pl.set_defaults(func=_cmd_plan)

    sw = sub.add_parser("sweep", help="ablation sweeps")
    sw.add_argument("kind", choices=("wavelengths", "payload", "striping",
                                     "substrates", "hier-groups",
                                     "bandwidth", "faults", "ocs-delay",
                                     "strategies"))
    sw.add_argument("--nodes", type=int, default=256)
    sw.add_argument("--model", choices=PAPER_MODELS)
    sw.add_argument("--bytes", type=float, default=100 * units.MB)
    sw.set_defaults(func=_cmd_sweep)

    sv = sub.add_parser("serve",
                        help="stream a multi-job mix through the online "
                             "scheduler on one shared substrate",
                        formatter_class=_HelpFormatter)
    sv.add_argument("--jobs", type=int, default=50)
    sv.add_argument("--rate", type=float, default=20.0,
                    help="Poisson arrival rate (jobs per simulated second)")
    sv.add_argument("--capacity", type=int, default=32,
                    help="shared substrate nodes")
    sv.add_argument("--substrate", default="electrical-ring",
                    choices=_SubstrateNames(), metavar="SUBSTRATE",
                    help="shared fabric (%(choices)s)")
    sv.add_argument("--policy", default="fifo",
                    choices=("fifo", "sjf", "priority"))
    sv.add_argument("--placement", default="contiguous",
                    choices=("contiguous", "scatter"))
    sv.add_argument("--collective",
                    help="pin one collective (default: size-adaptive "
                         "switch)")
    sv.add_argument("--switch-bytes", type=float, default=1 * units.MB,
                    help="adaptive small/large threshold")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--faults", type=float, default=0.0,
                    help="fault event rate (events per simulated second, "
                         "split between link cuts and node crashes; "
                         "0 disables injection)")
    sv.add_argument("--fault-seed", type=int, default=0,
                    help="seed for the fault plan (independent of --seed)")
    sv.add_argument("--duration", type=float, default=2.0,
                    help="fault-injection horizon in simulated seconds")
    sv.add_argument("--mttr", type=float, default=0.05,
                    help="mean time to repair a fault (seconds)")
    sv.add_argument("--max-retries", type=int, default=3,
                    help="restarts per killed job before it fails out")
    sv.add_argument("--retry-backoff", type=float, default=1e-3,
                    help="base retry delay (doubles per restart)")
    sv.add_argument("--show-jobs", action="store_true",
                    help="also print the per-job table")
    sv.add_argument("--model", choices=PAPER_MODELS,
                    help="pin the traffic to one catalog model "
                         "(required by --strategy)")
    sv.add_argument("--strategy",
                    help="stream strategy-lowered jobs instead of the "
                         "default mix: a spec like dp4+tp2 or a preset "
                         "(dp / tp / dp+tp) sized by --capacity")
    sv.set_defaults(func=_cmd_serve)

    rp = sub.add_parser("report",
                        help="regenerate the full experiment report")
    rp.add_argument("--scales", type=int, nargs="+")
    rp.set_defaults(func=_cmd_report)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A library error (:class:`~repro.errors.ReproError`: bad
    configuration, infeasible plan, ...) prints one line to stderr —
    ``repro <command>: <message>`` — and returns exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"repro {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
