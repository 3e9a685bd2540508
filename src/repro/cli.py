"""Command-line front end — the paper's "circuit modifier" as a tool.

Subcommands::

    repro-fp locations <design>                 list fingerprint locations
    repro-fp embed <design> --value N -o out.v  emit one fingerprint copy
    repro-fp embed <design> --buyer NAME ...    buyer-keyed copy
    repro-fp extract <suspect> --golden <design>  read a fingerprint back
    repro-fp verify <left> <right>              verification ladder (budgeted)
    repro-fp batch <design> --copies N --jobs J generate+verify N copies
    repro-fp measure <design>                   area / delay / power
    repro-fp audit <design>                     verify every variant (CEC)
    repro-fp inject <design>                    fault-injection campaign
    repro-fp campaign run <design> --db FILE    persistent resumable campaign
    repro-fp campaign {status,resume,report} --db FILE
    repro-fp bench <name> [-o out.v]            emit a suite circuit
    repro-fp tables [quick|medium|full]         regenerate paper tables

Designs are read by extension: ``.blif`` files are parsed and technology
mapped (the ABC-replacement path of the paper's flow); ``.v`` files are
read as structural Verilog over the generic library.  All commands are
deterministic, so ``extract`` can rebuild the golden design's location
catalog instead of needing a side-channel database.

Every subcommand shares three output options.  ``--json [PATH]`` emits
one envelope shape — ``{"tool", "version", "command", "telemetry",
"result"}`` — to PATH, or to stdout (suppressing the human-readable
text) when given without an argument.  ``--trace FILE`` records nested
telemetry spans across the whole run and writes them as a Chrome
trace-event file loadable in ``chrome://tracing`` / Perfetto.
``--metrics`` records counters and histograms into the envelope's
``telemetry`` section.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Tuple

from . import telemetry
from .analysis import measure
from .api import load_circuit
from .budget import Budget
from .errors import ReproError
from .flows import LadderConfig, run_batch_flow, run_ladder
from .bench import (
    build_benchmark,
    render_figure7,
    render_table2,
    render_table3,
    run_figure7,
    run_table2,
    run_table3,
    suite_for_budget,
)
from .fingerprint import (
    BuyerRegistry,
    FingerprintCodec,
    capacity,
    embed,
    extract,
    find_locations,
)
from .netlist import Circuit, save_verilog

CommandResult = Tuple[int, Dict[str, Any]]


def load_design(path: str) -> Circuit:
    """Read a design file (.blif is parsed and mapped; .v is structural)."""
    return load_circuit(path)


def _say(args: argparse.Namespace, *lines: str) -> None:
    """Print human-readable output — unless JSON owns stdout."""
    if getattr(args, "json", None) == "-":
        return
    for line in lines:
        print(line, flush=True)


def _ladder_config(args: argparse.Namespace) -> LadderConfig:
    """Build a LadderConfig from the shared budget/ladder CLI knobs."""
    return LadderConfig(
        max_exhaustive_inputs=args.max_exhaustive_inputs,
        sat_budget=Budget(
            deadline_s=args.budget_seconds,
            max_conflicts=args.max_conflicts,
            max_decisions=args.max_decisions,
        ),
        use_sat=not args.no_sat,
        n_random_vectors=args.random_vectors,
        sat_simplify=not args.no_simplify,
    )


def _add_ladder_options(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group(
        "verification ladder",
        "exhaustive simulation -> budgeted SAT CEC -> random-simulation "
        "fallback; a spent budget degrades the verdict instead of hanging",
    )
    group.add_argument(
        "--budget-seconds", type=float, default=30.0, metavar="S",
        help="wall-clock budget for the SAT tier (default: 30)",
    )
    group.add_argument(
        "--max-conflicts", type=int, default=2_000_000, metavar="N",
        help="SAT conflict budget (default: 2000000)",
    )
    group.add_argument(
        "--max-decisions", type=int, default=None, metavar="N",
        help="SAT decision budget (default: unlimited)",
    )
    group.add_argument(
        "--max-exhaustive-inputs", type=int, default=16, metavar="N",
        help="widest input count simulated exhaustively (default: 16)",
    )
    group.add_argument(
        "--random-vectors", type=int, default=8192, metavar="N",
        help="vectors for the random fallback tier (default: 8192)",
    )
    group.add_argument(
        "--no-sat", action="store_true",
        help="skip the SAT tier (straight to random simulation)",
    )
    group.add_argument(
        "--no-simplify", action="store_true",
        help="accepted and ignored: since 8.0.0 the SAT tier never "
             "preprocesses its base encoding",
    )


def _add_common_options(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("output & telemetry")
    group.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the unified JSON envelope to PATH "
        "(or stdout when no PATH is given)",
    )
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record telemetry spans; write a Chrome trace-event file",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="record telemetry counters/histograms into the JSON envelope",
    )
    group.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DIR",
        help="activate the content-addressed artifact store for this "
        "invocation (disk tier at DIR; memory-only when no DIR is given); "
        "the envelope gains a cache hit/miss section",
    )


def _cmd_locations(args: argparse.Namespace) -> CommandResult:
    design = load_design(args.design)
    catalog = find_locations(design)
    report = capacity(catalog)
    _say(
        args,
        f"design {design.name}: {design.n_gates} gates",
        f"{report.n_locations} locations, {report.n_slots} slots, "
        f"{report.n_variants} variants, {report.bits:.2f} bits",
    )
    result: Dict[str, Any] = {
        "design": design.name,
        "n_gates": design.n_gates,
        "n_locations": report.n_locations,
        "n_slots": report.n_slots,
        "n_variants": report.n_variants,
        "bits": report.bits,
    }
    if args.verbose:
        result["locations"] = []
        for location in catalog:
            slots = ", ".join(
                f"{s.target}[{len(s.variants)}v]" for s in location.slots
            )
            _say(
                args,
                f"  loc {location.id}: primary={location.primary} "
                f"root={location.ffc_root} trigger={location.trigger} "
                f"slots: {slots}",
            )
            result["locations"].append(
                {
                    "id": location.id,
                    "primary": location.primary,
                    "root": location.ffc_root,
                    "trigger": location.trigger,
                    "slots": [
                        {"target": s.target, "n_variants": len(s.variants)}
                        for s in location.slots
                    ],
                }
            )
    return 0, result


def _cmd_embed(args: argparse.Namespace) -> CommandResult:
    design = load_design(args.design)
    catalog = find_locations(design)
    codec = FingerprintCodec(catalog)
    if codec.combinations < 2:
        raise SystemExit("design offers no fingerprint locations")
    if args.buyer is not None:
        registry = BuyerRegistry(catalog, seed=args.seed)
        record = registry.register(args.buyer)
        value = record.value
    else:
        value = args.value % codec.combinations
    copy = embed(design, catalog, codec.encode(value))
    verify_method = None
    if args.verify:
        report = run_ladder(design, copy.circuit)
        if not report.equivalent:
            raise SystemExit("internal error: embedding broke functionality")
        verify_method = report.tier.value
        _say(args, f"verified: {report.summary()}")
    _say(args, f"embedded fingerprint value {value} "
               f"({copy.n_active} modifications)")
    if args.output:
        save_verilog(copy.circuit, args.output)
        _say(args, f"wrote {args.output}")
    elif args.json != "-":
        from .netlist import write_verilog

        sys.stdout.write(write_verilog(copy.circuit))
    result = {
        "design": design.name,
        "value": value,
        "buyer": args.buyer,
        "n_modifications": copy.n_active,
        "verified": bool(args.verify),
        "verify_method": verify_method,
        "output": args.output,
    }
    return 0, result


def _cmd_extract(args: argparse.Namespace) -> CommandResult:
    golden = load_design(args.golden)
    suspect = load_design(args.suspect)
    catalog = find_locations(golden)
    codec = FingerprintCodec(catalog)
    if args.structural:
        from .fingerprint import extract_structural

        extraction = extract_structural(suspect, golden, catalog)
    else:
        extraction = extract(suspect, golden, catalog)
    value = codec.decode(extraction.assignment)
    _say(args, f"fingerprint value: {value}")
    result = {
        "value": value,
        "tampered": list(extraction.tampered),
    }
    if extraction.tampered:
        _say(
            args,
            f"WARNING: {len(extraction.tampered)} tampered slots: "
            f"{', '.join(extraction.tampered[:8])}",
        )
        return 2, result
    return 0, result


def _cmd_verify(args: argparse.Namespace) -> CommandResult:
    left = load_design(args.left)
    right = load_design(args.right)
    report = run_ladder(left, right, config=_ladder_config(args))
    _say(args, f"tiers tried: {' -> '.join(report.tiers_tried)}")
    if report.equivalent:
        _say(args, f"EQUIVALENT — {report.summary()}")
        if report.budget_hit:
            _say(args, "note: SAT budget spent; verdict is probabilistic "
                       f"(confidence {report.confidence:.4f})")
        return 0, report.as_dict()
    _say(args, f"NOT equivalent — {report.summary()}")
    if report.counterexample is not None:
        where = f" on {report.output}" if report.output else ""
        _say(args, f"  counterexample{where}: {report.counterexample}")
    return 1, report.as_dict()


def _cmd_batch(args: argparse.Namespace) -> CommandResult:
    from .flows import FlowOptions

    design = load_design(args.design)
    result = run_batch_flow(
        design,
        n_copies=args.copies,
        opts=FlowOptions(
            jobs=args.jobs,
            seed=args.seed,
            ladder=_ladder_config(args),
            measure_overheads=args.measure,
        ),
    )
    _say(args, result.summary())
    if args.verbose:
        for record in result.records:
            line = (
                f"  value {record.value}: "
                f"{'equivalent' if record.equivalent else 'MISMATCH'} "
                f"[{record.tier}{', proven' if record.proven else ''}] "
                f"{record.n_modifications} mods, {record.seconds:.2f}s"
            )
            if record.area_overhead is not None:
                line += (
                    f", overhead area {record.area_overhead:+.1%} "
                    f"delay {record.delay_overhead:+.1%} "
                    f"power {record.power_overhead:+.1%}"
                )
            _say(args, line)
    return (0 if result.n_mismatch == 0 else 1), result.as_dict()


def _cmd_measure(args: argparse.Namespace) -> CommandResult:
    design = load_design(args.design)
    if args.full:
        from .analysis import design_report

        report = design_report(design)
        _say(args, report)
        return 0, {"design": design.name, "report": report}
    metrics = measure(design)
    _say(
        args,
        f"design: {metrics.name}",
        f"gates:  {metrics.gates}",
        f"depth:  {metrics.depth}",
        f"area:   {metrics.area:.0f}",
        f"delay:  {metrics.delay:.3f}",
        f"power:  {metrics.power:.1f}",
    )
    return 0, metrics.as_dict()


def _cmd_audit(args: argparse.Namespace) -> CommandResult:
    from .fingerprint import audit_catalog

    design = load_design(args.design)
    catalog = find_locations(design)
    report = audit_catalog(design, catalog, max_variants=args.max_variants)
    _say(args, report.summary())
    for failure in report.failures:
        _say(args, f"  FAILED: slot {failure.target} variant {failure.variant_index}")
    result = {
        "design": design.name,
        "n_checked": report.n_checked,
        "clean": report.clean,
        "failures": [
            {
                "target": failure.target,
                "variant_index": failure.variant_index,
                "method": failure.method,
            }
            for failure in report.failures
        ],
    }
    return (0 if report.clean else 1), result


def _cmd_inject(args: argparse.Namespace) -> CommandResult:
    from .faultinject import run_netlist_campaign, run_text_campaign

    design = load_design(args.design)
    report = run_netlist_campaign(
        [design], trials=args.trials, seed=args.seed
    )
    if args.text:
        from .netlist import write_verilog

        text_report = run_text_campaign(
            {design.name: write_verilog(design)},
            parser=read_verilog_text,
            trials=args.trials,
            seed=args.seed,
        )
        report.records.extend(text_report.records)
    _say(args, report.summary())
    result = {
        "design": design.name,
        "n_injections": len(report.records),
        "clean": report.clean,
        "counts": report.counts(),
        "by_injector": report.by_injector(),
    }
    return (0 if report.clean else 1), result


def _cmd_attack(args: argparse.Namespace) -> CommandResult:
    from .attack import AttackConfig, run_attack_suite

    design = load_design(args.design)
    names = (
        [n.strip() for n in args.attacks.split(",") if n.strip()]
        if args.attacks
        else None
    )
    config = AttackConfig(
        seed=args.seed,
        n_vectors=args.vectors,
        max_passes=args.passes,
        rewrite_fraction=args.rewrite_fraction,
        colluders=args.colluders,
        collusion_strategy=args.strategy,
    )
    report = run_attack_suite(
        design, attacks=names, config=config, ladder=_ladder_config(args)
    )
    _say(
        args,
        f"{report.design}: {report.slots_total} slots, "
        f"{report.bits_total:.1f} fingerprint bits",
    )
    for outcome in report.outcomes:
        verdict = "equivalent" if outcome.equivalent else "NOT EQUIVALENT"
        _say(
            args,
            f"  {outcome.attack:10s} {verdict:15s} "
            f"bits {outcome.bits_surviving:6.1f}/{outcome.bits_total:.1f}  "
            f"area {outcome.area_cost:+.3f}  delay {outcome.delay_cost:+.3f}  "
            f"edits {outcome.edits}",
        )
    for name, reason in report.skipped.items():
        _say(args, f"  {name:10s} skipped ({reason})")
    return (0 if report.all_equivalent else 1), report.as_dict()


def _cmd_campaign(args: argparse.Namespace) -> CommandResult:
    from .campaign import (
        CampaignOptions,
        CampaignSpec,
        build_report,
        campaign_status,
        resume_campaign,
        run_campaign,
        write_report,
    )

    if args.action == "status":
        status = campaign_status(args.db)
        counts = status["counts"]
        states = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "empty"
        _say(
            args,
            f"campaign {args.db}: {status['n_jobs']} jobs ({states})",
            "complete" if status["complete"] else
            f"{status['terminal']}/{status['n_jobs']} terminal",
        )
        return 0, status

    if args.action == "report":
        report = build_report(args.db)
        if args.out:
            paths = write_report(args.db, args.out)
            _say(args, f"wrote {paths['json']} and {paths['html']}")
        totals = report["totals"]
        _say(
            args,
            f"campaign {args.db}: {totals['n_jobs']} jobs, "
            f"{'complete' if totals['complete'] else 'incomplete'}, "
            f"{'clean' if totals['clean'] else 'FAILURES'}",
        )
        return (0 if totals["clean"] else 1), report

    options = CampaignOptions(
        jobs=args.jobs,
        timeout_s=args.timeout if args.timeout > 0 else None,
        retry_attempts=args.retries,
        backoff_s=args.backoff,
        overwrite=args.overwrite,
        max_jobs=args.max_jobs,
        ladder=_ladder_config(args),
        measure_overheads=args.measure,
    )
    if args.action == "resume":
        if args.designs:
            raise SystemExit("campaign resume takes no designs "
                             "(the spec is stored in the DB)")
        summary = resume_campaign(args.db, options)
    else:  # run
        if not args.designs:
            raise SystemExit("campaign run needs at least one design")
        spec = CampaignSpec(
            kind=args.kind,
            designs=tuple(args.designs),
            n_copies=args.copies,
            trials=args.trials,
            injectors=(tuple(args.injectors.split(","))
                       if args.injectors else None),
            seed=args.seed,
        )
        summary = run_campaign(spec, args.db, options)
    _say(args, summary.summary())
    # Failed/faulty jobs are the only failure condition; a clean
    # interrupt (Ctrl-C, --max-jobs budget) still exits 0 so checkpointed
    # runs can be chained.
    return (0 if summary.clean else 1), summary.as_dict()


def read_verilog_text(text: str) -> Circuit:
    """Parse structural Verilog from a string (text-campaign helper)."""
    from .netlist.verilog import parse_verilog

    return parse_verilog(text)


def _cmd_serve(args: argparse.Namespace) -> CommandResult:
    from .budget import Budget as _Budget
    from .service import Server, TenantQuota
    from .store.core import ArtifactStore

    budget = None
    if args.quota_budget_seconds is not None:
        budget = _Budget(deadline_s=args.quota_budget_seconds)
    quota = TenantQuota(max_pending=args.quota_max_pending, budget=budget)
    store = ArtifactStore(
        root=(getattr(args, "store", None) or None),
        memory_entries=args.memory_entries,
    )
    # The service writes its own whole-lifetime trace on shutdown; keep
    # main() from overwriting that file with this (empty) parent trace.
    trace_path, args.trace = getattr(args, "trace", None), None
    server = Server(
        host=args.host,
        port=args.port,
        store=store,
        workers=args.workers,
        default_quota=quota,
        trace_path=trace_path,
        max_requests=args.max_requests,
    )
    server.start_in_thread()
    _say(args, f"repro-fp service on http://{args.host}:{server.port} "
               f"({args.workers} worker processes, "
               f"store={'disk:' + store.root if store.root else 'memory'}, "
               f"Ctrl-C to stop)")
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(0.5)
    except KeyboardInterrupt:
        _say(args, "shutting down")
    finally:
        server.stop_thread()
    stats = server.queue.stats() if server.queue is not None else {}
    result: Dict[str, Any] = {
        "host": args.host,
        "port": server.port,
        "store": store.root or "memory",
        "cache": store.cache_snapshot(),
        "executor": server._executor_stats(),
        **stats,
    }
    return 0, result


def _cmd_bench(args: argparse.Namespace) -> CommandResult:
    circuit = build_benchmark(args.name)
    depth = circuit.depth()
    _say(args, f"{args.name}: {circuit.n_gates} gates, depth {depth}")
    if args.output:
        save_verilog(circuit, args.output)
        _say(args, f"wrote {args.output}")
    result = {
        "name": args.name,
        "gates": circuit.n_gates,
        "depth": depth,
        "output": args.output,
    }
    return 0, result


def _cmd_tables(args: argparse.Namespace) -> CommandResult:
    names = suite_for_budget(args.budget)
    _say(args, f"suite: {', '.join(names)}\n")
    table2 = render_table2(run_table2(names))
    _say(args, table2, "")
    table3_rows = run_table3(names)
    table3 = render_table3(table3_rows)
    _say(args, table3, "")
    figure7 = render_figure7(run_figure7(names, table3_rows=table3_rows))
    _say(args, figure7)
    result = {
        "suite": list(names),
        "table2": table2,
        "table3": table3,
        "figure7": figure7,
    }
    return 0, result


def _worker_count(text: str) -> int:
    """``--jobs`` values: a worker process count, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fp",
        description="ODC circuit fingerprinting (Dunbar & Qu, DAC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "locations", aliases=["locate"], help="list fingerprint locations"
    )
    p.add_argument("design")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_locations)

    p = sub.add_parser("embed", help="emit one fingerprinted copy")
    p.add_argument("design")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", type=int, help="fingerprint integer")
    group.add_argument("--buyer", help="buyer name (keyed fingerprint)")
    p.add_argument("-o", "--output", help="output Verilog path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-verify", dest="verify", action="store_false")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="read a fingerprint from a suspect")
    p.add_argument("suspect")
    p.add_argument("--golden", required=True)
    p.add_argument("--structural", action="store_true",
                   help="rename-robust extraction (needs a twin-free golden)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "verify",
        help="combinational equivalence check (budgeted ladder)",
        description="Check two designs for equivalence via the verification "
        "ladder: exhaustive simulation when the input count permits, then "
        "budgeted SAT CEC, then random simulation with an explicit "
        "confidence figure.  Exhausting the SAT budget degrades the verdict "
        "rather than hanging the run.",
    )
    p.add_argument("left")
    p.add_argument("right")
    _add_ladder_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "batch",
        help="generate and verify many fingerprinted copies",
        description="Issue N distinct fingerprint values, embed each one, "
        "and verify every copy against the base through the budgeted ladder "
        "backed by one incremental CEC session per worker process.  "
        "--jobs parallelizes across processes; verdicts are identical to a "
        "serial run.  Exit status 1 if any copy fails verification.",
    )
    p.add_argument("design")
    p.add_argument("--copies", type=int, default=8, metavar="N",
                   help="distinct copies to issue (default: 8)")
    p.add_argument("--jobs", type=_worker_count, default=1, metavar="J",
                   help="worker processes (default: 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="fingerprint-value selection seed (default: 0)")
    p.add_argument("--measure", action="store_true",
                   help="record per-copy area/delay/power overheads")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one line per copy")
    _add_ladder_options(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("measure", help="area / delay / power of a design")
    p.add_argument("design")
    p.add_argument("--full", action="store_true",
                   help="full structural/timing/power/fingerprint report")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("audit", help="formally verify every variant")
    p.add_argument("design")
    p.add_argument("--max-variants", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "inject",
        help="run a fault-injection campaign against a design",
        description="Clone the design, inject each netlist mutator "
        "(stuck-at, gate swap, dangling wire, duplicate driver, "
        "combinational cycle), push every mutant through the full "
        "fingerprinting flow, and report whether each fault surfaced as a "
        "typed error or a verification mismatch.  Exit status 0 means the "
        "campaign was clean (no untyped exception escaped).",
    )
    p.add_argument("design")
    p.add_argument("--trials", type=int, default=1,
                   help="injections per (design, mutator) pair (default: 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--text", action="store_true",
                   help="also corrupt the serialized form and re-parse it")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser(
        "attack",
        help="run the adversarial attack suite against a fingerprinted design",
        description="Embed a victim fingerprint in the design, run each "
        "attack engine (resubstitution, rewriting, sweeping, renaming, "
        "pin remapping, collusion), verify every attacked copy stays "
        "functionally equivalent through the verification ladder, and "
        "report how many fingerprint bits survive each attack versus its "
        "area/delay cost.  Exit status 0 means every attacked copy was "
        "equivalent to the victim copy.",
    )
    p.add_argument("design")
    p.add_argument(
        "--attacks", default=None, metavar="A,B,...",
        help="comma-separated attack names (default: the full roster; "
        "see repro.attack.ATTACK_NAMES)",
    )
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--vectors", type=int, default=256, metavar="N",
                   help="packed simulation vectors per resub pass "
                   "(multiple of 64; default: 256)")
    p.add_argument("--passes", type=int, default=8, metavar="N",
                   help="max resubstitution passes (default: 8)")
    p.add_argument("--rewrite-fraction", type=float, default=0.4,
                   metavar="F", help="fraction of AND/OR-family gates the "
                   "rewrite attack DeMorgan-dualizes (default: 0.4)")
    p.add_argument("--colluders", type=int, default=3, metavar="N",
                   help="copies the collusion attack compares (default: 3)")
    p.add_argument("--strategy", default="strip",
                   choices=["majority", "random", "strip"],
                   help="collusion forging strategy (default: strip)")
    _add_ladder_options(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "campaign",
        help="persistent, resumable job campaigns (SQLite-backed)",
        description="Expand a declarative spec (designs x job kind x seeds) "
        "into job rows inside a SQLite result database and execute whatever "
        "is still pending with per-job timeouts, bounded retries, and crash "
        "quarantine.  Interrupt at any time (Ctrl-C, SIGTERM, --max-jobs); "
        "`campaign resume` continues exactly where the DB left off, and "
        "re-running a finished campaign executes nothing.  "
        "`campaign report` aggregates the DB into JSON/HTML fleet reports.",
    )
    p.add_argument("action", choices=("run", "status", "resume", "report"),
                   help="run a spec / show progress / continue the stored "
                   "spec / aggregate results")
    p.add_argument("designs", nargs="*",
                   help="design sources for `run`: .blif/.v paths or "
                   "bench:<name> suite circuits")
    p.add_argument("--db", required=True, metavar="FILE",
                   help="campaign result database (created on first run)")
    p.add_argument("--kind", choices=("fingerprint", "inject", "inject-text"),
                   default="fingerprint",
                   help="job kind expanded from the spec (default: fingerprint)")
    p.add_argument("--copies", type=int, default=8, metavar="N",
                   help="fingerprint kind: copies per design (default: 8)")
    p.add_argument("--trials", type=int, default=1, metavar="N",
                   help="inject kinds: trials per injector (default: 1)")
    p.add_argument("--injectors", default=None, metavar="A,B",
                   help="inject kinds: comma-separated injector names "
                   "(default: all registered)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign base seed (default: 0)")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="worker processes (default: 1)")
    p.add_argument("--timeout", type=float, default=300.0, metavar="S",
                   help="per-job wall-clock cap, 0 disables (default: 300)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="re-executions after a typed job error (default: 2)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base of the exponential retry backoff (default: 0.5)")
    p.add_argument("--overwrite", choices=("none", "failed", "all"),
                   default="none",
                   help="re-open terminal job rows before running "
                   "(default: none = pure resume)")
    p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                   help="execute at most N jobs this run, then stop "
                   "gracefully (checkpointed interrupt)")
    p.add_argument("--measure", action="store_true",
                   help="fingerprint kind: record per-copy overheads")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="report action: write report.json/report.html here")
    _add_ladder_options(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the long-lived fingerprinting HTTP/JSON service",
        description="Start the asyncio HTTP server over the repro.api "
        "facade: JSON submissions feed a multi-tenant queue, results come "
        "back in the unified CLI envelope, progress streams as server-sent "
        "events, and a content-addressed artifact store makes repeated "
        "submissions of identical netlists pure lookups.  Use the shared "
        "--store DIR option for a persistent disk tier and --trace FILE to "
        "write one Chrome trace covering every served job on shutdown.",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port; 0 binds an ephemeral port (default: 8765)")
    p.add_argument("--memory-entries", type=int, default=128, metavar="N",
                   help="artifact-store memory-tier LRU bound (default: 128)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes executing jobs; concurrent "
                   "submissions overlap across them (default: 1)")
    p.add_argument("--quota-max-pending", type=int, default=8, metavar="N",
                   help="per-tenant cap on queued+running jobs; exceeding "
                   "it returns HTTP 429 (default: 8)")
    p.add_argument("--quota-budget-seconds", type=float, default=None,
                   metavar="S",
                   help="per-tenant per-job SAT wall-clock budget forced "
                   "onto every submission (default: unlimited)")
    p.add_argument("--max-requests", type=int, default=None, metavar="N",
                   help="shut down after serving N jobs (smoke/CI use)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="emit a suite benchmark circuit")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument("budget", nargs="?", default=None,
                   choices=[None, "quick", "medium", "full"])
    p.set_defaults(func=_cmd_tables)

    seen = set()
    for command in sub.choices.values():
        # Aliases map to the same parser object; decorate each one once.
        if id(command) not in seen:
            seen.add(id(command))
            _add_common_options(command)

    return parser


def _envelope(command: str, result: Dict[str, Any], snapshot: Dict[str, Any]) -> str:
    """Serialize the one JSON shape every subcommand emits.

    Delegates to :mod:`repro.envelope` (shared with the HTTP service);
    when an artifact store is active (``--store``), the envelope gains a
    ``cache`` section with its hit/miss counters.
    """
    from .envelope import active_cache_section, render_envelope

    return render_envelope(command, result, snapshot, active_cache_section())


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_target: Optional[str] = getattr(args, "json", None)
    trace_path: Optional[str] = getattr(args, "trace", None)

    # Start each invocation from a clean slate so repeated in-process
    # calls (tests, notebooks) never inherit spans from a prior run.
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    if trace_path:
        telemetry.enable(trace=True, metrics=False)
    if getattr(args, "metrics", False) or json_target is not None:
        telemetry.enable(trace=False, metrics=True)
    store_root = getattr(args, "store", None)
    if store_root is not None:
        from .store import activate_store

        activate_store(root=store_root or None)

    try:
        try:
            code, result = args.func(args)
        except ReproError as exc:
            print(f"error: {exc.diagnostic()}", file=sys.stderr)
            code, result = 3, {"error": exc.diagnostic()}
        spans = telemetry.get_tracer().drain()
        snapshot = telemetry.telemetry_snapshot(spans)
        # A command may take trace-file ownership by clearing args.trace
        # (``serve`` writes its own whole-lifetime trace on shutdown;
        # overwriting it here with the parent's empty span list would
        # destroy it).
        trace_path = getattr(args, "trace", None)
        if trace_path:
            n_events = telemetry.write_chrome_trace(trace_path, spans)
            _say(args, f"wrote {trace_path} ({n_events} events)")
        if json_target is not None:
            text = _envelope(args.command, result, snapshot)
            if json_target == "-":
                print(text)
            else:
                with open(json_target, "w") as handle:
                    handle.write(text + "\n")
                _say(args, f"wrote {json_target}")
        return code
    finally:
        if store_root is not None:
            from .store import deactivate_store

            deactivate_store()
        telemetry.disable()
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()


if __name__ == "__main__":
    sys.exit(main())
