"""The four workloads and the two ways of running one pass of each.

A pass is the unit of work a run repeats until its time is up.  The
plain pass calls the public API exactly as a user would
(``api.fingerprint`` + ``api.save_circuit`` per design, or one
``api.batch`` call).  The traced pass calls the same layers one by one,
in the order ``run_flow`` / ``run_batch_flow`` call them, each wrapped in
a span of the benchmark's own ``Recorder``.  Both return a ``PassOutput``
whose digest must agree, which shows the decomposition does what the
public call does.

Every time a pass reports is in reference seconds (``speed.py``), converted
after the pass from the intervals it measured.  Everything
checked after a pass (known-bad copies, random-simulation spot checks,
digests) runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.analysis.compare import overhead
from repro.analysis.metrics import measure
from repro.bench import build_benchmark
from repro.bench.data import data_path
from repro.budget import Budget
from repro.fingerprint.capacity import FingerprintCodec, capacity
from repro.fingerprint.constraints import reactive_delay_constrain
from repro.fingerprint.embed import embed, full_assignment
from repro.fingerprint.locations import find_locations
from repro.flows import FlowOptions, LadderConfig, run_ladder, select_values
from repro.flows.batch import CopyRecord, build_worker_state
from repro.netlist.blif import parse_blif, read_blif, write_blif
from repro.netlist.circuit import Circuit
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.sim import Simulator, random_equivalent
from repro.techmap.mapper import map_network

from layers import Recorder
from speed import SpeedSampler

SPOT_CHECK_VECTORS = 1024
SMOKE_DESIGN = "c17"
SMOKE_COPIES = 4  # c17 has exactly four fingerprint values


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"flow"`` (one ``api.fingerprint`` per design and delay
    constraint, BLIF text in, Verilog out) or ``"batch"`` (one
    ``api.batch`` of ``copies`` on a single design read from Verilog, so
    no technology mapping).
    """

    name: str
    kind: str
    designs: Tuple[str, ...]
    max_conflicts: int
    sat_simplify: bool = True
    delay_constraints: Tuple[Optional[float], ...] = (None,)
    copies: int = 0

    def ops(self) -> List[Tuple[str, str, Optional[float]]]:
        """(label, design, delay constraint) of each flow the pass runs."""
        return [
            (design if limit is None else f"{design}@{limit:g}", design, limit)
            for design in self.designs
            for limit in self.delay_constraints
        ]

    def smoke(self) -> "Workload":
        """The same workload shape on the bundled c17."""
        return Workload(
            self.name, self.kind, (SMOKE_DESIGN,), self.max_conflicts,
            self.sat_simplify, self.delay_constraints,
            SMOKE_COPIES if self.kind == "batch" else 0,
        )


# Sizes are set so one pass takes 2-6 s on a 2-CPU x86 host and a run
# repeats it several times; README.md gives each workload's reason.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table2-flow", "flow", ("C432", "C499", "C880"), 20_000),
        Workload("large-netlist", "flow", ("k2", "i10"), 200, sat_simplify=False),
        Workload(
            "table3-constrained", "flow", ("C432",), 20_000,
            delay_constraints=(0.10, 0.05, 0.01),
        ),
        Workload("copy-issue", "batch", ("C432",), 5_000, copies=40),
    )
}


def options(workload: Workload, seed: int) -> FlowOptions:
    """Flow options for one run.

    The SAT budget is conflict-only: a wall-clock deadline would flip
    verdicts between tiers with the machine's speed.  ``FlowOptions.seed``
    stays 0: it picks a batch's buyer values and the delay heuristic's
    random removals, which from seed to seed change copies/s by up to 30 %
    and C432's surviving bits by up to 99 %.  The run seed drives the
    ladder's random vectors, the spot checks and the known-bad copies.
    """
    return FlowOptions(
        seed=0,
        jobs=1,
        measure_overheads=True,
        ladder=LadderConfig(
            seed=seed,
            sat_budget=Budget(max_conflicts=workload.max_conflicts),
            sat_simplify=workload.sat_simplify,
        ),
    )


def _circuit(design: str) -> Circuit:
    if design == SMOKE_DESIGN:
        return map_network(read_blif(data_path("c17.blif")))
    return build_benchmark(design)


def make_inputs(workload: Workload) -> Dict[str, str]:
    """Design name -> the text the program receives (BLIF or Verilog)."""
    if workload.kind == "batch":
        return {d: write_verilog(_circuit(d)) for d in workload.designs}
    if SMOKE_DESIGN in workload.designs:
        with open(data_path("c17.blif")) as handle:
            return {SMOKE_DESIGN: handle.read()}
    return {d: write_blif(_circuit(d)) for d in workload.designs}


# ---------------------------------------------------------------------- #
# pass outputs
# ---------------------------------------------------------------------- #


@dataclass
class Issued:
    """One fingerprinted copy the pass issued, with the program's verdict."""

    label: str
    base: Circuit
    copy: Circuit
    seconds: float
    equivalent: bool
    proven: bool
    overheads: Tuple[float, float, float]


@dataclass
class PassOutput:
    wall: float
    issue_seconds: float  # inside the calls that issue copies
    issued: List[Issued]
    bits: float
    surviving_bits: float
    digest_parts: List[object]
    raw_wall: float  # measured seconds of the same interval as ``wall``
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Reference seconds per measured second over the whole pass."""
        return self.wall / self.raw_wall

    def drop_circuits(self) -> None:
        """Free the netlists once checked, so memory does not grow with passes."""
        for item in self.issued:
            item.base = item.copy = None


def _locations(catalog) -> List[object]:
    return [
        [loc.primary, loc.ffc_root, loc.trigger, loc.trigger_value,
         [[slot.target, slot.n_configs] for slot in loc.slots]]
        for loc in catalog
    ]


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass
class FlowRow:
    """What the program returned for one design of a flow pass."""

    name: str
    base: Circuit
    catalog: object
    copy: object  # FingerprintedCircuit
    capacity: object  # CapacityReport
    constrained: object  # ConstraintResult or None
    verification: object  # VerificationReport
    overhead: object
    path: str
    interval: Tuple[float, float]  # perf_counter at the start and end of issuing


def _flow_output(rows: List[FlowRow], sampler: SpeedSampler,
                 start: float, end: float) -> PassOutput:
    """Digest parts, issued copies and counts of a flow pass (after the clock)."""
    issued, parts = [], []
    extras = {"fingerprint.locations": 0.0, "sat.decisions": 0.0,
              "constrain.steps": 0.0, "constrain.greedy": 0.0}
    bits = surviving = 0.0
    for row in rows:
        over, verdict = row.overhead, row.verification
        issued.append(Issued(row.name, row.base, row.copy.circuit,
                             sampler.ref_seconds(*row.interval),
                             verdict.equivalent, verdict.proven,
                             (over.area, over.delay, over.power)))
        part = {"design": row.name, "locations": _locations(row.catalog),
                "verilog": _file_digest(row.path)}
        bits += row.capacity.bits
        extras["fingerprint.locations"] += row.capacity.n_locations
        if verdict.sat_stats is not None:
            extras["sat.decisions"] += verdict.sat_stats.decisions
        if row.constrained is None:
            surviving += row.capacity.bits
        else:
            part["kept"] = sorted(row.copy.applied.items())
            surviving += row.constrained.surviving_bits
            extras["constrain.steps"] += len(row.constrained.steps)
            extras["constrain.greedy"] += sum(
                1 for kind, _ in row.constrained.steps if kind == "greedy"
            )
        parts.append(part)
    return PassOutput(sampler.ref_seconds(start, end),
                      sum(item.seconds for item in issued), issued, bits, surviving,
                      parts, end - start, extras)


def _op_options(workload, opts):
    return [
        (label, design, opts if limit is None else opts.replace(delay_constraint=limit))
        for label, design, limit in workload.ops()
    ]


def flow_pass(workload, inputs, opts, outdir, sampler: SpeedSampler) -> PassOutput:
    rows = []
    ops = _op_options(workload, opts)
    start = time.perf_counter()
    for name, design, op_opts in ops:
        t0 = time.perf_counter()
        result = api.fingerprint(inputs[design], op_opts)
        interval = (t0, time.perf_counter())
        path = os.path.join(outdir, f"{name}.v")
        api.save_circuit(result.copy.circuit, path)
        rows.append(FlowRow(name, result.base, result.catalog, result.copy,
                            result.capacity, result.constrained, result.verification,
                            result.overhead, path, interval))
    end = time.perf_counter()
    return _flow_output(rows, sampler, start, end)


def traced_flow_pass(workload, inputs, opts, outdir, sampler: SpeedSampler,
                     rec: Recorder) -> PassOutput:
    """``run_flow`` layer by layer (see ``repro.flows.pipeline.run_flow``)."""
    rows = []
    ops = _op_options(workload, opts)
    start = time.perf_counter()
    with rec.span("pass"):
        for name, design, op_opts in ops:
            t0 = time.perf_counter()
            with rec.span(f"row.{design}"):
                with rec.span("netlist.parse"):
                    network = parse_blif(inputs[design])
                with rec.span("techmap.map"):
                    base = map_network(network, style=op_opts.map_style)
                with rec.span("netlist.validate"):
                    base.validate()
                with rec.span("fingerprint.locate"):
                    catalog = find_locations(base, op_opts.resolved_finder())
                with rec.span("fingerprint.capacity"):
                    report = capacity(catalog)
                    FingerprintCodec(catalog)
                with rec.span("fingerprint.embed"):
                    copy = embed(base, catalog, full_assignment(base, catalog))
                constrained = None
                if op_opts.delay_constraint is not None:
                    with rec.span("fingerprint.constrain"):
                        constrained = reactive_delay_constrain(
                            copy, op_opts.delay_constraint, seed=op_opts.seed
                        )
                with rec.span("flows.ladder"):
                    verification = run_ladder(base, copy.circuit, config=op_opts.ladder)
                with rec.span("analysis.measure"):
                    over = overhead(measure(base), measure(copy.circuit))
                interval = (t0, time.perf_counter())
                path = os.path.join(outdir, f"{name}.v")
                with rec.span("netlist.write"):
                    api.save_circuit(copy.circuit, path)
            rows.append(FlowRow(name, base, catalog, copy, report, constrained,
                                verification, over, path, interval))
    end = time.perf_counter()
    return _flow_output(rows, sampler, start, end)


def _batch_output(sampler, start, issue_start, end, base, catalog, records,
                  copies) -> PassOutput:
    """The pass output of one serial batch that returned at ``end``.

    The copies ran one after another in the order of ``records`` (sorted
    by value, as ``select_values`` hands them out), and the batch returned
    right after the last one, so walking back from ``end`` by each copy's
    measured seconds gives the interval it ran in.
    """
    seconds = []
    copy_end = end
    for record in reversed(records):
        copy_start = copy_end - record.seconds
        seconds.append(sampler.ref_seconds(copy_start, copy_end))
        copy_end = copy_start
    issued = [
        Issued(base.name, base, copy, ref, r.equivalent, r.proven,
               (r.area_overhead, r.delay_overhead, r.power_overhead))
        for r, copy, ref in zip(records, copies, reversed(seconds))
    ]
    bits = capacity(catalog).bits
    parts = [{
        "design": base.name,
        "locations": _locations(catalog),
        "copies": [[r.value, r.equivalent] for r in records],
    }]
    return PassOutput(sampler.ref_seconds(start, end), sampler.ref_seconds(issue_start, end),
                      issued, bits, bits, parts, end - start)


def batch_pass(workload, inputs, opts, outdir, sampler: SpeedSampler) -> PassOutput:
    (name,) = workload.designs
    start = time.perf_counter()
    design = parse_verilog(inputs[name])
    t0 = time.perf_counter()
    result = api.batch(design, workload.copies, opts)
    end = time.perf_counter()
    # Rebuild the issued copies for the checks, after the clock.
    catalog = api.locate(design, opts)
    codec = FingerprintCodec(catalog)
    copies = [
        embed(design, catalog, codec.encode(r.value), name=f"{design.name}_v{r.value}").circuit
        for r in result.records
    ]
    return _batch_output(sampler, start, t0, end, design, catalog, result.records, copies)


def traced_batch_pass(workload, inputs, opts, outdir, sampler: SpeedSampler,
                      rec: Recorder) -> PassOutput:
    """``run_batch_flow`` with ``jobs=1``, layer by layer (see
    ``repro.flows.batch.run_batch_flow`` and ``verify_one_value``)."""
    (name,) = workload.designs
    finder = opts.resolved_finder()
    records, copies = [], []
    start = time.perf_counter()
    with rec.span("pass"):
        with rec.span(f"row.{name}"):
            with rec.span("netlist.parse"):
                design = parse_verilog(inputs[name])
            t0 = time.perf_counter()
            with rec.span("netlist.validate"):
                design.validate()
            with rec.span("fingerprint.locate"):
                catalog = find_locations(design, finder)
            with rec.span("fingerprint.capacity"):
                codec = FingerprintCodec(catalog)
                values = select_values(codec.combinations, workload.copies, seed=opts.seed)
            with rec.span("flows.batch.setup"):
                state = build_worker_state(design, finder, opts.ladder, opts.measure_overheads)
            base = state["base"]
            for value in values:
                c0 = time.perf_counter()
                with rec.span("fingerprint.encode"):
                    assignment = state["codec"].encode(value)
                with rec.span("fingerprint.embed"):
                    copy = embed(base, state["catalog"], assignment, name=f"{base.name}_v{value}")
                with rec.span("flows.ladder"):
                    report = run_ladder(
                        base, copy.circuit, config=state["ladder"], session=state["session"]
                    )
                with rec.span("analysis.measure"):
                    over = overhead(state["baseline"], measure(copy.circuit))
                records.append(CopyRecord(
                    value=value, n_modifications=copy.n_active,
                    equivalent=report.equivalent, proven=report.proven,
                    tier=report.tier.value, budget_hit=report.budget_hit,
                    reason=report.reason, seconds=time.perf_counter() - c0,
                    area_overhead=over.area, delay_overhead=over.delay,
                    power_overhead=over.power,
                ))
                copies.append(copy.circuit)
    end = time.perf_counter()
    out = _batch_output(sampler, start, t0, end, design, catalog, records, copies)
    session = state["session"].stats
    solver = state["session"].solver.stats
    out.extras = {
        "fingerprint.locations": float(catalog.n_locations),
        "sat.decisions": float(solver.decisions),
        "sat.incremental.sat_calls": float(session.sat_calls),
        "sat.incremental.sim_disproofs": float(session.sim_disproofs),
        "sat.incremental.outputs_structural": float(session.outputs_structural),
        "sat.incremental.outputs_total": float(session.outputs_total),
        "sat.incremental.gates_reused": float(session.gates_reused),
        "sat.incremental.gates_encoded": float(session.gates_encoded),
    }
    return out


def run_pass(workload, inputs, opts, outdir, sampler: SpeedSampler,
             rec: Optional[Recorder] = None) -> PassOutput:
    if workload.kind == "batch":
        if rec is None:
            return batch_pass(workload, inputs, opts, outdir, sampler)
        return traced_batch_pass(workload, inputs, opts, outdir, sampler, rec)
    if rec is None:
        return flow_pass(workload, inputs, opts, outdir, sampler)
    return traced_flow_pass(workload, inputs, opts, outdir, sampler, rec)


# ---------------------------------------------------------------------- #
# known answers
# ---------------------------------------------------------------------- #


def complement_output(circuit: Circuit, output: str) -> Circuit:
    """A copy of ``circuit`` whose primary output ``output`` is inverted."""
    mutant = circuit.clone(f"{circuit.name}_bad")
    driver = mutant.remove_gate(output)
    inner = f"{output}_bench_pre"
    while mutant.has_net(inner):
        inner += "_"
    mutant.add_gate(inner, driver.kind, driver.inputs, cell=driver.cell)
    mutant.add_gate(output, "INV", [inner])
    return mutant


@dataclass
class CheckResult:
    attempted: int  # verdicts checked: issued copies plus known-bad copies
    failed: int
    proven: int
    output_digest: str  # the pass's outputs, equal for every pass of a run
    digest: Optional[str]  # outputs and known-bad verdicts, of a full check only
    problems: List[str]


def check_pass(out: PassOutput, opts: FlowOptions, seed: int, full: bool) -> CheckResult:
    """Check a pass against answers known without trusting the program.

    Every issued copy is equivalent to its design by construction, so its
    verdict must be "equivalent".  A full check (a run's first pass) also
    spot-checks every copy by random simulation, and builds one known-bad
    copy per flow or batch (a primary-output driver inverted by the
    benchmark) that must be reported "not equivalent", with a
    counterexample that shows the mismatch when simulated.  Later passes
    are held to the first one by their output digest, which covers the
    written netlists.
    """
    rng = random.Random(seed)
    problems: List[str] = []
    proven = sum(1 for item in out.issued if item.proven)
    for item in out.issued:
        if not item.equivalent:
            problems.append(f"{item.copy.name}: issued copy reported not equivalent")
            continue
        if not full:
            continue
        spot = random_equivalent(item.base, item.copy, n_vectors=SPOT_CHECK_VECTORS,
                                 seed=rng.randrange(1 << 30))
        if not spot.equivalent:
            problems.append(f"{item.copy.name}: spot check found a mismatch at {spot.output}")
    output_digest = hashlib.sha256(
        json.dumps(out.digest_parts, sort_keys=True).encode()).hexdigest()
    if not full:
        return CheckResult(len(out.issued), len(problems), proven, output_digest, None,
                           problems)

    bad_parts = []
    for label in dict.fromkeys(item.label for item in out.issued):
        victim = rng.choice([item for item in out.issued if item.label == label])
        driven = [o for o in victim.copy.outputs if victim.copy.driver(o) is not None]
        output = rng.choice(driven)
        mutant = complement_output(victim.copy, output)
        report = api.verify(victim.base, mutant, opts)
        proven += int(report.proven)
        bad_parts.append([victim.copy.name, output, report.equivalent])
        if report.equivalent:
            problems.append(f"{label}: known-bad copy ({output} inverted) passed")
            continue
        cex = report.counterexample or {}
        good = Simulator(victim.base).run_single(cex)
        bad = Simulator(mutant).run_single(cex)
        if all(good[o] == bad[o] for o in victim.base.outputs):
            problems.append(f"{label}: counterexample {cex} does not replay")

    payload = json.dumps([out.digest_parts, bad_parts], sort_keys=True)
    return CheckResult(
        attempted=len(out.issued) + len(bad_parts),
        failed=len(problems),
        proven=proven,
        output_digest=output_digest,
        digest=hashlib.sha256(payload.encode()).hexdigest(),
        problems=problems,
    )


def warm_up(workload: Workload, opts: FlowOptions, outdir: str,
            sampler: SpeedSampler) -> None:
    """Run c17 once through the entry points the workload's passes use."""
    smoke = workload.smoke()
    inputs = make_inputs(smoke)
    check_pass(run_pass(smoke, inputs, opts, outdir, sampler), opts, 0, full=True)
