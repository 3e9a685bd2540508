"""Simulation-guided Boolean resubstitution pointed at fingerprint removal.

The engine runs its own window, simulation and SAT tiers over
:mod:`repro.attack.window`'s window extraction, pointed at removal.  The
fingerprint embeds by *widening* a target gate with a trigger literal that
is unobservable while the trigger holds the downstream primary gate's
controlling value; this engine hunts for inputs that can be *dropped* from
a gate without changing any primary output — which is exactly the embedded
literal, plus whatever genuine redundancy the design carries.

Per candidate ``(gate, input position)`` the tiers are, cheapest first:

1. **Window simulation**: evaluate the narrowed gate over the shared
   stimulus and propagate its signature through the gate's
   :class:`~repro.attack.window.Window`.  Any simulated difference
   reaching a window output almost certainly escapes — the candidate is
   skipped without SAT work.
2. **Window SAT**: a window-local miter — copy A encodes the original
   gate, copy B the narrowed gate, over *shared, free* side inputs, with
   XOR difference detectors on the window outputs.  UNSAT proves no
   difference ever crosses the window boundary, so the rewrite is
   committed.  Side inputs driven by INV/BUF chains are folded down to
   their sources' shared literals: the trigger literal usually reaches the
   widened gate through a fingerprint inverter while the blocking primary
   gate sees the source directly, and without the folding the miter would
   treat the two as independent and miss the ODC structure entirely.
   A candidate the window cannot prove is left in place.

Every validation solve runs under :data:`PROOF_BUDGET`; an exhausted
solve skips the candidate rather than committing an unproven rewrite.

Soundness: the window is a fanin-closed prefix of the gate's fanout cone
(:mod:`repro.attack.window`), so a difference can leave it only through
a window output, and the shared free side inputs over-approximate every
real assignment of the rest of the circuit.  UNSAT of the window miter
is therefore a real proof.  Every committed rewrite preserves the
circuit function exactly; the harness re-verifies through the ladder
anyway.

A separate constant/merge pass (the classical resubstitution with zero
divisors) detects nets whose rows are constant, equal or complementary
under simulation and proves each with a full-circuit SAT query before
rewiring — the sweep that collapses logic the literal drops expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from .. import telemetry
from ..budget import Budget
from ..cells import functions
from ..ir import compile_circuit
from ..ir.kernels import (
    CODE_BUF,
    CODE_CONST0,
    CODE_CONST1,
    CODE_INV,
    INPUT,
    code_of,
    eval_gate,
)
from ..netlist.circuit import Circuit
from ..netlist.transform import cleanup, merge_duplicate_gates
from ..sat.solver import CdclSolver
from ..sat.tseitin import _encode, encode_circuit
from ..sim.simulator import Simulator
from ..sim.vectors import random_stimulus
from .config import AttackConfig
from .window import Window, extract_window

_CONST_KINDS = ("CONST0", "CONST1")

#: Budget of each validation SAT solve (window miters and the
#: constant/merge pass's proofs).
PROOF_BUDGET = Budget(deadline_s=10.0, max_conflicts=500_000)


@dataclass
class ResubStats:
    """Work and yield accounting for one engine run."""

    passes: int = 0
    candidates: int = 0
    literals_dropped: int = 0
    window_sat_proved: int = 0
    window_sat_rejected: int = 0
    sim_rejected: int = 0
    constants_folded: int = 0
    nets_merged: int = 0
    proof_unknown: int = 0
    swept_gates: int = 0

    @property
    def edits(self) -> int:
        return (
            self.literals_dropped
            + self.constants_folded
            + self.nets_merged
            + self.swept_gates
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "passes": self.passes,
            "candidates": self.candidates,
            "literals_dropped": self.literals_dropped,
            "window_sat_proved": self.window_sat_proved,
            "window_sat_rejected": self.window_sat_rejected,
            "sim_rejected": self.sim_rejected,
            "constants_folded": self.constants_folded,
            "nets_merged": self.nets_merged,
            "proof_unknown": self.proof_unknown,
            "swept_gates": self.swept_gates,
            "edits": self.edits,
        }


class ResubstitutionEngine:
    """Iteratively simplify ``circuit`` in place, provably preserving it."""

    def __init__(self, circuit: Circuit, config: Optional[AttackConfig] = None):
        self.circuit = circuit
        self.config = config or AttackConfig()
        self.stats = ResubStats()

    def run(self) -> ResubStats:
        """Sweep to a fixed point (or ``max_passes``); returns the stats."""
        with telemetry.span("attack.resub", design=self.circuit.name):
            for _ in range(self.config.max_passes):
                self.stats.passes += 1
                changed = self._drop_literal_pass()
                changed += self._const_merge_pass()
                tidy = cleanup(self.circuit)
                merged = merge_duplicate_gates(self.circuit)
                swept = sum(tidy.values()) + merged
                self.stats.swept_gates += swept
                if not changed and not swept:
                    break
        telemetry.count("attack.resub_edits", self.stats.edits)
        return self.stats

    # ------------------------------------------------------------------ #
    # drop-literal pass
    # ------------------------------------------------------------------ #

    def _drop_literal_pass(self) -> int:
        circuit = self.circuit
        if not circuit.gates or not circuit.inputs:
            return 0
        compiled = compile_circuit(circuit)
        stimulus = random_stimulus(
            circuit.inputs, self.config.n_vectors, seed=self.config.seed
        )
        values = Simulator(circuit).run_matrix(stimulus)
        modified: Set[int] = set()
        committed = 0
        for gid in range(values.shape[0]):
            if int(compiled.kinds[gid]) == INPUT:
                continue
            gate = compiled.gate_of(gid)
            row = [int(f) for f in compiled.fanin_row(gid)]
            if len(row) < 2 or gate.kind in _CONST_KINDS:
                continue
            if gid in modified or any(f in modified for f in row):
                continue  # stale this pass; the next pass revisits
            if self._try_gate(compiled, values, modified, gid, gate, row):
                modified.add(gid)
                committed += 1
        return committed

    def _try_gate(self, compiled, values, modified, gid, gate, row) -> bool:
        """Try dropping each input of one gate; commit the first proof."""
        circuit = self.circuit
        window: Optional[Window] = None
        tried = set()
        for position in range(len(row)):
            remaining = row[:position] + row[position + 1 :]
            signature = (row[position], tuple(remaining))
            if signature in tried:
                continue
            tried.add(signature)
            if len(remaining) == 1:
                new_kind = "INV" if functions.is_inverting(gate.kind) else "BUF"
            else:
                if circuit.library.try_find(gate.kind, len(remaining)) is None:
                    continue
                new_kind = gate.kind
            self.stats.candidates += 1
            new_inputs = [
                gate.inputs[j] for j in range(len(row)) if j != position
            ]
            new_sig = eval_gate(
                code_of(new_kind), [values[f] for f in remaining]
            )
            if window is None:
                window = extract_window(compiled, gid)
            if window.seed_escapes or window.seed_is_po:
                continue  # the narrowed value leaves the window unchecked
            members = set(int(g) for g in window.gate_ids)
            if members & modified:
                continue  # member encodings stale this pass
            if self._sim_escape(compiled, values, window, gid, new_sig):
                self.stats.sim_rejected += 1
                continue
            if self._window_confirm(
                compiled, window, gate.kind, row, new_kind, position
            ):
                circuit.replace_gate(gate.name, new_kind, new_inputs)
                self.stats.window_sat_proved += 1
                self.stats.literals_dropped += 1
                return True
            self.stats.window_sat_rejected += 1
        return False

    @staticmethod
    def _sim_escape(compiled, values, window, seed_id, new_sig) -> bool:
        """True when the narrowed signature visibly reaches a window output."""
        flipped: Dict[int, np.ndarray] = {seed_id: new_sig}
        for gid in window.gate_ids:
            gid = int(gid)
            row = compiled.fanin_row(gid)
            if not any(int(f) in flipped for f in row):
                continue
            operands = [
                flipped[int(f)] if int(f) in flipped else values[int(f)]
                for f in row
            ]
            out = eval_gate(int(compiled.kinds[gid]), operands)
            if not np.array_equal(out, values[gid]):
                flipped[gid] = out
        return any(int(o) in flipped for o in window.output_ids)

    def _window_confirm(
        self, compiled, window, old_kind, row, new_kind, drop_position
    ) -> bool:
        """Window miter of (original gate) vs (narrowed gate); UNSAT commits.

        Side inputs are shared free variables between the copies, with
        INV/BUF driver chains folded into their sources' literals so
        complemented trigger literals stay correlated with the primary
        gate's direct view of the trigger net.
        """
        solver = CdclSolver()
        shared: Dict[int, int] = {}

        def lit_of(fid: int) -> int:
            lit = shared.get(fid)
            if lit is not None:
                return lit
            kind_code = int(compiled.kinds[fid])
            if kind_code == CODE_INV:
                lit = -lit_of(int(compiled.fanin_row(fid)[0]))
            elif kind_code == CODE_BUF:
                lit = lit_of(int(compiled.fanin_row(fid)[0]))
            elif kind_code in (CODE_CONST0, CODE_CONST1):
                lit = solver.new_var()
                solver.add_clause([lit if kind_code == CODE_CONST1 else -lit])
            else:
                lit = solver.new_var()
            shared[fid] = lit
            return lit

        seed = window.seed_id
        ins_old = [lit_of(f) for f in row]
        ins_new = [
            ins_old[j] for j in range(len(row)) if j != drop_position
        ]
        seed_a = solver.new_var()
        _encode(solver, old_kind, seed_a, ins_old)
        seed_b = solver.new_var()
        _encode(solver, new_kind, seed_b, ins_new)
        copy_a: Dict[int, int] = {seed: seed_a}
        copy_b: Dict[int, int] = {seed: seed_b}
        for gid in window.gate_ids:
            gid = int(gid)
            gate = compiled.gate_of(gid)
            member_row = [int(f) for f in compiled.fanin_row(gid)]
            ins_a = [copy_a[f] if f in copy_a else lit_of(f) for f in member_row]
            ins_b = [copy_b[f] if f in copy_b else lit_of(f) for f in member_row]
            out_a = solver.new_var()
            _encode(solver, gate.kind, out_a, ins_a)
            copy_a[gid] = out_a
            if ins_a == ins_b:
                copy_b[gid] = out_a  # the rewrite cannot reach this member
                continue
            out_b = solver.new_var()
            _encode(solver, gate.kind, out_b, ins_b)
            copy_b[gid] = out_b

        diffs: List[int] = []
        for oid in window.output_ids:
            oid = int(oid)
            if copy_a[oid] == copy_b[oid]:
                continue
            d = solver.new_var()
            a, b = copy_a[oid], copy_b[oid]
            solver.add_clause([-d, a, b])
            solver.add_clause([-d, -a, -b])
            solver.add_clause([d, -a, b])
            solver.add_clause([d, a, -b])
            diffs.append(d)
        if not diffs:
            return True
        solver.add_clause(diffs)
        result = solver.solve(budget=PROOF_BUDGET)
        if result.unknown:
            self.stats.proof_unknown += 1
            return False
        return not result.satisfiable

    # ------------------------------------------------------------------ #
    # constant / merge pass
    # ------------------------------------------------------------------ #

    def _const_merge_pass(self) -> int:
        """Fold SAT-proven constant nets and merge SAT-proven equal nets.

        Every commit replaces a gate with a function-identical CONST /
        BUF(keeper) / INV(keeper), so the circuit's net functions are
        preserved and all proofs against the pass-start encoding stay
        valid under batched commits.  Keepers always carry a lower
        (topological) ID than their victims, so no rewiring can close a
        cycle.
        """
        circuit = self.circuit
        if not circuit.gates or not circuit.inputs:
            return 0
        compiled = compile_circuit(circuit)
        stimulus = random_stimulus(
            circuit.inputs, self.config.n_vectors, seed=self.config.seed + 1
        )
        values = Simulator(circuit).run_matrix(stimulus)
        ones = ~np.uint64(0)

        solver: Optional[CdclSolver] = None
        var_of: Dict[str, int] = {}
        diff_cache: Dict[tuple, int] = {}

        def proof_solver() -> CdclSolver:
            nonlocal solver
            if solver is None:
                encoding = encode_circuit(circuit)
                solver = CdclSolver(encoding.cnf)
                var_of.update(encoding.var_of)
            return solver

        def net_var(name: str) -> int:
            proof_solver()
            return var_of[name]

        def proved(assumptions: List[int]) -> bool:
            result = proof_solver().solve(assumptions=assumptions, budget=PROOF_BUDGET)
            if result.unknown:
                self.stats.proof_unknown += 1
                return False
            return not result.satisfiable

        def diff_var(name_a: str, name_b: str) -> int:
            key = (name_a, name_b)
            var = diff_cache.get(key)
            if var is None:
                s = proof_solver()
                var = s.new_var()
                a, b = var_of[name_a], var_of[name_b]
                s.add_clause([-var, a, b])
                s.add_clause([-var, -a, -b])
                s.add_clause([var, -a, b])
                s.add_clause([var, a, -b])
                diff_cache[key] = var
            return var

        committed = 0
        seen: Dict[bytes, int] = {}
        for gid in range(values.shape[0]):
            row = values[gid]
            key = row.tobytes()
            if int(compiled.kinds[gid]) == INPUT:
                seen.setdefault(key, gid)
                continue
            gate = compiled.gate_of(gid)
            if gate.kind in _CONST_KINDS:
                seen.setdefault(key, gid)
                continue
            name = gate.name
            if not row.any():
                if proved([net_var(name)]):
                    circuit.replace_gate(name, "CONST0", [])
                    self.stats.constants_folded += 1
                    committed += 1
                    continue
            elif bool(np.all(row == ones)):
                if proved([-net_var(name)]):
                    circuit.replace_gate(name, "CONST1", [])
                    self.stats.constants_folded += 1
                    committed += 1
                    continue
            keeper = seen.get(key)
            if keeper is not None and keeper != gid:
                keeper_name = compiled.name_of(keeper)
                if gate.kind == "BUF" and gate.inputs == (keeper_name,):
                    continue  # already the canonical form
                if proved([diff_var(keeper_name, name)]):
                    circuit.replace_gate(name, "BUF", [keeper_name])
                    self.stats.nets_merged += 1
                    committed += 1
                    continue
            inv_keeper = seen.get((~row).tobytes())
            if inv_keeper is not None and inv_keeper != gid:
                keeper_name = compiled.name_of(inv_keeper)
                if gate.kind == "INV" and gate.inputs == (keeper_name,):
                    seen.setdefault(key, gid)
                    continue
                if proved([-diff_var(keeper_name, name)]):
                    circuit.replace_gate(name, "INV", [keeper_name])
                    self.stats.nets_merged += 1
                    committed += 1
                    continue
            seen.setdefault(key, gid)
        return committed


__all__ = ["ResubStats", "ResubstitutionEngine"]
