"""Exact conditional-observability (ODC) classification engine.

The engine answers one question per *candidate*: given a net ``n`` and
an optional condition ``X == c`` on another net, is flipping ``n``'s
value ever observable at a primary output while the condition holds?
The paper's fingerprint locations are exactly the candidates where the
answer is *no* (the trigger at the primary gate's controlling value
makes the fanout-free cone unobservable), so this engine is the
validation substrate behind
:func:`repro.fingerprint.locations.find_locations`.

Two exact tiers decide every candidate:

* **Frontier constant propagation** (sound CONFIRMED).  The original
  and the flipped copy are propagated in three-valued logic along the
  flip's *frontier* only — the gates with a fanin that may differ
  between the copies — in ascending IR id, a topological order, until
  no difference is left.  The seed is unknown in both copies, and the
  only constant is the condition's value, injected wherever the walk
  reads the condition net while that net carries no difference (its
  value is then the same in both copies).  So a frontier gate's two
  copies become the same constant exactly when it reads the condition
  net at its controlling value; every other frontier gate is unknown in
  both copies and passes the difference on.  If no difference reaches a
  primary output, the flip is unobservable whenever the condition
  holds.  A fingerprint location's candidate always ends here at the
  primary gate P: its FFC root feeds only P, and P reads the trigger,
  which lies outside the root's cone, at P's controlling value.
* **The full-circuit flip miter** (exact both ways).  Every other
  candidate goes to one persistent
  :class:`~repro.sat.solver.CdclSolver` holding the base circuit: the
  candidate adds a flipped copy of the seed's fanout cone and XOR
  difference detectors on the primary outputs it reaches, behind an
  activation literal that is retired afterwards.  UNSAT is CONFIRMED; a
  model is REFUTED, and its primary-input values are the witness.  Only
  an exhausted budget leaves a candidate UNKNOWN.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from .. import telemetry
from ..budget import Budget
from ..cells import functions
from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from ..sat.solver import CdclSolver
from ..sat.tseitin import _encode, encode_circuit
from ..sim.simulator import Simulator


class OdcStatus(Enum):
    """Classification outcome for one candidate."""

    CONFIRMED = "confirmed"  # flip never observable while condition holds
    REFUTED = "refuted"      # concrete witness exists
    UNKNOWN = "unknown"      # only under an exhausted budget


@dataclass(frozen=True)
class OdcVerdict:
    """Verdict for one ``(net, condition)`` candidate.

    ``method`` records the tier that decided: ``"constprop"`` or
    ``"miter-sat"``.  ``witness`` is a primary-input assignment proving
    REFUTED (condition holds and the flip reaches a primary output);
    CONFIRMED verdicts carry ``None``.
    """

    net: str
    condition_net: Optional[str]
    condition_value: int
    status: OdcStatus
    method: str
    witness: Optional[Dict[str, int]] = None

    @property
    def confirmed(self) -> bool:
        return self.status is OdcStatus.CONFIRMED

    @property
    def refuted(self) -> bool:
        return self.status is OdcStatus.REFUTED


@dataclass
class EngineStats:
    """Work accounting across all candidates classified by one engine."""

    candidates: int = 0
    const_confirmed: int = 0
    miter_sat_calls: int = 0
    miter_refuted: int = 0
    miter_confirmed: int = 0
    unknown: int = 0


class WindowedOdcEngine:
    """Classify flip-observability candidates of one circuit.

    Construct once per circuit (the full-circuit miter is encoded
    lazily, on the first candidate that needs it), then call
    :meth:`classify` per candidate.  The circuit must not be
    structurally mutated while the engine lives — detected through the
    circuit version and rejected, the same contract as
    :class:`~repro.sat.incremental.IncrementalCecSession`.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.stats = EngineStats()
        self._version = circuit.version
        self._compiled = compile_circuit(circuit)
        self._po_ids = [int(i) for i in self._compiled.output_ids]
        self._po_set = set(self._po_ids)
        # Lazy persistent full-circuit encoding (the miter tier).
        self._solver: Optional[CdclSolver] = None
        self._var_of: Optional[Dict[str, int]] = None

    def _exact(self) -> CdclSolver:
        """The persistent full-circuit solver, encoded on first use."""
        if self._solver is None:
            with telemetry.span(
                "odcwin.encode_base", design=self.circuit.name,
                gates=self.circuit.n_gates,
            ):
                encoding = encode_circuit(self.circuit)
                self._solver = CdclSolver(encoding.cnf)
                self._var_of = dict(encoding.var_of)
        return self._solver

    def classify(
        self,
        net: str,
        condition_net: Optional[str] = None,
        condition_value: int = 1,
        budget: Optional[Budget] = None,
    ) -> OdcVerdict:
        """Classify one candidate; exact CONFIRMED/REFUTED verdict.

        ``condition_net=None`` asks the unconditional question — is the
        net observable at all?  A ``budget`` bounds only the miter tier;
        exhausting it yields an UNKNOWN verdict instead of hanging.
        """
        if self.circuit.version != self._version:
            raise ValueError("circuit was mutated after engine construction")
        if not self.circuit.has_net(net):
            raise ValueError(f"unknown net {net!r}")
        if condition_net is not None and not self.circuit.has_net(condition_net):
            raise ValueError(f"unknown condition net {condition_net!r}")
        if condition_value not in (0, 1):
            raise ValueError("condition_value must be 0 or 1")
        self.stats.candidates += 1
        telemetry.count("odcwin.candidates")
        compiled = self._compiled
        cond_id = None if condition_net is None else compiled.id_of(condition_net)
        if self._const_confirm(compiled.id_of(net), cond_id, condition_value):
            self.stats.const_confirmed += 1
            telemetry.count("odcwin.const_confirmed")
            verdict = OdcVerdict(
                net, condition_net, condition_value, OdcStatus.CONFIRMED,
                "constprop",
            )
        else:
            telemetry.count("odcwin.miter_discharged")
            verdict = self._miter_decide(net, condition_net, condition_value, budget)
        telemetry.count(f"odcwin.verdict.{verdict.status.value}")
        return verdict

    # ------------------------------------------------------------------ #
    # frontier constant propagation tier (sound CONFIRMED)
    # ------------------------------------------------------------------ #

    def _const_confirm(
        self, seed_id: int, cond_id: Optional[int], cond_value: int
    ) -> bool:
        """True when constant propagation proves no difference reaches a PO.

        ``differs`` holds every net that may differ between the original
        and the flipped copy.  Gates leave the frontier heap in ascending
        id and every gate pushed later consumes a gate popped earlier, so
        when a gate is popped each of its fanins is settled: it differs,
        or it has the same value in both copies.
        """
        if seed_id in self._po_set:
            return False  # flipping a primary output changes it
        compiled = self._compiled
        # Readers of the condition net for which its value is controlling.
        blockers = set() if cond_id is None else {
            gid for gid in compiled.fanout_row(cond_id).tolist()
            if functions.controlling_value(compiled.gate_of(gid).kind) == cond_value
        }
        differs = {seed_id}
        frontier = compiled.fanout_row(seed_id).tolist()  # ascending: a heap
        queued = set(frontier)
        while frontier:
            gid = heapq.heappop(frontier)
            if gid in blockers and cond_id not in differs:
                continue  # both copies give the controlled output: it dies here
            if gid in self._po_set:
                return False
            differs.add(gid)
            for nxt in compiled.fanout_row(gid).tolist():
                if nxt not in queued:
                    queued.add(nxt)
                    heapq.heappush(frontier, nxt)
        return True

    # ------------------------------------------------------------------ #
    # exact full-circuit miter tier (decides both ways)
    # ------------------------------------------------------------------ #

    def _miter_decide(
        self,
        net: str,
        cond_net: Optional[str],
        cond_value: int,
        budget: Optional[Budget],
    ) -> OdcVerdict:
        """Full-circuit flip miter: exact in both directions.

        The base circuit is encoded once per engine; each candidate adds
        a flipped copy of the seed's fanout cone plus XOR difference
        detectors on the primary outputs it reaches (the seed itself
        when it is one), gates the "some output differs" clause behind a
        fresh activation literal, solves under assumptions, and then
        permanently retires the activation literal, so learned clauses
        accumulate across candidates (and so do the retired candidates'
        cones and detectors: the solver only grows).
        """
        compiled = self._compiled
        solver = self._exact()
        var_of = self._var_of
        assert var_of is not None
        self.stats.miter_sat_calls += 1
        telemetry.count("odcwin.miter_calls")

        with telemetry.span("odcwin.miter", design=self.circuit.name, net=net):
            seed_var = var_of[net]
            flipped_seed = solver.new_var()
            solver.add_clause([-flipped_seed, -seed_var])
            solver.add_clause([flipped_seed, seed_var])
            flip: Dict[int, int] = {compiled.id_of(net): flipped_seed}
            for gid in compiled.fanout_cone(net):
                gid = int(gid)
                row = [int(f) for f in compiled.fanin_row(gid)]
                if not any(f in flip for f in row):
                    continue
                ins = [
                    flip[f] if f in flip else var_of[compiled.name_of(f)]
                    for f in row
                ]
                out = solver.new_var()
                _encode(solver, compiled.gate_of(gid).kind, out, ins)
                flip[gid] = out

            activation = solver.new_var()
            activate = [-activation]
            for po in self._po_ids:
                if po not in flip:
                    continue
                a = var_of[compiled.name_of(po)]
                b = flip[po]
                d = solver.new_var()
                solver.add_clause([-d, a, b])
                solver.add_clause([-d, -a, -b])
                solver.add_clause([d, -a, b])
                solver.add_clause([d, a, -b])
                activate.append(d)
            solver.add_clause(activate)
            assumptions = [activation]
            if cond_net is not None:
                cond_var = var_of[cond_net]
                assumptions.append(cond_var if cond_value else -cond_var)
            try:
                result = solver.solve(assumptions=assumptions, budget=budget)
            finally:
                solver.add_clause([-activation])

        if result.unknown:
            self.stats.unknown += 1
            return OdcVerdict(net, cond_net, cond_value, OdcStatus.UNKNOWN, "miter-sat")
        if result.satisfiable:
            witness = {
                name: int(result.value(var_of[name])) for name in self.circuit.inputs
            }
            self.stats.miter_refuted += 1
            return OdcVerdict(
                net, cond_net, cond_value, OdcStatus.REFUTED, "miter-sat", witness
            )
        self.stats.miter_confirmed += 1
        return OdcVerdict(net, cond_net, cond_value, OdcStatus.CONFIRMED, "miter-sat")


def verify_witness(circuit: Circuit, verdict: OdcVerdict) -> bool:
    """Check a REFUTED witness by direct simulation.

    True when, at the witness input vector, the condition holds and
    flipping the net's value changes at least one primary output — i.e.
    the witness really demonstrates conditional observability.
    """
    if verdict.witness is None:
        return False
    from ..sim.observability import observability_words
    from ..sim.vectors import pack_vectors

    stimulus = pack_vectors(circuit.inputs, [verdict.witness])
    values = Simulator(circuit).run(stimulus)
    if verdict.condition_net is not None:
        held = int(values[verdict.condition_net][0]) & 1
        if held != verdict.condition_value:
            return False
    words = observability_words(circuit, verdict.net, values)
    return bool(int(words[0]) & 1)
