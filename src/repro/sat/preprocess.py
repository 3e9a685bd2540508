"""CNF preprocessing for the miter solves (SatELite-style, pure Python).

Implements the three classic clause-database simplifications — run on a
miter CNF *before* it reaches the CDCL solver — with a reconstruction
map so verdicts and (extended) models are unchanged:

* **Bounded variable elimination (BVE)**: resolve a variable's positive
  against its negative occurrences and replace both sides by the
  non-tautological resolvents whenever that does not grow the clause
  count.  Pure literals are the zero-resolvent special case, which is
  what makes BVE act as cone-of-influence pruning on single-output miter
  obligations: gate variables outside the tested output's cone have no
  consumers, become pure bottom-up, and vanish wholesale.
* **Subsumption and self-subsuming resolution (SSR)**: delete clauses
  that are supersets of another clause; strengthen clauses ``D ∨ ¬l``
  to ``D`` when some clause ``C ∨ l`` with ``C ⊆ D`` exists.  Signature
  (bloom) prefiltering keeps the candidate scans cheap.
* **Failed-literal probing**: assume each candidate literal, run unit
  propagation; a conflict proves the negation as a root-level fact.
  :data:`PROBE_LIMIT` caps the propagations of the whole call, a guard
  against pathological inputs rather than a time bound: on the
  paper-flow miters the cap is never reached and probing is the largest
  phase.

There is one configuration.  Every phase always runs, and the effort
guards are the module constants :data:`MAX_ROUNDS`,
:data:`RESOLVENT_MAX`, :data:`PROBE_LIMIT` and :data:`OCC_LIMIT`; tests
patch them to make a bound bind.  The only switch is ``eliminate``.

Eliminated variables go on a reconstruction stack
(:class:`Reconstruction`) storing their removed clauses; extending a
model of the simplified CNF through the stack (in reverse elimination
order) yields a model of the original CNF.  Variables the caller will
reference later — assumption literals, primary inputs needed for
counterexample extraction, activation literals — must be passed as
``frozen`` so BVE leaves them alone.  Probing/subsumption/SSR are
equivalence-preserving over the original variable set and therefore safe
even for incremental sessions that keep adding clauses; BVE is not, and
such callers pass ``eliminate=False``.

A started :class:`~repro.budget.BudgetClock` passed as ``clock`` is read
between probes and between eliminations; once its deadline has passed,
preprocessing stops and returns the CNF simplified so far.  That CNF is
sound, because every probe and every elimination completes before the
clause store changes again.

Everything here uses the solver's internal literal encoding only at the
boundary; the public API speaks DIMACS-signed literals like the rest of
:mod:`repro.sat`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..budget import BudgetClock
from .cnf import Cnf

_TRUE = 1
_FALSE = 0
_UNASSIGNED = -1


def _to_internal(lit: int) -> int:
    var = abs(lit)
    return 2 * var + (1 if lit < 0 else 0)


def _to_external(lit: int) -> int:
    var = lit >> 1
    return -var if lit & 1 else var


#: Simplification rounds (probe, subsume, eliminate) per call, at most.
MAX_ROUNDS = 4
#: Widest resolvent elimination may add; a wider one keeps the variable.
RESOLVENT_MAX = 24
#: Unit propagations one call may spend probing, over all its rounds.
PROBE_LIMIT = 400_000
#: Subsumption skips scans through occurrence lists longer than this
#: (a guard against quadratic blowup).
OCC_LIMIT = 400


@dataclass
class PreprocessStats:
    """Work counters from one :func:`preprocess` call."""

    eliminated_vars: int = 0
    subsumed_clauses: int = 0
    strengthened_literals: int = 0
    failed_literals: int = 0
    probes: int = 0
    rounds: int = 0
    units_found: int = 0
    clauses_in: int = 0
    clauses_out: int = 0
    vars_in: int = 0
    #: Propagations spent probing (the :data:`PROBE_LIMIT` budget used).
    probe_propagations: int = 0
    seconds: float = 0.0
    probe_seconds: float = 0.0
    subsume_seconds: float = 0.0
    bve_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


class Reconstruction:
    """Model-extension map from a simplified CNF back to the original.

    Records, in elimination order, each removed variable together with
    all clauses (internal literals) it appeared in.  :meth:`extend`
    replays the stack in reverse: the eliminated variable is set to
    whatever polarity its stored clauses require under the model built so
    far — at most one polarity can be forced, because the resolvent of
    any forcing positive/negative pair survived into the simplified CNF
    and is satisfied by the model.
    """

    def __init__(self) -> None:
        self._stack: List[Tuple[int, List[List[int]]]] = []

    def __len__(self) -> int:
        return len(self._stack)

    def record(self, var: int, clauses: List[List[int]]) -> None:
        self._stack.append((var, [list(c) for c in clauses]))

    def extend(self, model: Dict[int, bool]) -> Dict[int, bool]:
        """Complete ``model`` (a dict over original variable numbers) so it
        satisfies the original CNF; returns the same dict, mutated."""
        for var, clauses in reversed(self._stack):
            value = False
            for clause in clauses:
                satisfied = False
                forced: Optional[bool] = None
                for lit in clause:
                    v = lit >> 1
                    want = not (lit & 1)
                    if v == var:
                        forced = want
                        continue
                    if model.get(v, False) == want:
                        satisfied = True
                        break
                if not satisfied and forced is not None:
                    value = forced
                    break
            model[var] = value
        return model


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess`.

    ``status`` is ``False`` when preprocessing alone refuted the formula
    (the simplified CNF then contains the empty-clause marker pair),
    ``True`` when it satisfied it outright (no clauses left), ``None``
    when a solver still has work to do.  ``cnf`` preserves the original
    variable numbering — eliminated variables simply no longer occur —
    so solver models map straight through :meth:`Reconstruction.extend`.
    """

    cnf: Cnf
    status: Optional[bool]
    reconstruction: Reconstruction
    stats: PreprocessStats

    def extend_model(self, model: Optional[Dict[int, bool]]) -> Optional[Dict[int, bool]]:
        if model is None:
            return None
        return self.reconstruction.extend(dict(model))


class _Store:
    """Mutable clause database with occurrence lists and signatures.

    Invariants the simplification loops rely on:

    * ``occ[lit]`` holds exactly the indices of the live clauses that
      contain ``lit``, in increasing clause index (clauses are appended,
      and deletion keeps the order of the rest);
    * live clauses are sorted, duplicate-free, non-tautological and have at
      least two literals (units go to ``units``/``assign`` instead);
    * ``units[:propagated]`` have been applied: their variables occur in
      no live clause, so :meth:`propagate_units` never revisits them.
    """

    def __init__(self, n_vars: int, clauses: Iterable[Sequence[int]]) -> None:
        self.n_vars = n_vars
        self.clauses: List[Optional[List[int]]] = []
        self.sigs: List[int] = []
        self.occ: List[List[int]] = [[] for _ in range(2 * (n_vars + 1))]
        self.assign: List[int] = [_UNASSIGNED] * (n_vars + 1)
        self.units: List[int] = []
        self.propagated = 0
        self.unsat = False
        self.touched: Set[int] = set()
        for clause in clauses:
            self.add(list(clause))

    @staticmethod
    def _sig(clause: Sequence[int]) -> int:
        s = 0
        for lit in clause:
            s |= 1 << ((lit >> 1) & 63)
        return s

    def add(self, clause: List[int]) -> Optional[int]:
        clause = sorted(set(clause))
        literals = set(clause)
        if any((lit ^ 1) in literals for lit in clause):
            return None  # tautology
        if not clause:
            self.unsat = True
            return None
        if len(clause) == 1:
            self.push_unit(clause[0])
            return None
        index = len(self.clauses)
        self.clauses.append(clause)
        self.sigs.append(self._sig(clause))
        for lit in clause:
            self.occ[lit].append(index)
        self.touched.add(index)
        return index

    def push_unit(self, lit: int) -> None:
        var = lit >> 1
        value = 1 - (lit & 1)
        current = self.assign[var]
        if current != _UNASSIGNED:
            if current != value:
                self.unsat = True
            return
        self.assign[var] = value
        self.units.append(lit)

    def delete(self, index: int) -> None:
        clause = self.clauses[index]
        if clause is None:
            return
        self.clauses[index] = None
        for lit in clause:
            self.occ[lit].remove(index)

    def strengthen(self, index: int, lit: int) -> None:
        """Remove ``lit`` from clause ``index`` (caller guarantees it's there)."""
        clause = self.clauses[index]
        assert clause is not None
        clause.remove(lit)
        self.occ[lit].remove(index)
        self.sigs[index] = self._sig(clause)
        if len(clause) == 1:
            self.push_unit(clause[0])
            self.delete(index)
        else:
            self.touched.add(index)

    def propagate_units(self) -> None:
        """Apply the root-level units not yet applied to the clause store.

        Clauses a unit satisfies are deleted; its negation is removed from
        the rest.  Sets ``unsat`` on conflict.
        """
        units = self.units
        occ = self.occ
        while self.propagated < len(units) and not self.unsat:
            lit = units[self.propagated]
            self.propagated += 1
            for index in occ[lit][:]:
                self.delete(index)
            for index in occ[lit ^ 1][:]:
                if self.clauses[index] is not None:
                    self.strengthen(index, lit ^ 1)


def _subsumption_round(store: _Store, stats: PreprocessStats) -> bool:
    """One pass of (self-)subsumption over the touched clauses."""
    changed = False
    queue = sorted(store.touched)
    store.touched = set()
    occ = store.occ
    sigs = store.sigs
    limit = OCC_LIMIT
    for index in queue:
        clause = store.clauses[index]
        if clause is None:
            continue
        sig = sigs[index]
        cset = set(clause)
        # Scan through the literal with the fewest occurrences.
        best = min(clause, key=lambda l: len(occ[l]))
        if len(occ[best]) <= limit:
            for other in occ[best][:]:
                if other == index:
                    continue
                cand = store.clauses[other]
                if cand is None or len(cand) < len(clause):
                    continue
                if sig & ~sigs[other]:
                    continue
                if cset.issubset(cand):
                    store.delete(other)
                    stats.subsumed_clauses += 1
                    changed = True
        # Self-subsuming resolution: clause with one literal flipped
        # subsumes `other` → drop the flipped literal from `other`.  The
        # flipped clause's signature is the clause's own: a literal and
        # its negation share a variable bit.
        for lit in clause:
            neg = lit ^ 1
            occ_neg = occ[neg]
            if len(occ_neg) > limit:
                continue
            rest = cset - {lit}
            for other in occ_neg[:]:
                cand = store.clauses[other]
                if cand is None or other == index or len(cand) < len(clause):
                    continue
                if sig & ~sigs[other]:
                    continue
                if rest.issubset(cand):
                    store.strengthen(other, neg)
                    stats.strengthened_literals += 1
                    changed = True
                    if store.unsat:
                        return True
    return changed


def _probe_round(
    store: _Store,
    budget: List[int],
    stats: PreprocessStats,
    clock: Optional[BudgetClock],
) -> bool:
    """Failed-literal probing over binary-clause literals.

    Assumes each candidate literal and unit-propagates by clause
    scanning; a conflict adds the negation as a root fact.  ``budget``
    is a single-element mutable propagation allowance shared across
    rounds.

    Literal values live in one per-literal array (root units included)
    that each probe undoes along its trail.  Propagation visits the
    trail first-in first-out and, per literal, the clauses of
    ``occ[¬lit]`` in increasing index, so the trail, the budget spent and
    the failed literals do not depend on how a clause is evaluated.  The
    occurrence lists are snapshotted once per round, as clause objects:
    root units found mid-round only delete clauses already satisfied at
    the root and drop literals already false at the root, neither of
    which changes any probe's outcome.
    """
    changed = False
    candidates: List[int] = []
    seen: Set[int] = set()
    for clause in store.clauses:
        if clause is None or len(clause) != 2:
            continue
        for lit in clause:
            # Probing ¬lit exercises the binary implication chain.
            probe = lit ^ 1
            if probe not in seen:
                seen.add(probe)
                candidates.append(probe)
    clauses = store.clauses
    occ = [[clauses[i] for i in indices] for indices in store.occ]
    value = [_UNASSIGNED] * len(occ)
    units = store.units
    for unit in units:
        value[unit] = _TRUE
        value[unit ^ 1] = _FALSE
    n_units = len(units)
    for probe in candidates:
        if budget[0] <= 0:
            break
        if clock is not None and clock.over_deadline():
            break
        if value[probe] != _UNASSIGNED:
            continue
        stats.probes += 1
        value[probe] = _TRUE
        value[probe ^ 1] = _FALSE
        trail = [probe]
        left = budget[0]
        conflict = False
        for lit in trail:
            left -= 1
            if left <= 0:
                break
            neg = lit ^ 1
            for clause in occ[neg]:
                size = len(clause)
                if size == 2:
                    unit = clause[1] if clause[0] == neg else clause[0]
                    state = value[unit]
                    if state == _TRUE:
                        continue
                    if state == _FALSE:
                        conflict = True
                        break
                elif size == 3:
                    a, b, c = clause
                    if a == neg:
                        a = c
                    elif b == neg:
                        b = c
                    state_a = value[a]
                    state_b = value[b]
                    if state_a == _TRUE or state_b == _TRUE:
                        continue
                    if state_a == _UNASSIGNED:
                        if state_b == _UNASSIGNED:
                            continue
                        unit = a
                    elif state_b == _UNASSIGNED:
                        unit = b
                    else:
                        conflict = True
                        break
                else:
                    unit = -1
                    for l in clause:
                        state = value[l]
                        if state == _FALSE:
                            continue
                        if state == _TRUE or unit >= 0:
                            unit = -2  # satisfied, or two unassigned
                            break
                        unit = l
                    if unit == -2:
                        continue
                    if unit == -1:
                        conflict = True
                        break
                value[unit] = _TRUE
                value[unit ^ 1] = _FALSE
                trail.append(unit)
            if conflict:
                break
        budget[0] = left
        for lit in trail:
            value[lit] = _UNASSIGNED
            value[lit ^ 1] = _UNASSIGNED
        if conflict:
            store.push_unit(probe ^ 1)
            stats.failed_literals += 1
            store.propagate_units()
            changed = True
            if store.unsat:
                return True
            for unit in units[n_units:]:
                value[unit] = _TRUE
                value[unit ^ 1] = _FALSE
            n_units = len(units)
    return changed


def _eliminate_round(
    store: _Store,
    frozen: Set[int],
    recon: Reconstruction,
    stats: PreprocessStats,
    clock: Optional[BudgetClock],
) -> bool:
    """One bounded-variable-elimination sweep over all candidate vars."""
    changed = False
    occ = store.occ
    clauses = store.clauses
    assign = store.assign
    order = sorted(
        (var for var in range(1, store.n_vars + 1)
         if var not in frozen and assign[var] == _UNASSIGNED),
        key=lambda v: len(occ[2 * v]) * len(occ[2 * v + 1]),
    )
    width = RESOLVENT_MAX
    for var in order:
        if store.unsat:
            return True
        if clock is not None and clock.over_deadline():
            break
        if assign[var] != _UNASSIGNED:
            continue
        pos_lit = 2 * var
        pos = occ[pos_lit][:]
        neg = occ[pos_lit + 1][:]
        if not pos and not neg:
            continue  # variable no longer occurs; nothing to reconstruct
        limit = len(pos) + len(neg)
        if len(pos) * len(neg) > max(limit * 4, 16):
            continue  # resolvent work clearly out of budget
        neg_rests = []
        for ni in neg:
            rest = set(clauses[ni])
            rest.discard(pos_lit + 1)
            neg_rests.append(rest)
        resolvents: List[List[int]] = []
        ok = True
        for pi in pos:
            pos_rest = set(clauses[pi])
            pos_rest.discard(pos_lit)
            flipped = {lit ^ 1 for lit in pos_rest}
            for neg_rest in neg_rests:
                # Each side is tautology-free, so only a literal of one
                # side against its negation on the other can clash.
                if not flipped.isdisjoint(neg_rest):
                    continue  # tautological resolvent
                merged = pos_rest | neg_rest
                if len(merged) > width:
                    ok = False
                    break
                resolvents.append(sorted(merged))
                if len(resolvents) > limit:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        removed = pos + neg
        recon.record(var, [clauses[i] for i in removed])
        for index in removed:
            store.delete(index)
        for resolvent in resolvents:
            store.add(resolvent)
        if store.unsat:
            return True
        store.propagate_units()
        stats.eliminated_vars += 1
        changed = True
    return changed


def preprocess(
    cnf: Cnf,
    frozen: Iterable[int] = (),
    clock: Optional[BudgetClock] = None,
    *,
    eliminate: bool = True,
) -> PreprocessResult:
    """Simplify ``cnf``; returns an equisatisfiable CNF + reconstruction.

    ``frozen`` lists variable numbers that must survive elimination:
    assumption variables, primary inputs needed for counterexamples, and
    any variable the caller will mention in later ``add_clause`` calls.
    The returned CNF keeps the original variable numbering.  ``clock``
    (optional) stops the work early once its deadline has passed.
    ``eliminate=False`` skips variable elimination, for a CNF that will
    keep growing after preprocessing (an incremental session's base).
    """
    frozen_set = {abs(v) for v in frozen}
    stats = PreprocessStats(
        clauses_in=len(cnf.clauses), vars_in=cnf.n_vars
    )
    recon = Reconstruction()
    perf = time.perf_counter
    start = perf()
    with telemetry.span("sat.preprocess", vars=cnf.n_vars, clauses=len(cnf.clauses)):
        store = _Store(
            cnf.n_vars,
            ([_to_internal(l) for l in clause] for clause in cnf.clauses),
        )
        store.propagate_units()
        probe_limit = PROBE_LIMIT
        probe_budget = [probe_limit]

        def stop() -> bool:
            return store.unsat or (clock is not None and clock.over_deadline())

        while not stop() and stats.rounds < MAX_ROUNDS:
            stats.rounds += 1
            t0 = perf()
            changed = _probe_round(store, probe_budget, stats, clock)
            stats.probe_seconds += perf() - t0
            if stop():
                break
            t0 = perf()
            changed |= _subsumption_round(store, stats)
            stats.subsume_seconds += perf() - t0
            if stop():
                break
            if eliminate:
                t0 = perf()
                changed |= _eliminate_round(store, frozen_set, recon, stats, clock)
                stats.bve_seconds += perf() - t0
            if not changed:
                break
        stats.probe_propagations = probe_limit - probe_budget[0]

        if store.unsat:
            status: Optional[bool] = False
            out_clauses = [(1,), (-1,)]
        else:
            out_clauses = []
            for var in range(1, store.n_vars + 1):
                if store.assign[var] == _TRUE:
                    out_clauses.append((var,))
                elif store.assign[var] == _FALSE:
                    out_clauses.append((-var,))
            n_units = len(out_clauses)
            for clause in store.clauses:
                if clause is not None:
                    out_clauses.append(tuple([_to_external(l) for l in clause]))
            # No clauses left: the root units alone satisfy the formula.
            status = True if len(out_clauses) == n_units else None
        out = Cnf(n_vars=cnf.n_vars, clauses=out_clauses)
        stats.units_found = len(store.units)
        stats.clauses_out = len(out_clauses)
        stats.seconds = perf() - start
        telemetry.count("sat.preprocess.eliminated_vars", stats.eliminated_vars)
        telemetry.count("sat.preprocess.subsumed", stats.subsumed_clauses)
        telemetry.count("sat.preprocess.strengthened", stats.strengthened_literals)
        telemetry.count("sat.preprocess.failed_literals", stats.failed_literals)
        telemetry.count("sat.preprocess.probes", stats.probes)
        telemetry.count("sat.preprocess.probe_propagations", stats.probe_propagations)
        telemetry.count("sat.preprocess.seconds", stats.seconds)
        telemetry.count("sat.preprocess.probe_seconds", stats.probe_seconds)
        telemetry.count("sat.preprocess.subsume_seconds", stats.subsume_seconds)
        telemetry.count("sat.preprocess.bve_seconds", stats.bve_seconds)
    return PreprocessResult(cnf=out, status=status, reconstruction=recon, stats=stats)


def preprocess_for_solve(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    frozen: Iterable[int] = (),
) -> PreprocessResult:
    """Preprocess with ``assumptions`` baked in as unit clauses.

    The per-obligation entry point: asserting the obligation's literals
    before simplification lets BVE prune everything outside the tested
    cone.  The resulting CNF is specific to these assumptions — solve it
    without re-passing them.
    """
    work = Cnf()
    for _ in range(cnf.n_vars):
        work.new_var()
    for clause in cnf.clauses:
        work.add_clause(list(clause))
    for lit in assumptions:
        work.add_clause([lit])
    merged_frozen = set(frozen) | {abs(l) for l in assumptions}
    return preprocess(work, frozen=merged_frozen)
