"""A CDCL SAT solver (conflict-driven clause learning), from scratch.

Implements the standard modern architecture: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning and
recursive learned-clause minimization, VSIDS-style activity-based
branching with decay (served from a lazy max-heap), phase saving,
non-chronological backjumping, Luby-sequence restarts and activity-based
learned-clause database reduction.  It is a real solver — complete and
sound — sized for the miter instances produced by the combinational
equivalence checker on circuits of a few thousand gates.

The solver is *incremental*: after construction it accepts new variables
(:meth:`CdclSolver.new_var`) and clauses (:meth:`CdclSolver.add_clause`)
and can be re-solved any number of times under different assumptions
without re-reading the CNF.  Learned clauses and variable activities
persist across :meth:`CdclSolver.solve` calls, which is what the
incremental equivalence session (:mod:`repro.sat.incremental`) builds
on: it loads the base encoding once per copy, adds the copy's delta,
and asks many assumption queries of the same solver — first its sweep's
internal-equivalence proofs, then any output obligations left, which
reuse the lemmas the earlier solves learned.

There is one search path.  Watch lists are flat interleaved arrays
with blocker literals and a dedicated binary-clause tier; learned-clause
minimization and phase saving are always on; the restart base and the
two activity decays are the module constants :data:`RESTART_BASE`,
:data:`VAR_DECAY` and :data:`CLA_DECAY`.  A cone-bounded solve
(``solve(inputs=...)``, used by the session's sweep) changes only which
variables it branches on and when it answers SAT.  The SAT trajectory
pin (``tests/golden/sat_trajectory.json``) fixes the search itself:
every counter and model digest of a set of recorded call logs.

Internal literal encoding: variable ``v`` (1-based) maps to literals
``2*v`` (positive) and ``2*v + 1`` (negative); ``lit ^ 1`` negates.
Assignments live twice: per variable in ``_assign`` (1, 0, or -1 for
unassigned) and per literal in ``_val`` (``_val[lit]`` is 1 when ``lit``
is true, 0 when false, -1 when unassigned), so the inner loop tests a
literal with one index and no arithmetic.

Branching is served from a lazy VSIDS max-heap whose invariant is: every
unassigned variable has exactly one *live* entry ``(-activity, var)``,
and ``_heap_act[var]`` records the activity of the variable's newest entry
still in the heap.  A variable is pushed only when its activity differs
from that record (it was bumped, or its entry was popped while it was
assigned), and the heap is rebuilt from the unassigned variables once it
holds more than ``2 * (n_vars + 1)`` entries, so its size stays bounded
however many solves a persistent solver serves.  The branch variable is
the unassigned variable of highest activity, lowest index on ties.

Exception contract: an exception escaping :meth:`CdclSolver.solve` (a
``KeyboardInterrupt``, a signal-driven timeout) can land anywhere, even
mid watch-list compaction, so the solver marks itself unusable.  Every
later ``solve`` / ``add_clause`` / ``new_var`` raises
:class:`SolverAbortedError`; build a fresh solver.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..budget import Budget, UNLIMITED
from ..errors import ReproError
from ..telemetry.metrics import safe_rate
from .cnf import Cnf

_UNASSIGNED = -1


class SolverAbortedError(ReproError, RuntimeError):
    """The solver was used after an exception escaped one of its solves.

    The aborted solve may have left partial state (decision levels, a
    half-compacted watch list), so the solver refuses further work rather
    than answer from it.  Build a new solver from the formula.
    """


def _to_internal(lit: int) -> int:
    var = abs(lit)
    return 2 * var + (1 if lit < 0 else 0)


#: Conflicts before the first restart; the Luby sequence scales later
#: restart intervals from this base.
RESTART_BASE = 100
#: VSIDS variable-activity decay factor.
VAR_DECAY = 0.95
#: Learned-clause activity decay factor.
CLA_DECAY = 0.999


@dataclass
class SolverStats:
    """Counters exposed for benchmarks and tests.

    All counters accumulate over the solver's lifetime (across repeated
    :meth:`CdclSolver.solve` calls on a persistent solver), so incremental
    sessions report total work.  ``watch_visits`` counts watch-list clause
    visits during propagation (the solver's true inner loop);
    ``learned_deleted`` counts clauses discarded by database reduction;
    ``minimized_literals`` counts literals removed from learned clauses by
    recursive minimization; ``solve_seconds`` is total wall-clock time
    spent inside ``solve``.  The ``*_seconds`` phase timers fill only on
    a solver built with ``profile=True``.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    watch_visits: int = 0
    learned_deleted: int = 0
    minimized_literals: int = 0
    solve_seconds: float = 0.0
    propagate_seconds: float = 0.0
    analyze_seconds: float = 0.0
    decide_seconds: float = 0.0
    reduce_seconds: float = 0.0

    _SUM_FIELDS = (
        "decisions",
        "propagations",
        "conflicts",
        "learned",
        "restarts",
        "watch_visits",
        "learned_deleted",
        "minimized_literals",
        "solve_seconds",
        "propagate_seconds",
        "analyze_seconds",
        "decide_seconds",
        "reduce_seconds",
    )

    @property
    def propagations_per_sec(self) -> float:
        """Propagation throughput over the accumulated solve time.

        Routed through :func:`repro.telemetry.safe_rate`, so an instant
        solve on a coarse clock (``solve_seconds == 0``) reports 0.0
        instead of raising ``ZeroDivisionError``.  Derived from the raw
        counters on every read, never stored.
        """
        return safe_rate(self.propagations, self.solve_seconds)

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot including the derived throughput."""
        payload: Dict[str, float] = {
            name: getattr(self, name) for name in self._SUM_FIELDS
        }
        payload["max_decision_level"] = self.max_decision_level
        payload["propagations_per_sec"] = self.propagations_per_sec
        return payload


class SatStatus(enum.Enum):
    """Three-valued solver verdict."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # resource budget exhausted before a proof


class SatResult:
    """Outcome of :meth:`CdclSolver.solve`.

    ``status`` is three-valued: :data:`SatStatus.UNKNOWN` means the solver
    ran out of budget (see :class:`repro.budget.Budget`) before reaching a
    verdict; ``reason`` then records which limit was hit.  The historical
    boolean interface (``satisfiable`` / truthiness) maps UNKNOWN to
    ``False`` — no model is claimed — so pre-budget callers stay correct.
    """

    def __init__(
        self,
        status: Union[SatStatus, bool],
        model: Optional[Dict[int, bool]],
        stats: SolverStats,
        reason: Optional[str] = None,
    ):
        if isinstance(status, bool):
            status = SatStatus.SAT if status else SatStatus.UNSAT
        self.status = status
        self.model = model
        self.stats = stats
        self.reason = reason

    @property
    def satisfiable(self) -> bool:
        """True only for a proven SAT verdict (with model)."""
        return self.status is SatStatus.SAT

    @property
    def unknown(self) -> bool:
        """True when the budget ran out before a verdict."""
        return self.status is SatStatus.UNKNOWN

    def __bool__(self) -> bool:
        return self.status is SatStatus.SAT

    def value(self, var: int) -> bool:
        """Model value of ``var``; only valid when satisfiable.

        A variable absent from the model (e.g. allocated after the clauses
        were read, so the solver never saw it constrained) defaults to
        ``False`` — any completion of the model satisfies the formula.
        """
        if self.model is None:
            raise ValueError(f"no model: solver status is {self.status.value}")
        return self.model.get(var, False)


def _luby(x: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """An incremental CDCL solver over one growing clause database.

    Construct from a :class:`~repro.sat.cnf.Cnf` (or empty), then freely
    interleave :meth:`new_var` / :meth:`add_clause` with :meth:`solve`
    calls under assumptions.  State that persists between solves: the
    clause database (original + learned), variable activities and saved
    phases, and all root-level (decision level 0) implied assignments.

    ``profile=True`` accumulates per-phase wall-clock time
    (propagate/analyze/decide/reduce) into :class:`SolverStats`.  It is
    off by default: the timers cost two clock reads per loop iteration,
    and they change no search decision.
    """

    def __init__(self, cnf: Optional[Cnf] = None, profile: bool = False) -> None:
        self._profile = profile
        self.n_vars = cnf.n_vars if cnf is not None else 0
        self.stats = SolverStats()

        size = 2 * (self.n_vars + 1)
        self._clauses: List[List[int]] = []
        #: Parallel to ``_clauses``: True for learned (redundant) clauses.
        self._learned_mask: List[bool] = []
        #: Parallel to ``_clauses``: activity for DB-reduction ranking.
        self._clause_act: List[float] = []
        #: Interleaved ``[blocker, clause, ...]`` per literal for clauses
        #: of 3+ literals.
        self._watches: List[List[int]] = [[] for _ in range(size)]
        #: Interleaved ``[other_lit, clause, ...]`` per literal for binary
        #: clauses — propagated without dereferencing the clause object.
        self._bin_watches: List[List[int]] = [[] for _ in range(size)]
        self._assign: List[int] = [_UNASSIGNED] * (self.n_vars + 1)
        #: Per-literal truth value: 1 true, 0 false, -1 unassigned.
        self._val: List[int] = [_UNASSIGNED] * size
        self._level: List[int] = [0] * (self.n_vars + 1)
        self._reason: List[Optional[int]] = [None] * (self.n_vars + 1)
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: List[float] = [0.0] * (self.n_vars + 1)
        self._phase: List[bool] = [False] * (self.n_vars + 1)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._trivially_unsat = False
        #: Set when an exception escaped a solve; see SolverAbortedError.
        self._aborted = False
        #: Lazy VSIDS max-heap of ``(-activity_at_push, var)`` entries.
        #: Stale entries (activity changed since, or var assigned) are
        #: skipped at pop time.  Invariant: every unassigned variable has
        #: one live entry, whose activity ``_heap_act`` records (-1.0 when
        #: the variable has no entry left); a variable is pushed only when
        #: its activity differs from that record.  Bound: more than
        #: ``2 * (n_vars + 1)`` entries triggers a rebuild from the
        #: unassigned variables (see ``_rebuild_heap``).
        self._heap: List[Tuple[float, int]] = [
            (0.0, var) for var in range(1, self.n_vars + 1)
        ]
        self._heap_act: List[float] = [0.0] * (self.n_vars + 1)
        #: Conflict-analysis marks, all False between analyses.
        self._seen: List[bool] = [False] * (self.n_vars + 1)
        #: Learned clauses currently in the database (not yet deleted).
        self._n_learned_live = 0
        #: DB reduction fires when live learned clauses exceed this.
        self._reduce_limit = 2000

        if cnf is not None:
            seen_units: List[int] = []
            for clause in cnf.clauses:
                internal = [_to_internal(l) for l in dict.fromkeys(clause)]
                if self._tautological(internal):
                    continue
                if len(internal) == 1:
                    seen_units.append(internal[0])
                else:
                    self._add_clause(internal)
            self._reduce_limit = max(2000, len(self._clauses) // 3)
            for lit in seen_units:
                if not self._enqueue(lit, None):
                    self._trivially_unsat = True
                    return

    @staticmethod
    def _tautological(clause: Sequence[int]) -> bool:
        literals = set(clause)
        return any((lit ^ 1) in literals for lit in literals)

    # ------------------------------------------------------------------ #
    # incremental interface
    # ------------------------------------------------------------------ #

    @property
    def usable(self) -> bool:
        """False once an exception escaped a solve (see SolverAbortedError)."""
        return not self._aborted

    def _check_usable(self) -> None:
        if self._aborted:
            raise SolverAbortedError(
                "solver state is undefined after an aborted solve()",
                stage="sat",
            )

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self._check_usable()
        self.n_vars += 1
        var = self.n_vars
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        self._assign.append(_UNASSIGNED)
        self._val.append(_UNASSIGNED)
        self._val.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._heap_act.append(0.0)
        self._seen.append(False)
        heapq.heappush(self._heap, (-0.0, var))
        return var

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one clause (DIMACS literals) to the live database.

        Must be called between solves (the solver is at decision level 0
        then; :meth:`solve` always returns there).  The clause is
        simplified against root-level assignments: root-satisfied clauses
        are dropped, root-falsified literals removed.  Returns ``False``
        when the addition makes the formula trivially UNSAT (the solver
        stays usable and will answer UNSAT), ``True`` otherwise.
        """
        self._check_usable()
        if self._trail_lim:
            raise ValueError("add_clause requires decision level 0")
        internal = []
        for lit in dict.fromkeys(literals):
            var = abs(lit)
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if var > self.n_vars:
                raise ValueError(f"literal {lit} references unallocated variable")
            internal.append(_to_internal(lit))
        if self._tautological(internal):
            return True
        simplified: List[int] = []
        for lit in internal:
            value = self._val[lit]
            if value == 1:
                return True  # satisfied at the root level forever
            if value == 0:
                continue  # falsified at the root level forever
            simplified.append(lit)
        if not simplified:
            self._trivially_unsat = True
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._trivially_unsat = True
                return False
            return True
        self._add_clause(simplified)
        return True

    # ------------------------------------------------------------------ #
    # clause / assignment plumbing
    # ------------------------------------------------------------------ #

    def _add_clause(self, literals: List[int], learned: bool = False) -> int:
        index = len(self._clauses)
        self._clauses.append(literals)
        self._learned_mask.append(learned)
        self._clause_act.append(self._cla_inc if learned else 0.0)
        self._watch_clause(index, literals)
        if learned:
            self._n_learned_live += 1
        return index

    def _watch_clause(self, index: int, literals: List[int]) -> None:
        watches = self._bin_watches if len(literals) == 2 else self._watches
        a, b = literals[0], literals[1]
        watches[a].append(b)
        watches[a].append(index)
        watches[b].append(a)
        watches[b].append(index)

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._val
        value = val[lit]
        if value != _UNASSIGNED:
            return value == 1
        var = lit >> 1
        self._assign[var] = (lit & 1) ^ 1
        val[lit] = 1
        val[lit ^ 1] = 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #

    def _propagate(self, head: int) -> Tuple[Optional[int], int]:
        """Unit propagation over the flat interleaved watch arrays.

        Binary clauses propagate straight from their ``(other, clause)``
        pairs; longer clauses check the interleaved blocker literal first
        and touch the clause object only when the blocker is not already
        true.  Returns (conflicting clause index or None, head).

        The hottest loop of the solver: enqueueing and literal tests are
        inlined over ``_val``, and the counters live in locals that are
        written back once on every return.
        """
        trail = self._trail
        if head >= len(trail):
            return None, head
        assign = self._assign
        val = self._val
        level = self._level
        reason = self._reason
        clauses = self._clauses
        watches = self._watches
        bin_watches = self._bin_watches
        push = trail.append
        depth = len(self._trail_lim)
        props = visits = 0
        conflict: Optional[int] = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            props += 1
            false_lit = lit ^ 1

            blist = bin_watches[false_lit]
            n = len(blist)
            if n:
                visits += n >> 1
                for i in range(0, n, 2):
                    other = blist[i]
                    value = val[other]
                    if value == -1:
                        var = other >> 1
                        assign[var] = (other & 1) ^ 1
                        val[other] = 1
                        val[other ^ 1] = 0
                        level[var] = depth
                        reason[var] = blist[i + 1]
                        push(other)
                    elif value == 0:
                        conflict = blist[i + 1]
                        break
                if conflict is not None:
                    break

            watch_list = watches[false_lit]
            n = len(watch_list)
            if not n:
                continue
            visits += n >> 1
            j = 0
            for i in range(0, n, 2):
                blocker = watch_list[i]
                if val[blocker] == 1:
                    # Blocker literal is true; clause satisfied untouched.
                    if i != j:
                        watch_list[j] = blocker
                        watch_list[j + 1] = watch_list[i + 1]
                    j += 2
                    continue
                clause_index = watch_list[i + 1]
                clause = clauses[clause_index]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = val[first]
                if first_value == 1:
                    watch_list[j] = first
                    watch_list[j + 1] = clause_index
                    j += 2
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if val[other] != 0:
                        clause[k] = clause[1]
                        clause[1] = other
                        new_list = watches[other]
                        new_list.append(first)
                        new_list.append(clause_index)
                        break
                else:
                    if first_value == 0:
                        conflict = clause_index
                        # Keep the unprocessed tail (including this entry).
                        watch_list[j:] = watch_list[i:]
                        break
                    var = first >> 1
                    assign[var] = (first & 1) ^ 1
                    val[first] = 1
                    val[first ^ 1] = 0
                    level[var] = depth
                    reason[var] = clause_index
                    push(first)
                    watch_list[j] = first
                    watch_list[j + 1] = clause_index
                    j += 2
            if conflict is not None:
                break
            if j != n:
                del watch_list[j:]
        stats = self.stats
        stats.propagations += props
        stats.watch_visits += visits
        return conflict, head

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #

    def _rescale_activity(self) -> None:
        """Scale every activity down by 1e-100 (they near float range)."""
        activity = self._activity
        for v in range(1, self.n_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        # Every heap entry is stale after a rescale; rebuild in bulk.
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity."""
        activity = self._activity
        assign = self._assign
        heap_act = self._heap_act
        heap: List[Tuple[float, int]] = []
        for v in range(1, self.n_vars + 1):
            if assign[v] == _UNASSIGNED:
                heap_act[v] = activity[v]
                heap.append((-activity[v], v))
            else:
                heap_act[v] = -1.0
        heapq.heapify(heap)
        self._heap = heap

    def _cla_bump(self, index: int) -> None:
        if not self._learned_mask[index]:
            return
        self._clause_act[index] += self._cla_inc
        if self._clause_act[index] > 1e20:
            for i in range(len(self._clause_act)):
                if self._learned_mask[i]:
                    self._clause_act[i] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP learning plus minimization; returns (learned clause,
        backjump level).

        Every variable reached here is assigned (its literal is false in
        the conflict or a reason clause), so bumping its activity never
        pushes a heap entry; the backjump that unassigns it does.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        var_inc = self._var_inc
        counter = 0
        pivot = -1  # the literal asserted by the current reason clause
        self._cla_bump(conflict)
        clause = self._clauses[conflict]
        index = len(trail)
        current_level = len(self._trail_lim)

        while True:
            for l in clause:
                if l == pivot:
                    continue
                var = l >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                activity[var] += var_inc
                if activity[var] > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(l)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                trail_lit = trail[index]
                if seen[trail_lit >> 1]:
                    break
            pivot = trail_lit
            counter -= 1
            seen[trail_lit >> 1] = False
            if counter == 0:
                break
            reason = self._reason[trail_lit >> 1]
            self._cla_bump(reason)
            clause = self._clauses[reason]
        learned[0] = pivot ^ 1

        marked = learned
        if len(learned) > 2:
            learned = self._minimize_learned(learned, seen)
        for l in marked:
            seen[l >> 1] = False
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        back_level = max(level[l >> 1] for l in learned[1:])
        # Move one literal of back_level into watch position 1.
        for k in range(1, len(learned)):
            if level[learned[k] >> 1] == back_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back_level

    def _minimize_learned(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Recursive learned-clause minimization (MiniSat's litRedundant).

        A non-UIP literal is dropped when its negation is implied by the
        remaining clause literals through the implication graph — i.e.
        every path from it upward terminates in level-0 facts or literals
        already in the clause.  ``seen`` arrives marking exactly the
        clause's non-UIP variables and is extended with proven-redundant
        variables so later checks reuse earlier proofs; those extra marks
        are cleared again before returning.
        """
        toclear: List[int] = []
        kept = [learned[0]]
        removed = 0
        for lit in learned[1:]:
            if self._reason[lit >> 1] is None or not self._lit_redundant(
                lit, seen, toclear
            ):
                kept.append(lit)
            else:
                removed += 1
        for var in toclear:
            seen[var] = False
        self.stats.minimized_literals += removed
        return kept

    def _lit_redundant(
        self, lit: int, seen: List[bool], toclear: List[int]
    ) -> bool:
        stack = [lit]
        top = len(toclear)
        while stack:
            p = stack.pop()
            clause = self._clauses[self._reason[p >> 1]]
            p_var = p >> 1
            for q in clause:
                var = q >> 1
                if var == p_var or seen[var] or self._level[var] == 0:
                    continue
                if self._reason[var] is None:
                    # Reached a decision outside the clause: not redundant.
                    for u in toclear[top:]:
                        seen[u] = False
                    del toclear[top:]
                    return False
                seen[var] = True
                stack.append(q)
                toclear.append(var)
        return True

    def _backjump(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        limit = trail_lim[level]
        undone = trail[limit:]
        del trail[limit:]
        del trail_lim[level:]
        assign = self._assign
        val = self._val
        reason = self._reason
        phase = self._phase
        activity = self._activity
        heap = self._heap
        heap_act = self._heap_act
        push = heapq.heappush
        for lit in undone:
            var = lit >> 1
            phase[var] = not lit & 1
            assign[var] = _UNASSIGNED
            val[lit] = _UNASSIGNED
            val[lit ^ 1] = _UNASSIGNED
            reason[var] = None
            act = activity[var]
            if heap_act[var] != act:
                heap_act[var] = act
                push(heap, (-act, var))
        if len(heap) > 2 * (self.n_vars + 1):
            self._rebuild_heap()

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        assign = self._assign
        activity = self._activity
        heap_act = self._heap_act
        while heap:
            neg_act, var = heap[0]
            if assign[var] != _UNASSIGNED or -neg_act != activity[var]:
                heapq.heappop(heap)  # stale entry
                if heap_act[var] == -neg_act:
                    heap_act[var] = -1.0  # it was the variable's newest
                continue
            return 2 * var + (0 if self._phase[var] else 1)
        # Empty heap: the invariant says every variable is assigned.  A
        # rebuild is one scan per model and guards against a lost entry.
        self._rebuild_heap()
        if self._heap:
            return self._pick_branch()
        return None

    def _pick_input(self, inputs: List[int], cursor: int) -> Tuple[Optional[int], int]:
        """The first unassigned variable of ``inputs`` at or after
        ``cursor``, in its saved phase; ``None`` when all are assigned."""
        assign = self._assign
        while cursor < len(inputs):
            var = inputs[cursor]
            if assign[var] == _UNASSIGNED:
                return 2 * var + (0 if self._phase[var] else 1), cursor
            cursor += 1
        return None, cursor

    # ------------------------------------------------------------------ #
    # learned-clause database reduction
    # ------------------------------------------------------------------ #

    def _maybe_reduce_db(self) -> None:
        if self._n_learned_live > self._reduce_limit:
            self._reduce_db()

    def _reduce_db(self) -> None:
        """Discard the low-activity half of the deletable learned clauses.

        Locked clauses (reasons of current assignments) and binary learned
        clauses are kept.  Clause indices are compacted and the watch lists
        and reason pointers rebuilt — called only at restart points, with
        no pending propagation.
        """
        locked = {r for r in self._reason if r is not None}
        deletable = [
            i
            for i in range(len(self._clauses))
            if self._learned_mask[i] and i not in locked and len(self._clauses[i]) > 2
        ]
        deletable.sort(key=lambda i: self._clause_act[i])
        drop = set(deletable[: len(deletable) // 2])
        if not drop:
            self._reduce_limit = int(self._reduce_limit * 1.5)
            return
        remap: Dict[int, int] = {}
        clauses: List[List[int]] = []
        learned_mask: List[bool] = []
        clause_act: List[float] = []
        for i, clause in enumerate(self._clauses):
            if i in drop:
                continue
            remap[i] = len(clauses)
            clauses.append(clause)
            learned_mask.append(self._learned_mask[i])
            clause_act.append(self._clause_act[i])
        self._clauses = clauses
        self._learned_mask = learned_mask
        self._clause_act = clause_act
        size = 2 * (self.n_vars + 1)
        self._watches = [[] for _ in range(size)]
        self._bin_watches = [[] for _ in range(size)]
        for index, clause in enumerate(clauses):
            self._watch_clause(index, clause)
        self._reason = [
            None if r is None else remap[r] for r in self._reason
        ]
        self.stats.learned_deleted += len(drop)
        self._n_learned_live -= len(drop)
        self._reduce_limit = int(self._reduce_limit * 1.2)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def solve(
        self,
        assumptions: Sequence[int] = (),
        budget: Optional[Budget] = None,
        *,
        inputs: Optional[Sequence[int]] = None,
    ) -> SatResult:
        """Solve, optionally under external (DIMACS-signed) assumptions.

        ``budget`` bounds *this call*: limits compare against the
        conflicts/decisions spent since the call began (not lifetime
        totals), so a persistent solver can be re-solved under the same
        budget repeatedly.  When any limit (wall clock, conflicts,
        decisions) is hit, the solver stops and returns a
        :data:`SatStatus.UNKNOWN` result whose ``reason`` names the spent
        limit — it never raises and never runs unbounded.  The solver
        always returns at decision level 0, ready for the next
        :meth:`add_clause` / :meth:`solve`.  If an exception escapes
        instead (a signal-driven timeout, ``KeyboardInterrupt``), it
        propagates and the solver becomes unusable: later calls raise
        :class:`SolverAbortedError`.

        ``inputs`` bounds the search to a circuit cone, for formulas that
        Tseitin-encode a circuit (:mod:`repro.sat.tseitin`) plus
        activation clauses ``(-d, v)`` on the assumptions.  It lists the
        primary-input variables in the fanin cones of every variable the
        assumptions constrain.  The solver then branches only on those
        variables, in the given order, and answers SAT as soon as they
        are all assigned without conflict; the model covers only them.
        That is sound because every other variable is a Tseitin gate
        output (or a gate's auxiliary) or an activation variable, so any
        cone assignment extends to a full model: simulate the gates
        outside the cone and set the unassumed activation variables
        false.  Unit propagation from the cone's inputs evaluates every
        gate of the cone, so a conflict-free fixpoint agrees with that
        model.  Solves without ``inputs`` run unchanged.
        """
        self._check_usable()
        if inputs is not None:
            inputs = list(inputs)
            for var in inputs:
                if not 0 < var <= self.n_vars:
                    raise ValueError(f"input variable {var} is not allocated")
        stats = self.stats
        conflicts0 = stats.conflicts
        propagations0 = stats.propagations
        start = time.perf_counter()
        with telemetry.span("sat.solve", vars=self.n_vars) as solve_span:
            try:
                result = self._solve(assumptions, budget, inputs)
            except BaseException:
                self._aborted = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stats.solve_seconds += elapsed
                telemetry.count("sat.solves")
                telemetry.count("sat.conflicts", stats.conflicts - conflicts0)
                telemetry.count(
                    "sat.propagations", stats.propagations - propagations0
                )
                telemetry.count("sat.solve_seconds", elapsed)
                telemetry.observe("sat.solve_seconds_hist", elapsed)
            solve_span.set(
                status=result.status.value,
                conflicts=stats.conflicts - conflicts0,
            )
            return result

    def _solve(
        self,
        assumptions: Sequence[int],
        budget: Optional[Budget],
        inputs: Optional[List[int]],
    ) -> SatResult:
        clock = (budget if budget is not None else UNLIMITED).start()
        limited = not clock.budget.unlimited
        profile = self._profile
        perf = time.perf_counter
        stats = self.stats
        conflicts_base = stats.conflicts
        decisions_base = stats.decisions
        if self._trivially_unsat:
            return SatResult(False, None, stats)
        head = 0
        conflict, head = self._propagate(head)
        if conflict is not None:
            self._trivially_unsat = True  # root-level conflict is permanent
            return SatResult(False, None, stats)

        for external in assumptions:
            lit = _to_internal(external)
            if self._val[lit] == 1:
                continue
            if self._val[lit] == 0:
                self._backjump(0)
                return SatResult(False, None, stats)
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)
            conflict, head = self._propagate(head)
            if conflict is not None:
                self._backjump(0)
                return SatResult(False, None, stats)
        assumption_level = self._decision_level()

        conflicts_since_restart = 0
        restart_base = RESTART_BASE
        restart_limit = restart_base * _luby(stats.restarts)
        # Cone-bounded solves: every ``inputs`` entry before ``cursor`` is
        # assigned (each backjump resets it).
        cursor = 0

        while True:
            if profile:
                t0 = perf()
                conflict, head = self._propagate(head)
                stats.propagate_seconds += perf() - t0
            else:
                conflict, head = self._propagate(head)
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                self._cla_inc /= CLA_DECAY
                if limited:
                    reason = clock.exhausted_reason(
                        stats.conflicts - conflicts_base,
                        stats.decisions - decisions_base,
                    )
                    if reason is not None:
                        self._backjump(0)
                        return SatResult(
                            SatStatus.UNKNOWN, None, stats, reason
                        )
                if self._decision_level() <= assumption_level:
                    if self._decision_level() == 0:
                        self._trivially_unsat = True
                    self._backjump(0)
                    return SatResult(False, None, stats)
                if profile:
                    t0 = perf()
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, assumption_level)
                self._backjump(back_level)
                cursor = 0
                if profile:
                    stats.analyze_seconds += perf() - t0
                head = len(self._trail)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._trivially_unsat = True
                        self._backjump(0)
                        return SatResult(False, None, stats)
                else:
                    index = self._add_clause(learned, learned=True)
                    stats.learned += 1
                    self._enqueue(learned[0], index)
                self._var_inc /= VAR_DECAY
                continue
            if conflicts_since_restart >= restart_limit:
                stats.restarts += 1
                conflicts_since_restart = 0
                restart_limit = restart_base * _luby(stats.restarts)
                self._backjump(assumption_level)
                cursor = 0
                head = len(self._trail)
                if profile:
                    t0 = perf()
                    self._maybe_reduce_db()
                    stats.reduce_seconds += perf() - t0
                else:
                    self._maybe_reduce_db()
                continue
            if limited:
                reason = clock.exhausted_reason(
                    stats.conflicts - conflicts_base,
                    stats.decisions - decisions_base,
                )
                if reason is not None:
                    self._backjump(0)
                    return SatResult(SatStatus.UNKNOWN, None, stats, reason)
            if profile:
                t0 = perf()
            if inputs is None:
                lit = self._pick_branch()
            else:
                lit, cursor = self._pick_input(inputs, cursor)
            if profile:
                stats.decide_seconds += perf() - t0
            if lit is None:
                model = {
                    var: bool(self._assign[var])
                    for var in (range(1, self.n_vars + 1) if inputs is None else inputs)
                }
                self._backjump(0)
                return SatResult(True, model, stats)
            stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            stats.max_decision_level = max(
                stats.max_decision_level, self._decision_level()
            )
            self._enqueue(lit, None)


def solve_cnf(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    budget: Optional[Budget] = None,
) -> SatResult:
    """Convenience wrapper: build a solver and run it once."""
    return CdclSolver(cnf).solve(assumptions, budget=budget)
