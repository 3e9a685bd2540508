"""Fingerprint modification catalogue (paper §III.C, Figs. 4 and 5).

A *slot* is one gate inside a fingerprint location's fanout-free cone that
can absorb an ODC trigger literal; each slot offers several mutually
exclusive *variants* (which literal(s) to add and, for single-input gates,
which widened gate kind realizes the absorption).  Leaving a slot
unmodified is configuration 0, so a slot with ``m`` variants contributes
``log2(m + 1)`` fingerprint bits.

Correctness rule (generic form of the paper's lookup table): let the
primary gate P have controlling value ``c`` and let ``X`` be the trigger
input.  When ``X != c`` the cone's value must be preserved, so every added
literal must evaluate to the *identity* value of the (widened) target gate
kind; when ``X == c`` the target may change freely because P blocks the
cone (the ODC is active).  The polarity of each added literal is chosen to
satisfy exactly that.

* Direct variant (Fig. 4): add ``X`` (or ``X'``) to the target.
* Reroute variants (Fig. 5): when ``X`` is produced by a gate T whose
  controlled output equals ``c``, any input ``w`` of T at T's controlling
  value already forces ``X == c``; when ``X != c`` no input of T is
  controlling, so literals derived from one or two of T's inputs are
  identity exactly when they must be.  With ``n`` trigger-gate inputs this
  yields the paper's ``n`` single plus ``n(n-1)/2`` pair variants —
  ``n(n+1)/2`` total.  T being an inverter/buffer is handled as the
  degenerate single-input case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cells import functions
from ..cells.library import CellLibrary
from ..netlist.circuit import Circuit, Gate

#: Most two-literal reroute variants emitted per widened gate kind.
MAX_PAIR_VARIANTS = 6

#: Single-input kinds and the widened kinds that can absorb a literal.
#: ``INV(a) == NAND2(a, 1) == NOR2(a, 0)``; ``BUF(a) == AND2(a, 1) == OR2(a, 0)``.
_UNARY_WIDENINGS = {
    "INV": ("NAND", "NOR"),
    "BUF": ("AND", "OR"),
}


@dataclass(frozen=True)
class Literal:
    """A (possibly complemented) reference to an existing net."""

    net: str
    positive: bool

    def __str__(self) -> str:
        return self.net if self.positive else f"{self.net}'"


@dataclass(frozen=True)
class Variant:
    """One concrete way to modify a slot's target gate.

    ``kind`` is the gate kind after modification (differs from the target's
    original kind only for single-input targets).  ``literals`` are the
    inputs appended to the gate.  ``source`` tags the mechanism for reports
    ("direct", "reroute1", "reroute2").
    """

    kind: str
    literals: Tuple[Literal, ...]
    source: str

    def signature(self) -> Tuple:
        """Hashable identity over the literal *intent* (net, polarity)."""
        return (
            self.kind,
            tuple(sorted((l.net, l.positive) for l in self.literals)),
        )


def inverter_index(
    circuit: Circuit, excluded: Optional[frozenset] = None
) -> Dict[str, str]:
    """Map net -> name of an existing inverter of that net.

    Deterministic "first eligible wins" over the circuit's gate insertion
    order.  ``excluded`` names inverters that must not be reused — in the
    fingerprinting flow these are the catalog's slot targets: a reused
    inverter's output feeds other modifications' literals, so the gate
    itself must stay untouched (widening it would corrupt every literal
    that references it).
    """
    index: Dict[str, str] = {}
    for gate in circuit.gates:
        if gate.kind != "INV" or gate.inputs[0] in index:
            continue
        if excluded is not None and gate.name in excluded:
            continue
        index[gate.inputs[0]] = gate.name
    return index


def realized_literal_key(
    circuit: Circuit,
    literal: Literal,
    inverters: Optional[Dict[str, str]] = None,
) -> Tuple[str, str]:
    """The physical realization of one literal in ``circuit``.

    A positive literal is the net itself.  A complemented literal reuses
    an existing inverter of the net when the design has one (see
    :class:`~repro.fingerprint.embed.FingerprintedCircuit`), otherwise a
    fresh inverter is minted.  Two literals with the same realized key
    produce byte-identical netlist edits.
    """
    if literal.positive:
        return ("net", literal.net)
    if inverters is None:
        inverters = inverter_index(circuit)
    existing = inverters.get(literal.net)
    if existing is not None:
        return ("net", existing)
    return ("inv", literal.net)


def realized_signature(
    circuit: Circuit,
    variant: Variant,
    inverters: Optional[Dict[str, str]] = None,
) -> Tuple:
    """Hashable identity of the variant's *structural* outcome."""
    if inverters is None:
        inverters = inverter_index(circuit)
    return (
        variant.kind,
        tuple(
            sorted(
                realized_literal_key(circuit, l, inverters)
                for l in variant.literals
            )
        ),
    )


@dataclass(frozen=True)
class Slot:
    """A modifiable gate within one fingerprint location."""

    location_id: int
    primary: str
    target: str
    target_kind: str
    trigger: str
    trigger_value: int
    variants: Tuple[Variant, ...]

    @property
    def n_configs(self) -> int:
        """Number of configurations including "unmodified"."""
        return len(self.variants) + 1


def _literal_polarity(inactive_value: int, widened_kind: str) -> Optional[bool]:
    """Polarity so the literal equals the identity value when inactive.

    ``inactive_value`` is what the literal's source net holds whenever the
    ODC is *not* guaranteed active; the literal must then equal the widened
    kind's identity element.  Returns True for the plain net, False for its
    complement, or None when the kind has no identity (cannot absorb).
    """
    identity = functions.identity_value(widened_kind)
    if identity is None:
        return None
    return inactive_value == identity


def direct_variants(
    target: Gate,
    trigger: str,
    trigger_value: int,
    library: CellLibrary,
    allow_xor_targets: bool = False,
) -> List[Variant]:
    """Fig. 4 variants: absorb the trigger literal into ``target`` itself."""
    inactive = 1 - trigger_value
    variants: List[Variant] = []
    kind = target.kind
    if kind in _UNARY_WIDENINGS:
        if trigger in target.inputs:
            return []
        for widened in _UNARY_WIDENINGS[kind]:
            if library.try_find(widened, target.n_inputs + 1) is None:
                continue
            positive = _literal_polarity(inactive, widened)
            variants.append(
                Variant(widened, (Literal(trigger, positive),), "direct")
            )
        return variants
    eligible = functions.controlling_value(kind) is not None or (
        allow_xor_targets and kind in ("XOR", "XNOR")
    )
    if not eligible:
        return []
    if library.try_find(kind, target.n_inputs + 1) is None:
        return []
    positive = _literal_polarity(inactive, kind)
    if positive is None:
        return []
    if trigger in target.inputs:
        return []  # degenerate: literal already drives the gate
    variants.append(Variant(kind, (Literal(trigger, positive),), "direct"))
    return variants


def reroute_variants(
    circuit: Circuit,
    target: Gate,
    trigger: str,
    trigger_value: int,
    library: CellLibrary,
    allow_xor_targets: bool = False,
) -> List[Variant]:
    """Fig. 5 variants: tap the trigger gate's own inputs instead of X.

    At most :data:`MAX_PAIR_VARIANTS` two-literal variants per widened
    kind.
    """
    trigger_gate = circuit.driver(trigger)
    if trigger_gate is None:
        return []
    sources, inactive = _reroute_sources(trigger_gate, trigger_value)
    if not sources:
        return []
    kind = target.kind
    widened_kinds: List[str]
    if kind in _UNARY_WIDENINGS:
        widened_kinds = [
            w
            for w in _UNARY_WIDENINGS[kind]
            if library.try_find(w, target.n_inputs + 1) is not None
        ]
    else:
        eligible = functions.controlling_value(kind) is not None or (
            allow_xor_targets and kind in ("XOR", "XNOR")
        )
        if not eligible:
            return []
        widened_kinds = [kind] if library.try_find(kind, target.n_inputs + 1) else []

    variants: List[Variant] = []
    for widened in widened_kinds:
        positive = _literal_polarity(inactive, widened)
        if positive is None:
            continue
        for net in sources:
            if net in target.inputs or net == target.name:
                continue
            variants.append(Variant(widened, (Literal(net, positive),), "reroute1"))
        # Pair variants need a cell two inputs wider.
        pair_kind = widened
        if library.try_find(pair_kind, target.n_inputs + 2) is None:
            continue
        emitted = 0
        for i in range(len(sources)):
            for j in range(i + 1, len(sources)):
                if emitted >= MAX_PAIR_VARIANTS:
                    break
                a, b = sources[i], sources[j]
                if a in target.inputs or b in target.inputs:
                    continue
                variants.append(
                    Variant(
                        pair_kind,
                        (Literal(a, positive), Literal(b, positive)),
                        "reroute2",
                    )
                )
                emitted += 1
    return variants


def _reroute_sources(trigger_gate: Gate, trigger_value: int) -> Tuple[List[str], int]:
    """Inputs of the trigger gate usable as reroute taps.

    Returns ``(source nets, inactive_value)`` where ``inactive_value`` is
    the value every source is guaranteed *not* to hold when the ODC is not
    active... more precisely the value each tapped literal presents in the
    must-preserve case (see module docstring).  Empty list when the trigger
    gate cannot guarantee the ODC from its inputs.
    """
    kind = trigger_gate.kind
    if kind == "INV":
        # X == c  iff  w == 1 - c; in the must-preserve case w == c.
        return list(trigger_gate.inputs), trigger_value
    if kind == "BUF":
        return list(trigger_gate.inputs), 1 - trigger_value
    control = functions.controlling_value(kind)
    controlled = functions.controlled_output(kind)
    if control is None or controlled != trigger_value:
        return [], 0
    # Distinct source nets only; a repeated net would alias literals.
    seen = []
    for net in trigger_gate.inputs:
        if net not in seen:
            seen.append(net)
    return seen, 1 - control


def slot_variants(
    circuit: Circuit,
    target: Gate,
    trigger: str,
    trigger_value: int,
    library: Optional[CellLibrary] = None,
    allow_xor_targets: bool = False,
    enable_reroute: bool = True,
    inverters: Optional[Dict[str, str]] = None,
    banned_negative_sources: Optional[set] = None,
) -> List[Variant]:
    """All feasible variants for one target gate.

    Deduplicated by *realized* structure: because complemented literals
    reuse existing inverters, two different literal intents can produce
    the same physical edit (e.g. "add trigger X directly" versus "add the
    complement of X's inverter input"); only one survives, keeping every
    catalogued configuration structurally distinct (the paper's
    distinctness requirement).
    """
    library = library or circuit.library
    if inverters is None:
        inverters = inverter_index(circuit)
    variants = direct_variants(
        target, trigger, trigger_value, library, allow_xor_targets
    )
    if enable_reroute:
        variants.extend(
            reroute_variants(
                circuit, target, trigger, trigger_value, library, allow_xor_targets
            )
        )
    # Level discipline: every added edge must run strictly forward in the
    # total order (original level, net name).  Original edges strictly
    # increase the level, hence the order; so any combination of such
    # modifications is acyclic by construction — without this, two taps
    # can jointly close a combinational loop (mod A makes its literal
    # source reachable from mod B's primary gate and vice versa) even
    # though each modification is individually sound.  Fresh inverters
    # sit just above their source in the same order.
    levels = circuit.levels()
    target_key = (levels.get(target.name, 0), target.name)

    def forward(variant: Variant) -> bool:
        for literal in variant.literals:
            key = realized_literal_key(circuit, literal, inverters)
            source = literal.net if key[0] == "inv" else key[1]
            if (levels.get(source, 0), source) >= target_key:
                return False
        return True

    unique: List[Variant] = []
    seen = set()
    for variant in variants:
        if not forward(variant):
            continue
        if banned_negative_sources and any(
            not l.positive and l.net in banned_negative_sources
            for l in variant.literals
        ):
            # An inverter of this source is itself a slot target; a fresh
            # or reused inverter here would alias with its configurations.
            continue
        key = realized_signature(circuit, variant, inverters)
        if key not in seen:
            seen.add(key)
            unique.append(variant)
    return unique
