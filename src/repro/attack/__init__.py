"""Adversarial attack suite against ODC fingerprints.

Engines that model what a motivated pirate can do to a fingerprinted
netlist — simulation-guided resubstitution (:mod:`repro.attack.resub`,
over the local fanout windows of :mod:`repro.attack.window`),
structural rewriting/sweeping/renaming/pin-remapping
(:mod:`repro.attack.rewrite`) and multi-copy collusion
(:mod:`repro.attack.collusion`) — plus the differential harness
(:mod:`repro.attack.harness`) that verifies every attacked copy stays
functionally equivalent and scores how many fingerprint bits survive.
"""

from __future__ import annotations

from .base import Attack, AttackContext, AttackedCopy
from .collusion import CollusionAttack, observed_assignments
from .config import AttackConfig, AttackError
from .harness import (
    ATTACK_CLASSES,
    ATTACK_NAMES,
    AttackOutcome,
    AttackSuiteReport,
    build_context,
    run_attack,
    run_attack_suite,
)
from .resub import ResubStats, ResubstitutionEngine
from .rewrite import (
    DEMORGAN_DUALS,
    PinRemapAttack,
    RenameAttack,
    ResubAttack,
    RewriteAttack,
    SweepAttack,
    reorder_ports,
)

__all__ = [
    "ATTACK_CLASSES",
    "ATTACK_NAMES",
    "Attack",
    "AttackConfig",
    "AttackContext",
    "AttackError",
    "AttackOutcome",
    "AttackSuiteReport",
    "AttackedCopy",
    "CollusionAttack",
    "DEMORGAN_DUALS",
    "PinRemapAttack",
    "RenameAttack",
    "ResubAttack",
    "ResubStats",
    "ResubstitutionEngine",
    "RewriteAttack",
    "SweepAttack",
    "build_context",
    "observed_assignments",
    "reorder_ports",
    "run_attack",
    "run_attack_suite",
]
