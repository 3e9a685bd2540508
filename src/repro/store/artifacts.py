"""Store-aware constructors for the repo's derived artifacts.

The producers themselves (:func:`repro.ir.compile_circuit`,
:func:`repro.sat.tseitin.encode_circuit`,
:func:`repro.fingerprint.locations.find_locations`) consult the active
store transparently, so most code never imports this module.  What lives
here are the helpers for artifacts that need *placement* decisions:

* :func:`warm_session` — a ready
  :class:`~repro.sat.incremental.IncrementalCecSession` for a base
  circuit.  Sessions hold a live solver, so they cache in the **memory
  tier only** and are keyed by the base's structural digest.
  A cached session's :attr:`~IncrementalCecSession.base` is the circuit
  object it was built for — callers that later run the ladder must use
  ``session.base`` as their base reference (the ladder identity-checks
  ``session.base is left``).
* :func:`prepare_design` — force-populates every cacheable artifact for
  a circuit (IR, base CNF, location catalog, warm session), the warm-up
  primitive behind the service's first submission and the store
  benchmark's cold/warm split.

Artifact kinds used across the store (keys are always content digests):

========== ======================================== ======
kind       artifact                                 disk
========== ======================================== ======
``ir``     :class:`repro.ir.CompiledCircuit`        no
``cnf``    :class:`repro.sat.tseitin.CircuitEncoding` yes
``catalog`` :class:`repro.fingerprint.locations.LocationCatalog` yes
``session`` :class:`repro.sat.incremental.IncrementalCecSession` no
========== ======================================== ======

``ir`` stays memory-only because a ``CompiledCircuit`` is cheap to
rebuild relative to unpickling its numpy arrays and holds a live
back-reference to its circuit; ``session`` because it owns a live CDCL
solver (unpicklable watch structures and all).
"""

from __future__ import annotations

from typing import Optional

from ..hashing import circuit_digest
from .core import ArtifactStore, active_store

KIND_IR = "ir"
KIND_CNF = "cnf"
KIND_CATALOG = "catalog"
KIND_SESSION = "session"


def warm_session(base):
    """A (possibly cached) incremental CEC session for ``base``.

    With no active store this is exactly ``IncrementalCecSession(base)``.
    With one, a structurally identical resubmission reuses the previous
    session — its preprocessed base encoding, base strash table, stimulus
    and base signatures.  Every copy still starts from a solver holding
    only the base encoding, so a cached session gives the same verdicts as
    a new one.

    Callers must treat ``session.base`` as the canonical base object
    from here on (see module docstring).
    """
    from ..sat.incremental import IncrementalCecSession

    def build():
        return IncrementalCecSession(base)

    store = active_store()
    if store is None:
        return build()
    return store.get_or_compute(KIND_SESSION, circuit_digest(base), build, disk=False)


def prepare_design(circuit, options=None, store: Optional[ArtifactStore] = None):
    """Populate every cacheable artifact for ``circuit``; returns the catalog.

    Runs the full derivation chain — compiled IR, base CNF encoding,
    location catalog, warm CEC session — through the store-aware
    producers, so a subsequent submission of any structurally identical
    netlist is pure lookup.  ``store`` defaults to the active store; with
    neither, this is just an eager precompute (still useful to warm the
    per-circuit version caches).
    """
    from ..fingerprint.locations import find_locations
    from ..ir import compile_circuit
    from ..sat.tseitin import encode_circuit
    from .core import store_activated

    def run():
        compile_circuit(circuit)
        encode_circuit(circuit)
        warm_session(circuit)
        return find_locations(circuit, options)

    if store is not None and store is not active_store():
        with store_activated(store):
            return run()
    return run()


__all__ = [
    "KIND_CATALOG",
    "KIND_CNF",
    "KIND_IR",
    "KIND_SESSION",
    "prepare_design",
    "warm_session",
]
