"""Content-addressed artifact store (see :mod:`repro.store.core`).

Public surface::

    from repro.store import activate_store, active_store, warm_session

The store is opt-in per process; with none active every producer
recomputes exactly as before.  Artifact keys are canonical structural
digests from :mod:`repro.hashing`.
"""

from .artifacts import (
    KIND_CATALOG,
    KIND_CNF,
    KIND_IR,
    KIND_SESSION,
    prepare_design,
    warm_session,
)
from .core import (
    SCHEMA_VERSION,
    STORE_DIR_ENV,
    ArtifactStore,
    StoreError,
    activate_store,
    active_store,
    deactivate_store,
    ensure_default_store,
    store_activated,
)

__all__ = [
    "ArtifactStore",
    "KIND_CATALOG",
    "KIND_CNF",
    "KIND_IR",
    "KIND_SESSION",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "StoreError",
    "activate_store",
    "active_store",
    "deactivate_store",
    "ensure_default_store",
    "prepare_design",
    "store_activated",
    "warm_session",
]
