"""Content-addressed artifact store: in-memory LRU over an on-disk tier.

The fingerprinting authority's working set is *derived artifacts of the
same master designs*, recomputed today on every invocation: the compiled
IR, the base Tseitin CNF, the ODC location catalog, the warm incremental
CEC session.  All of them are pure functions of the circuit's canonical
structural hash (:func:`repro.hashing.circuit_digest`), so they cache
under it:

* **Memory tier** — an LRU-bounded ``(kind, key) -> value`` map.  Hits
  return the live object (artifacts are treated as immutable by
  convention; every existing consumer already constructs private
  mutable state — solvers copy clauses, sessions copy variable maps).
* **Disk tier** — one pickle file per artifact under
  ``root/<kind>/<key>.pkl``, written atomically (temp file +
  ``os.replace``) so concurrent writers race benignly: both produce a
  valid file, one wins, contents are identical by construction.
  Payloads are schema-versioned; a version mismatch, truncated file, or
  unpicklable garbage is treated as a miss — the artifact is recomputed
  and the bad file replaced, never an error.

The store is **opt-in per process**: producers
(:func:`repro.ir.compile_circuit`, :func:`repro.sat.tseitin.encode_circuit`,
:func:`repro.fingerprint.locations.find_locations`) consult
:func:`active_store` and fall through to a plain compute when none is
active, so one-shot flows and the test suite keep their exact historical
behaviour.  Long-running processes — the :mod:`repro.service` server,
campaign workers, the CLI under ``--store`` — activate it explicitly.

Every lookup lands in the telemetry counters (``store.hit.memory``,
``store.hit.disk``, ``store.miss``, plus per-kind variants) and in the
store's own :meth:`~ArtifactStore.cache_snapshot`, which is what the
service embeds as the ``cache`` section of its JSON envelopes.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Tuple

from .. import telemetry
from ..errors import ReproError

#: Bump when the pickled payload layout (or any cached artifact's
#: internal schema) changes incompatibly; old files then read as misses.
#: 2: a ``cnf`` artifact (``CircuitEncoding``) carries ``aux_of``.
SCHEMA_VERSION = 2

#: Errors that mean "this disk artifact is unusable" — anything pickle
#: or the artifact's own unpickling hooks can raise on corrupt input.
_CORRUPT_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    OSError,
)


class StoreError(ReproError, ValueError):
    """Raised for store misconfiguration (never for cache misses)."""


class ArtifactStore:
    """Two-tier content-addressed cache for derived circuit artifacts.

    Args:
        root: Disk-tier directory (created on demand).  ``None`` keeps
            the store memory-only; artifacts requested with
            ``disk=True`` then simply stay in the memory tier.
        memory_entries: LRU bound of the memory tier (evicts least
            recently used beyond this many artifacts).
        disk_entries: Bound on files per artifact kind in the disk tier
            (oldest by modification time pruned past this).

    Thread-safety: a single lock guards the memory tier and counters, so
    the asyncio service can hand the store to worker threads.  Compute
    callbacks run *outside* the lock (two threads may race to compute
    the same key; first store wins, both get valid values).
    """

    def __init__(
        self,
        root: Optional[str] = None,
        memory_entries: int = 128,
        disk_entries: int = 512,
    ) -> None:
        if memory_entries <= 0:
            raise StoreError("memory_entries must be positive", stage="store")
        if disk_entries <= 0:
            raise StoreError("disk_entries must be positive", stage="store")
        self.root = root
        self.memory_entries = memory_entries
        self.disk_entries = disk_entries
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def _count(self, event: str, kind: str) -> None:
        with self._lock:
            self.counters[event] = self.counters.get(event, 0) + 1
            per_kind = f"{event}.{kind}"
            self.counters[per_kind] = self.counters.get(per_kind, 0) + 1
        telemetry.count(f"store.{event}")
        telemetry.count(f"store.{event}.{kind}")

    @property
    def hits(self) -> int:
        """Total lookups served from either tier."""
        return self.counters.get("hit.memory", 0) + self.counters.get("hit.disk", 0)

    @property
    def misses(self) -> int:
        """Total lookups that had to recompute."""
        return self.counters.get("miss", 0)

    def cache_snapshot(self) -> Dict[str, int]:
        """Copy of the event counters (feeds envelope ``cache`` sections)."""
        with self._lock:
            snapshot = dict(self.counters)
        snapshot["hits"] = snapshot.get("hit.memory", 0) + snapshot.get("hit.disk", 0)
        snapshot["misses"] = snapshot.get("miss", 0)
        snapshot["entries"] = len(self._memory)
        return snapshot

    # ------------------------------------------------------------------ #
    # memory tier
    # ------------------------------------------------------------------ #

    def _memory_get(self, kind: str, key: str) -> Tuple[bool, Any]:
        with self._lock:
            slot = (kind, key)
            if slot in self._memory:
                self._memory.move_to_end(slot)
                return True, self._memory[slot]
        return False, None

    def _memory_put(self, kind: str, key: str, value: Any) -> None:
        with self._lock:
            slot = (kind, key)
            self._memory[slot] = value
            self._memory.move_to_end(slot)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.counters["evict.memory"] = (
                    self.counters.get("evict.memory", 0) + 1
                )

    # ------------------------------------------------------------------ #
    # disk tier
    # ------------------------------------------------------------------ #

    def _path(self, kind: str, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, kind, f"{key}.pkl")

    def _disk_get(self, kind: str, key: str) -> Tuple[bool, Any]:
        if self.root is None:
            return False, None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except _CORRUPT_ERRORS:
            # Truncated, corrupted, or written by an incompatible
            # version: drop it and recompute transparently.
            self._count("corrupt", kind)
            self._unlink_quietly(path)
            return False, None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SCHEMA_VERSION
            or payload.get("kind") != kind
            or payload.get("key") != key
        ):
            self._count("corrupt", kind)
            self._unlink_quietly(path)
            return False, None
        return True, payload["artifact"]

    def _disk_put(self, kind: str, key: str, value: Any) -> None:
        if self.root is None:
            return
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "artifact": value,
        }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except (
            pickle.PicklingError,
            AttributeError,  # "Can't pickle local object ..."
            TypeError,
            ValueError,
            RecursionError,
        ):
            self._count("unpicklable", kind)
            return
        directory = os.path.join(self.root, kind)
        try:
            os.makedirs(directory, exist_ok=True)
            # Atomic publish: a unique temp file in the same directory,
            # then os.replace — readers only ever see complete files,
            # and two processes racing on one key both land valid
            # (identical) artifacts.
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
            try:
                with io.open(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, self._path(kind, key))
            except BaseException:
                self._unlink_quietly(tmp_path)
                raise
        except OSError:
            self._count("disk_error", kind)
            return
        self._prune_disk(directory, kind)

    def _prune_disk(self, directory: str, kind: str) -> None:
        try:
            names = [n for n in os.listdir(directory) if n.endswith(".pkl")]
            if len(names) <= self.disk_entries:
                return
            paths = [os.path.join(directory, n) for n in names]
            paths.sort(key=lambda p: (os.path.getmtime(p), p))
            for path in paths[: len(paths) - self.disk_entries]:
                self._unlink_quietly(path)
                self._count("evict.disk", kind)
        except OSError:
            return

    @staticmethod
    def _unlink_quietly(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #

    def get(self, kind: str, key: str, disk: bool = True) -> Tuple[bool, Any]:
        """``(found, artifact)`` without computing; promotes disk hits."""
        found, value = self._memory_get(kind, key)
        if found:
            self._count("hit.memory", kind)
            return True, value
        if disk:
            found, value = self._disk_get(kind, key)
            if found:
                self._count("hit.disk", kind)
                self._memory_put(kind, key, value)
                return True, value
        return False, None

    def put(self, kind: str, key: str, value: Any, disk: bool = True) -> None:
        """Insert an artifact into the memory tier (and disk when asked)."""
        self._memory_put(kind, key, value)
        if disk:
            self._disk_put(kind, key, value)

    def get_or_compute(
        self,
        kind: str,
        key: str,
        compute: Callable[[], Any],
        disk: bool = True,
    ) -> Any:
        """The artifact for ``(kind, key)``, computing and caching on miss.

        ``disk=False`` keeps the artifact memory-only — used for live
        objects that must not cross process boundaries (warm solver
        sessions).
        """
        found, value = self.get(kind, key, disk=disk)
        if found:
            return value
        self._count("miss", kind)
        with telemetry.span("store.compute", kind=kind, key=key[:16]):
            value = compute()
        self.put(kind, key, value, disk=disk)
        return value

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier survives)."""
        with self._lock:
            self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArtifactStore(root={self.root!r}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ---------------------------------------------------------------------- #
# process-level activation
# ---------------------------------------------------------------------- #

_ACTIVE: Optional[ArtifactStore] = None

#: Environment variable naming a disk-tier directory; when set,
#: :func:`ensure_default_store` activates a disk-backed store, which is
#: how campaign / batch worker processes opt in without new plumbing.
STORE_DIR_ENV = "REPRO_STORE_DIR"


def active_store() -> Optional[ArtifactStore]:
    """The process's active store, or ``None`` (producers then recompute)."""
    return _ACTIVE


def activate_store(
    store: Optional[ArtifactStore] = None,
    *,
    root: Optional[str] = None,
    memory_entries: int = 128,
    disk_entries: int = 512,
) -> ArtifactStore:
    """Install (and return) the process-wide store.

    Pass a prebuilt :class:`ArtifactStore`, or construction parameters.
    Re-activating replaces the previous store (its memory tier is
    dropped; any shared disk root remains valid for the successor).
    """
    global _ACTIVE
    if store is None:
        store = ArtifactStore(
            root=root, memory_entries=memory_entries, disk_entries=disk_entries
        )
    _ACTIVE = store
    return store


def deactivate_store() -> None:
    """Remove the active store; producers recompute from here on."""
    global _ACTIVE
    _ACTIVE = None


def ensure_default_store() -> Optional[ArtifactStore]:
    """Activate a store from the environment when none is active yet.

    Honours :data:`STORE_DIR_ENV` for the disk root.  Returns the active
    store (possibly pre-existing), or ``None`` when there is neither an
    active store nor an environment opt-in — long-lived hosts (service,
    campaign workers) call this so ``REPRO_STORE_DIR=/path`` turns on
    cross-process artifact reuse without any API change.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    root = os.environ.get(STORE_DIR_ENV)
    if root:
        return activate_store(root=root)
    return None


@contextmanager
def store_activated(
    store: Optional[ArtifactStore] = None,
    *,
    root: Optional[str] = None,
    memory_entries: int = 128,
    disk_entries: int = 512,
):
    """Activate a store for a ``with`` block, restoring the prior one after."""
    previous = _ACTIVE
    installed = activate_store(
        store, root=root, memory_entries=memory_entries, disk_entries=disk_entries
    )
    try:
        yield installed
    finally:
        globals()["_ACTIVE"] = previous


__all__ = [
    "ArtifactStore",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "StoreError",
    "activate_store",
    "active_store",
    "deactivate_store",
    "ensure_default_store",
    "store_activated",
]
