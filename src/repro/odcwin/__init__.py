"""Exact conditional-observability (ODC) classification (see ARCHITECTURE.md).

Public surface:

* :class:`WindowedOdcEngine` — per-circuit candidate classifier:
  frontier constant propagation, then the full-circuit flip miter.
* :class:`OdcVerdict` / :class:`OdcStatus` / :class:`EngineStats` —
  result and accounting types.
* :func:`verify_witness` — simulation check of a REFUTED witness.
* :class:`WindowConfig` / :class:`Window` / :func:`extract_window` —
  local TFO-window extraction over the compiled CSR adjacency, used by
  the resubstitution attack (:mod:`repro.attack.resub`).
"""

from .engine import (
    EngineStats,
    OdcStatus,
    OdcVerdict,
    WindowedOdcEngine,
    verify_witness,
)
from .window import Window, WindowConfig, extract_window

__all__ = [
    "EngineStats",
    "OdcStatus",
    "OdcVerdict",
    "Window",
    "WindowConfig",
    "WindowedOdcEngine",
    "extract_window",
    "verify_witness",
]
