"""Static timing analysis and delay models."""

from .delay_models import (
    DEFAULT_DELAY_MODEL,
    LIBRARY_DELAY,
    OUTPUT_PAD_LOAD,
    UNIT_DELAY,
    WIRE_DELAY,
    DelayModel,
    LibraryDelay,
    UnitDelay,
    WireDelay,
)
from .incremental import IncrementalTimer
from .sta import TimingReport, analyze, critical_delay, critical_path_nets

__all__ = [
    "DEFAULT_DELAY_MODEL",
    "LIBRARY_DELAY",
    "OUTPUT_PAD_LOAD",
    "UNIT_DELAY",
    "WIRE_DELAY",
    "DelayModel",
    "IncrementalTimer",
    "LibraryDelay",
    "UnitDelay",
    "WireDelay",
    "TimingReport",
    "analyze",
    "critical_delay",
    "critical_path_nets",
]
