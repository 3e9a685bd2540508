"""repro — ODC-based circuit fingerprinting (Dunbar & Qu, DAC 2015).

A pure-Python reproduction of the paper's fingerprinting system together
with every substrate it depends on: netlist modelling and I/O, a cell
library, a technology mapper, Boolean/ODC analysis, logic simulation,
SAT-based equivalence checking, static timing analysis, power estimation,
the benchmark suite and the experiment harness.

The supported entry path is the :mod:`repro.api` facade, re-exported
here::

    from repro import FlowOptions, fingerprint
    from repro.bench import build_benchmark

    result = fingerprint(build_benchmark("C432"), FlowOptions(trace=True))
    print(result.summary())

Telemetry (nested spans + metrics, Chrome-trace export) lives in
:mod:`repro.telemetry` and is off by default.  Substrate pieces are
imported from their own packages (``repro.netlist``, ``repro.sat``, ...).
"""

from . import telemetry
from .api import (
    BatchResult,
    Circuit,
    FlowOptions,
    FlowResult,
    LadderConfig,
    LadderResult,
    batch,
    fingerprint,
    load_circuit,
    save_circuit,
    verify,
)

__version__ = "7.1.0"

__all__ = [
    "BatchResult",
    "Circuit",
    "FlowOptions",
    "FlowResult",
    "LadderConfig",
    "LadderResult",
    "batch",
    "fingerprint",
    "load_circuit",
    "save_circuit",
    "verify",
    "telemetry",
    "__version__",
]
