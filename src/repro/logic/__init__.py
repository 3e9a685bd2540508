"""Boolean reasoning: truth tables and ODC analysis."""

from .truthtable import MAX_VARS, TruthTable, TruthTableError
from .odc import (
    TriggerCondition,
    gate_creates_odc,
    gate_input_odc,
    has_nonzero_odc,
    local_odc,
    odc_gate_table,
    odc_summary,
    single_input_triggers,
)
from .circuit_funcs import (
    circuits_equivalent_exact,
    global_observability,
    global_odc,
    net_functions,
    output_functions,
)

__all__ = [
    "MAX_VARS",
    "TruthTable",
    "TruthTableError",
    "TriggerCondition",
    "gate_creates_odc",
    "gate_input_odc",
    "has_nonzero_odc",
    "local_odc",
    "odc_gate_table",
    "odc_summary",
    "single_input_triggers",
    "circuits_equivalent_exact",
    "global_observability",
    "global_odc",
    "net_functions",
    "output_functions",
]
