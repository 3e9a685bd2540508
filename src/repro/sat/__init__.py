"""CNF, a CDCL SAT solver, preprocessing, Tseitin encoding and SAT CEC."""

from .cnf import Cnf, CnfError
from .solver import (
    CdclSolver,
    SatResult,
    SatStatus,
    SolverAbortedError,
    SolverStats,
    solve_cnf,
)
# The function ``preprocess`` is not re-exported: ``repro.sat.preprocess``
# names its module (whose constants tests patch).
from .preprocess import (
    PreprocessResult,
    PreprocessStats,
    Reconstruction,
    preprocess_for_solve,
)
from .tseitin import CircuitEncoding, encode_circuit
from .cec import (
    CecResult,
    CecVerdict,
    build_miter,
    check,
    sat_equivalent,
    structurally_identical,
)
from .incremental import IncrementalCecSession, SessionStats

__all__ = [
    "Cnf",
    "CnfError",
    "CdclSolver",
    "SatResult",
    "SatStatus",
    "SolverAbortedError",
    "SolverStats",
    "solve_cnf",
    "PreprocessResult",
    "PreprocessStats",
    "Reconstruction",
    "preprocess_for_solve",
    "CircuitEncoding",
    "encode_circuit",
    "CecResult",
    "CecVerdict",
    "build_miter",
    "check",
    "sat_equivalent",
    "structurally_identical",
    "IncrementalCecSession",
    "SessionStats",
]
