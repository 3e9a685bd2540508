"""CNF, a CDCL SAT solver, Tseitin encoding and SAT CEC."""

from .cnf import Cnf, CnfError
from .solver import (
    CdclSolver,
    SatResult,
    SatStatus,
    SolverAbortedError,
    SolverStats,
    solve_cnf,
)
from .tseitin import CircuitEncoding, encode_circuit
from .cec import CecResult, CecVerdict, build_miter
from .incremental import IncrementalCecSession, SessionStats, check, sat_equivalent

__all__ = [
    "Cnf",
    "CnfError",
    "CdclSolver",
    "SatResult",
    "SatStatus",
    "SolverAbortedError",
    "SolverStats",
    "solve_cnf",
    "CircuitEncoding",
    "encode_circuit",
    "CecResult",
    "CecVerdict",
    "build_miter",
    "check",
    "sat_equivalent",
    "IncrementalCecSession",
    "SessionStats",
]
