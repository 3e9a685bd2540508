"""CNF, a CDCL SAT solver, preprocessing, Tseitin encoding and SAT CEC."""

from .cnf import Cnf, CnfError
from .solver import (
    LEGACY_CONFIG,
    CdclSolver,
    SatResult,
    SatStatus,
    SolverAbortedError,
    SolverConfig,
    SolverStats,
    solve_cnf,
)
from .preprocess import (
    INCREMENTAL_SAFE,
    PreprocessConfig,
    PreprocessResult,
    PreprocessStats,
    Reconstruction,
    preprocess,
    preprocess_for_solve,
)
from .portfolio import PORTFOLIO_CONFIGS, RaceOutcome, configs_for, race
from .tseitin import CircuitEncoding, encode_circuit, encode_gate
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
    "SolverConfig",
    "SolverStats",
    "LEGACY_CONFIG",
    "solve_cnf",
    "PreprocessConfig",
    "PreprocessResult",
    "PreprocessStats",
    "Reconstruction",
    "INCREMENTAL_SAFE",
    "preprocess",
    "preprocess_for_solve",
    "PORTFOLIO_CONFIGS",
    "RaceOutcome",
    "configs_for",
    "race",
    "CircuitEncoding",
    "encode_circuit",
    "encode_gate",
    "CecResult",
    "CecVerdict",
    "build_miter",
    "check",
    "sat_equivalent",
    "structurally_identical",
    "IncrementalCecSession",
    "SessionStats",
]
