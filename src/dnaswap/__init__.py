"""Exact state-vector simulation of DNA base pairing as entanglement swapping."""

from .encodings import BaseCode, EdgePattern, UnsupportedEncodingError
from .gates import BellLabel
from .protocol import (
    CanonicalRow,
    Ensemble,
    OutcomeBranch,
    ProtocolConfig,
    assemble_pair,
    build_recognition_unitary,
    canonical_table,
    recognize,
    run_pair,
    sample,
    swap,
)
from .statevec import DensityMatrix, StateVector

__version__ = "0.1.0"

__all__ = [
    "BaseCode",
    "BellLabel",
    "CanonicalRow",
    "DensityMatrix",
    "EdgePattern",
    "Ensemble",
    "OutcomeBranch",
    "ProtocolConfig",
    "StateVector",
    "UnsupportedEncodingError",
    "assemble_pair",
    "build_recognition_unitary",
    "canonical_table",
    "recognize",
    "run_pair",
    "sample",
    "swap",
]
