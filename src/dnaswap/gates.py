"""Unitaries and measurement bases used by the pairing protocol.

The Bell labeling convention is frozen here and referenced everywhere else:

    b00 = (|00> + |11>)/sqrt(2)      b01 = (|01> + |10>)/sqrt(2)
    b10 = (|00> - |11>)/sqrt(2)      b11 = (|01> - |10>)/sqrt(2)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector, _is_integer, _readonly

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class BellLabel:
    """Index (j, k) of the Bell state b_jk under the frozen convention."""

    j: int
    k: int

    def __post_init__(self) -> None:
        if not all(_is_integer(b) and b in (0, 1) for b in (self.j, self.k)):
            raise ValueError(f"Bell label bits must be 0 or 1, got ({self.j}, {self.k})")

    @property
    def text(self) -> str:
        return f"b{self.j}{self.k}"


BELL_LABELS = (BellLabel(0, 0), BellLabel(0, 1), BellLabel(1, 0), BellLabel(1, 1))


def equality_entangler() -> np.ndarray:
    """Two-qubit gate V, a read-only 4x4 matrix: entangles a pair exactly
    when its bits are equal.

    Identity on span{|01>, |10>}; Hadamard-type action on the equal-bit
    subspace: |00> -> (|00>+|11>)/sqrt2 and |11> -> (|00>-|11>)/sqrt2.
    """
    h = _SQRT1_2
    mat = np.array(
        [
            [h, 0, 0, h],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [h, 0, 0, -h],
        ],
        dtype=complex,
    )
    return _readonly(mat)


def bell_state(label: BellLabel) -> StateVector:
    """The 2-qubit Bell state b_jk under the frozen convention."""
    amps = np.zeros(4, dtype=complex)
    sign = -1.0 if label.j else 1.0
    if label.k == 0:
        amps[0b00], amps[0b11] = _SQRT1_2, sign * _SQRT1_2
    else:
        amps[0b01], amps[0b10] = _SQRT1_2, sign * _SQRT1_2
    return StateVector(2, amps)


def bell_basis() -> list[StateVector]:
    """The four Bell states in BELL_LABELS order (b00, b01, b10, b11)."""
    return [bell_state(label) for label in BELL_LABELS]
