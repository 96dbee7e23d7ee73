"""Unitaries and measurement bases used by the pairing protocol.

The Bell labeling convention is frozen here, as the rows of ``BELL``, and
referenced everywhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector, _is_integer, _readonly

_H = 1.0 / math.sqrt(2.0)


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

# The two-qubit gate V, which entangles a pair exactly when its bits are
# equal: identity on span{|01>, |10>}, |00> -> b00 and |11> -> b10.
V = _readonly(np.array(
    [[_H, 0, 0, _H], [0, 1, 0, 0], [0, 0, 1, 0], [_H, 0, 0, -_H]], dtype=complex
))

# BELL[i] holds the amplitudes over |00>, |01>, |10>, |11> of b_jk = BELL_LABELS[i].
BELL = _readonly(np.array(
    [
        [_H, 0, 0, _H],  # b00
        [0, _H, _H, 0],  # b01
        [_H, 0, 0, -_H],  # b10
        [0, _H, -_H, 0],  # b11
    ],
    dtype=complex,
))


def bell_state(label: BellLabel) -> StateVector:
    """The 2-qubit Bell state b_jk: row 2j + k of ``BELL``."""
    return StateVector(2, BELL[2 * label.j + label.k])
