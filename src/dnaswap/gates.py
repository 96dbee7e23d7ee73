"""Unitaries and measurement bases used by the pairing protocol.

The Bell labeling convention is frozen here and referenced everywhere else:

    b00 = (|00> + |11>)/sqrt(2)      b01 = (|01> + |10>)/sqrt(2)
    b10 = (|00> - |11>)/sqrt(2)      b11 = (|01> - |10>)/sqrt(2)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statevec import StateVector, _readonly

UNITARY_ATOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(eq=False)
class Gate:
    """Unitary on a small number of qubits, validated at construction.

    The protocol gates act on 1 or 2 qubits; arity 3 exists to house the
    recognition unitary.
    """

    name: str
    matrix: np.ndarray
    arity: int = field(init=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex).copy()
        arity = {(2, 2): 1, (4, 4): 2, (8, 8): 3}.get(mat.shape)
        if arity is None:
            raise ValueError(f"gate matrix must be 2x2, 4x4, or 8x8, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"gate {self.name!r} has a non-finite entry")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > UNITARY_ATOL:
            raise ValueError(f"gate {self.name!r} is not unitary (deviation {dev:.3e})")
        self.arity = arity
        self.matrix = _readonly(mat)


@dataclass(frozen=True)
class BellLabel:
    """Index (j, k) of the Bell state b_jk under the frozen convention."""

    j: int
    k: int

    def __post_init__(self) -> None:
        if self.j not in (0, 1) or self.k not in (0, 1):
            raise ValueError(f"Bell label bits must be 0 or 1, got ({self.j}, {self.k})")

    @property
    def text(self) -> str:
        return f"b{self.j}{self.k}"


BELL_LABELS = (BellLabel(0, 0), BellLabel(0, 1), BellLabel(1, 0), BellLabel(1, 1))


def _finite(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    return theta


def rotation(theta: float) -> Gate:
    """Plane rotation [[cos, -sin], [sin, cos]]."""
    theta = _finite(theta)
    c, s = math.cos(theta), math.sin(theta)
    return Gate(f"R({theta:.6g})", np.array([[c, -s], [s, c]], dtype=complex))


def sp(theta: float) -> Gate:
    """Superposition gate R(theta) * Z = [[cos, sin], [sin, -cos]].

    Hermitian and unitary for every angle; sp(pi/4) is the Hadamard.
    """
    theta = _finite(theta)
    c, s = math.cos(theta), math.sin(theta)
    return Gate(f"SP({theta:.6g})", np.array([[c, s], [s, -c]], dtype=complex))


def hadamard() -> Gate:
    return sp(math.pi / 4)


def pauli(which: str) -> Gate:
    if which == "X":
        return Gate("X", np.array([[0, 1], [1, 0]], dtype=complex))
    if which == "Z":
        return Gate("Z", np.array([[1, 0], [0, -1]], dtype=complex))
    raise ValueError(f"supported Pauli gates are 'X' and 'Z', got {which!r}")


def equality_entangler() -> Gate:
    """Two-qubit gate V: entangles a pair exactly when its bits are equal.

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
    return Gate("V", mat)


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
