"""Entanglement and conservation diagnostics for protocol states.

Entropy quantifies entanglement across register cuts, Wootters concurrence
quantifies it between qubit pairs, and Hamming-weight support makes the
proton-count bookkeeping of the protocol assertable.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .statevec import ZERO_ATOL, DensityMatrix, StateVector, reduced_density

_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def entanglement_entropy(s: StateVector, cut: Iterable[int]) -> float:
    """Von Neumann entropy (bits) of the reduced state on ``cut``.

    An entropy within ``ZERO_ATOL`` of 0 reads +0.0: on a product cut the one
    kept eigenvalue is 1 +- eps, whose term is rounding of either sign, while
    any second kept eigenvalue (> ZERO_ATOL) adds more than 3.9e-11.
    """
    rho = reduced_density(s, cut)
    if rho.num_qubits >= s.num_qubits:
        raise ValueError("cut must be a strict subset of the qubits")
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = eigs[eigs > ZERO_ATOL]
    entropy = float(-np.sum(eigs * np.log2(eigs)))
    return entropy if entropy > ZERO_ATOL else 0.0


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a 2-qubit density matrix, in [0, 1].

    Eigenvalues of rho * rho_tilde below ``ZERO_ATOL`` are treated as exact zeros;
    without the floor, solver noise on zero eigenvalues of pure-state
    inputs would leak into the square roots.
    """
    if rho.num_qubits != 2:
        raise ValueError(f"concurrence is defined on 2 qubits, got {rho.num_qubits}")
    m = rho.matrix
    r = m @ _YY @ m.conj() @ _YY
    eigs = np.linalg.eigvals(r).real
    eigs[eigs < ZERO_ATOL] = 0.0
    lams = np.sqrt(eigs)
    lams[::-1].sort()
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def hamming_support(s: StateVector) -> set[int]:
    """Hamming weights of the basis kets carrying amplitude above ``ZERO_ATOL``."""
    return {
        int(i).bit_count()
        for i, amp in enumerate(s.amplitudes)
        if abs(amp) > ZERO_ATOL
    }

