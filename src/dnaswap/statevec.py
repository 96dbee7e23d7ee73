"""Dense state-vector core for small qubit registers.

Conventions frozen for the whole package:

- Qubits are numbered 1..n and qubit 1 is the most significant bit of the
  basis index, so a ket literal like |011010> reads left to right.
- Every operation is a pure function; returned values are immutable and the
  normalization invariant is re-checked on each constructed state.
- Measurement is projective and non-destructive: the measured pair stays in
  the register, collapsed onto the outcome state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gates import Gate

NORM_ATOL = 1e-12
PRUNE_DEFAULT = 1e-14
# An amplitude or eigenvalue within this of zero counts as zero.
ZERO_ATOL = 1e-12
# A density matrix may have eigenvalues down to -PSD_ATOL (solver noise).
PSD_ATOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        # Written so that NaN fails: every comparison with NaN is False.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        self.amplitudes = _readonly(amps)

    def as_tensor(self) -> np.ndarray:
        """View the amplitudes as an n-axis tensor, one axis per qubit."""
        return self.amplitudes.reshape([2] * self.num_qubits)

    def amplitude(self, bits: str | Sequence[int]) -> complex:
        """Amplitude of the basis ket given as a bitstring or bit sequence."""
        if isinstance(bits, str):
            bits = [int(c) for c in bits]
        if len(bits) != self.num_qubits:
            raise ValueError(f"expected {self.num_qubits} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        return complex(self.amplitudes[idx])


def basis_state(bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |b1 b2 ... bn> from a bitstring."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    n = len(bits)
    if n == 0:
        raise ValueError("empty bitstring")
    amps = np.zeros(2**n, dtype=complex)
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b}")
        idx = (idx << 1) | b
    amps[idx] = 1.0
    return StateVector(n, amps)


def from_amplitudes(amps: Iterable[complex]) -> StateVector:
    """Build a state from raw amplitudes; the length fixes the qubit count."""
    arr = np.asarray(list(amps), dtype=complex)
    if arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError(f"amplitude count {arr.size} is not a power of two")
    return StateVector(arr.size.bit_length() - 1, arr)


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix on ``num_qubits``."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        mat = np.asarray(self.matrix, dtype=complex).copy()
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > NORM_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > NORM_ATOL or abs(np.trace(mat).imag) > NORM_ATOL:
            raise ValueError(f"trace must be 1, got {np.trace(mat)}")
        if np.min(np.linalg.eigvalsh(mat)) < -PSD_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        self.matrix = _readonly(mat)


@dataclass(eq=False)
class MeasurementBranch:
    """One projective outcome: basis index, probability, collapsed register."""

    outcome_label: int
    probability: float
    post_state: StateVector


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; basis indices concatenate (a's qubits first)."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def permute_qubits(s: StateVector, perm: Sequence[int]) -> StateVector:
    """Reorder qubits: new position i carries the old qubit perm[i-1].

    ``perm`` is a bijection on 1..n given as a length-n sequence. The
    amplitude of the new ket |b_perm(1) ... b_perm(n)> equals the old
    amplitude of |b_1 ... b_n> for every bit assignment.
    """
    n = s.num_qubits
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n}, got {tuple(perm)}")
    axes = [p - 1 for p in perm]
    out = np.transpose(s.as_tensor(), axes).reshape(-1)
    return StateVector(n, out)


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Permutation r with permute(permute(s, p), q) == permute(s, r)."""
    return tuple(p[qi - 1] for qi in q)


def apply_unitary(s: StateVector, g: Gate, targets: Sequence[int]) -> StateVector:
    """Apply a 1- or 2-qubit gate to the given target qubits (1-based).

    The gate's own qubit order follows the target order: targets[0] is the
    gate's first qubit. Identity on the rest of the register.
    """
    n = s.num_qubits
    k = g.arity
    if len(targets) != k:
        raise ValueError(f"gate {g.name} has arity {k}, got {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {tuple(targets)}")
    for t in targets:
        if not 1 <= t <= n:
            raise ValueError(f"target {t} out of range 1..{n}")
    axes = [t - 1 for t in targets]
    mat = g.matrix.reshape([2] * (2 * k))
    out = np.tensordot(mat, s.as_tensor(), axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(out, list(range(k)), axes)
    return StateVector(n, out.reshape(-1))


def measure_two_qubit(
    s: StateVector,
    basis: Sequence[StateVector],
    pair: tuple[int, int],
    prune_threshold: float = PRUNE_DEFAULT,
) -> list[MeasurementBranch]:
    """Projective measurement of a qubit pair in a 4-state orthonormal basis.

    Returns every branch with probability >= ``prune_threshold``; the
    measured pair is left collapsed onto the outcome basis state. Dropped
    mass is recoverable as 1 - sum of returned probabilities.
    """
    i, j = pair
    n = s.num_qubits
    if i == j:
        raise ValueError("measurement pair must be two distinct qubits")
    for t in (i, j):
        if not 1 <= t <= n:
            raise ValueError(f"qubit {t} out of range 1..{n}")
    if len(basis) != 4 or any(b.num_qubits != 2 for b in basis):
        raise ValueError("basis must be four 2-qubit states")
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in basis] for a in basis])
    if np.max(np.abs(gram - np.eye(4))) > NORM_ATOL:
        raise ValueError("measurement basis is not orthonormal")

    t = s.as_tensor()
    branches: list[MeasurementBranch] = []
    for label, bstate in enumerate(basis):
        bmat = bstate.amplitudes.reshape(2, 2)
        coeff = np.tensordot(bmat.conj(), t, axes=([0, 1], [i - 1, j - 1]))
        prob = float(np.sum(np.abs(coeff) ** 2))
        if prob < prune_threshold:
            continue
        post = np.multiply.outer(bmat, coeff)
        post = np.moveaxis(post, [0, 1], [i - 1, j - 1]) / np.sqrt(prob)
        branches.append(MeasurementBranch(label, prob, StateVector(n, post.reshape(-1))))
    return branches


def reduced_density(s: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace down to the kept qubits (any non-empty subset).

    Row/column bit order follows ascending original qubit position.
    """
    keep_sorted = sorted(set(keep))
    n = s.num_qubits
    if not keep_sorted:
        raise ValueError("keep must be a non-empty subset of qubits")
    for q in keep_sorted:
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} out of range 1..{n}")
    traced = [q - 1 for q in range(1, n + 1) if q not in keep_sorted]
    t = s.as_tensor()
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    dim = 2 ** len(keep_sorted)
    return DensityMatrix(len(keep_sorted), rho.reshape(dim, dim))
