"""Dense state-vector core for small qubit registers.

Conventions frozen for the whole package:

- Qubits are numbered 1..n and qubit 1 is the most significant bit of the
  basis index, so a ket literal like |011010> reads left to right.
- Every operation is a pure function; returned values are immutable and the
  normalization invariant is re-checked on each constructed state.

The protocol's gates and measurements act only through ``protocol``'s
compiled swap instrument.
"""
from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-12
# ``swap`` drops a measurement outcome whose probability is below this.
PRUNE_DEFAULT = 1e-14
# An amplitude or eigenvalue within this of zero counts as zero.
ZERO_ATOL = 1e-12
# A density matrix may have eigenvalues down to -PSD_ATOL (solver noise).
PSD_ATOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_integer(x) -> bool:
    """The one input rule (README, "Input values") for a count, qubit, bit,
    shot number or seed; ``_is_finite_real`` holds it for an angle.

    A numpy integer counts as the equal int. A bool is never a number: True
    would pass as 1 yet print as "True" (``np.bool_`` is no ``numbers`` ABC).
    A float is never an integer, not even 2.0: 2**6.0 == 64 would pass a size
    check, and 1.0 equals and hashes as 1. An exact int skips the ABC test.
    """
    return type(x) is int or type(x) is not bool and isinstance(x, Integral)


def _is_finite_real(x) -> bool:
    """A real number but a bool, under ``_is_integer``'s rule, and a finite
    float: NaN, the infinities and 10**400 are refused."""
    if type(x) is not float and (type(x) is bool or not isinstance(x, Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _listed(items, what: str) -> list:
    """``items`` as a list; a value Python cannot iterate, such as None, a bool
    or an int, is refused with a ``ValueError`` that shows it."""
    try:
        return list(items)
    except TypeError:
        raise ValueError(f"{what} must be an iterable, got {items!r}") from None


def _qubit_count(n) -> int:
    # A state holds 2**n amplitudes, and a numpy array fewer than 2**63 entries.
    if not (_is_integer(n) and 1 <= n < 63):
        raise ValueError(f"num_qubits must be a positive int below 63, got {n!r}")
    return int(n)


@dataclass(frozen=True, eq=False, init=False)
class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits.

    ``__init__`` is written out, as ``protocol.CanonicalRow``'s is: it stores
    the checked fields in ``__dict__``, which costs less than the generated
    frozen ``__init__`` and its ``object.__setattr__`` per field.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __init__(self, num_qubits: int, amplitudes) -> None:
        n = _qubit_count(num_qubits)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.size}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        # Written so that NaN fails: every comparison with NaN is False.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        d = self.__dict__
        d["num_qubits"] = n
        d["amplitudes"] = _readonly(amps)

    def as_tensor(self) -> np.ndarray:
        """View the amplitudes as an n-axis tensor, one axis per qubit."""
        return self.amplitudes.reshape([2] * self.num_qubits)


def basis_state(bits: str | Sequence[int]) -> StateVector:
    """Computational basis state |b1 b2 ... bn> from bits 0 and 1, or a string of them."""
    if isinstance(bits, str):
        bits = [int(c) if c in "01" else c for c in bits]  # any other character is refused below
    elif isinstance(bits, Set):  # read in iteration order, {1, 0} would give |01>
        raise ValueError(f"bits must be ordered, not a set, got {bits!r}")
    else:
        bits = _listed(bits, "bits")
    n = len(bits)
    if n == 0:
        raise ValueError("empty bitstring")
    amps = np.zeros(2**n, dtype=complex)
    idx = 0
    for b in bits:
        if not (_is_integer(b) and b in (0, 1)):
            raise ValueError(f"bits must be the ints 0 or 1, got {b!r}")
        idx = (idx << 1) | int(b)
    amps[idx] = 1.0
    return StateVector(n, amps)


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix on ``num_qubits``;
    ``__init__`` is written out as ``StateVector``'s is."""

    num_qubits: int
    matrix: np.ndarray

    def __init__(self, num_qubits: int, matrix) -> None:
        n = _qubit_count(num_qubits)
        dim = 2**n
        mat = np.asarray(matrix, dtype=complex).copy()
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
        d = self.__dict__
        d["num_qubits"] = n
        d["matrix"] = _readonly(mat)


def reduced_density(s: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace down to the kept qubits (any non-empty subset).

    Row/column bit order follows ascending original qubit position.
    """
    keep = _listed(keep, "keep")
    n = s.num_qubits
    for q in keep:
        if not _is_integer(q):
            raise ValueError(f"qubit {q!r} must be an int")
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} out of range 1..{n}")
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep must be a non-empty subset of qubits")
    traced = [q - 1 for q in range(1, n + 1) if q not in keep_sorted]
    t = s.as_tensor()
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    dim = 2 ** len(keep_sorted)
    return DensityMatrix(len(keep_sorted), rho.reshape(dim, dim))
