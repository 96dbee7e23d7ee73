"""Dense Kronecker-product evaluation of the pairing protocol.

The benchmark checks dnaswap's output against this module. It shares only
the published conventions with the package: qubit 1 is the most significant
bit, the Bell labels b_jk, the entangler V, the recognition targets as
functions of (theta, phi), the interleave (1, 4, 2, 5, 3, 6) and the
correction rule (X on 4, 5 after b_j0 on (3, 4); X on 2, 5 after b_j0 on
(1, 2)). Every operator is a full 64 x 64 matrix built from Kronecker
products, so it runs none of the package's axis contractions.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

N = 6
DEFAULT_THETA = math.acos(math.sqrt(2.0 / 3.0))
DEFAULT_PHI = math.pi / 4

_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_R2 = 1.0 / math.sqrt(2.0)
# b_jk: k selects the even (|00>,|11>) or odd (|01>,|10>) pair, j the sign.
BELL = {
    (j, k): np.array([1, 0, 0, (-1) ** j] if k == 0 else [0, 1, (-1) ** j, 0]) * _R2
    for j in (0, 1)
    for k in (0, 1)
}
_V = np.array([[_R2, 0, 0, _R2], [0, 1, 0, 0], [0, 0, 1, 0], [_R2, 0, 0, -_R2]])


def ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


def targets(theta: float, phi: float) -> dict[str, np.ndarray]:
    """Recognized pairing face of each base: U applied to its initial ket."""
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return {
        "A": cp * ket("011") - sp * ket("101"),
        "T": cp * ket("010") + sp * ket("100"),
        "G": ct * sp * ket("011") + ct * cp * ket("101") + st * ket("110"),
        "C": ct * cp * ket("100") - ct * sp * ket("010") + st * ket("001"),
    }


def on_qubits(op: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Full-register matrix of ``op`` acting on ``qubits`` (1-based, in order).

    ``op`` is expanded in elementary matrices |r><c| per qubit; each term is
    a Kronecker product with identities on the other qubits.
    """
    k = len(qubits)
    total = np.zeros((2**N, 2**N), dtype=complex)
    for row in range(2**k):
        for col in range(2**k):
            coeff = op[row, col]
            if coeff == 0:
                continue
            factors = [_I] * N
            for pos, q in enumerate(qubits):
                r = (row >> (k - 1 - pos)) & 1
                c = (col >> (k - 1 - pos)) & 1
                factors = factors[: q - 1] + [np.outer(ket(str(r)), ket(str(c)))] + factors[q:]
            total += coeff * reduce(np.kron, factors)
    return total


def _interleave() -> np.ndarray:
    """Permutation matrix taking |t1 t2 t3 i1 i2 i3> to |t1 i1 t2 i2 t3 i3>."""
    perm = np.zeros((2**N, 2**N))
    for old in range(2**N):
        b = format(old, "06b")
        perm[int(b[0] + b[3] + b[1] + b[4] + b[2] + b[5], 2), old] = 1.0
    return perm


_PROJ = {
    (pair, label): on_qubits(np.outer(vec, vec), pair)
    for pair in ((3, 4), (1, 2))
    for label, vec in BELL.items()
}
_V35 = on_qubits(_V, (3, 5))
_X45 = on_qubits(np.kron(_X, _X), (4, 5))
_X25 = on_qubits(np.kron(_X, _X), (2, 5))
_PERM = _interleave()


def branches(template: str, incoming: str, theta: float = DEFAULT_THETA,
             phi: float = DEFAULT_PHI) -> dict[tuple[str, str], tuple[float, complex, complex]]:
    """All 16 trajectories keyed by raw (bell_34, bell_12) text labels.

    Values are (probability, a, b), with (a, b) the amplitudes of |01> and
    |10> on qubits (5, 6) against the corrected Bell pairs; a branch of zero
    probability has a = b = 0.
    """
    t = targets(theta, phi)
    psi = _V35 @ (_PERM @ np.kron(t[template], t[incoming]))
    out = {}
    for j34, k34 in BELL:
        after34 = _PROJ[((3, 4), (j34, k34))] @ psi
        if k34 == 0:
            after34 = _X45 @ after34
        for j12, k12 in BELL:
            final = _PROJ[((1, 2), (j12, k12))] @ after34
            p = float(np.vdot(final, final).real)
            a = b = 0j
            if p > 0:
                if k12 == 0:
                    final = _X25 @ final
                final = final / math.sqrt(p)
                ref = np.kron(BELL[(j12, 1)], BELL[(j34, 1)])
                a = complex(np.vdot(np.kron(ref, ket("01")), final))
                b = complex(np.vdot(np.kron(ref, ket("10")), final))
            out[(f"b{j34}{k34}", f"b{j12}{k12}")] = (p, a, b)
    return out
