"""Entanglement and conservation diagnostics for protocol states.

Entropy quantifies entanglement across register cuts, Wootters concurrence
quantifies it between qubit pairs, and Hamming-weight support makes the
proton-count bookkeeping of the protocol assertable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .protocol import CanonicalRow, Ensemble, canonical_table
from .statevec import ZERO_ATOL, DensityMatrix, StateVector, reduced_density
from . import reference

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
    """Von Neumann entropy (bits) of the reduced state on ``cut``."""
    cut = sorted(set(cut))
    if not cut or len(cut) >= s.num_qubits:
        raise ValueError("cut must be a non-empty strict subset of the qubits")
    rho = reduced_density(s, cut)
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = eigs[eigs > ZERO_ATOL]
    return float(-np.sum(eigs * np.log2(eigs)))


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


def hamming_support(s: StateVector, tol: float = ZERO_ATOL) -> set[int]:
    """Hamming weights of the basis kets carrying amplitude above ``tol``."""
    return {
        int(i).bit_count()
        for i, amp in enumerate(s.amplitudes)
        if abs(amp) > tol
    }


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    """Comparison of one ensemble against the frozen reference tables."""

    pair: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected, actual, tolerance: float, passed: bool) -> None:
        self.checks.append(Check(name, expected, actual, tolerance, passed))


def _row_map(rows: list[CanonicalRow]) -> dict[tuple[tuple[int, int], int], CanonicalRow]:
    return {(row.group, row.rank): row for row in rows}


def _verify_at(report: VerificationReport, rows: list[CanonicalRow]) -> None:
    report.add("row_count", 4, len(rows), 0.0, len(rows) == 4)
    by_group = _row_map(rows)
    for group in reference.GROUPS:
        name = f"class[{group[0]}{group[1]}]"
        row = by_group.get((group, 1))
        p_ref = reference.AT_CLASS_P[group]
        p_exact = reference.AT_CLASS_P_EXACT[group]
        a_ref, b_ref = reference.AT_THIRD_PAIR
        if row is None:
            report.add(name, (a_ref, b_ref, p_ref), None, reference.COARSE_TOL, False)
            report.add(name + ".exact_p", p_exact, None, reference.EXACT_TOL, False)
            continue
        ok = (
            abs(row.a - a_ref) <= reference.COARSE_TOL
            and abs(row.b - b_ref) <= reference.COARSE_TOL
            and abs(row.probability - p_ref) <= reference.COARSE_TOL
        )
        report.add(name, (a_ref, b_ref, p_ref), (row.a, row.b, row.probability),
                   reference.COARSE_TOL, ok)
        ok_exact = abs(row.probability - p_exact) <= reference.EXACT_TOL
        report.add(name + ".exact_p", p_exact, row.probability, reference.EXACT_TOL, ok_exact)


def _verify_gc(report: VerificationReport, rows: list[CanonicalRow]) -> None:
    report.add("row_count", 16, len(rows), 0.0, len(rows) == 16)
    by_group = _row_map(rows)
    total = 0.0
    for group in reference.GROUPS:
        group_rows = [r for r in rows if r.group == group]
        group_p = sum(r.probability for r in group_rows)
        total += group_p
        report.add(
            f"group_p_sum[{group[0]}{group[1]}]", 0.25, group_p,
            reference.EXACT_TOL, abs(group_p - 0.25) <= reference.EXACT_TOL,
        )
        for rank, (a_ref, b_ref, p_ref) in enumerate(
            reference.gc_normalized_rows(group), start=1
        ):
            name = f"row[{group[0]}{group[1]},l={rank}]"
            row = by_group.get((group, rank))
            if row is None:
                report.add(name, (a_ref, b_ref, p_ref), None, reference.COARSE_TOL, False)
                continue
            ok = (
                abs(row.a - a_ref) <= reference.COARSE_TOL
                and abs(row.b - b_ref) <= reference.COARSE_TOL
                and abs(row.probability - p_ref) <= reference.COARSE_TOL
            )
            report.add(name, (a_ref, b_ref, p_ref), (row.a, row.b, row.probability),
                       reference.COARSE_TOL, ok)
    report.add("total_p", 1.0, total, reference.EXACT_TOL,
               abs(total - 1.0) <= reference.EXACT_TOL)


def verify_against_reference(e: Ensemble) -> VerificationReport:
    """Check an ensemble's canonical table against the frozen references."""
    if e.pair is None:
        raise ValueError("ensemble carries no pair label")
    template, incoming = e.pair
    if template.rare or incoming.rare:
        raise ValueError(f"no reference data for pair {template}.{incoming}")
    key = template.base + incoming.base
    if key not in ("AT", "GC"):
        raise ValueError(f"no reference data for pair {template}.{incoming}")
    rows = canonical_table(e)
    report = VerificationReport(pair=key)
    if key == "AT":
        _verify_at(report, rows)
    else:
        _verify_gc(report, rows)
    return report
