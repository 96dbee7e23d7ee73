"""Entropy, concurrence, Hamming support, and reference verification."""
from __future__ import annotations

import ast
import math
import re
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from dnaswap import metrics, protocol, reference
from dnaswap.encodings import BaseCode
from dnaswap.gates import BELL_LABELS, BellLabel, bell_state
from dnaswap.metrics import concurrence, entanglement_entropy, hamming_support
from dnaswap.protocol import recognize, run_pair
from dnaswap.reference import verify_against_reference
from dnaswap.statevec import StateVector, basis_state, reduced_density

RNG = np.random.default_rng(424243)


def random_state(n: int):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


# --- entanglement entropy ---


def test_bell_pair_has_one_bit_across_the_cut():
    s = bell_state(BellLabel(0, 1))
    assert entanglement_entropy(s, (1,)) == pytest.approx(1.0, abs=1e-12)


def test_recognized_g_single_qubit_entropy(cfg):
    s = recognize(BaseCode("G"), cfg)
    assert entanglement_entropy(s, (1,)) == pytest.approx(binary_entropy(1 / 3), abs=1e-12)
    assert entanglement_entropy(s, (1,)) == pytest.approx(0.9183, abs=1e-4)


def test_assembled_pair_is_a_product_across_the_base_cut(at_state, gc_state):
    # Exactly +0.0: unclamped, the eigenvalue 1 + eps of the base cut reads
    # -0.0 for A.T and -3.2e-16 for G.C.
    for state in (at_state, gc_state):
        for cut in ((1, 3, 5), (2, 4, 6)):
            entropy = entanglement_entropy(state, cut)
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


def test_entropy_is_symmetric_under_complementary_cuts():
    for _ in range(10):
        s = random_state(5)
        cut = (1, 3)
        complement = (2, 4, 5)
        lhs = entanglement_entropy(s, cut)
        rhs = entanglement_entropy(s, complement)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_entropy_rejects_trivial_cuts():
    s = basis_state("00")
    with pytest.raises(ValueError, match="non-empty"):
        entanglement_entropy(s, ())
    with pytest.raises(ValueError, match="strict subset"):
        entanglement_entropy(s, (1, 2))
    # Each qubit is checked before duplicates merge: a set kept the first of
    # 1 and True, or of 2 and 2.0, so only [True, 1] was refused.
    for cut in ([1, True], [True, 1], [2, 2.0]):
        with pytest.raises(ValueError, match="must be an int"):
            entanglement_entropy(s, cut)


def test_pre_swap_intrabase_entanglement(at_state, gc_state):
    # Template qubits sit at register positions 1, 3, 5.
    assert entanglement_entropy(at_state, (1,)) == pytest.approx(1.0, abs=1e-10)
    for q in (1, 3, 5):
        assert entanglement_entropy(gc_state, (q,)) > 0.3


# --- concurrence ---


def test_bell_state_concurrence_is_one():
    rho = reduced_density(bell_state(BellLabel(0, 1)), (1, 2))
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_product_ket_concurrence_is_zero():
    rho = reduced_density(basis_state("10"), (1, 2))
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_of_single_proton_superposition_family():
    a, b = 0.51, -0.86
    norm = math.hypot(a, b)
    a, b = a / norm, b / norm
    amps = np.zeros(4, dtype=complex)
    amps[0b01], amps[0b10] = a, b
    rho = reduced_density(StateVector(2, amps), (1, 2))
    assert concurrence(rho) == pytest.approx(2 * abs(a) * abs(b), abs=1e-12)
    assert concurrence(rho) == pytest.approx(0.877, abs=1e-3)


def test_concurrence_rejects_wrong_dimension():
    rho = reduced_density(basis_state("0"), (1,))
    with pytest.raises(ValueError, match="2 qubits"):
        concurrence(rho)


# --- Hamming support ---


def test_assembled_pair_supports_weight_three_only(at_state, gc_state):
    assert hamming_support(at_state) == {3}
    assert hamming_support(gc_state) == {3}


def test_mixed_weight_state_support():
    bell, ket = bell_state(BellLabel(0, 0)).amplitudes, basis_state("10").amplitudes
    s = StateVector(4, np.kron(bell, ket))
    assert hamming_support(s) == {1, 3}


def test_every_post_correction_branch_conserves_weight(at_ensemble, gc_ensemble):
    for ens in (at_ensemble, gc_ensemble):
        for br in ens.branches:
            assert hamming_support(br.final_state) == {3}


# --- verification against the reference tables ---


def test_reference_verification_passes_for_both_pairs(at_ensemble, gc_ensemble):
    for key, ens in (("AT", at_ensemble), ("GC", gc_ensemble)):
        checks = verify_against_reference(key, ens)
        assert checks
        assert all(c.passed for c in checks)


def test_report_counts_cover_all_classes_and_rows(at_ensemble, gc_ensemble):
    at_checks = verify_against_reference("AT", at_ensemble)
    gc_checks = verify_against_reference("GC", gc_ensemble)
    at_class_checks = [
        c for c in at_checks if c.name.startswith("class[") and "exact" not in c.name
    ]
    gc_row_checks = [c for c in gc_checks if c.name.startswith("row[")]
    assert len(at_class_checks) == 4
    assert len(gc_row_checks) == 16
    assert len(at_checks) + len(gc_checks) >= 20


def test_perturbed_probability_fails_with_named_check(gc_ensemble):
    # Shift mass between two branches so the ensemble invariant still holds
    # but the canonical probabilities drift past tolerance.
    first, second = np.flatnonzero(gc_ensemble.keep)[:2]
    probs = gc_ensemble.probabilities.copy()
    probs[first] += 0.05
    probs[second] -= 0.05
    tampered = replace(gc_ensemble, probabilities=probs)
    failed = [c.name for c in verify_against_reference("GC", tampered) if not c.passed]
    assert failed
    assert any(name.startswith("row[") for name in failed)


def _group(i: int) -> tuple[int, int]:
    """(j, m) group of raw outcome 4 * i34 + i12."""
    return BELL_LABELS[i & 3].j, BELL_LABELS[i >> 2].j


def _without(ens, outcomes):
    """The ensemble with raw ``outcomes`` removed: their mass is dropped."""
    keep = ens.keep.copy()
    keep[outcomes] = False
    return replace(ens, keep=keep)


def test_at_missing_class_fails_only_its_checks(at_ensemble):
    checks = verify_against_reference(
        "AT",
        _without(at_ensemble, [i for i in np.flatnonzero(at_ensemble.keep) if _group(i) == (1, 1)]),
    )
    assert [c.name for c in checks] == ["row_count"] + [
        name for g in ("00", "01", "10", "11") for name in (f"class[{g}]", f"class[{g}].exact_p")
    ]
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["row_count", "class[11]", "class[11].exact_p"]
    assert failed[1].actual is None and failed[2].actual is None


def test_gc_missing_branch_fails_its_groups_last_row(gc_ensemble):
    gone = np.flatnonzero(gc_ensemble.keep)[0]
    checks = verify_against_reference("GC", _without(gc_ensemble, [gone]))
    assert len(checks) == 22
    j, m = _group(gone)
    (last,) = [c for c in checks if c.name == f"row[{j}{m},l=4]"]
    assert last.actual is None and not last.passed


@pytest.mark.parametrize(
    "expected, actual, tol, passed",
    [
        (4, 4, 0.0, True),
        (0.25, 0.5, 0.25, True),  # exactly at the tolerance
        ((0.0, 1.0, 0.5), (0.25, 0.75, 0.75), 0.25, True),
        ((0.0, 1.0, 0.5), (0.25, 0.75, math.nextafter(0.75, 1.0)), 0.25, False),
        (0.25, None, 0.25, False),
        ((0.0, 1.0, 0.5), None, 0.25, False),
        (0.25, math.nan, 0.25, False),
        ((0.0, 1.0, 0.5), (0.0, math.nan, 0.5), 0.25, False),
    ],
)
def test_pass_rule(monkeypatch, expected, actual, tol, passed):
    # One A.T check of this expectation and tolerance: a triple reads class
    # 00's row, a number that row's P, and with no row the check reads None.
    source = ((0, 0), 1) if isinstance(expected, tuple) else ("p", (0, 0))
    monkeypatch.setitem(reference._CHECKS, "AT", (("check", expected, source, tol),))
    row = actual if isinstance(actual, tuple) else (0.0, 1.0, actual)
    rows = [] if actual is None else [Row((0, 0), 1, *row)]
    (check,) = reference.expectations("AT", rows)
    assert repr(check) == repr(reference.Check("check", expected, actual, tol, passed))


class Row(NamedTuple):
    """A canonical row without ``CanonicalRow``'s checks: any rank, NaN, any sign."""

    group: tuple[int, int]
    rank: int
    a: float
    b: float
    probability: float


NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.25, 0.3, 1e-05, math.nan])
ROWS = st.lists(
    st.builds(
        Row,
        # GROUPS and groups outside it; ranks above 4, and few enough values
        # that ranks go missing and (group, rank) keys repeat.
        group=st.tuples(st.integers(0, 2), st.integers(0, 1)),
        rank=st.integers(1, 6),
        a=NUMBERS,
        b=NUMBERS,
        probability=NUMBERS,
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS)
@example(rows=[])
@example(rows=[Row(g, 1, 0.0, 1.0, -0.0) for g in reference.GROUPS])
# 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1: each group is summed in table order.
@example(rows=[Row((0, 0), rank, 0.0, 1.0, p) for rank, p in enumerate([0.1, 0.2, 0.3], 1)])
def test_compiled_expectations_yield_the_per_call_generators_items(rows):
    # Check for check by repr, so an int 0 group sum, a -0.0 and a NaN count too.
    for key in ("AT", "GC"):
        want = [
            repr((name, expected, actual, tol, oracle.passes(expected, actual, tol)))
            for name, expected, actual, tol in oracle.expectations(key, rows)
        ]
        assert [repr(tuple(c)) for c in reference.expectations(key, rows)] == want
        with mock.patch.object(protocol, "canonical_table", lambda e: rows):
            checks = verify_against_reference(key, None)
        assert [repr(tuple(c)) for c in checks] == want
    for key in ("TA", "CG", "XY", ""):
        with pytest.raises(ValueError, match=f"no reference data for pair {key!r}"):
            reference.expectations(key, rows)


def test_verification_rejects_unlabeled_or_unknown_pairs(at_ensemble, cfg):
    # Only "AT" and "GC" have reference tables: a reversed orientation, an
    # unknown, empty or unhashable key raises rather than running the G.C checks.
    ta = run_pair(BaseCode("T"), BaseCode("A"), cfg)
    for key in ("TA", "CG", "XY", "", ["AT"]):
        for ens in (ta, at_ensemble):
            with pytest.raises(ValueError, match=re.escape(f"no reference data for pair {key!r}")):
                verify_against_reference(key, ens)


# --- the swap moves entanglement across the fixed cut structure ---


def test_branches_are_products_of_three_bonded_pairs(gc_ensemble):
    # zero entropy between each bonded pair and the rest of the register
    for br in gc_ensemble.branches[:4]:
        for bond in ((1, 2), (3, 4), (5, 6)):
            assert entanglement_entropy(br.final_state, bond) <= 1e-10


def test_post_swap_interbase_concurrences(at_ensemble, gc_ensemble):
    for ens in (at_ensemble, gc_ensemble):
        for br in ens.branches:
            for bond in ((1, 2), (3, 4)):
                rho = reduced_density(br.final_state, bond)
                assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)
            a, b = br.third_pair
            rho56 = reduced_density(br.final_state, (5, 6))
            assert concurrence(rho56) == pytest.approx(2 * abs(a) * abs(b), abs=1e-10)


# --- metrics reads states only ---


def _package_imports(tree: ast.AST) -> set[str]:
    """The dnaswap modules a module's tree imports: ``protocol`` for ``from
    .protocol import x``, ``from . import protocol`` or ``import dnaswap.protocol``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # A relative import is from the package: ``from . import x`` names module x.
            module = node.module
            if node.level:
                module = f"dnaswap.{module}" if module else "dnaswap"
            names = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            package, _, rest = name.partition(".")
            if package == "dnaswap":
                found.add(rest.partition(".")[0] or package)
    return found


def test_metrics_imports_only_statevec_from_the_package():
    # The diagnostics take states, so a caller anywhere in the package (a
    # per-step protocol trace too) can import them without an import cycle.
    tree = ast.parse(Path(metrics.__file__).read_text())
    assert _package_imports(tree) == {"statevec"}
    # The guard sees each form of a package import.
    code = """
from .protocol import canonical_table
from . import reference
from dnaswap.encodings import BaseCode
from dnaswap import gates
import dnaswap.cli
import numpy as np
"""
    want = {"protocol", "reference", "encodings", "gates", "cli"}
    assert _package_imports(ast.parse(code)) == want
