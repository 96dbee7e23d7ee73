"""Entropy, concurrence and Hamming support: the state diagnostics."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dnaswap import metrics
from dnaswap.encodings import BaseCode
from dnaswap.gates import BellLabel, bell_state
from dnaswap.metrics import concurrence, entanglement_entropy, hamming_support
from dnaswap.protocol import recognize
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
