"""Gate constructors, the Bell convention, and the correction algebra."""
from __future__ import annotations

import math

import numpy as np
import pytest

from dnaswap.gates import (
    BELL_LABELS,
    BellLabel,
    Gate,
    bell_basis,
    bell_state,
    equality_entangler,
    pauli,
    rotation,
    sp,
)

S2 = math.sqrt(2.0)


def test_rotation_at_zero_is_identity():
    assert np.allclose(rotation(0.0).matrix, np.eye(2), atol=1e-15)


def test_rotation_quarter_turn():
    assert np.allclose(rotation(math.pi / 2).matrix, [[0, -1], [1, 0]], atol=1e-15)


def test_rotation_eighth_turn_sign_pattern():
    h = 1 / S2
    assert np.allclose(rotation(math.pi / 4).matrix, [[h, -h], [h, h]], atol=1e-15)


def test_rotation_rejects_non_finite_angle():
    with pytest.raises(ValueError, match="finite"):
        rotation(float("nan"))


def test_sp_quarter_turn_is_hadamard():
    h = 1 / S2
    assert np.allclose(sp(math.pi / 4).matrix, [[h, h], [h, -h]], atol=1e-15)


def test_sp_at_zero_is_pauli_z():
    assert np.allclose(sp(0.0).matrix, pauli("Z").matrix, atol=1e-15)


def test_sp_at_default_theta():
    theta = math.acos(S2 / math.sqrt(3.0))
    expected = [[0.816497, 0.577350], [0.577350, -0.816497]]
    assert np.allclose(sp(theta).matrix, expected, atol=1e-6)


def test_sp_is_hermitian_for_all_angles():
    for theta in np.linspace(-2 * math.pi, 2 * math.pi, 17):
        m = sp(theta).matrix
        assert np.array_equal(m, m.conj().T)


def test_gate_unitarity_is_enforced():
    with pytest.raises(ValueError, match="not unitary"):
        Gate("bad", np.array([[1, 0], [1, 1]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gate_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Gate("n", np.full((2, 2), bad))
    with pytest.raises(ValueError, match="non-finite"):
        Gate("n", np.diag([1.0, 1.0, 1.0, bad]))


def test_all_protocol_gates_pass_unitarity():
    for g in (rotation(0.7), sp(1.3), sp(math.pi / 4), pauli("X"), pauli("Z"), equality_entangler()):
        dev = np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(2**g.arity)))
        assert dev <= 1e-12


def test_pauli_actions():
    assert np.allclose(pauli("X").matrix @ [0, 1], [1, 0])
    assert np.allclose(pauli("Z").matrix @ [0, 1], [0, -1])


def test_pauli_rejects_unknown_name():
    with pytest.raises(ValueError):
        pauli("Y")


# --- equality entangler V ---


def test_entangler_fixes_unequal_bits():
    v = equality_entangler().matrix
    assert np.allclose(v @ [0, 1, 0, 0], [0, 1, 0, 0])
    assert np.allclose(v @ [0, 0, 1, 0], [0, 0, 1, 0])


def test_entangler_splits_equal_bits():
    v = equality_entangler().matrix
    assert np.allclose(v @ [1, 0, 0, 0], [1 / S2, 0, 0, 1 / S2], atol=1e-15)
    assert np.allclose(v @ [0, 0, 0, 1], [1 / S2, 0, 0, -1 / S2], atol=1e-15)


def test_entangler_is_an_involution():
    v = equality_entangler().matrix
    assert np.allclose(v @ v, np.eye(4), atol=1e-15)


# --- Bell states ---


def test_bell_states_match_frozen_convention():
    h = 1 / S2
    assert np.allclose(bell_state(BellLabel(0, 0)).amplitudes, [h, 0, 0, h])
    assert np.allclose(bell_state(BellLabel(1, 0)).amplitudes, [h, 0, 0, -h])
    assert np.allclose(bell_state(BellLabel(0, 1)).amplitudes, [0, h, h, 0])
    assert np.allclose(bell_state(BellLabel(1, 1)).amplitudes, [0, h, -h, 0])


def test_bell_basis_is_orthonormal():
    basis = bell_basis()
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            overlap = np.vdot(a.amplitudes, b.amplitudes)
            assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-12


def test_bell_label_text_and_validation():
    assert BellLabel(0, 1).text == "b01"
    assert [lab.text for lab in BELL_LABELS] == ["b00", "b01", "b10", "b11"]
    with pytest.raises(ValueError):
        BellLabel(2, 0)


def test_x_on_second_qubit_repairs_bell_labels():
    # The step-3/5 correction: sends b00 -> b01 and b10 -> b11, turning
    # zero/two-proton bond states into one-proton ones.
    ix = np.kron(np.eye(2), pauli("X").matrix)
    assert np.allclose(ix @ bell_state(BellLabel(0, 0)).amplitudes,
                       bell_state(BellLabel(0, 1)).amplitudes)
    assert np.allclose(ix @ bell_state(BellLabel(1, 0)).amplitudes,
                       bell_state(BellLabel(1, 1)).amplitudes)
