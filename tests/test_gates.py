"""U and V as matrices, the Bell convention, and the correction algebra."""
from __future__ import annotations

import math

import numpy as np
import pytest

import _oracle as oracle
from dnaswap.gates import BELL, BELL_LABELS, V, BellLabel
from dnaswap.protocol import ProtocolConfig, build_recognition_unitary

S2 = math.sqrt(2.0)


def test_all_protocol_gates_pass_unitarity():
    angles = ((0.7, 1.3), (-2.0, 0.4))
    gates = [V, build_recognition_unitary()]
    gates += [build_recognition_unitary(ProtocolConfig(t, p)) for t, p in angles]
    for g in gates:
        assert type(g) is np.ndarray and g.dtype == complex and not g.flags.writeable
        dev = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
        assert dev <= 1e-12


# --- equality entangler V ---


def test_entangler_fixes_unequal_bits():
    assert np.allclose(V @ [0, 1, 0, 0], [0, 1, 0, 0])
    assert np.allclose(V @ [0, 0, 1, 0], [0, 0, 1, 0])


def test_entangler_splits_equal_bits():
    assert np.allclose(V @ [1, 0, 0, 0], [1 / S2, 0, 0, 1 / S2], atol=1e-15)
    assert np.allclose(V @ [0, 0, 0, 1], [1 / S2, 0, 0, -1 / S2], atol=1e-15)


def test_entangler_is_an_involution():
    assert np.allclose(V @ V, np.eye(4), atol=1e-15)


# --- Bell states ---


def test_bell_states_match_frozen_convention():
    h = 1 / S2
    assert np.allclose(BELL[BELL_LABELS.index(BellLabel(0, 0))], [h, 0, 0, h])
    assert np.allclose(BELL[BELL_LABELS.index(BellLabel(1, 0))], [h, 0, 0, -h])
    assert np.allclose(BELL[BELL_LABELS.index(BellLabel(0, 1))], [0, h, h, 0])
    assert np.allclose(BELL[BELL_LABELS.index(BellLabel(1, 1))], [0, h, -h, 0])


def test_bell_rows_are_orthonormal():
    assert type(BELL) is np.ndarray and BELL.dtype == complex and not BELL.flags.writeable
    for i, a in enumerate(BELL):
        for j, b in enumerate(BELL):
            overlap = np.vdot(a, b)
            assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-12


def test_bell_label_text_and_validation():
    assert BellLabel(0, 1).text == "b01"
    assert [lab.text for lab in BELL_LABELS] == ["b00", "b01", "b10", "b11"]
    with pytest.raises(ValueError):
        BellLabel(2, 0)


@pytest.mark.parametrize("bits", [(True, 0), (0, False), (1.0, 0), (0, 0.0)])
def test_bell_label_bits_are_the_ints_0_and_1(bits):
    # True and 1.0 equal and hash as 1, so they would collide with b10 as a
    # sample key while printing as "bTrue0" or "b1.00".
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BellLabel(*bits)


def test_bell_label_takes_numpy_integer_bits():
    label = BellLabel(np.int64(1), np.uint8(0))
    assert label == BellLabel(1, 0) and hash(label) == hash(BellLabel(1, 0))
    assert label.text == "b10"


def test_x_on_second_qubit_repairs_bell_labels():
    # The step-3/5 correction: sends b00 -> b01 and b10 -> b11, turning
    # zero/two-proton bond states into one-proton ones.
    ix = np.kron(np.eye(2), oracle.X)
    assert np.allclose(ix @ BELL[BELL_LABELS.index(BellLabel(0, 0))],
                       BELL[BELL_LABELS.index(BellLabel(0, 1))])
    assert np.allclose(ix @ BELL[BELL_LABELS.index(BellLabel(1, 0))],
                       BELL[BELL_LABELS.index(BellLabel(1, 1))])
