"""State-vector core: construction, tensor, permutation, gates, measurement."""
from __future__ import annotations

import numpy as np
import pytest

from dnaswap.encodings import BaseCode
from dnaswap.gates import bell_basis, bell_state, BellLabel, equality_entangler, pauli, sp
from dnaswap.protocol import recognize
from dnaswap.statevec import (
    PRUNE_DEFAULT,
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    compose_perms,
    measure_two_qubit,
    permute_qubits,
    reduced_density,
    tensor,
)

RNG = np.random.default_rng(20240811)


def random_state(n: int) -> StateVector:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


# --- construction invariants ---


def test_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [bad, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(2, [0.5, 0.5, 0.5, complex(0.5, bad)])


def test_rejects_wrong_amplitude_count():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector(2, [1.0, 0.0])


def test_rejects_nonpositive_qubit_count():
    with pytest.raises(ValueError):
        StateVector(0, [1.0])


def test_amplitudes_are_immutable():
    s = basis_state("01")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


def test_supports_twelve_qubits():
    amps = np.zeros(2**12)
    amps[0] = 1.0
    assert StateVector(12, amps).num_qubits == 12


# --- tensor ---


def test_tensor_concatenates_basis_kets():
    out = tensor(basis_state("0"), basis_state("1"))
    assert np.allclose(out.amplitudes, basis_state("01").amplitudes)


def test_tensor_of_recognized_pair_expands_bilinearly(cfg):
    out = tensor(recognize(BaseCode("A"), cfg), recognize(BaseCode("T"), cfg))
    expected = np.zeros(64, dtype=complex)
    for t_bits, t_amp in (("011", 0.5), ("101", -0.5)):
        for i_bits, i_amp in (("010", 1.0), ("100", 1.0)):
            expected[int(t_bits + i_bits, 2)] = t_amp * i_amp
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_tensor_preserves_norm():
    out = tensor(random_state(3), random_state(2))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


# --- qubit permutation ---


def test_identity_permutation_is_noop():
    s = random_state(3)
    out = permute_qubits(s, (1, 2, 3))
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_interleave_maps_product_ket_to_paired_order():
    s = tensor(basis_state("011"), basis_state("010"))
    out = permute_qubits(s, (1, 4, 2, 5, 3, 6))
    assert np.allclose(out.amplitudes, basis_state("001110").amplitudes)


def test_two_qubit_swap():
    out = permute_qubits(basis_state("10"), (2, 1))
    assert np.allclose(out.amplitudes, basis_state("01").amplitudes)


def test_rejects_non_bijective_permutation():
    with pytest.raises(ValueError, match="bijection"):
        permute_qubits(basis_state("00"), (1, 1))


def test_permutation_composition_law():
    for n in (2, 4, 6):
        s = random_state(n)
        for _ in range(5):
            p = tuple(RNG.permutation(n) + 1)
            q = tuple(RNG.permutation(n) + 1)
            double = permute_qubits(permute_qubits(s, p), q)
            single = permute_qubits(s, compose_perms(p, q))
            assert np.array_equal(double.amplitudes, single.amplitudes)


# --- unitary application ---


def test_x_flips_single_qubit():
    out = apply_unitary(basis_state("0"), pauli("X"), (1,))
    assert np.allclose(out.amplitudes, basis_state("1").amplitudes)


def test_sp_quarter_turn_makes_equal_superposition():
    out = apply_unitary(basis_state("0"), sp(np.pi / 4), (1,))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_entangler_on_qubits_3_and_5():
    out = apply_unitary(basis_state("001110"), equality_entangler(), (3, 5))
    expected = (basis_state("000100").amplitudes - basis_state("001110").amplitudes) / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_apply_preserves_norm_on_random_states():
    v = equality_entangler()
    for _ in range(20):
        s = random_state(6)
        out = apply_unitary(s, v, (2, 5))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_apply_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        apply_unitary(basis_state("00"), pauli("X"), (1, 2))


def test_apply_rejects_duplicate_targets():
    with pytest.raises(ValueError, match="duplicate"):
        apply_unitary(basis_state("00"), equality_entangler(), (1, 1))


def test_apply_rejects_out_of_range_target():
    with pytest.raises(ValueError, match="out of range"):
        apply_unitary(basis_state("00"), pauli("X"), (3,))


# --- two-qubit projective measurement ---


def test_measuring_an_eigenstate_gives_single_branch():
    s = tensor(bell_state(BellLabel(0, 1)), basis_state("0"))
    branches = measure_two_qubit(s, bell_basis(), (1, 2))
    assert len(branches) == 1
    assert branches[0].outcome_label == 1  # b01 in basis order
    assert branches[0].probability == pytest.approx(1.0, abs=1e-12)


def test_product_ket_splits_into_two_bell_branches():
    branches = measure_two_qubit(basis_state("01"), bell_basis(), (1, 2))
    labels = {b.outcome_label for b in branches}
    assert labels == {1, 3}  # b01 and b11
    for b in branches:
        assert b.probability == pytest.approx(0.5, abs=1e-12)


def test_step2_measurement_on_recognized_pair_is_uniform(at_state, cfg):
    stage1 = apply_unitary(at_state, equality_entangler(), (3, 5))
    branches = measure_two_qubit(stage1, bell_basis(), (3, 4))
    assert len(branches) == 4
    for b in branches:
        assert b.probability == pytest.approx(0.25, abs=1e-12)


def test_measured_pair_is_left_collapsed():
    s = random_state(4)
    for br in measure_two_qubit(s, bell_basis(), (2, 4)):
        rho = reduced_density(br.post_state, (2, 4))
        bell = bell_basis()[br.outcome_label].amplitudes
        assert np.allclose(rho.matrix, np.outer(bell, bell.conj()), atol=1e-10)


def test_measurement_probabilities_sum_to_one_on_random_states():
    for _ in range(25):
        s = random_state(6)
        branches = measure_two_qubit(s, bell_basis(), (3, 4))
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_measurement_completeness_holds_for_any_orthonormal_basis():
    for _ in range(10):
        q, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
        basis = [StateVector(2, q[:, k]) for k in range(4)]
        s = random_state(4)
        branches = measure_two_qubit(s, basis, (2, 3))
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
        for b in branches:
            assert abs(np.linalg.norm(b.post_state.amplitudes) - 1.0) <= 1e-12


def test_measurement_rejects_non_orthonormal_basis():
    bad = [basis_state("00"), basis_state("00"), basis_state("10"), basis_state("11")]
    with pytest.raises(ValueError, match="orthonormal"):
        measure_two_qubit(basis_state("00"), bad, (1, 2))


def test_measurement_rejects_degenerate_pair():
    with pytest.raises(ValueError, match="distinct"):
        measure_two_qubit(basis_state("00"), bell_basis(), (1, 1))


def test_pruning_threshold_drops_tiny_branches():
    delta = PRUNE_DEFAULT / 10
    amps = (
        np.sqrt(1 - delta) * bell_state(BellLabel(0, 0)).amplitudes
        + np.sqrt(delta) * bell_state(BellLabel(0, 1)).amplitudes
    )
    branches = measure_two_qubit(StateVector(2, amps), bell_basis(), (1, 2))
    assert [b.outcome_label for b in branches] == [0]
    assert branches[0].probability == pytest.approx(1.0, abs=2 * delta)


# --- reduced density matrices ---


def test_reduced_bell_pair_is_maximally_mixed():
    rho = reduced_density(bell_state(BellLabel(0, 1)), (1,))
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_first_qubit_of_recognized_g(cfg):
    rho = reduced_density(recognize(BaseCode("G"), cfg), (1,))
    assert np.allclose(rho.matrix, np.diag([1 / 3, 2 / 3]), atol=1e-12)


def test_reducing_to_all_qubits_gives_projector():
    s = random_state(3)
    rho = reduced_density(s, (1, 2, 3))
    assert np.allclose(rho.matrix, np.outer(s.amplitudes, s.amplitudes.conj()), atol=1e-12)


def test_reduced_density_rejects_empty_subset():
    with pytest.raises(ValueError, match="non-empty"):
        reduced_density(basis_state("00"), ())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(1, np.diag([bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(1, np.array([[0.5, bad], [bad, 0.5]]))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
