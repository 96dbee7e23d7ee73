"""State-vector core: construction, the interleave, Bell outcomes, reduced and density matrices."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import _oracle as oracle
from dnaswap.encodings import BaseCode
from dnaswap.gates import BELL, V, bell_state, BellLabel
from dnaswap.protocol import _INTERLEAVE_INDEX, recognize, swap
from dnaswap.statevec import DensityMatrix, StateVector, basis_state, reduced_density

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


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_norm_threshold_sits_at_norm_atol(kind, sign):
    # |norm - 1| = 5e-13 is inside NORM_ATOL = 1e-12 and 2e-12 is outside,
    # on a 6-qubit register, whatever way the norm is computed.
    rng = np.random.default_rng(64)
    amps = rng.normal(size=64) + (1j * rng.normal(size=64) if kind == "complex" else 0)
    amps /= np.linalg.norm(amps)
    assert StateVector(6, amps * (1.0 + sign * 5e-13)).num_qubits == 6
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(6, amps * (1.0 + sign * 2e-12))


def test_rejects_wrong_amplitude_count():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector(2, [1.0, 0.0])


def test_rejects_nonpositive_qubit_count():
    with pytest.raises(ValueError):
        StateVector(0, [1.0])
    for bits in ("", []):
        with pytest.raises(ValueError, match="^empty bitstring$"):
            basis_state(bits)


@pytest.mark.parametrize("n, amps", [(6.0, np.eye(64)[0]), (True, [1.0, 0.0])])
def test_state_vector_qubit_count_is_an_int(n, amps):
    # 6.0 passed the size check (2**6.0 == 64) and then broke as_tensor.
    with pytest.raises(ValueError, match="num_qubits must be a positive int"):
        StateVector(n, amps)


def test_qubit_count_takes_a_numpy_integer():
    # Held as the equal int: 2**np.int8(7) would overflow int8.
    s = StateVector(np.int8(7), np.eye(128)[0])
    assert type(s.num_qubits) is int and s.as_tensor().shape == (2,) * 7
    assert DensityMatrix(np.int64(1), np.eye(2) / 2).num_qubits == 1


def test_qubit_count_beyond_any_array_is_refused():
    # 2**(2**70) amplitudes were computed for the size check.
    with pytest.raises(ValueError, match="num_qubits must be a positive int below 63"):
        StateVector(2**70, [1.0, 0.0])
    with pytest.raises(ValueError, match="num_qubits must be a positive int below 63"):
        DensityMatrix(63, np.eye(2))


@pytest.mark.parametrize("n, dim", [(2.0, 4), (True, 2)])
def test_density_matrix_qubit_count_is_an_int(n, dim):
    # (4, 4) == (4.0, 4.0), so a float count passed the shape check.
    with pytest.raises(ValueError, match="num_qubits must be a positive int"):
        DensityMatrix(n, np.eye(dim) / dim)


def test_amplitudes_are_immutable():
    s = basis_state("01")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0
    # Neither field of either type can be reassigned, which would skip its checks.
    rho = DensityMatrix(1, np.eye(2) / 2)
    for value, field, new in [(s, "amplitudes", np.zeros(4)), (s, "num_qubits", 5),
                              (rho, "matrix", np.zeros((2, 2))), (rho, "num_qubits", 2)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, new)
    assert s.num_qubits == 2 and np.array_equal(s.amplitudes, [0, 1, 0, 0])


@pytest.mark.parametrize("bits", [[True, False], [1.0, 0]])
def test_basis_state_bits_are_the_ints_0_and_1(bits):
    # True passed as 1, giving |10>; 1.0 passed the check and then failed in ``|``.
    message = rf"^bits must be the ints 0 or 1, got {re.escape(repr(bits[0]))}$"
    with pytest.raises(ValueError, match=message):
        basis_state(bits)


def test_basis_state_takes_numpy_integer_bits():
    want = basis_state("10").amplitudes
    assert np.array_equal(basis_state([np.int64(1), 0]).amplitudes, want)
    # A uint8 bit is read as the equal int, so the index does not wrap at 8 bits.
    nine = [np.uint8(1)] + [np.uint8(0)] * 8
    assert np.array_equal(basis_state(nine).amplitudes, basis_state("1" + "0" * 8).amplitudes)
    for bits in [(1, 0), np.array([1, 0]), np.array([1, 0], dtype=np.uint8)]:
        assert np.array_equal(basis_state(bits).amplitudes, want)


@pytest.mark.parametrize("bits", ["\uff11\uff10", "0a", "0 1", "+1"])
def test_basis_state_string_takes_only_ascii_0_and_1(bits):
    # int() read full-width digits as bits, and "0a" raised int()'s own message.
    bad = next(c for c in bits if c not in "01")
    message = rf"^bits must be the ints 0 or 1, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        basis_state(bits)


@pytest.mark.parametrize("call, value", [
    (basis_state, True), (basis_state, None), (basis_state, 5), (basis_state, np.array(1)),
    (lambda keep: reduced_density(basis_state("01"), keep), 5),
    (lambda keep: reduced_density(basis_state("01"), keep), None),
], ids=["bits-True", "bits-None", "bits-5", "bits-0d-array", "keep-5", "keep-None"])
def test_a_container_argument_that_is_not_iterable_is_refused_with_its_value(call, value):
    # Each raised a bare TypeError ("has no len()", "not iterable").
    with pytest.raises(ValueError, match=rf"must be an iterable, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("bits", [{1, 0}, frozenset({1, 0})], ids=["set", "frozenset"])
def test_basis_state_refuses_bits_in_a_set(bits):
    # A set's bits were read in its iteration order: {1, 0} gave |01>.
    message = rf"^bits must be ordered, not a set, got {re.escape(repr(bits))}$"
    with pytest.raises(ValueError, match=message):
        basis_state(bits)
    # Ordered containers and a generator are read in their order, and the kept
    # qubits may still be a set: ``reduced_density`` sorts them.
    want = basis_state("10").amplitudes
    for ordered in ([1, 0], (1, 0), np.array([1, 0]), (b for b in (1, 0))):
        assert np.array_equal(basis_state(ordered).amplitudes, want)
    rho = reduced_density(basis_state("10"), {2, 1})
    assert np.array_equal(rho.matrix, np.outer(want, want))


def test_supports_twelve_qubits():
    amps = np.zeros(2**12)
    amps[0] = 1.0
    assert StateVector(12, amps).num_qubits == 12


# --- the qubit interleave and the entangler's placement ---


def test_interleave_maps_product_ket_to_paired_order():
    # |t1 t2 t3> = |011>, |i1 i2 i3> = |010>  ->  |t1 i1 t2 i2 t3 i3> = |001110>.
    product = np.kron(basis_state("011").amplitudes, basis_state("010").amplitudes)
    assert np.array_equal(product[_INTERLEAVE_INDEX], basis_state("001110").amplitudes)


def test_entangler_on_qubits_3_and_5():
    v35 = oracle.dense.on_qubits(V, (3, 5))
    out = v35 @ basis_state("001110").amplitudes
    expected = (basis_state("000100").amplitudes - basis_state("001110").amplitudes) / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-12)


# --- Bell-basis outcome probabilities ---


def bell_probabilities(amps: np.ndarray) -> np.ndarray:
    """|<b_k|psi>|^2 for the 2-qubit register psi, in BELL_LABELS order."""
    return np.array([abs(np.vdot(b, amps)) ** 2 for b in BELL])


def test_measuring_an_eigenstate_gives_single_branch():
    p = bell_probabilities(bell_state(BellLabel(0, 1)).amplitudes)
    assert np.allclose(p, [0.0, 1.0, 0.0, 0.0], atol=1e-12)  # b01 in basis order


def test_product_ket_splits_into_two_bell_branches():
    p = bell_probabilities(basis_state("01").amplitudes)
    assert np.allclose(p, [0.0, 0.5, 0.0, 0.5], atol=1e-12)  # b01 and b11


# --- the protocol's step-2 measurement ---


def test_step2_measurement_on_recognized_pair_is_uniform(at_state):
    # The (3,4) marginal of the swap's 16 outcome probabilities.
    p34 = swap(at_state).probabilities.reshape(4, 4).sum(axis=1)
    assert np.allclose(p34, 0.25, atol=1e-12)


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


@pytest.mark.parametrize("q", [1.5, 2.0, True, False, np.float64(1.0), "1", None])
def test_reduced_density_rejects_a_qubit_that_is_not_an_int(q):
    with pytest.raises(ValueError, match=rf"^qubit {re.escape(repr(q))} must be an int$"):
        reduced_density(basis_state("00"), [q])
    with pytest.raises(ValueError, match="must be an int"):
        reduced_density(basis_state("00"), [1, q])


def test_reduced_density_accepts_numpy_integer_qubits():
    s = basis_state("01")
    rho = reduced_density(s, [np.int64(2)])
    assert np.array_equal(rho.matrix, reduced_density(s, [2]).matrix)
    assert np.array_equal(rho.matrix, reduced_density(s, np.array([2])).matrix)
    assert np.array_equal(rho.matrix, np.diag([0.0, 1.0]))


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
