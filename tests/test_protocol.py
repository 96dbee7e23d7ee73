"""Recognition unitary, pair assembly, swap enumeration, canonical tables."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from dnaswap import protocol
from dnaswap.encodings import (
    BaseCode,
    UnsupportedEncodingError,
    wc_initial_pattern,
    wc_initial_state,
)
from dnaswap.gates import BELL_LABELS, BellLabel, Gate, bell_basis, equality_entangler, pauli
from dnaswap.protocol import (
    DEFAULT_PHI,
    DEFAULT_THETA,
    INTERLEAVE,
    ProtocolConfig,
    assemble_pair,
    build_recognition_unitary,
    canonical_table,
    recognize,
    recognition_targets,
    run_pair,
    sample,
    swap,
)
from dnaswap.statevec import (
    StateVector,
    apply_unitary,
    basis_state,
    measure_two_qubit,
    permute_qubits,
    tensor,
)

A, T, G, C = (BaseCode(b) for b in "ATGC")
S2, S3 = math.sqrt(2.0), math.sqrt(3.0)

# theta = +-pi/2 zeroes cos(theta) in the three-component targets; a
# completion that projects candidate kets against them loses orthogonality
# just off these angles.
NEAR_DEGENERATE_THETAS = [
    sign * math.pi / 2 + offset
    for sign in (1, -1)
    for offset in (0.0, 1e-4, -1e-4, 1e-6, -1e-6, 1e-8, -1e-8)
]

# Exact branch probabilities of the A.T run, by raw outcome pattern:
# hi when both measurements give the same label, lo when they differ only
# in the sign bit j, 1/32 otherwise.
P_HI = (3.0 + 2.0 * S2) / 32.0
P_LO = (3.0 - 2.0 * S2) / 32.0
P_MID = 1.0 / 32.0

# Canonical G.C rows for groups with m = 0; m = 1 flips the sign of b.
GC_ROWS_M0 = (
    (0.505449465124423, -0.862856209461016, 0.108728154510364),
    (0.382683432365090, +0.923879532511286, 0.094839265621475),
    (0.959682982260667, -0.281084637714820, 0.030160734378525),
    (0.923879532511286, -0.382683432365090, 0.016271845489636),
)
GC_ROWS_M1 = tuple((a, -b, p) for a, b, p in GC_ROWS_M0)


def expected_at_probability(raw34, raw12) -> float:
    if raw34 == raw12:
        return P_HI
    if raw34.k == raw12.k:
        return P_LO
    return P_MID


# --- recognition unitary ---


def test_recognized_states_match_printed_rows(cfg):
    cases = {
        "A": {"011": 1 / S2, "101": -1 / S2},
        "T": {"010": 1 / S2, "100": 1 / S2},
        "G": {"011": 1 / S3, "101": 1 / S3, "110": 1 / S3},
        "C": {"100": 1 / S3, "010": -1 / S3, "001": 1 / S3},
    }
    for code, terms in cases.items():
        expected = np.zeros(8, dtype=complex)
        for bits, amp in terms.items():
            expected[int(bits, 2)] = amp
        got = recognize(BaseCode(code), cfg)
        assert np.allclose(got.amplitudes, expected, atol=1e-12), code


def unitarity_deviation(u) -> float:
    return float(np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(8))))


@pytest.mark.parametrize("phi", [DEFAULT_PHI, 0.0, 1.3], ids=lambda v: f"phi={v:.4g}")
@pytest.mark.parametrize(
    "theta", [DEFAULT_THETA, *NEAR_DEGENERATE_THETAS], ids=lambda v: f"theta={v:.10g}"
)
def test_recognition_unitary_is_unitary(theta, phi):
    u = build_recognition_unitary(ProtocolConfig(theta=theta, phi=phi))
    assert unitarity_deviation(u) <= 1e-12


@pytest.mark.parametrize("theta", NEAR_DEGENERATE_THETAS, ids=lambda v: f"theta={v:.10g}")
def test_run_pair_succeeds_near_degenerate_theta(theta):
    cfg = ProtocolConfig(theta=theta)
    for template, incoming in ((A, T), (G, C)):
        ens = run_pair(template, incoming, cfg)
        rows = canonical_table(ens)
        kept = sum(br.probability for br in ens.branches)
        assert kept + ens.dropped_mass == pytest.approx(1.0, abs=1e-12)
        assert sum(row.probability for row in rows) == pytest.approx(kept, abs=1e-12)


ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=math.pi / 2 - 1e-3, max_value=math.pi / 2 + 1e-3),
    st.floats(min_value=-math.pi / 2 - 1e-3, max_value=-math.pi / 2 + 1e-3),
)


@settings(max_examples=200, deadline=None)
@given(theta=ANGLES, phi=ANGLES)
def test_recognition_reads_the_pinned_columns_of_a_unitary_u(theta, phi):
    cfg = ProtocolConfig(theta=theta, phi=phi)
    u = build_recognition_unitary(cfg)
    assert unitarity_deviation(u) <= 1e-12
    for code in (A, T, G, C):
        column = u.matrix @ wc_initial_state(code).amplitudes
        assert np.array_equal(column, recognize(code, cfg).amplitudes), code


def test_recognition_targets_stay_orthonormal_off_default_angles():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cfg = ProtocolConfig(theta=rng.uniform(-3, 3), phi=rng.uniform(-3, 3))
        cols = list(recognition_targets(cfg).values())
        gram = np.array([[np.vdot(x, y) for y in cols] for x in cols])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_recognition_target_amplitude_pattern_off_default():
    cfg = ProtocolConfig(theta=0.3, phi=0.9)
    targets = recognition_targets(cfg)
    ct, st = math.cos(0.3), math.sin(0.3)
    cp, sp_ = math.cos(0.9), math.sin(0.9)
    g_row = targets[(0, 1, 1)]
    assert g_row[0b011] == pytest.approx(ct * sp_, abs=1e-15)
    assert g_row[0b101] == pytest.approx(ct * cp, abs=1e-15)
    assert g_row[0b110] == pytest.approx(st, abs=1e-15)
    a_row = targets[(1, 0, 1)]
    assert a_row[0b011] == pytest.approx(cp, abs=1e-15)
    assert a_row[0b101] == pytest.approx(-sp_, abs=1e-15)


def test_recognize_rejects_rare_tautomers(cfg):
    with pytest.raises(UnsupportedEncodingError):
        recognize(BaseCode("A", rare=True), cfg)


def test_recognize_output_is_normalized(cfg):
    for code in (A, T, G, C):
        assert abs(np.linalg.norm(recognize(code, cfg).amplitudes) - 1.0) <= 1e-12


def test_config_rejects_non_finite_angles():
    for bad in (
        {"theta": float("inf")},
        {"phi": float("nan")},
        {"prune_threshold": -1e-14},
        {"prune_threshold": float("nan")},
        {"prune_threshold": float("inf")},
    ):
        with pytest.raises(ValueError):
            ProtocolConfig(**bad)
    with pytest.raises(TypeError):
        ProtocolConfig(bell_convention="b00=(00+11)/sqrt2")
    assert ProtocolConfig(prune_threshold=0.0).prune_threshold == 0.0


# --- pair assembly ---


def test_assembled_at_matches_printed_expansion(at_state):
    expected = np.zeros(64, dtype=complex)
    for bits, sign in (("001110", 1), ("011010", 1), ("100110", -1), ("110010", -1)):
        expected[int(bits, 2)] = sign * 0.5
    assert np.allclose(at_state.amplitudes, expected, atol=1e-12)


def test_assembled_gc_matches_printed_expansion(gc_state):
    expected = np.zeros(64, dtype=complex)
    plus = ("011010", "110010", "111000", "001011", "100011", "101001")
    minus = ("001110", "100110", "101100")
    for bits in plus:
        expected[int(bits, 2)] = 1.0 / 3.0
    for bits in minus:
        expected[int(bits, 2)] = -1.0 / 3.0
    assert np.allclose(gc_state.amplitudes, expected, atol=1e-12)


def test_assembled_components_all_have_weight_three(at_state, gc_state):
    for state in (at_state, gc_state):
        for i, amp in enumerate(state.amplitudes):
            if abs(amp) > 1e-12:
                assert int(i).bit_count() == 3


def test_assemble_rejects_non_complementary_pairs(cfg):
    with pytest.raises(ValueError, match="unsupported pairing"):
        assemble_pair(A, C, cfg)


def test_assemble_rejects_rare_tautomers(cfg):
    with pytest.raises(UnsupportedEncodingError):
        assemble_pair(A, BaseCode("C", rare=True), cfg)


def test_assemble_accepts_both_orientations(cfg):
    assert assemble_pair(T, A, cfg).num_qubits == 6
    assert assemble_pair(C, G, cfg).num_qubits == 6


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(allow_nan=False, allow_infinity=False),
    phi=st.floats(allow_nan=False, allow_infinity=False),
    pair=st.sampled_from([(A, T), (T, A), (G, C), (C, G)]),
)
def test_assembly_is_the_interleaved_product_of_the_recognized_faces(theta, phi, pair):
    cfg = ProtocolConfig(theta=theta, phi=phi)
    template, incoming = pair
    got = assemble_pair(template, incoming, cfg).amplitudes
    product = tensor(recognize(template, cfg), recognize(incoming, cfg))
    assert np.array_equal(got, permute_qubits(product, INTERLEAVE).amplitudes)
    targets = recognition_targets(cfg)
    x = targets[wc_initial_pattern(template).bits]
    y = targets[wc_initial_pattern(incoming).bits]
    assert np.array_equal(got, oracle.interleave(np.kron(x, y)))


def test_run_pair_builds_one_state_and_reads_the_targets_once(monkeypatch):
    calls = {"states": 0, "targets": 0}
    post_init, targets = StateVector.__post_init__, protocol.recognition_targets

    def counted_post_init(self):
        calls["states"] += 1
        post_init(self)

    def counted_targets(cfg):
        calls["targets"] += 1
        return targets(cfg)

    monkeypatch.setattr(StateVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(protocol, "recognition_targets", counted_targets)
    for template, incoming in ((A, T), (G, C)):
        calls.update(states=0, targets=0)
        run_pair(template, incoming)
        assert calls == {"states": 1, "targets": 1}


# --- swap enumeration ---


def test_swap_rejects_wrong_register_size(cfg):
    with pytest.raises(ValueError, match="6-qubit"):
        swap(basis_state("000"), cfg)


def test_at_branch_probabilities_match_exact_pattern(at_ensemble):
    assert len(at_ensemble.branches) == 16
    for br in at_ensemble.branches:
        expected = expected_at_probability(br.bell_34, br.bell_12)
        assert br.probability == pytest.approx(expected, abs=1e-13)
    total = sum(br.probability for br in at_ensemble.branches)
    assert total + at_ensemble.dropped_mass == pytest.approx(1.0, abs=1e-12)


def test_at_third_pair_is_always_the_single_proton_ket(at_ensemble):
    for br in at_ensemble.branches:
        a, b = br.third_pair
        assert abs(a) <= 1e-12
        assert abs(abs(b) - 1.0) <= 1e-12


def test_gc_third_pair_amplitudes_are_complete(gc_ensemble):
    for br in gc_ensemble.branches:
        a, b = br.third_pair
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_final_bell_labels_are_single_proton_only(at_ensemble, gc_ensemble):
    for ens in (at_ensemble, gc_ensemble):
        for br in ens.branches:
            assert br.final_bell_34.k == 1
            assert br.final_bell_12.k == 1
            assert br.final_bell_34.j == br.bell_34.j
            assert br.final_bell_12.j == br.bell_12.j


def test_correction_flags_track_raw_outcomes(at_ensemble):
    for br in at_ensemble.branches:
        assert br.x45_applied == (br.bell_34.k == 0)
        assert br.x25_applied == (br.bell_12.k == 0)
        expected = tuple(
            name for name, hit in (("x45", br.x45_applied), ("x25", br.x25_applied)) if hit
        )
        assert br.corrections == expected


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_swap_agrees_with_independent_enumeration(pair, at_ensemble, gc_ensemble):
    ens = at_ensemble if pair == "AT" else gc_ensemble
    ref = {
        (d["raw34"], d["raw12"]): d
        for d in oracle.run_swap(oracle.pair_state(pair[0], pair[1]))
    }
    assert len(ens.branches) == len(ref)
    for br in ens.branches:
        d = ref[((br.bell_34.j, br.bell_34.k), (br.bell_12.j, br.bell_12.k))]
        assert br.probability == pytest.approx(d["p"], abs=1e-13)
        assert np.allclose(br.final_state.amplitudes, d["state"], atol=1e-12)
        assert abs(br.third_pair[0] - d["a"]) <= 1e-12
        assert abs(br.third_pair[1] - d["b"]) <= 1e-12


def random_unitary(seed: int) -> np.ndarray:
    """A 4x4 unitary: the Q factor of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from([(A, T), (G, C)]),
    theta=FINITE,
    phi=FINITE,
    seed=st.integers(0, 2**32 - 1),
)
def test_swap_with_any_entangler_agrees_with_independent_enumeration(pair, theta, phi, seed):
    cfg = ProtocolConfig(theta=theta, phi=phi)
    v = random_unitary(seed)
    state = assemble_pair(*pair, cfg)
    ens = swap(state, cfg, v_gate=Gate("V_rand", v))
    ref = {
        (BellLabel(*d["raw34"]), BellLabel(*d["raw12"])): d
        for d in oracle.run_swap(state.amplitudes, v_mat=v)
    }
    assert {(br.bell_34, br.bell_12) for br in ens.branches} == set(ref)
    for br in ens.branches:
        d = ref[(br.bell_34, br.bell_12)]
        assert abs(br.probability - d["p"]) <= 1e-12
        assert abs(br.third_pair[0] - d["a"]) <= 1e-12
        assert abs(br.third_pair[1] - d["b"]) <= 1e-12
        assert np.max(np.abs(br.final_state.amplitudes - d["state"])) <= 1e-12


def test_dropped_mass_is_exactly_zero_when_nothing_is_pruned(at_ensemble, gc_ensemble):
    for ens in (at_ensemble, gc_ensemble):
        assert len(ens.branches) == 16
        assert ens.dropped_mass == 0.0


@pytest.mark.parametrize("threshold", [0.05, 0.1, 0.3])
def test_dropped_mass_sums_the_pruned_trajectories(gc_state, threshold):
    # G.C has P34 = 1/4 per outcome and conditional (1,2) probabilities of
    # 0.065 to 0.435: 0.05 prunes nothing, 0.1 prunes (1,2) outcomes and 0.3
    # prunes every (3,4) one.
    ref = {(d["raw34"], d["raw12"]): d["p"] for d in oracle.run_swap(gc_state.amplitudes)}
    p34 = {}
    for (l34, _), p in ref.items():
        p34[l34] = p34.get(l34, 0.0) + p
    pruned = {
        key for key, p in ref.items() if p34[key[0]] < threshold or p / p34[key[0]] < threshold
    }
    ens = swap(gc_state, ProtocolConfig(prune_threshold=threshold))
    assert {
        ((br.bell_34.j, br.bell_34.k), (br.bell_12.j, br.bell_12.k)) for br in ens.branches
    } == set(ref) - pruned
    assert ens.dropped_mass == pytest.approx(sum(ref[key] for key in pruned), abs=1e-15)


def test_swap_branch_order_is_deterministic(at_ensemble):
    order = {label: i for i, label in enumerate(BELL_LABELS)}
    keys = [(order[br.bell_34], order[br.bell_12]) for br in at_ensemble.branches]
    assert keys == sorted(keys)


def test_zero_probability_trajectories_are_never_kept():
    # At theta = phi = 0, 8 of the A.T and 12 of the G.C trajectories have
    # P = 0 exactly; with pruning off they must neither be kept (their
    # residual is 0/0) nor add to the dropped mass.
    cfg = ProtocolConfig(theta=0.0, phi=0.0, prune_threshold=0.0)
    for pair, live in (((A, T), 8), ((G, C), 4)):
        ens = run_pair(*pair, cfg)
        assert len(ens.branches) == live
        assert all(br.probability > 0 for br in ens.branches)
        assert ens.dropped_mass == 0.0
        for row in canonical_table(ens):
            assert math.isfinite(row.a) and math.isfinite(row.b)


def test_swap_instrument_is_sparse_real_and_read_only():
    k = protocol._K
    assert k.shape == (64, 64)
    assert not k.flags.writeable
    assert np.all(k.imag == 0)
    nonzero = np.abs(k[k != 0])
    assert nonzero.size == 384
    assert np.all(
        np.isclose(nonzero, 0.5, rtol=0, atol=1e-15)
        | np.isclose(nonzero, 1 / (2 * S2), rtol=0, atol=1e-15)
    )


@pytest.mark.parametrize("pair", [(A, T), (G, C)])
def test_explicit_default_entangler_gives_a_bit_identical_ensemble(pair, cfg):
    state = assemble_pair(*pair, cfg)
    built, explicit = swap(state, cfg), swap(state, cfg, v_gate=equality_entangler())
    assert built.dropped_mass == explicit.dropped_mass
    assert len(built.branches) == len(explicit.branches) == 16
    for x, y in zip(built.branches, explicit.branches):
        assert (x.bell_34, x.bell_12, x.x45_applied, x.x25_applied, x.probability) == (
            y.bell_34,
            y.bell_12,
            y.x45_applied,
            y.x25_applied,
            y.probability,
        )
        assert np.array_equal(x.residual, y.residual)


def test_branch_residual_is_read_only(gc_ensemble):
    for br in gc_ensemble.branches:
        with pytest.raises(ValueError):
            br.residual[0, 1] = 0.0
        with pytest.raises(ValueError):
            br.residual.setflags(write=True)


def test_swap_rejects_an_entangler_of_the_wrong_arity(at_state, cfg):
    with pytest.raises(ValueError, match="arity"):
        swap(at_state, cfg, v_gate=pauli("X"))


def test_swap_rejects_a_non_finite_instrument(at_state, cfg, monkeypatch):
    k = np.array(protocol._K)
    k[5] = np.nan  # outcome (b00, b01), q5 q6 = 01
    monkeypatch.setattr(protocol, "_K", k)
    with pytest.raises(ValueError, match="must be 1"):
        swap(at_state, cfg)


@pytest.mark.parametrize("theta, phi", [(DEFAULT_THETA, DEFAULT_PHI), (0.3, -1.1), (2.0, 0.7)])
@pytest.mark.parametrize("pair", [(A, T), (G, C)])
def test_swap_matches_the_step_by_step_statevec_path(pair, theta, phi):
    # The protocol in its own order: V, measure (3,4), correct, measure
    # (1,2), correct, one validated StateVector per step.
    cfg = ProtocolConfig(theta=theta, phi=phi)
    state = assemble_pair(*pair, cfg)
    x, basis = pauli("X"), bell_basis()
    stepped = {}
    post_v = apply_unitary(state, equality_entangler(), (3, 5))
    for br34 in measure_two_qubit(post_v, basis, (3, 4), cfg.prune_threshold):
        label34 = BELL_LABELS[br34.outcome_label]
        mid = br34.post_state
        if label34.k == 0:
            mid = apply_unitary(apply_unitary(mid, x, (4,)), x, (5,))
        for br12 in measure_two_qubit(mid, basis, (1, 2), cfg.prune_threshold):
            label12 = BELL_LABELS[br12.outcome_label]
            final = br12.post_state
            if label12.k == 0:
                final = apply_unitary(apply_unitary(final, x, (2,)), x, (5,))
            stepped[(label34, label12)] = (br34.probability * br12.probability, final)
    ens = swap(state, cfg)
    assert {(br.bell_34, br.bell_12) for br in ens.branches} == set(stepped)
    for br in ens.branches:
        p, final = stepped[(br.bell_34, br.bell_12)]
        assert abs(br.probability - p) <= 1e-13
        assert np.max(np.abs(br.final_state.amplitudes - final.amplitudes)) <= 1e-12


def test_measuring_back_pair_first_gives_identical_ensemble(at_state, gc_state, cfg):
    # Steps 4-5 commute with steps 2-3: disjoint supports up to the X on
    # qubit 5, which is applied by both corrections.
    x = pauli("X")
    basis = bell_basis()
    for state in (at_state, gc_state):
        reordered = {}
        stage1 = apply_unitary(state, equality_entangler(), (3, 5))
        for br12 in measure_two_qubit(stage1, basis, (1, 2), cfg.prune_threshold):
            label12 = BELL_LABELS[br12.outcome_label]
            mid = br12.post_state
            if label12.k == 0:
                mid = apply_unitary(apply_unitary(mid, x, (2,)), x, (5,))
            for br34 in measure_two_qubit(mid, basis, (3, 4), cfg.prune_threshold):
                label34 = BELL_LABELS[br34.outcome_label]
                final = br34.post_state
                if label34.k == 0:
                    final = apply_unitary(apply_unitary(final, x, (4,)), x, (5,))
                reordered[(label34, label12)] = (
                    br12.probability * br34.probability,
                    final,
                )
        ens = swap(state, cfg)
        assert len(ens.branches) == len(reordered)
        for br in ens.branches:
            p, final = reordered[(br.bell_34, br.bell_12)]
            assert br.probability == pytest.approx(p, abs=1e-13)
            assert np.allclose(br.final_state.amplitudes, final.amplitudes, atol=1e-12)


# --- canonical tables ---


def test_at_canonical_rows(at_ensemble):
    rows = canonical_table(at_ensemble)
    assert [row.group for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(row.rank == 1 for row in rows)
    for row in rows:
        assert row.a == 0.0
        assert row.b == pytest.approx(1.0, abs=1e-12)
    assert rows[0].probability == pytest.approx((2 + S2) / 8, abs=1e-12)
    assert rows[1].probability == pytest.approx((2 - S2) / 8, abs=1e-12)
    assert rows[2].probability == pytest.approx((2 - S2) / 8, abs=1e-12)
    assert rows[3].probability == pytest.approx((2 + S2) / 8, abs=1e-12)


def test_gc_canonical_rows_match_frozen_values(gc_ensemble):
    rows = canonical_table(gc_ensemble)
    assert len(rows) == 16
    by_group = {}
    for row in rows:
        by_group.setdefault(row.group, []).append(row)
    for group, expected in (
        ((0, 0), GC_ROWS_M0),
        ((1, 0), GC_ROWS_M0),
        ((0, 1), GC_ROWS_M1),
        ((1, 1), GC_ROWS_M1),
    ):
        got = by_group[group]
        assert [row.rank for row in got] == [1, 2, 3, 4]
        for row, (a, b, p) in zip(got, expected):
            assert row.a == pytest.approx(a, abs=1e-12)
            assert row.b == pytest.approx(b, abs=1e-12)
            assert row.probability == pytest.approx(p, abs=1e-12)


def test_gc_first_row_matches_reference_two_decimal_values(gc_ensemble):
    rows = {(r.group, r.rank): r for r in canonical_table(gc_ensemble)}
    top = rows[((0, 0), 1)]
    assert top.a == pytest.approx(0.51, abs=0.01)
    assert top.b == pytest.approx(-0.86, abs=0.01)
    assert top.probability == pytest.approx(0.11, abs=0.01)


def test_sign_flipped_groups_normalize_identically(gc_ensemble):
    rows = canonical_table(gc_ensemble)
    lists = {}
    for row in rows:
        lists.setdefault(row.group, []).append((row.a, row.b, row.probability))
    for a, b in (((0, 0), (1, 0)), ((0, 1), (1, 1))):
        for (a1, b1, p1), (a2, b2, p2) in zip(lists[a], lists[b]):
            assert a1 == pytest.approx(a2, abs=1e-12)
            assert b1 == pytest.approx(b2, abs=1e-12)
            assert p1 == pytest.approx(p2, abs=1e-12)


def test_canonical_table_agrees_with_independent_enumeration(gc_ensemble):
    ref = oracle.canonical_rows(oracle.run_swap(oracle.pair_state("G", "C")))
    rows = canonical_table(gc_ensemble)
    for row in rows:
        a, b, p = ref[row.group][row.rank - 1]
        assert row.a == pytest.approx(a, abs=1e-12)
        assert row.b == pytest.approx(b, abs=1e-12)
        assert row.probability == pytest.approx(p, abs=1e-12)


def test_at_classes_merge_four_raw_branches_each(at_ensemble):
    rows = canonical_table(at_ensemble)
    assert len(rows) == 4
    raw_per_group = {}
    for br in at_ensemble.branches:
        raw_per_group[br.group] = raw_per_group.get(br.group, 0) + 1
    assert all(count == 4 for count in raw_per_group.values())


# --- sampling ---


def test_sample_is_deterministic(at_state, cfg):
    c1 = sample(at_state, cfg, shots=2000, seed=123)
    c2 = sample(at_state, cfg, shots=2000, seed=123)
    assert c1 == c2


def test_sample_single_shot_lands_on_a_live_branch(at_state, cfg):
    counts = sample(at_state, cfg, shots=1, seed=7)
    assert sum(counts.values()) == 1
    assert len(counts) == 16


def test_sample_frequencies_approach_exact_probabilities(at_state, cfg):
    shots = 20000
    counts = sample(at_state, cfg, shots=shots, seed=99)
    assert sum(counts.values()) == shots
    for (l34, l12), count in counts.items():
        p = expected_at_probability(l34, l12)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) <= 3 * sigma


def test_sample_validates_arguments(at_state, cfg, monkeypatch):
    with pytest.raises(ValueError, match="shots"):
        sample(at_state, cfg, shots=0, seed=1)
    with pytest.raises(ValueError, match="shots"):
        sample(at_state, cfg, shots=2**63, seed=1)
    with pytest.raises(ValueError, match="shots"):
        sample(at_state, cfg, shots=2**70, seed=1)
    with pytest.raises(TypeError):
        sample(at_state, cfg, shots=1.5, seed=1)
    with pytest.raises(ValueError, match="seed"):
        sample(at_state, cfg, shots=1, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample(at_state, cfg, shots=1, seed=2**64)
    with pytest.raises(TypeError):
        sample(at_state, cfg, shots=1, seed=1.5)
    # Every G.C (3,4) outcome has P = 1/4, so a 0.3 threshold drops them
    # all; the error comes before any threshold or table is built.
    pruned = ProtocolConfig(prune_threshold=0.3)
    state = assemble_pair(G, C, pruned)
    assert swap(state, pruned).branches == []

    def no_tables(*args):
        raise AssertionError("thresholds built for an empty ensemble")

    monkeypatch.setattr(protocol, "_word_thresholds", no_tables)
    monkeypatch.setattr(protocol, "_guide", no_tables)
    with pytest.raises(ValueError, match="prune_threshold"):
        sample(state, pruned, shots=10, seed=1)


def joint_of(ens) -> np.ndarray:
    joint = np.zeros((4, 4))
    for br in ens.branches:
        joint[BELL_LABELS.index(br.bell_34), BELL_LABELS.index(br.bell_12)] = br.probability
    return joint


def keyed_counts(ens, ref: np.ndarray) -> dict:
    """The oracle's 16 counts keyed like ``sample``'s result."""
    return {
        (br.bell_34, br.bell_12): int(
            ref[4 * BELL_LABELS.index(br.bell_34) + BELL_LABELS.index(br.bell_12)]
        )
        for br in ens.branches
    }


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from([(A, T), (G, C)]),
    theta=FINITE,
    phi=FINITE,
    prune=st.sampled_from([1e-14, 0.05, 0.1, 0.2]),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.integers(1, 64),
    data=st.data(),
)
def test_streaming_sample_equals_the_whole_run_sampler(
    pair, theta, phi, prune, seed, chunk, data
):
    # Pruning at 0.05-0.2 zeroes joint entries and whole (3,4) rows; a small
    # chunk puts chunk boundaries and a short final chunk inside the run.
    shots = data.draw(st.integers(1, 3 * chunk + 1), label="shots")
    cfg = ProtocolConfig(theta=theta, phi=phi, prune_threshold=prune)
    state = assemble_pair(*pair, cfg)
    ens = swap(state, cfg)
    ref = oracle.sample_reference(joint_of(ens), shots, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_SAMPLE_CHUNK", chunk)
        counts = sample(state, cfg, shots=shots, seed=seed)
    assert counts == keyed_counts(ens, ref)


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_streaming_sample_equals_the_whole_run_sampler_at_the_defaults(
    at_state, gc_state, cfg, pair
):
    # One default-size chunk boundary; the golden sample digests stay
    # inside the first chunk.
    seed, shots = 2**64 - 1, protocol._SAMPLE_CHUNK + 12_345
    state = at_state if pair == "AT" else gc_state
    ens = swap(state, cfg)
    ref = oracle.sample_reference(joint_of(ens), shots, seed)
    assert sample(state, cfg, shots=shots, seed=seed) == keyed_counts(ens, ref)


# Probability vectors with zeros, dyadic cdf values (thresholds on bucket
# edges) and subnormals (thresholds that collide after ceil).
PROBS = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from([0.5, 0.25, 1 / 3, 1e-300, 5e-324]),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=16,
).filter(lambda p: sum(p) > 0)


@settings(max_examples=100, deadline=None)
@given(probs=PROBS)
@example(probs=[0.5] * 6 + [0.25] + [0.5] * 5 + [0.25, 1e-300])
def test_integer_thresholds_pick_what_the_float_cdf_picks(probs):
    probs = np.array(probs)
    live, thresholds = protocol._word_thresholds(probs)
    np.testing.assert_array_equal(live, np.flatnonzero(probs > 0))
    assert np.all(np.diff(thresholds) >= 0)
    cdf = np.cumsum(probs[live] / probs[live].sum())
    cdf[-1] = 1.0
    k = np.concatenate([thresholds - 1, thresholds, thresholds + 1])
    k = np.unique(np.clip(k, 0, 2**53 - 1))
    np.testing.assert_array_equal(
        np.searchsorted(thresholds, k, side="right"),
        np.searchsorted(cdf, k * 2.0**-53, side="right"),
    )


def test_sample_splits_words_on_every_threshold_like_the_float_sampler(
    gc_state, cfg, monkeypatch
):
    # Every (word, word) pair from {t - 1, t, t + 1} over all thresholds t
    # hits each threshold of both searches, where a random stream almost
    # never lands.
    ens = swap(gc_state, cfg)
    joint = joint_of(ens)
    rows = [joint.sum(axis=1), *joint]
    t = np.concatenate([protocol._word_thresholds(p)[1] for p in rows])
    k = np.unique(np.clip(np.concatenate([t - 1, t, t + 1]), 0, 2**53 - 1))
    words = np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 1000)
    assert sample_words(monkeypatch, gc_state, cfg, words) == keyed_counts(
        ens, oracle.counts_from_uniforms(joint, words * 2.0**-53)
    )


def sample_words(monkeypatch, state, cfg, words: np.ndarray) -> dict:
    """``sample`` with shot i reading the 53-bit words ``words[i]``."""

    class CraftedStream:
        def __init__(self, key):
            self.raw = words.ravel().astype(np.uint64) << np.uint64(11)

        def random_raw(self, n):
            out, self.raw = self.raw[:n].copy(), self.raw[n:]
            return out

    monkeypatch.setattr(np.random, "Philox", CraftedStream)
    return sample(state, cfg, shots=len(words), seed=0)


def bucket_edges() -> np.ndarray:
    """The first and the last 53-bit word of every guide-table bucket."""
    first = np.arange(1 << protocol._BUCKET_BITS, dtype=np.int64) << protocol._BUCKET_SHIFT
    return np.concatenate([first, first + (1 << protocol._BUCKET_SHIFT) - 1])


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_sample_reads_every_bucket_edge_like_the_float_sampler(
    at_state, gc_state, cfg, pair, monkeypatch
):
    # Both words run through the first and last word of every bucket and
    # through t - 1, t, t + 1 of every threshold t, so every bucket that
    # holds a threshold is read along with its neighbours' edges. The first
    # block pairs every word with another as (k1, k2); then, for each live
    # (3,4) row, one first word in that row is paired with every k2.
    state = at_state if pair == "AT" else gc_state
    ens = swap(state, cfg)
    joint = joint_of(ens)
    rows, row_t = protocol._word_thresholds(joint.sum(axis=1))
    t = np.concatenate([row_t, *(protocol._word_thresholds(joint[i])[1] for i in rows)])
    k = np.concatenate([bucket_edges(), t - 1, t, t + 1])
    k = np.unique(np.clip(k, 0, 2**53 - 1))
    rank = np.searchsorted(row_t, k, side="right")
    blocks = [np.stack([k, np.roll(k, len(k) // 2)], axis=1)]
    for r in range(len(rows)):
        k1 = k[rank == r][len(k[rank == r]) // 2]
        blocks.append(np.stack([np.full_like(k, k1), k], axis=1))
    assert len(blocks) > 2
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 1000)
    for words in blocks:
        assert sample_words(monkeypatch, state, cfg, words) == keyed_counts(
            ens, oracle.counts_from_uniforms(joint, words * 2.0**-53)
        )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(PROBS, min_size=1, max_size=4),
    row=st.integers(0, 3),
    random_words=st.lists(st.integers(0, 2**53 - 1), max_size=64),
)
@example(rows=[[0.5, 1e-300, 0.5], [1 / 3, 1 / 3, 1 / 3]], row=1, random_words=[])
# The rounded cumsum passes 1 before the 1e-300 tail: thresholds must stay sorted.
@example(rows=[[0.5] * 6 + [0.25] + [0.5] * 5 + [0.25, 1e-300], [0.5]], row=1, random_words=[])
# A threshold on the last word of bucket 4: it splits that bucket only.
@example(rows=[[(5 * 2**41 - 1) / 2**53, 1 - (5 * 2**41 - 1) / 2**53]], row=0, random_words=[])
def test_guide_table_ranks_words_like_searchsorted(rows, row, random_words):
    # Stacked like sample's col_t, row r's block offset by r << 53.
    r = row % len(rows)
    stacked = np.concatenate(
        [(i << 53) + protocol._word_thresholds(np.array(p))[1] for i, p in enumerate(rows)]
    )
    t = stacked - (r << 53)
    g = protocol._guide(t)
    assert g.shape == (1 << protocol._BUCKET_BITS,)

    own = t[(t > 0) & (t <= 2**53)]
    k = np.concatenate([own - 1, own, own + 1, bucket_edges(), random_words])
    k = np.unique(np.clip(k, 0, 2**53 - 1)).astype(np.int64)
    entry = g[k >> protocol._BUCKET_SHIFT]
    rank = np.searchsorted(t, k, side="right")
    np.testing.assert_array_equal(np.where(entry < 0, rank, entry), rank)

    # -1 exactly in the buckets whose words a threshold splits: t in
    # (first word, last word], so a threshold on a bucket's first word or
    # at 2**53 splits none.
    split = np.zeros(len(g), dtype=bool)
    inside = t[(t >= 0) & (t < 2**53) & (t % (1 << protocol._BUCKET_SHIFT) != 0)]
    split[inside >> protocol._BUCKET_SHIFT] = True
    np.testing.assert_array_equal(g < 0, split)


@pytest.mark.parametrize("key", [0, 1, 42, 2**64 - 1])
def test_raw_philox_words_are_the_generator_uniforms(key):
    # sample reads words, the sampler it replaced read Generator.random; a
    # numpy release that changes either mapping must fail here, not shift
    # counts silently.
    n = 1001
    words = np.random.Philox(key=key).random_raw(n)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(n)
    np.testing.assert_array_equal((words >> 11) * 2.0**-53, uniforms)
    bitgen = np.random.Philox(key=key)
    chunked = np.concatenate([bitgen.random_raw(7), bitgen.random_raw(n - 7)])
    np.testing.assert_array_equal(chunked, words)


def test_sample_memory_does_not_grow_with_shots(at_state, cfg, monkeypatch):
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 1024)
    shots = 10**6
    sample(at_state, cfg, shots=1, seed=5)  # first use imports numpy.random's helpers
    tracemalloc.start()
    try:
        counts = sample(at_state, cfg, shots=shots, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == shots
    assert peak < 1 << 20


# --- mutation sanity: a broken entangler destroys the reference ensemble ---


def test_identity_entangler_degenerates_the_at_ensemble(at_state, cfg):
    broken = swap(at_state, cfg, v_gate=Gate("V_id", np.eye(4, dtype=complex)))
    rows = canonical_table(broken)
    groups = {row.group for row in rows}
    assert groups == {(0, 1), (1, 0)}
    for row in rows:
        assert row.probability == pytest.approx(0.5, abs=1e-12)


def test_run_pair_labels_the_ensemble(at_ensemble):
    assert at_ensemble.pair == (A, T)
