"""Recognition unitary, pair assembly, swap enumeration, canonical tables."""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
import _philox
from dnaswap import protocol
from dnaswap.cli import PAIRS, RunRequest, _exact_json, cmd_run
from dnaswap.encodings import (
    BaseCode,
    UnsupportedEncodingError,
    h_edge_pattern,
    recognition_matches,
    wc_initial_pattern,
    wc_initial_state,
)
from dnaswap.gates import BELL_LABELS, V, BellLabel
from dnaswap.protocol import (
    DEFAULT_PHI,
    DEFAULT_THETA,
    CanonicalRow,
    ProtocolConfig,
    assemble_pair,
    build_recognition_unitary,
    canonical_table,
    recognize,
    run_pair,
    sample,
    swap,
)
from dnaswap.statevec import PRUNE_DEFAULT, ZERO_ATOL, StateVector, basis_state

A, T, G, C = (BaseCode(b) for b in "ATGC")
ORIENTATIONS = [(A, T), (T, A), (G, C), (C, G)]
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
    return float(np.max(np.abs(u.conj().T @ u - np.eye(8))))


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
        column = u @ wc_initial_state(code).amplitudes
        assert np.array_equal(column, recognize(code, cfg).amplitudes), code


WEIGHT = np.array([bin(i).count("1") for i in range(8)])
# U's four columns at the initial kets, in A, T, G, C order.
PINNED = [int(wc_initial_pattern(code).text, 2) for code in (A, T, G, C)]


def pinned_columns(cfg: ProtocolConfig) -> dict[int, np.ndarray]:
    u = build_recognition_unitary(cfg)
    return {k: u[:, k] for k in PINNED}


@settings(max_examples=200, deadline=None)
@given(theta=ANGLES, phi=ANGLES)
def test_recognition_unitary_conserves_weight_and_is_orthogonal(theta, phi):
    # A tautomer moves a proton, never adds or removes one: U maps each ket
    # only onto kets of its own Hamming weight.
    u = build_recognition_unitary(ProtocolConfig(theta=theta, phi=phi))
    assert np.all(u[WEIGHT[:, None] != WEIGHT[None, :]] == 0)
    assert np.all(u.imag == 0)
    assert np.max(np.abs(u.real.T @ u.real - np.eye(8))) <= 1e-12


def test_recognition_unitary_matches_the_oracle_at_the_default_angles(cfg):
    assert np.max(np.abs(build_recognition_unitary(cfg) - oracle.build_u())) <= 1e-15


def test_recognition_targets_stay_orthonormal_off_default_angles():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cfg = ProtocolConfig(theta=rng.uniform(-3, 3), phi=rng.uniform(-3, 3))
        cols = list(pinned_columns(cfg).values())
        gram = np.array([[np.vdot(x, y) for y in cols] for x in cols])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(theta=ANGLES, phi=ANGLES)
def test_recognition_target_amplitude_pattern_off_default(theta, phi):
    columns = pinned_columns(ProtocolConfig(theta=theta, phi=phi))
    targets = oracle.dense.targets(theta, phi)
    for code, k in zip("ATGC", PINNED):
        assert np.max(np.abs(columns[k] - targets[code])) <= 1e-15, code


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
        # A bool is finite, but True would run at 1 rad.
        {"theta": True},
        {"phi": False},
        {"theta": np.bool_(True)},
        # Not a real number, or no finite float: math.isfinite raised a bare
        # TypeError or OverflowError for these.
        {"theta": "0.5"},
        {"phi": 1 + 0j},
        {"theta": None},
        {"phi": 10**400},
        {"theta": -(10**400)},
    ):
        (name,) = bad
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            ProtocolConfig(**bad)
    with pytest.raises(TypeError):
        ProtocolConfig(bell_convention="b00=(00+11)/sqrt2")
    assert [f.name for f in dataclasses.fields(ProtocolConfig)] == ["theta", "phi"]
    # numpy floats and ints are angles.
    assert ProtocolConfig(theta=np.float64(0.5), phi=np.int64(1)).theta == 0.5


def test_config_keeps_one_read_only_u_outside_its_fields():
    cfg = ProtocolConfig(theta=0.3, phi=1.2)
    twin = ProtocolConfig(theta=0.3, phi=1.2)
    before = (hash(cfg), repr(cfg))
    u = build_recognition_unitary(cfg)
    # Reading U changes neither equality, nor hash, nor repr.
    assert cfg == twin and (hash(cfg), repr(cfg)) == before == (hash(twin), repr(twin))
    assert repr(cfg) == "ProtocolConfig(theta=0.3, phi=1.2)" and hash(cfg) == hash((0.3, 1.2))
    recognize(A, cfg)
    assemble_pair(G, C, cfg)
    assert build_recognition_unitary(cfg) is u
    assert u.tobytes() == protocol._recognition_matrix(cfg).tobytes()
    assert build_recognition_unitary() is build_recognition_unitary(None)
    assert build_recognition_unitary() is build_recognition_unitary(protocol._DEFAULT_CONFIG)
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    with pytest.raises(ValueError):
        u.setflags(write=True)
    # A copy is equal and holds a read-only U of the same bytes, read before
    # the copy or not.
    for source in (cfg, ProtocolConfig(theta=0.3, phi=1.2)):
        for twin in (
            pickle.loads(pickle.dumps(source)),
            copy.copy(source),
            copy.deepcopy(source),
        ):
            assert twin == source and hash(twin) == hash(source) and repr(twin) == repr(source)
            got = build_recognition_unitary(twin)
            with pytest.raises(ValueError):
                got.setflags(write=True)
            assert got.tobytes() == u.tobytes()
    # A replaced config builds its own U for its own angles.
    moved = dataclasses.replace(cfg, theta=-0.7)
    got = build_recognition_unitary(moved)
    assert got is not u
    with pytest.raises(ValueError):
        got.setflags(write=True)
    assert got.tobytes() == protocol._recognition_matrix(ProtocolConfig(-0.7, 1.2)).tobytes()
    assert build_recognition_unitary(cfg) is u


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
    # All 16 letter pairs: assemble_pair pairs exactly by recognition_matches' rule.
    for template in (A, T, G, C):
        partners = recognition_matches(h_edge_pattern(template))
        for incoming in (A, T, G, C):
            if incoming in partners:
                assert assemble_pair(template, incoming, cfg).num_qubits == 6
            else:
                with pytest.raises(ValueError, match="unsupported pairing"):
                    assemble_pair(template, incoming, cfg)


def test_assemble_rejects_rare_tautomers(cfg):
    rare = {b: BaseCode(b, rare=True) for b in "ATC"}
    pairs = [(A, rare["C"]), (rare["A"], T), (A, rare["T"]), (rare["A"], rare["T"])]
    for template, incoming in pairs:
        with pytest.raises(UnsupportedEncodingError):
            assemble_pair(template, incoming, cfg)
    # A base slot takes a BaseCode only: a letter raised AttributeError in ``_column``.
    for call in (lambda: run_pair("A", "T"), lambda: assemble_pair("A", "T"),
                 lambda: recognize("A")):
        with pytest.raises(ValueError, match="^a base must be a BaseCode, got 'A'$"):
            call()


# Every entry point with a config slot. Before the one lookup ``_config``, 0,
# "" and () ran at the default angles and 0.3 raised AttributeError.
CONFIG_ENTRIES = {
    "recognize": lambda cfg: recognize(A, cfg).amplitudes,
    "assemble_pair": lambda cfg: assemble_pair(G, C, cfg).amplitudes,
    "run_pair": lambda cfg: run_pair(G, C, cfg).residuals,
    "build_recognition_unitary": build_recognition_unitary,
}


@pytest.mark.parametrize("entry", sorted(CONFIG_ENTRIES))
def test_a_config_slot_takes_a_protocol_config_or_none(entry):
    call = CONFIG_ENTRIES[entry]
    default = call(None)
    assert default.tobytes() == call(ProtocolConfig()).tobytes()
    assert default.tobytes() != call(ProtocolConfig(theta=0.3, phi=0.7)).tobytes()
    if entry == "build_recognition_unitary":
        assert default is protocol._DEFAULT_CONFIG._unitary
    for value in (0, 0.0, False, "", (), 0.3, "x", (0.3, 0.7), {"theta": 0.3}):
        message = f"cfg must be a ProtocolConfig or None, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_assemble_accepts_both_orientations(cfg):
    assert assemble_pair(T, A, cfg).num_qubits == 6
    assert assemble_pair(C, G, cfg).num_qubits == 6


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(allow_nan=False, allow_infinity=False),
    phi=st.floats(allow_nan=False, allow_infinity=False),
    pair=st.sampled_from(ORIENTATIONS),
)
def test_assembly_is_the_interleaved_product_of_the_recognized_faces(theta, phi, pair):
    cfg = ProtocolConfig(theta=theta, phi=phi)
    template, incoming = pair
    got = assemble_pair(template, incoming, cfg).amplitudes
    u = build_recognition_unitary(cfg)
    x = u[:, int(wc_initial_pattern(template).text, 2)]
    y = u[:, int(wc_initial_pattern(incoming).text, 2)]
    # Bytes, not array_equal: the exact JSON prints the sign of a zero
    # imaginary part, and most registers carry a -0.0 there.
    assert got.tobytes() == oracle.interleave(np.kron(x, y)).tobytes()


def test_run_pair_builds_one_state_and_u_once_per_config(monkeypatch):
    calls = {"states": 0, "unitaries": 0}
    init, matrix = StateVector.__init__, protocol._recognition_matrix

    def counted_init(self, *args):
        calls["states"] += 1
        init(self, *args)

    def counted_matrix(cfg):
        calls["unitaries"] += 1
        return matrix(cfg)

    monkeypatch.setattr(StateVector, "__init__", counted_init)
    monkeypatch.setattr(protocol, "_recognition_matrix", counted_matrix)
    read = ProtocolConfig(theta=0.4, phi=-1.1)
    build_recognition_unitary(read)
    for cfg, built in ((read, 0), (ProtocolConfig(theta=0.4, phi=-1.1), 1)):
        calls.update(states=0, unitaries=0)
        for template, incoming in ((A, T), (G, C)):
            before = calls["states"]
            run_pair(template, incoming, cfg)
            assert calls["states"] == before + 1
        assert calls == {"states": 2, "unitaries": built}


@settings(max_examples=200, deadline=None)
@given(theta=ANGLES, phi=ANGLES, pair=st.sampled_from(ORIENTATIONS))
def test_run_pair_matches_the_swap_of_a_freshly_built_u(theta, phi, pair):
    # The config's shared U gives every bit that a U built for this call does.
    cfg = ProtocolConfig(theta=theta, phi=phi)
    template, incoming = pair
    got = run_pair(template, incoming, cfg)
    u = protocol._recognition_matrix(ProtocolConfig(theta=theta, phi=phi))
    x = u[:, int(wc_initial_pattern(template).text, 2)]
    y = u[:, int(wc_initial_pattern(incoming).text, 2)]
    want = swap(StateVector(6, oracle.interleave(np.kron(x, y))))
    for name in ("probabilities", "residuals", "keep"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.float64(got.dropped_mass).tobytes() == np.float64(want.dropped_mass).tobytes()


# --- swap enumeration ---


def test_swap_rejects_wrong_register_size():
    with pytest.raises(ValueError, match="6-qubit"):
        swap(basis_state("000"))


def complex_register(seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    return StateVector(6, amps / np.linalg.norm(amps))


@settings(max_examples=200, deadline=None)
@given(
    state=st.one_of(
        st.builds(
            lambda pair, theta, phi: assemble_pair(*pair, ProtocolConfig(theta=theta, phi=phi)),
            st.sampled_from(ORIENTATIONS),
            ANGLES,
            ANGLES,
        ),
        st.integers(0, 2**32 - 1).map(complex_register),
    )
)
def test_swap_runs_the_default_instrument_and_another_changes_no_module_state(state):
    # swap is _swap of the import-time K; running _swap with another
    # instrument leaves swap's ensemble as it was, bit for bit.
    ens = swap(state)
    seam = protocol._swap(protocol._K, state)
    protocol._swap(protocol._instrument(np.eye(4, dtype=complex)), state)
    for other in (seam, swap(state)):
        for name in ("probabilities", "residuals", "keep"):
            assert getattr(other, name).tobytes() == getattr(ens, name).tobytes(), name
        assert other.dropped_mass.hex() == ens.dropped_mass.hex()
    with pytest.raises(ValueError) as want:
        swap(basis_state("000"))
    with pytest.raises(ValueError) as got:
        protocol._swap(protocol._K, basis_state("000"))
    assert str(got.value) == str(want.value)


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


def raw_bits(i: int) -> tuple[int, int, int, int]:
    """(j34, k34, j12, k12) of raw outcome i = 4*i34 + i12, i = 2j + k."""
    return (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1


def real_register_ensemble(seed: int):
    """A random real register's ensemble: 16 distinct, unmerged outcomes."""
    amps = np.random.default_rng(seed).normal(size=64)
    return swap(StateVector(6, amps / np.linalg.norm(amps)))


def test_final_bell_labels_are_single_proton_only(at_ensemble, gc_ensemble):
    # The branches of both pairs, then every entry of the outcome table.
    for br in [*at_ensemble.branches, *gc_ensemble.branches, *protocol.OUTCOMES]:
        assert br.final_bell_34.k == 1
        assert br.final_bell_12.k == 1
        assert br.final_bell_34.j == br.bell_34.j
        assert br.final_bell_12.j == br.bell_12.j
        assert br.group == (br.bell_12.j, br.bell_34.j)
    for i, outcome in enumerate(protocol.OUTCOMES):
        j34, k34, j12, k12 = raw_bits(i)
        assert (outcome.bell_34, outcome.bell_12) == (BellLabel(j34, k34), BellLabel(j12, k12))
        assert outcome.final_bell_34 == BellLabel(j34, 1)
        assert outcome.final_bell_12 == BellLabel(j12, 1)
        assert outcome.group == (j12, j34)
    # The exact JSON's texts, the canonical groups and the sample keys read
    # the table: on a real register no two outcomes merge or tie, so each
    # canonical row is one outcome, found by its probability.
    ens = real_register_ensemble(11)
    assert ens.keep.all()
    doc = json.loads(_exact_json("AT", ens))["branches"]
    assert [(d["bell_34"], d["bell_12"]) for d in doc] == [
        (f"b{raw_bits(i)[0]}1", f"b{raw_bits(i)[2]}1") for i in range(16)
    ]
    probs = ens.probabilities.tolist()
    rows = canonical_table(ens)
    assert len(rows) == len(set(probs)) == 16
    for row in rows:
        j34, _, j12, _ = raw_bits(probs.index(row.probability))
        assert row.group == (j12, j34)
    keys = [((j34, k34), (j12, k12)) for j34, k34, j12, k12 in map(raw_bits, range(16))]
    got = sample(ens, shots=1000, seed=3)
    assert [((a.j, a.k), (b.j, b.k)) for a, b in got] == keys


def test_correction_flags_track_raw_outcomes(at_ensemble):
    # The branches of A.T, then every entry of the outcome table.
    for br in [*at_ensemble.branches, *protocol.OUTCOMES]:
        assert br.x45_applied == (br.bell_34.k == 0)
        assert br.x25_applied == (br.bell_12.k == 0)
        expected = tuple(
            name for name, hit in (("x45", br.x45_applied), ("x25", br.x25_applied)) if hit
        )
        assert br.corrections == expected
    # X on qubit 5, which swaps the residual's rows, when exactly one pair fires.
    ens = real_register_ensemble(12)
    assert ens.keep.all()
    doc = json.loads(_exact_json("AT", ens))["branches"]
    for i, outcome in enumerate(protocol.OUTCOMES):
        _, k34, _, k12 = raw_bits(i)
        assert (outcome.x45_applied, outcome.x25_applied) == (k34 == 0, k12 == 0)
        fired = (("x45", k34 == 0), ("x25", k12 == 0))
        assert outcome.corrections == tuple(name for name, hit in fired if hit)
        assert doc[i]["corrections"] == list(outcome.corrections)
        assert protocol._FLIP[i] == ((k34 == 0) != (k12 == 0))


@pytest.mark.parametrize("pair", ["AT", "GC"])
@settings(max_examples=25, deadline=None)
@given(theta=ANGLES, phi=ANGLES, reverse=st.booleans())
@example(theta=DEFAULT_THETA, phi=DEFAULT_PHI, reverse=False)
def test_swap_agrees_with_independent_enumeration(pair, theta, phi, reverse):
    template, incoming = pair[::-1] if reverse else pair
    ens = run_pair(BaseCode(template), BaseCode(incoming), ProtocolConfig(theta=theta, phi=phi))
    ref = {
        (d["raw34"], d["raw12"]): d
        for d in oracle.run_swap(oracle.pair_state(template, incoming, theta, phi))
    }
    assert len(ens.branches) == len(ref)
    for br in ens.branches:
        d = ref[((br.bell_34.j, br.bell_34.k), (br.bell_12.j, br.bell_12.k))]
        assert br.probability == pytest.approx(d["p"], abs=1e-13)
        assert np.allclose(br.final_state.amplitudes, d["state"], atol=1e-12)
        assert abs(br.third_pair[0] - d["a"]) <= 1e-12
        assert abs(br.third_pair[1] - d["b"]) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(["AT", "TA", "GC", "CG"]), theta=ANGLES, phi=ANGLES)
def test_dense_reference_agrees_with_the_oracle_enumeration(pair, theta, phi):
    # perfbench checks the package against dense.branches: a fault there must
    # fail here too. sqrt(p) * a, as normalizing a faint branch magnifies rounding.
    ref = {
        ("b{}{}".format(*d["raw34"]), "b{}{}".format(*d["raw12"])): d
        for d in oracle.run_swap(oracle.pair_state(*pair, theta, phi))
    }
    got = oracle.dense.branches(*pair, theta, phi)
    assert len(got) == 16 and set(ref) <= set(got)
    for key, (p, a, b) in got.items():
        if key not in ref:
            assert p <= 1e-13, key
            continue
        d = ref[key]
        assert abs(p - d["p"]) <= 1e-13, key
        for x, y in ((a, d["a"]), (b, d["b"])):
            assert abs(math.sqrt(p) * x - math.sqrt(d["p"]) * y) <= 1e-12, key


def test_dense_reference_imports_no_dnaswap_module():
    # Tier-1 and the benchmark trust dense.py as an independent evaluation:
    # loaded alone in a fresh interpreter, it must not reach the package.
    code = (
        "import importlib.util as u, sys; s = u.spec_from_file_location('d', sys.argv[1]); "
        "s.loader.exec_module(u.module_from_spec(s)); "
        "print([m for m in sys.modules if 'dnaswap' in m])"
    )
    argv = [sys.executable, "-c", code, oracle.dense.__file__]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    v = random_unitary(seed)
    state = assemble_pair(*pair, ProtocolConfig(theta=theta, phi=phi))
    ens = protocol._swap(protocol._instrument(v), state)
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


def raw_keys(ens) -> set:
    return {((br.bell_34.j, br.bell_34.k), (br.bell_12.j, br.bell_12.k)) for br in ens.branches}


@pytest.mark.parametrize("threshold", [0.05, 0.1, 0.3])
def test_dropped_mass_sums_the_pruned_trajectories(gc_state, threshold, monkeypatch):
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
    monkeypatch.setattr(protocol, "PRUNE_DEFAULT", threshold)
    ens = swap(gc_state)
    assert raw_keys(ens) == set(ref) - pruned
    assert ens.dropped_mass == pytest.approx(sum(ref[key] for key in pruned), abs=1e-15)


@pytest.mark.parametrize("pair", [(A, T), (G, C)])
def test_swap_prunes_trajectories_below_the_constant_threshold(pair):
    # At theta = phi = 0 some trajectories have P = 0; a 1e-9 admixture
    # lifts them to about 1e-17, below PRUNE_DEFAULT = 1e-14, while the
    # live ones stay near their unperturbed 1/16 to 1/4. The oracle prunes
    # at 1e-14 on its own.
    base = assemble_pair(*pair, ProtocolConfig(theta=0.0, phi=0.0)).amplitudes
    noise = np.random.default_rng(3).normal(size=(64, 2)) @ [1, 1j]
    amps = base + 1e-9 * noise
    state = StateVector(6, amps / np.linalg.norm(amps))
    live = {(d["raw34"], d["raw12"]) for d in oracle.run_swap(state.amplitudes)}
    ens = swap(state)
    assert 0 < len(ens.branches) < 16
    assert raw_keys(ens) == live
    assert 0 < ens.dropped_mass < 16 * PRUNE_DEFAULT


def test_swap_branch_order_is_deterministic(at_ensemble):
    order = {label: i for i, label in enumerate(BELL_LABELS)}
    keys = [(order[br.bell_34], order[br.bell_12]) for br in at_ensemble.branches]
    assert keys == sorted(keys)


def test_zero_probability_trajectories_are_never_kept(monkeypatch):
    # At theta = phi = 0, 8 of the A.T and 12 of the G.C trajectories have
    # P = 0 exactly; with pruning off they must neither be kept (their
    # residual is 0/0) nor add to the dropped mass.
    monkeypatch.setattr(protocol, "PRUNE_DEFAULT", 0.0)
    cfg = ProtocolConfig(theta=0.0, phi=0.0)
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
    built = swap(state)
    explicit = protocol._swap(protocol._instrument(V), state)
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


def test_ensemble_arrays_are_read_only_and_shape_checked(gc_ensemble):
    for arr in (gc_ensemble.probabilities, gc_ensemble.residuals, gc_ensemble.keep):
        assert not arr.flags.writeable
    for bad in (
        {"probabilities": gc_ensemble.probabilities[:15]},
        {"residuals": gc_ensemble.residuals[:, 0]},
        {"keep": gc_ensemble.keep.astype(int)},
    ):
        with pytest.raises(ValueError, match="ensemble arrays must have shapes"):
            dataclasses.replace(gc_ensemble, **bad)


def test_ensemble_is_frozen_and_replace_derives_dropped_mass_afresh(gc_state):
    # An assigned field would skip the mass rule and leave dropped_mass and
    # branches stale; ``replace`` builds a new ensemble that derives them.
    ens = swap(gc_state)
    keep = ens.keep.copy()
    keep[::2] = False
    for name, value in (
        ("keep", keep),
        ("probabilities", ens.probabilities),
        ("residuals", ens.residuals),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ens, name, value)
    assert ens.dropped_mass == 0.0 and len(ens.branches) == 16
    cleared = dataclasses.replace(ens, keep=keep)
    assert cleared.dropped_mass.hex() == float(ens.probabilities[~keep].sum()).hex()
    assert len(cleared.branches) == len(canonical_table(cleared)) == 8
    kept = sum(br.probability for br in cleared.branches)
    assert kept + cleared.dropped_mass == pytest.approx(1.0, abs=1e-12)
    assert dataclasses.replace(cleared, keep=ens.keep).dropped_mass.hex() == (0.0).hex()


def test_ensemble_refuses_a_negative_probability(gc_ensemble):
    # 0.3 moved from outcome 1 to outcome 0 keeps the mass at 1, but leaves
    # outcome 1 at -0.27: refused, not printed as a row or renormalized away.
    probs = gc_ensemble.probabilities.copy()
    probs[0] += 0.3
    probs[1] -= 0.3
    with pytest.raises(ValueError, match=r"^branch probabilities must be >= 0, got -0\.269"):
        dataclasses.replace(gc_ensemble, probabilities=probs)
    # A dropped outcome is refused the same way.
    keep = gc_ensemble.keep.copy()
    keep[1] = False
    with pytest.raises(ValueError, match="must be >= 0"):
        dataclasses.replace(gc_ensemble, probabilities=probs, keep=keep)
    # A non-finite entry fails the mass rule first, -inf included.
    for bad in (np.nan, np.inf, -np.inf):
        probs = gc_ensemble.probabilities.copy()
        probs[1] = bad
        with pytest.raises(ValueError, match="must be 1"):
            dataclasses.replace(gc_ensemble, probabilities=probs)


def test_swap_rejects_a_non_finite_instrument(at_state):
    k = np.array(protocol._K)
    k[5] = np.nan  # outcome (b00, b01), q5 q6 = 01
    with pytest.raises(ValueError, match="must be 1"):
        protocol._swap(k, at_state)


def test_measuring_back_pair_first_gives_identical_ensemble(at_state, gc_state):
    # Steps 4-5 commute with steps 2-3: disjoint supports up to the X on
    # qubit 5, which is applied by both corrections. Dense's operators, with
    # the (1,2) measurement and its correction first.
    x2x5 = oracle.dense.on_qubits(np.kron(oracle.X, oracle.X), (2, 5))
    x4x5 = oracle.dense.on_qubits(np.kron(oracle.X, oracle.X), (4, 5))
    for state in (at_state, gc_state):
        reordered = {}
        stage1 = oracle.dense.on_qubits(oracle.V, (3, 5)) @ state.amplitudes
        for label12 in oracle.dense.BELL:
            mid = oracle.bell_projector(label12, (1, 2)) @ stage1
            p12 = np.vdot(mid, mid).real
            if p12 < PRUNE_DEFAULT:
                continue
            if label12[1] == 0:
                mid = x2x5 @ mid
            for label34 in oracle.dense.BELL:
                final = oracle.bell_projector(label34, (3, 4)) @ mid
                p = np.vdot(final, final).real
                if p / p12 < PRUNE_DEFAULT:
                    continue
                if label34[1] == 0:
                    final = x4x5 @ final
                reordered[(BellLabel(*label34), BellLabel(*label12))] = (p, final / np.sqrt(p))
        ens = swap(state)
        assert len(ens.branches) == len(reordered)
        for br in ens.branches:
            p, final = reordered[(br.bell_34, br.bell_12)]
            assert br.probability == pytest.approx(p, abs=1e-13)
            assert np.allclose(br.final_state.amplitudes, final, atol=1e-12)


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


@settings(max_examples=50, deadline=None)
@given(pair=st.sampled_from(["AT", "TA", "GC", "CG"]), theta=ANGLES, phi=ANGLES)
@example(pair="GC", theta=DEFAULT_THETA, phi=DEFAULT_PHI)
def test_canonical_table_agrees_with_independent_enumeration(pair, theta, phi):
    ref = oracle.canonical_rows(oracle.run_swap(oracle.pair_state(*pair, theta, phi)))
    rows = canonical_table(run_pair(*map(BaseCode, pair), ProtocolConfig(theta=theta, phi=phi)))
    assert len(rows) == sum(len(group) for group in ref.values())
    for row in rows:
        a, b, p = ref[row.group][row.rank - 1]
        assert row.a == pytest.approx(a, abs=1e-12)
        assert row.b == pytest.approx(b, abs=1e-12)
        assert row.probability == pytest.approx(p, abs=1e-12)


def test_canonical_row_contract(gc_ensemble):
    row = CanonicalRow(group=(0, 1), rank=2, a=0.5, b=-0.75, probability=0.125)
    assert CanonicalRow((0, 1), 2, 0.5, -0.75, 0.125) == row
    assert (row.group, row.rank, row.a, row.b, row.probability) == ((0, 1), 2, 0.5, -0.75, 0.125)
    assert CanonicalRow((1, 1), 1, 0.0, 1.0, 1.0).b == 1.0
    assert CanonicalRow((1, 1), 1, -0.0, 0.0, 1.0).a == 0.0
    assert CanonicalRow((1, 1), 1, 0.0, -0.0, 1.0).b == 0.0
    for name in ("group", "rank", "a", "b", "probability"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, 1)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=-0.5, b=1.0$"):
        CanonicalRow(group=(0, 0), rank=1, a=-0.5, b=1.0, probability=0.5)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=0.0, b=-1.0$"):
        CanonicalRow(group=(0, 0), rank=1, a=0.0, b=-1.0, probability=0.5)
    with pytest.raises(ValueError, match=r"^rank is 1-based$"):
        CanonicalRow(group=(0, 0), rank=0, a=0.5, b=1.0, probability=0.5)

    # NaN is not phase-normalized, whether on its own or out of a table.
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=0.0, b=nan$"):
        CanonicalRow((0, 0), 1, 0.0, math.nan, 0.5)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=nan, b=1.0$"):
        CanonicalRow((0, 0), 1, math.nan, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=0.5, b=nan$"):
        CanonicalRow((0, 0), 1, 0.5, math.nan, 0.5)
    with pytest.raises(ValueError, match=r"^row probability is NaN$"):
        CanonicalRow((0, 0), 1, 0.5, 1.0, math.nan)
    for bad, message in (
        ([[0.0, math.nan], [1.0, 0.0]], r"a=nan, b=1.0"),
        ([[0.0, 1.0], [math.nan, 0.0]], r"a=1.0, b=nan"),
    ):
        residuals = np.array(gc_ensemble.residuals)
        residuals[0] = bad
        with pytest.raises(ValueError, match=rf"^row not phase-normalized: {message}$"):
            canonical_table(dataclasses.replace(gc_ensemble, residuals=residuals))

    # The row is a frozen dataclass: fields, replace (checked), hash, copy, pickle.
    assert dataclasses.is_dataclass(row)
    assert [f.name for f in dataclasses.fields(CanonicalRow)] == [
        "group", "rank", "a", "b", "probability"
    ]
    assert dataclasses.replace(row, probability=0.25) == CanonicalRow((0, 1), 2, 0.5, -0.75, 0.25)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=-0.5, b=-0.75$"):
        dataclasses.replace(row, a=-0.5)
    assert hash(CanonicalRow((0, 1), 2, 0.5, -0.75, 0.125)) == hash(row)
    assert row != CanonicalRow((0, 1), 2, 0.5, -0.75, 0.25)
    assert repr(row) == "CanonicalRow(group=(0, 1), rank=2, a=0.5, b=-0.75, probability=0.125)"
    assert copy.copy(row) == row
    assert pickle.loads(pickle.dumps(row)) == row


@pytest.mark.parametrize("sa", [1.0, -1.0])
@pytest.mark.parametrize("sb", [1.0, -1.0])
@pytest.mark.parametrize("tiny", ["a", "b", "both"])
def test_canonical_table_snaps_an_amplitude_of_exactly_zero_atol(gc_ensemble, sa, sb, tiny):
    # An amplitude of magnitude exactly ZERO_ATOL counts as zero: it is
    # neither used for the phase nor left unsnapped in the row.
    a = sa * (ZERO_ATOL if tiny in ("a", "both") else 1.0)
    b = sb * (ZERO_ATOL if tiny in ("b", "both") else 1.0)
    residuals = np.array(gc_ensemble.residuals)
    residuals[0] = [[0.0, a], [b, 0.0]]
    keep = np.zeros(16, dtype=bool)
    keep[0] = True
    ens = dataclasses.replace(gc_ensemble, residuals=residuals, keep=keep)
    (row,) = canonical_table(ens)
    want = {"a": (0.0, 1.0), "b": (1.0, 0.0), "both": (0.0, 0.0)}[tiny]
    assert (row.a.hex(), row.b.hex()) == (want[0].hex(), want[1].hex())
    assert row_bits([row]) == row_bits(oracle.branch_table(ens.branches))


def third_pair_ensemble(base, pairs: dict):
    """``base`` with only the outcomes ``pairs`` names kept, at those third pairs."""
    residuals = np.array(base.residuals)
    keep = np.zeros(16, dtype=bool)
    for i, (a, b) in pairs.items():
        residuals[i] = [[0.0, a], [b, 0.0]]
        keep[i] = True
    return dataclasses.replace(base, residuals=residuals, keep=keep)


@pytest.mark.parametrize("amp", ["a", "b"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_merge_threshold_sits_at_merge_atol(gc_ensemble, amp, sign):
    # Two outcomes of one group whose third pairs differ by 5e-11 merge into
    # one row (inside _MERGE_ATOL = 1e-10); by 2e-10 they stay two rows.
    i, j = protocol._GROUP_MEMBERS[0][1][:2]
    for offset, rows in ((5e-11, 1), (2e-10, 2)):
        shifted = (0.6 + sign * offset, 0.8) if amp == "a" else (0.6, 0.8 + sign * offset)
        ens = third_pair_ensemble(gc_ensemble, {i: (0.6, 0.8), j: shifted})
        table = canonical_table(ens)
        assert len(table) == rows
        assert sum(r.probability for r in table) == pytest.approx(
            ens.probabilities[i] + ens.probabilities[j], abs=1e-15
        )


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("global_phase", [0.0, 2.0])
def test_imaginary_guard_sits_at_imag_atol(gc_ensemble, sign, global_phase):
    # A relative phase that leaves 5e-10 of imaginary part after the phase
    # normalization passes (inside _IMAG_ATOL = 1e-9); 2e-9 is refused.
    # A global phase is normalized away and does not count.
    turn = complex(math.cos(global_phase), math.sin(global_phase))
    for imag, ok in ((5e-10, True), (2e-9, False)):
        third = (0.6 * turn, complex(0.8, sign * imag) * turn)
        ens = third_pair_ensemble(gc_ensemble, {0: third})
        if ok:
            (row,) = canonical_table(ens)
            assert (row.a, row.b) == pytest.approx((0.6, 0.8), abs=1e-15)
        else:
            with pytest.raises(ValueError, match="non-real relative phase"):
                canonical_table(ens)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mass_rule_sits_at_mass_atol(gc_ensemble, sign):
    # Kept probabilities plus dropped mass off 1 by 5e-11 pass (inside
    # _MASS_ATOL = 1e-10); off by 2e-10 the ensemble is refused.
    keep = gc_ensemble.keep.copy()
    keep[::2] = False
    probs = np.array(gc_ensemble.probabilities)
    ens = dataclasses.replace(gc_ensemble, probabilities=probs * (1.0 + sign * 5e-11), keep=keep)
    assert ens.dropped_mass == pytest.approx(probs[~keep].sum(), rel=1e-9)
    with pytest.raises(ValueError, match="must be 1"):
        dataclasses.replace(gc_ensemble, probabilities=probs * (1.0 + sign * 2e-10), keep=keep)


def test_at_classes_merge_four_raw_branches_each(at_ensemble):
    rows = canonical_table(at_ensemble)
    assert len(rows) == 4
    raw_per_group = {}
    for br in at_ensemble.branches:
        raw_per_group[br.group] = raw_per_group.get(br.group, 0) + 1
    assert all(count == 4 for count in raw_per_group.values())


# --- the array ensemble against the per-branch oracle ---


def row_bits(rows) -> list[tuple]:
    """Canonical rows with every float as its exact bits (``-0.0`` != ``0.0``)."""
    return [(r.group, r.rank, r.a.hex(), r.b.hex(), r.probability.hex()) for r in rows]


def assert_matches_the_branch_oracle(make, state, k=None) -> None:
    """``make()``'s array ensemble equals ``oracle.branch_swap(state, k)`` bit for bit.

    Branches, dropped mass and canonical rows must carry the same bits, and
    where the oracle raises, the package must raise the same ValueError.
    """
    try:
        branches, dropped = oracle.branch_swap(state, k)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == str(exc)
        return
    ens = make()
    assert ens.dropped_mass.hex() == dropped.hex()
    assert len(ens.branches) == len(branches)
    for x, y in zip(ens.branches, branches):
        assert (x.bell_34, x.bell_12) == (y.bell_34, y.bell_12)
        assert x.probability.hex() == y.probability.hex()
        assert x.residual.tobytes() == y.residual.tobytes()
        assert not x.residual.flags.writeable
    assert_table_matches_the_branch_oracle(ens, branches)


def assert_table_matches_the_branch_oracle(ens, branches) -> None:
    """``canonical_table(ens)`` equals ``oracle.branch_table(branches)`` bit for
    bit, or raises the ValueError the oracle raises, with the same text."""
    try:
        want = oracle.branch_table(branches)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            canonical_table(ens)
        assert str(info.value) == str(exc)
        return
    assert row_bits(canonical_table(ens)) == row_bits(want)


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(ORIENTATIONS), theta=ANGLES, phi=ANGLES)
@example(pair=(A, T), theta=DEFAULT_THETA, phi=DEFAULT_PHI)
@example(pair=(G, C), theta=DEFAULT_THETA, phi=DEFAULT_PHI)
@example(pair=(C, G), theta=0.0, phi=0.0)  # zero-probability and pruned outcomes
def test_array_ensemble_matches_the_branch_oracle_on_run_pair(pair, theta, phi):
    cfg = ProtocolConfig(theta=theta, phi=phi)
    assert_matches_the_branch_oracle(lambda: run_pair(*pair, cfg), assemble_pair(*pair, cfg))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
    support=st.integers(1, 8),
    scale=st.sampled_from([1.0, 1.0 + 1e-11, 1.0 + 1e-9, 0.999]),
)
@example(kind="edge", seed=0, support=1, scale=1.0)
@example(kind="edge", seed=1, support=1, scale=1.0 + 1e-11)
def test_array_ensemble_matches_the_branch_oracle_on_any_register(kind, seed, support, scale):
    # Complex registers mostly give a non-real relative phase, and an
    # instrument scaled off 1 by more than 5e-11 breaks the mass rule: the
    # package must raise exactly where the oracle does. Sparse registers with
    # repeated amplitudes give zero-probability outcomes and merged rows.
    # Edge registers keep rows at the pruning threshold, where the oracle's
    # residual-norm check witnesses that swap's division still normalizes.
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        amps = np.zeros(64, dtype=complex)
        amps[rng.choice(64, support, replace=False)] = rng.choice([1, -1, 1j, 0.5], support)
    elif kind == "edge":
        # P34(b00) and the conditional (1,2) probability of b00 under b00
        # and under b01 just above PRUNE_DEFAULT: kept rows of P near 1e-28
        # and 3e-15. K is unitary, so K^H takes the residuals to a register.
        p34 = np.array([1.000001 * PRUNE_DEFAULT, *[(1 - 1.000001 * PRUNE_DEFAULT) / 3] * 3])
        cond = np.full((4, 4), 0.25)
        cond[:2, 0] = 1.02 * PRUNE_DEFAULT
        cond[:2, 1:] = (1 - cond[:2, :1]) / 3
        unit = rng.normal(size=(16, 4))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        coeff = np.sqrt((p34[:, None] * cond).ravel())[:, None] * unit
        amps = protocol._K.conj().T @ coeff.ravel()
        ens = swap(StateVector(6, amps / np.linalg.norm(amps)))
        assert ens.keep.all() and ens.probabilities.min() < 1.1e-28
    else:
        amps = rng.normal(size=64) + (1j * rng.normal(size=64) if kind == "complex" else 0)
    state = StateVector(6, amps / np.linalg.norm(amps))
    k = protocol._K * scale
    assert_matches_the_branch_oracle(lambda: protocol._swap(k, state), state, k)


# Third-pair entries at the edges of canonical_table's sign rule for real
# pairs: zeros of both signs, ZERO_ATOL and its neighbours, subnormals, 1,
# and the non-finite values that must take the complex path. Imaginary parts
# straddle 0 and _IMAG_ATOL.
EDGE_ENTRIES = st.one_of(
    st.sampled_from(
        [
            sign * x
            for x in (
                0.0,
                ZERO_ATOL,
                math.nextafter(ZERO_ATOL, 0.0),
                math.nextafter(ZERO_ATOL, 1.0),
                5e-324,
                1e-310,
                1.0,
                math.inf,
            )
            for sign in (1.0, -1.0)
        ]
        + [math.nan]
    ),
    st.floats(-1.0, 1.0),
)
EDGE_IMAGS = st.sampled_from(
    [
        sign * x
        for x in (
            0.0,
            1e-300,
            math.nextafter(protocol._IMAG_ATOL, 0.0),
            math.nextafter(protocol._IMAG_ATOL, 1.0),
        )
        for sign in (1.0, -1.0)
    ]
)


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float64, np.complex128]),
    thirds=st.lists(
        st.tuples(EDGE_ENTRIES, EDGE_ENTRIES, EDGE_IMAGS, EDGE_IMAGS), min_size=16, max_size=16
    ),
    keep=st.lists(st.booleans(), min_size=16, max_size=16),
    weights=st.lists(st.integers(0, 3), min_size=16, max_size=16),
)
def test_canonical_table_matches_the_branch_oracle_at_the_sign_rule_edges(
    dtype, thirds, keep, weights
):
    # A float64 residual has no imaginary part to draw. Small integer weights
    # give tied probabilities, and repeated edge entries give merged rows.
    residuals = np.zeros((16, 2, 2), dtype=dtype)
    for i, (a, b, a_im, b_im) in enumerate(thirds):
        if dtype is np.complex128:
            a, b = complex(a, a_im), complex(b, b_im)
        residuals[i, 0, 1], residuals[i, 1, 0] = a, b
    weights = np.array(weights, dtype=float) if any(weights) else np.ones(16)
    ens = protocol.Ensemble(weights / weights.sum(), residuals, np.array(keep))
    # canonical_table raises at the first bad row group by group, and the
    # oracle reads every branch's phase before it builds a row: with bad rows
    # in two groups they may name different ones. So each group is compared
    # on its own, and the whole table wherever the oracle builds one.
    for _, members in protocol._GROUP_MEMBERS:
        part = np.zeros(16, dtype=bool)
        part[list(members)] = True
        one = dataclasses.replace(ens, keep=ens.keep & part)
        assert_table_matches_the_branch_oracle(one, one.branches)
    try:
        want = oracle.branch_table(ens.branches)
    except ValueError:
        return
    assert row_bits(canonical_table(ens)) == row_bits(want)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_infinite_third_pair_is_refused(gc_ensemble, dtype, sign):
    # An infinite entry is divided by its complex phase, inf / inf = NaN, and
    # the row is refused; taken by its sign, a = inf would pass as a row.
    residuals = np.zeros((16, 2, 2), dtype=dtype)
    residuals[0, 0, 1] = sign * math.inf
    keep = np.zeros(16, dtype=bool)
    keep[0] = True
    ens = dataclasses.replace(gc_ensemble, residuals=residuals, keep=keep)
    with pytest.raises(ValueError, match=r"^row not phase-normalized: a=nan, b=nan$"):
        canonical_table(ens)


def test_run_pair_table_and_sample_build_no_outcome_branch(monkeypatch):
    # The array ensemble's speed rests on this: only a reader of
    # ``Ensemble.branches`` (the tests) builds branch objects.
    def forbidden(self, *args, **kwargs):
        raise AssertionError("an OutcomeBranch was built")

    monkeypatch.setattr(protocol.OutcomeBranch, "__init__", forbidden)
    for pair in ORIENTATIONS:
        ens = run_pair(*pair)
        canonical_table(ens)
        sample(ens, shots=1000, seed=7)
    with pytest.raises(AssertionError, match="OutcomeBranch was built"):
        ens.branches


# --- sampling ---


def test_sample_is_deterministic(at_ensemble):
    c1 = sample(at_ensemble, shots=2000, seed=123)
    c2 = sample(at_ensemble, shots=2000, seed=123)
    assert c1 == c2


def test_sample_single_shot_lands_on_a_live_branch(at_ensemble):
    counts = sample(at_ensemble, shots=1, seed=7)
    assert sum(counts.values()) == 1
    assert len(counts) == 16


def test_sample_frequencies_approach_exact_probabilities(at_ensemble):
    shots = 20000
    counts = sample(at_ensemble, shots=shots, seed=99)
    assert sum(counts.values()) == shots
    for (l34, l12), count in counts.items():
        p = expected_at_probability(l34, l12)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) <= 3 * sigma


def test_sample_validates_arguments(at_ensemble):
    with pytest.raises(ValueError, match="shots"):
        sample(at_ensemble, shots=0, seed=1)
    with pytest.raises(ValueError, match="shots"):
        sample(at_ensemble, shots=2**63, seed=1)
    with pytest.raises(ValueError, match="shots"):
        sample(at_ensemble, shots=2**70, seed=1)
    with pytest.raises(ValueError, match=r"^shots must be an integer, got 1\.5$"):
        sample(at_ensemble, shots=1.5, seed=1)
    with pytest.raises(ValueError, match="seed"):
        sample(at_ensemble, shots=1, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        sample(at_ensemble, shots=1, seed=2**64)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        sample(at_ensemble, shots=1, seed=1.5)
    # A bool is not a count or a seed, though it compares as 0 or 1.
    for shots, seed in [(True, 1), (False, 1), (1, True), (1, False), (True, False)]:
        with pytest.raises(ValueError, match="must be an integer, got (True|False)$"):
            sample(at_ensemble, shots=shots, seed=seed)


def test_sample_rejects_an_ensemble_with_no_branches(gc_ensemble, monkeypatch):
    # The error comes before any threshold or table is built.
    empty = dataclasses.replace(gc_ensemble, keep=np.zeros(16, dtype=bool))

    def no_tables(*args):
        raise AssertionError("thresholds built for an empty ensemble")

    monkeypatch.setattr(protocol, "_word_thresholds", no_tables)
    monkeypatch.setattr(protocol, "_cell_table", no_tables)
    with pytest.raises(ValueError, match="no branches"):
        sample(empty, shots=10, seed=1)


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
    dead_rows=st.sets(st.integers(0, 3), max_size=3),
    dead_cells=st.sets(st.integers(0, 15), max_size=12),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.integers(1, 64),
    workers=st.integers(1, 3),
    data=st.data(),
)
def test_streaming_sample_equals_the_whole_run_sampler(
    pair, theta, phi, dead_rows, dead_cells, seed, chunk, workers, data
):
    # Dropping branches by hand zeroes joint entries and whole (3,4) rows; a
    # small chunk puts chunk boundaries and a short final chunk inside the
    # run, and an odd one starts a worker's span at an odd shot.
    shots = data.draw(st.integers(1, 3 * chunk + 1), label="shots")
    ens = run_pair(*pair, ProtocolConfig(theta=theta, phi=phi))
    keep = ens.keep.copy()
    for i in range(16):
        if i >> 2 in dead_rows or i in dead_cells:
            keep[i] = False
    assume(keep.any())
    ens = dataclasses.replace(ens, keep=keep)
    ref = oracle.sample_reference(joint_of(ens), shots, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_SAMPLE_CHUNK", chunk)
        mp.setattr(protocol, "_SAMPLE_WORKERS", workers)
        counts = sample(ens, shots=shots, seed=seed)
    assert counts == keyed_counts(ens, ref)


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_streaming_sample_equals_the_whole_run_sampler_at_the_defaults(
    at_ensemble, gc_ensemble, pair
):
    # One default-size chunk boundary, which is also the cut between two
    # workers' spans when the process may use two CPUs.
    seed, shots = 2**64 - 1, protocol._SAMPLE_CHUNK + 12_345
    ens = at_ensemble if pair == "AT" else gc_ensemble
    ref = oracle.sample_reference(joint_of(ens), shots, seed)
    assert sample(ens, shots=shots, seed=seed) == keyed_counts(ens, ref)


# Probability vectors with zeros, dyadic cdf values (thresholds on bucket
# edges) and subnormals (thresholds that collide after ceil).
PROB = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 0.25, 1 / 3, 1e-300, 5e-324]),
    st.floats(0.0, 1.0),
)
PROBS = st.lists(PROB, min_size=1, max_size=16).filter(lambda p: sum(p) > 0)


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
    gc_ensemble, monkeypatch
):
    # Every (word, word) pair from {t - 1, t, t + 1} over all thresholds t
    # hits each threshold of both searches, where a random stream almost
    # never lands.
    ens = gc_ensemble
    joint = joint_of(ens)
    rows = [joint.sum(axis=1), *joint]
    t = np.concatenate([protocol._word_thresholds(p)[1] for p in rows])
    k = np.unique(np.clip(np.concatenate([t - 1, t, t + 1]), 0, 2**53 - 1))
    words = np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)
    # 529 shots in chunks of 101: the second worker's span starts at shot 303.
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 101)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    assert sample_words(monkeypatch, ens, words) == keyed_counts(
        ens, oracle.counts_from_uniforms(joint, words * 2.0**-53)
    )


def sample_words(monkeypatch, ens, words: np.ndarray) -> dict:
    """``sample`` with shot i reading the 53-bit words ``words[i]``."""

    class CraftedStream:
        def __init__(self, key):
            self.raw = words.ravel().astype(np.uint64) << np.uint64(11)

        def random_raw(self, n):
            out, self.raw = self.raw[:n].copy(), self.raw[n:]
            return out

        def advance(self, d):
            self.raw = self.raw[4 * d :]  # what Philox.advance skips

    monkeypatch.setattr(np.random, "Philox", CraftedStream)
    return sample(ens, shots=len(words), seed=0)


# sample's table keys a 53-bit word k by its top byte, k >> 45: the first and
# the last word of each of its 256 buckets.
BUCKET = 1 << 45
BUCKET_EDGES = np.concatenate([np.arange(256) * BUCKET, np.arange(1, 257) * BUCKET - 1])


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_sample_reads_every_bucket_edge_like_the_float_sampler(
    at_ensemble, gc_ensemble, pair, monkeypatch
):
    # Both words run through the first and last word of every bucket and
    # through t - 1, t, t + 1 of every threshold t, so every bucket that
    # holds a threshold is read along with its neighbours' edges. The first
    # block pairs every word with another as (k1, k2); then, for each live
    # (3,4) row, one first word in that row is paired with every k2.
    ens = at_ensemble if pair == "AT" else gc_ensemble
    joint = joint_of(ens)
    rows, row_t = protocol._word_thresholds(joint.sum(axis=1))
    t = np.concatenate([row_t, *(protocol._word_thresholds(joint[i])[1] for i in rows)])
    k = np.concatenate([BUCKET_EDGES, t - 1, t, t + 1])
    k = np.unique(np.clip(k, 0, 2**53 - 1))
    rank = np.searchsorted(row_t, k, side="right")
    blocks = [np.stack([k, np.roll(k, len(k) // 2)], axis=1)]
    for r in range(len(rows)):
        k1 = k[rank == r][len(k[rank == r]) // 2]
        blocks.append(np.stack([np.full_like(k, k1), k], axis=1))
    assert len(blocks) > 2
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 1000)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    for words in blocks:
        assert sample_words(monkeypatch, ens, words) == keyed_counts(
            ens, oracle.counts_from_uniforms(joint, words * 2.0**-53)
        )


def last_word(bucket: int) -> float:
    """A probability whose threshold, ceil(p * 2**53), is the bucket's last word."""
    return ((bucket + 1) * BUCKET - 1) / 2**53


@settings(max_examples=200, deadline=None)
@given(
    marginal=st.lists(PROB, min_size=1, max_size=4).filter(lambda p: sum(p) > 0),
    rows=st.lists(PROBS, min_size=1, max_size=4),
    random_words=st.lists(st.integers(0, 2**53 - 1), max_size=16),
)
@example(marginal=[1 / 3, 1 / 3, 1 / 3], rows=[[0.5, 1e-300, 0.5]], random_words=[])
# The rounded cumsum passes 1 before the 1e-300 tail: thresholds must stay sorted.
@example(
    marginal=[0.5, 0.5], rows=[[0.5] * 6 + [0.25] + [0.5] * 5 + [0.25, 1e-300]], random_words=[]
)
# Thresholds on a bucket's first word (2**51 and 2**52, multiples of 2**45) split none.
@example(marginal=[0.25, 0.75], rows=[[0.5, 0.5]], random_words=[])
# A threshold on the last word of bucket 4 splits that bucket only.
@example(marginal=[last_word(4), 1 - last_word(4)], rows=[[0.5, 0.5]], random_words=[])
@example(marginal=[0.5, 0.5], rows=[[last_word(200), 1 - last_word(200)]], random_words=[])
# Thresholds at 2**53 before the last one: past every word, they split none.
@example(marginal=[1.0, 1e-300], rows=[[1.0, 5e-324, 0.0]], random_words=[2**53 - 1])
def test_cell_table_ranks_word_pairs_like_searchsorted(marginal, rows, random_words):
    # Stacked like sample's col_t: live row r has the thresholds of
    # rows[r % len(rows)], offset by r << 53.
    row_t = protocol._word_thresholds(np.array(marginal))[1]
    own = [protocol._word_thresholds(np.array(rows[r % len(rows)]))[1] for r in range(len(row_t))]
    col_t = np.concatenate([(r << 53) + t for r, t in enumerate(own)])
    table = protocol._cell_table(row_t, col_t)
    assert table.dtype == np.int8 and table.shape == (1 << 16,)

    # Every pair of words from the bucket edges, t - 1, t and t + 1 of every
    # threshold t, and a few random words, as (k1, k2).
    t = np.concatenate([row_t, *own])
    k = np.concatenate([BUCKET_EDGES, t - 1, t, t + 1, random_words])
    k = np.unique(np.clip(k, 0, 2**53 - 1)).astype(np.int64)
    k1, k2 = (w.ravel() for w in np.meshgrid(k, k, indexing="ij"))
    row = np.searchsorted(row_t, k1, side="right")
    rank = np.searchsorted(col_t, (row << 53) + k2, side="right")
    entry = table[(k1 >> 45) << 8 | (k2 >> 45)]
    np.testing.assert_array_equal(np.where(entry < 0, rank, entry), rank)

    # -1 exactly where a threshold t splits a bucket, t in (first word, last
    # word]: one of the first search in h1's bucket, or, in the row that h1
    # picks, one of the second search in h2's. So a threshold on a bucket's
    # first word, or at 2**53, splits none.
    def split(t: np.ndarray) -> np.ndarray:
        buckets = np.zeros(256, dtype=bool)
        buckets[t[(t < 2**53) & (t % BUCKET != 0)] // BUCKET] = True
        return buckets

    picked = np.searchsorted(row_t, np.arange(256) * BUCKET, side="right")
    expected = [split(own[picked[h]]) for h in range(256)]
    expected = np.array(expected) | split(row_t)[:, None]
    np.testing.assert_array_equal(table.reshape(256, 256) < 0, expected)


@pytest.mark.parametrize("order", ["<u8", ">u8"])
def test_a_shot_reads_the_table_at_its_words_top_bytes(order):
    # With a table whose entries are their own indices, _count_chunk counts
    # table keys, so a one-shot chunk names the key its shot read. The key
    # must be ((w1 >> 56) << 8) | (w2 >> 56), in either byte order of the words.
    edges = [0, 2**56 - 1, 2**56, 2**64 - 1]
    drawn = np.random.default_rng(5).integers(0, 2**64, 64, dtype=np.uint64).tolist()
    pairs = [(w1, w2) for w1 in edges for w2 in edges] + list(zip(drawn[::2], drawn[1::2]))
    keys, t = np.arange(1 << 16), np.array([2**53])
    for w1, w2 in pairs:
        counts = protocol._count_chunk(np.array([w1, w2], dtype=order), keys, t, t)
        assert np.flatnonzero(counts).tolist() == [((w1 >> 56) << 8) | (w2 >> 56)]
        assert counts.sum() == 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), skip=st.integers(0, 2**256 - 1) | st.integers(0, 64), n=st.integers(1, 24))
@example(seed=0, skip=0, n=16)
@example(seed=1, skip=5, n=16)
@example(seed=12345, skip=0, n=16)
@example(seed=2**63 + 7, skip=5, n=16)
@example(seed=2**64 - 1, skip=5, n=16)
@example(seed=2**64 - 1, skip=2**64 - 1, n=8)  # the counter's first carry
@example(seed=2**64 - 1, skip=2**256 - 1, n=8)  # and its wrap
@example(seed=2**127 + 5, skip=0, n=8)  # the key's high word
def test_numpy_philox_is_the_reference_philox4x64_10(seed, skip, n):
    # sample reads numpy's stream; a numpy release that changed the stream or
    # what advance skips would otherwise move every sample digest, and the
    # whole-run oracle, which also reads numpy, would follow it.
    want = _philox.words(seed, n, skip)
    bitgen = np.random.Philox(key=seed)
    if skip:
        bitgen.advance(skip)
    assert bitgen.random_raw(n).tolist() == want


@pytest.mark.parametrize("key", [0, 1, 42, 2**64 - 1])
def test_raw_philox_words_are_the_generator_uniforms(key):
    # sample reads words, the sampler it replaced read Generator.random; a
    # numpy release that changes either mapping must fail here, not shift
    # counts silently.
    n = 1001
    words = np.random.Philox(key=key).random_raw(n)
    assert words.tolist() == _philox.words(key, n)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(n)
    np.testing.assert_array_equal((words >> 11) * 2.0**-53, uniforms)
    assert uniforms.tolist() == [(w >> 11) * 2**-53 for w in _philox.words(key, n)]
    bitgen = np.random.Philox(key=key)
    chunked = np.concatenate([bitgen.random_raw(7), bitgen.random_raw(n - 7)])
    np.testing.assert_array_equal(chunked, words)


@pytest.mark.parametrize("key", [0, 1, 42, 2**64 - 1])
@pytest.mark.parametrize("d", [1, 2, 7, 50])
def test_philox_advance_skips_four_words_per_step(key, d):
    # sample starts each worker's span with advance; a numpy release that
    # changes what it skips must fail here, not shift counts silently.
    n = 101
    words = np.random.Philox(key=key).random_raw(4 * d + n)
    bitgen = np.random.Philox(key=key)
    bitgen.advance(d)
    np.testing.assert_array_equal(bitgen.random_raw(n), words[4 * d :])


@pytest.mark.parametrize("seed, shots", [(0, 1), (2**64 - 1, 12_345)])
def test_golden_sample_counts_are_those_of_the_reference_stream(seed, shots):
    # The golden cases run-sample-*-json-0-1 and -max-12345, whose digests
    # test_golden freezes, print the counts that the Python Philox's words give
    # through the whole-run oracle: shot i reads words 2i and 2i + 1, each as
    # the uniform (w >> 11) * 2**-53.
    words = _philox.words(seed, 2 * shots)
    uniforms = np.array([(w >> 11) * 2**-53 for w in words]).reshape(shots, 2)
    for pair, bases in PAIRS.items():
        ens = run_pair(*bases)
        want = keyed_counts(ens, oracle.counts_from_uniforms(joint_of(ens), uniforms))
        doc = json.loads(cmd_run(RunRequest(pair, "sample", shots, seed, "json")))
        got = {(c["bell_34"], c["bell_12"]): c["count"] for c in doc["counts"]}
        assert got == {(l34.text, l12.text): count for (l34, l12), count in want.items()}


def test_sample_memory_does_not_grow_with_shots(at_ensemble, monkeypatch):
    # tracemalloc sees the helper thread's chunks too.
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 1024)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    shots = 10**6
    sample(at_ensemble, shots=1, seed=5)  # first use imports numpy.random's helpers
    tracemalloc.start()
    try:
        counts = sample(at_ensemble, shots=shots, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == shots
    assert peak < 1 << 20


def test_sample_counts_hold_with_more_workers_than_cores(gc_ensemble, monkeypatch):
    # A short switch interval interleaves the helpers' chunks as finely as
    # the interpreter allows; an odd chunk starts spans at odd shots.
    seed, shots = 42, 10_007
    ref = oracle.sample_reference(joint_of(gc_ensemble), shots, seed)
    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 97)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = sample(gc_ensemble, shots=shots, seed=seed)
    finally:
        sys.setswitchinterval(interval)
    assert counts == keyed_counts(gc_ensemble, ref)


def test_sample_starts_a_helper_thread_only_past_one_chunk(at_ensemble, monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 100)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    sample(at_ensemble, shots=100, seed=1)
    assert started == []
    sample(at_ensemble, shots=101, seed=1)
    assert len(started) == 1


def test_sample_reraises_a_helper_thread_error(at_ensemble, monkeypatch):
    philox = np.random.Philox

    class FailsPastShotZero:
        def __init__(self, key):
            self.bitgen = philox(key=key)

        def advance(self, d):
            if d:
                raise RuntimeError("helper span failed")

        def random_raw(self, n):
            return self.bitgen.random_raw(n)

    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 100)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    monkeypatch.setattr(np.random, "Philox", FailsPastShotZero)
    with pytest.raises(RuntimeError, match="helper span failed"):
        sample(at_ensemble, shots=1000, seed=1)


SPAN_CHUNKS = 200  # chunks per span in the stop tests below


def chunk_counting_helper(monkeypatch, gate: threading.Event, failing: str | None) -> dict:
    """Patch ``protocol._count_chunk`` to count its calls per span, "caller" and "helper".

    ``_count_chunk`` runs once per chunk. The ``failing`` span raises at its
    second chunk, setting ``gate`` first. The other span, or the helper when
    none fails, waits at its first call until ``gate`` is set, so it cannot
    run ahead of the failure.
    """
    count_chunk, caller = protocol._count_chunk, threading.get_ident()
    calls = {"caller": 0, "helper": 0}
    waiting = "caller" if failing == "helper" else "helper"

    def counted(*args):
        me = "caller" if threading.get_ident() == caller else "helper"
        calls[me] += 1
        if me == failing and calls[me] == 2:
            gate.set()
            raise RuntimeError("span failed")
        if me == waiting and calls[me] == 1:
            assert gate.wait(10)
        return count_chunk(*args)

    monkeypatch.setattr(protocol, "_SAMPLE_CHUNK", 64)
    monkeypatch.setattr(protocol, "_SAMPLE_WORKERS", 2)
    monkeypatch.setattr(protocol, "_count_chunk", counted)
    return calls


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_sample_stops_every_span_at_the_first_failure(at_ensemble, monkeypatch, failing):
    calls = chunk_counting_helper(monkeypatch, threading.Event(), failing)
    with pytest.raises(RuntimeError, match="span failed"):
        sample(at_ensemble, shots=2 * SPAN_CHUNKS * 64, seed=1)
    other = calls["helper" if failing == "caller" else "caller"]
    assert other < SPAN_CHUNKS // 10  # a span is SPAN_CHUNKS calls


def test_sample_stops_the_helper_when_the_caller_is_interrupted_in_join(
    at_ensemble, monkeypatch
):
    # A Ctrl-C arrives while the caller waits in join, its own span done.
    join, joined, gate = threading.Thread.join, [], threading.Event()
    calls = chunk_counting_helper(monkeypatch, gate, None)

    def interrupted(self, timeout=None):
        joined.append(self)
        gate.set()
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "join", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sample(at_ensemble, shots=2 * SPAN_CHUNKS * 64, seed=1)
    join(*joined)
    assert calls["caller"] == SPAN_CHUNKS
    assert calls["helper"] < SPAN_CHUNKS // 10


# --- mutation sanity: a broken entangler destroys the reference ensemble ---


def test_identity_entangler_degenerates_the_at_ensemble(at_state):
    broken = protocol._swap(protocol._instrument(np.eye(4, dtype=complex)), at_state)
    rows = canonical_table(broken)
    groups = {row.group for row in rows}
    assert groups == {(0, 1), (1, 0)}
    for row in rows:
        assert row.probability == pytest.approx(0.5, abs=1e-12)
