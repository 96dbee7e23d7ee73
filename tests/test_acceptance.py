"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines; any assertion failure marks the criterion failed.
"""
from __future__ import annotations

import functools
import math
import subprocess
import sys

import numpy as np

import _oracle as oracle
from dnaswap.encodings import BaseCode, wc_initial_pattern, wc_initial_state
from dnaswap.gates import BELL, V
from dnaswap.metrics import concurrence, entanglement_entropy, hamming_support
from dnaswap.protocol import (
    DEFAULT_PHI,
    DEFAULT_THETA,
    ProtocolConfig,
    assemble_pair,
    build_recognition_unitary,
    canonical_table,
    recognize,
    run_pair,
    sample,
    swap,
)
from dnaswap import protocol
from dnaswap.cli import cmd_verify
from dnaswap.statevec import NORM_ATOL, PRUNE_DEFAULT, StateVector, reduced_density

S2 = math.sqrt(2.0)
P_HI = (2.0 + S2) / 8.0
P_LO = (2.0 - S2) / 8.0

RNG = np.random.default_rng(8675309)


def _passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def _random_state(n: int) -> StateVector:
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def _ket_map(terms: dict[str, float], n: int) -> np.ndarray:
    out = np.zeros(2**n, dtype=complex)
    for bits, amp in terms.items():
        out[int(bits, 2)] = amp
    return out


def test_criterion_1_recognition_states(cfg):
    s3 = math.sqrt(3.0)
    printed = {
        "A": {"011": 1 / S2, "101": -1 / S2},
        "T": {"010": 1 / S2, "100": 1 / S2},
        "G": {"011": 1 / s3, "101": 1 / s3, "110": 1 / s3},
        "C": {"100": 1 / s3, "010": -1 / s3, "001": 1 / s3},
    }
    for base, terms in printed.items():
        got = recognize(BaseCode(base), cfg).amplitudes
        assert np.max(np.abs(got - _ket_map(terms, 3))) <= 1e-12, base
    _passed(1, "all four post-recognition states match amplitude-wise at 1e-12")


def test_criterion_2_assembled_pair_states(at_state, gc_state):
    at_expected = _ket_map(
        {"001110": 0.5, "011010": 0.5, "100110": -0.5, "110010": -0.5}, 6
    )
    gc_expected = _ket_map(
        {
            "011010": 1 / 3, "110010": 1 / 3, "111000": 1 / 3,
            "001110": -1 / 3, "100110": -1 / 3, "101100": -1 / 3,
            "001011": 1 / 3, "100011": 1 / 3, "101001": 1 / 3,
        },
        6,
    )
    assert np.max(np.abs(at_state.amplitudes - at_expected)) <= 1e-12
    assert np.max(np.abs(gc_state.amplitudes - gc_expected)) <= 1e-12
    _passed(2, "4-term and 9-term assembled expansions match with signs at 1e-12")


def test_criterion_3_at_outcome_classes(at_ensemble):
    rows = {row.group: row for row in canonical_table(at_ensemble)}
    assert set(rows) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    reference = {(0, 0): 0.43, (0, 1): 0.07, (1, 0): 0.07, (1, 1): 0.43}
    exact = {(0, 0): P_HI, (0, 1): P_LO, (1, 0): P_LO, (1, 1): P_HI}
    for group, row in rows.items():
        assert abs(row.probability - reference[group]) <= 0.01
        assert abs(row.probability - exact[group]) <= 1e-10
        assert row.a == 0.0 and abs(row.b - 1.0) <= 1e-10  # third pair |10>
    _passed(3, "A.T classes carry |10> and hit (2+-sqrt2)/8 at 1e-10")


def test_criterion_4_gc_canonical_table(gc_ensemble):
    rows = canonical_table(gc_ensemble)
    assert len(rows) == 16
    reference_p = (0.11, 0.09, 0.03, 0.02)
    reference_ab = ((0.51, 0.86), (0.38, 0.92), (0.96, 0.28), (0.92, 0.38))
    total = 0.0
    for group in ((0, 0), (0, 1), (1, 0), (1, 1)):
        group_rows = sorted(
            (r for r in rows if r.group == group), key=lambda r: r.rank
        )
        assert len(group_rows) == 4
        group_p = sum(r.probability for r in group_rows)
        assert abs(group_p - 0.25) <= 1e-10
        total += group_p
        for row, p_ref, (a_ref, b_ref) in zip(group_rows, reference_p, reference_ab):
            assert abs(row.probability - p_ref) <= 0.01
            assert abs(abs(row.a) - a_ref) <= 0.01
            assert abs(abs(row.b) - b_ref) <= 0.01
    assert abs(total - 1.0) <= 1e-10
    _passed(4, "16 G.C rows match reference |a|, |b|, P at 0.01; sums exact at 1e-10")


def test_criterion_5_proton_conservation(at_state, gc_state):
    assert hamming_support(at_state) == {3}
    assert hamming_support(gc_state) == {3}
    weight_broken_intermediates = 0
    for state in (at_state, gc_state):
        ens = swap(state)
        for br in ens.branches:
            assert hamming_support(br.final_state) == {3}
        # The register after the (3,4) measurement, before its correction.
        stage1 = oracle.dense.on_qubits(oracle.V, (3, 5)) @ state.amplitudes
        for label in oracle.dense.BELL:
            post = oracle.bell_projector(label, (3, 4)) @ stage1
            p = np.vdot(post, post).real
            if p < PRUNE_DEFAULT:
                continue
            post_state = StateVector(6, post / np.sqrt(p))
            if label[1] == 0 and hamming_support(post_state) != {3}:
                weight_broken_intermediates += 1
    assert weight_broken_intermediates > 0
    _passed(5, "weight {3} pre-swap and post-correction; corrections are load-bearing")


def test_criterion_6_entanglement_moves_across_the_cut(at_state, gc_state, at_ensemble, gc_ensemble):
    cross_pairs = [
        (i, j)
        for i in range(1, 7)
        for j in range(i + 1, 7)
        if (i, j) not in ((1, 2), (3, 4), (5, 6))
    ]
    assert entanglement_entropy(at_state, (1, 3, 5)) <= 1e-10
    assert entanglement_entropy(gc_state, (1, 3, 5)) <= 1e-10
    for ens in (at_ensemble, gc_ensemble):
        for br in ens.branches:
            for bond in ((1, 2), (3, 4)):
                assert abs(concurrence(reduced_density(br.final_state, bond)) - 1.0) <= 1e-10
            for pair in cross_pairs:
                assert concurrence(reduced_density(br.final_state, pair)) <= 1e-10
    for br in gc_ensemble.branches:
        a, b = br.third_pair
        c56 = concurrence(reduced_density(br.final_state, (5, 6)))
        assert abs(c56 - 2 * abs(a) * abs(b)) <= 1e-10
    _passed(6, "pre-swap cut entropy 0; bonded-pair concurrence 1; cross pairs 0")


def test_criterion_7_completion_independence():
    # The second completion rotates U's four free columns by a random
    # unitary; the four pinned columns, and so the protocol, stay the same.
    rng = np.random.default_rng(20100829)
    mix, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for theta, phi in ((DEFAULT_THETA, DEFAULT_PHI), (0.3, 0.9), (math.pi / 2 + 1e-6, DEFAULT_PHI)):
        cfg = ProtocolConfig(theta=theta, phi=phi)
        pinned = [int(wc_initial_pattern(BaseCode(b)).text, 2) for b in "ATGC"]
        free = [i for i in range(8) if i not in pinned]
        u_lib = build_recognition_unitary(cfg)
        u_alt = u_lib.copy()
        u_alt[:, free] = u_alt[:, free] @ mix
        assert np.max(np.abs(u_alt.conj().T @ u_alt - np.eye(8))) <= NORM_ATOL  # a unitary
        assert np.max(np.abs(u_lib - u_alt)) > 1e-3  # genuinely different
        for template, incoming in ((BaseCode("A"), BaseCode("T")), (BaseCode("G"), BaseCode("C"))):
            states, tables = [], []
            for u in (u_lib, u_alt):
                faces = [u @ wc_initial_state(b).amplitudes for b in (template, incoming)]
                states.append(oracle.interleave(np.kron(*faces)))
                tables.append(canonical_table(swap(StateVector(6, states[-1]))))
            assert np.array_equal(states[0], states[1])
            assert np.array_equal(states[0], assemble_pair(template, incoming, cfg).amplitudes)
            tables.append(canonical_table(run_pair(template, incoming, cfg)))
            assert len(tables[0]) > 0
            assert tables[0] == tables[1] == tables[2]  # dataclass eq: bit-identical floats
    _passed(7, "two orthonormal completions of U give bit-identical canonical tables")


def test_criterion_8_sampling_consistency(at_ensemble):
    shots, seed = 100_000, 42
    counts = sample(at_ensemble, shots=shots, seed=seed)
    assert sample(at_ensemble, shots=shots, seed=seed) == counts
    assert sum(counts.values()) == shots
    exact = {(br.bell_34, br.bell_12): br.probability for br in at_ensemble.branches}
    for key, count in counts.items():
        p = exact[key]
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) <= 3 * sigma, key
    merged: dict[tuple[int, int], float] = {}
    merged_p: dict[tuple[int, int], float] = {}
    for (l34, l12), count in counts.items():
        group = (l12.j, l34.j)
        merged[group] = merged.get(group, 0.0) + count / shots
        merged_p[group] = merged_p.get(group, 0.0) + exact[(l34, l12)]
    for group, freq in merged.items():
        p = merged_p[group]
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / shots), group
    _passed(8, "empirical frequencies within 3 sigma; identical seed, identical counts")


def test_criterion_9_property_suite(cfg):
    constructed = [V, build_recognition_unitary(cfg)]
    constructed += [
        build_recognition_unitary(ProtocolConfig(theta=t, phi=p))
        for t, p in zip(np.linspace(-3, 3, 7), np.linspace(3, -2, 7))
    ]
    constructed.append(BELL.T)
    for m in constructed:
        assert np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= 1e-12

    # The swap instrument is an isometry, so for every register its 16
    # outcome probabilities sum to 1.
    k = protocol._K
    assert np.max(np.abs(k.conj().T @ k - np.eye(64))) <= 1e-12
    for _ in range(25):
        assert abs(swap(_random_state(6)).probabilities.sum() - 1.0) <= 1e-12

    index = protocol._INTERLEAVE_INDEX
    assert np.array_equal(np.sort(index), np.arange(64))
    assert np.array_equal(index, oracle.interleave(np.arange(64)))
    _passed(9, "unitarity of V, U and the Bell basis; K an isometry; the interleave a permutation")


def test_criterion_10_cli_verify_contract(monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "dnaswap", "verify"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    identity_k = protocol._instrument(np.eye(4, dtype=complex))
    monkeypatch.setattr(protocol, "swap", functools.partial(protocol._swap, identity_k))
    _, code = cmd_verify()
    assert code == 1
    _passed(10, "verify exits 0 on the reference build, 1 with a broken entangler")
