"""Nucleotide codes, edge patterns, complementarity, tautomer supports."""
from __future__ import annotations

import numpy as np
import pytest

from dnaswap.encodings import (
    ALL_CODES,
    BaseCode,
    EdgePattern,
    UnsupportedEncodingError,
    complement_pattern,
    h_edge_pattern,
    recognition_matches,
    wc_initial_pattern,
    wc_initial_state,
)
from dnaswap.statevec import basis_state

A, T, G, C = (BaseCode(b) for b in "ATGC")
A_r, T_r, G_r, C_r = (BaseCode(b, rare=True) for b in "ATGC")


def test_base_code_parsing_and_labels():
    assert C_r.label == "C*"
    assert str(G) == "G"
    assert len(ALL_CODES) == 8
    with pytest.raises(ValueError):
        BaseCode("X")


@pytest.mark.parametrize("rare", [2, 1, 0, "no", "", 0.0, None, np.bool_(True)])
def test_base_code_refuses_a_non_bool_rare(rare):
    # 2 would print as "A*" yet differ from BaseCode("A", True); "no" would
    # count as rare and 0.0 as canonical.
    with pytest.raises(ValueError, match="rare must be a bool"):
        BaseCode("A", rare=rare)


@pytest.mark.parametrize(
    "code,bits",
    [(A, (0, 1)), (T, (1, 0)), (G, (0, 0)), (C, (1, 1)),
     (A_r, (0, 0)), (T_r, (1, 1)), (G_r, (0, 1)), (C_r, (1, 0))],
)
def test_recognition_patterns(code, bits):
    assert h_edge_pattern(code).bits == bits


@pytest.mark.parametrize(
    "code,bits", [(A, (1, 0, 1)), (T, (0, 1, 0)), (G, (0, 1, 1)), (C, (1, 0, 0))]
)
def test_pairing_face_initial_patterns(code, bits):
    assert wc_initial_pattern(code).bits == bits
    assert np.allclose(wc_initial_state(code).amplitudes, basis_state(bits).amplitudes)


def test_rare_tautomer_has_no_pairing_face_encoding():
    with pytest.raises(UnsupportedEncodingError):
        wc_initial_state(A_r)


def test_complement_pattern_examples():
    assert complement_pattern(h_edge_pattern(A)).bits == h_edge_pattern(T).bits
    assert complement_pattern(h_edge_pattern(G)).bits == h_edge_pattern(C).bits


def test_complement_is_an_involution():
    for code in ALL_CODES:
        p = h_edge_pattern(code)
        assert complement_pattern(complement_pattern(p)).bits == p.bits


def test_complement_rejects_pairing_face_patterns():
    with pytest.raises(ValueError, match="edge 'H'"):
        complement_pattern(EdgePattern("WC", (1, 0, 1)))


def test_canonical_patterns_are_distinct_and_closed_under_complement():
    patterns = {code.base: h_edge_pattern(code).bits for code in (A, T, G, C)}
    assert len(set(patterns.values())) == 4
    assert complement_pattern(EdgePattern("H", patterns["A"])).bits == patterns["T"]
    assert complement_pattern(EdgePattern("H", patterns["G"])).bits == patterns["C"]


@pytest.mark.parametrize(
    "b1,b2,expected",
    [(A, T, True), (G, C, True), (A, C_r, True), (G_r, T, True),
     (A, C, False), (A, G, False), (T, C, False)],
)
def test_complementarity_including_mispairs(b1, b2, expected):
    # Complementarity is the recognition_matches rule, rare tautomers included.
    assert (b2 in recognition_matches(h_edge_pattern(b1), include_rare=True)) is expected
    assert (b1 in recognition_matches(h_edge_pattern(b2), include_rare=True)) is expected


def test_exactly_one_canonical_component_per_base(cfg):
    from dnaswap.encodings import WC_INITIAL
    from dnaswap.protocol import recognize

    # Basis kets spanned by each base's post-recognition superposition: the
    # canonical pattern plus its tautomer components.
    supports = {
        "A": {(0, 1, 1), (1, 0, 1)},
        "T": {(0, 1, 0), (1, 0, 0)},
        "G": {(0, 1, 1), (1, 0, 1), (1, 1, 0)},
        "C": {(1, 0, 0), (0, 1, 0), (0, 0, 1)},
    }
    for code in (A, T, G, C):
        support = supports[code.base]
        assert WC_INITIAL[code.base] in support
        state = recognize(code, cfg)
        live = {
            tuple(int(c) for c in format(i, "03b"))
            for i, amp in enumerate(state.amplitudes)
            if abs(amp) > 1e-12
        }
        assert live == support


def test_initial_pattern_weights_are_the_conserved_constants():
    weights = {code.base: sum(wc_initial_pattern(code).bits) for code in (A, T, G, C)}
    assert weights == {"A": 2, "T": 1, "G": 2, "C": 1}


def test_recognition_matches_canonical_only():
    assert recognition_matches(h_edge_pattern(A)) == [T]
    assert recognition_matches(h_edge_pattern(G)) == [C]


def test_recognition_matches_with_tautomers():
    assert set(recognition_matches(h_edge_pattern(A), include_rare=True)) == {T, C_r}
    assert set(recognition_matches(h_edge_pattern(G), include_rare=True)) == {C, T_r}


def test_edge_pattern_validation():
    with pytest.raises(ValueError):
        EdgePattern("H", (1, 0, 1))
    with pytest.raises(ValueError):
        EdgePattern("WC", (1, 0))
    with pytest.raises(ValueError):
        EdgePattern("S", (1, 0))


# A list would construct and then fail to hash; a string is not a tuple either.
@pytest.mark.parametrize(
    "bits", [(True, False), (1, True), (1, 2), (1.0, 0), ("1", "0"), [0, 1], "01"]
)
def test_edge_pattern_refuses_bits_that_are_not_int_0_or_1(bits):
    with pytest.raises(ValueError, match=r"^edge H takes 2 bits, got "):
        EdgePattern("H", bits)
    assert EdgePattern("H", (1, 0)).text == "10"
