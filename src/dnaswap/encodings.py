"""Nucleotide identities and their qubit encodings.

Two faces of a base are modeled. The recognition face carries 2 qubits
(first bit: purine/pyrimidine, second bit: imino/enol); the pairing face
carries 3 qubits whose bit values mark proton presence on each bonding atom.
A rare tautomer relocates the proton that the second recognition bit tracks,
so its recognition pattern is the canonical one with that bit flipped.
"""
from __future__ import annotations

from dataclasses import dataclass

from .statevec import StateVector, _is_integer, basis_state

BASES = ("A", "T", "G", "C")

# Recognition-face (2-qubit) patterns of the canonical bases.
H_CANONICAL = {"A": (0, 1), "T": (1, 0), "G": (0, 0), "C": (1, 1)}

# Pairing-face (3-qubit) patterns before recognition; rare forms are not
# assigned a pattern at this level.
WC_INITIAL = {"A": (1, 0, 1), "T": (0, 1, 0), "G": (0, 1, 1), "C": (1, 0, 0)}


class UnsupportedEncodingError(ValueError):
    """Raised when an encoding is requested that no base provides."""


@dataclass(frozen=True)
class BaseCode:
    """A nucleotide identity: base letter plus tautomer flag."""

    base: str
    rare: bool = False

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"base must be one of {BASES}, got {self.base!r}")
        # Only a bool: 2 would print as "A*" yet differ from True, "no" would be truthy.
        if type(self.rare) is not bool:
            raise ValueError(f"rare must be a bool, got {self.rare!r}")

    @property
    def label(self) -> str:
        return self.base + ("*" if self.rare else "")

    def __str__(self) -> str:
        return self.label


ALL_CODES = tuple(BaseCode(b, rare) for b in BASES for rare in (False, True))


@dataclass(frozen=True)
class EdgePattern:
    """A bit pattern on one face: 2 bits (edge 'H') or 3 bits (edge 'WC')."""

    edge: str
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.edge not in ("H", "WC"):
            raise ValueError(f"edge must be 'H' or 'WC', got {self.edge!r}")
        want = 2 if self.edge == "H" else 3
        # Bits are a tuple, so the pattern hashes.
        if not (isinstance(self.bits, tuple) and len(self.bits) == want
                and all(_is_integer(b) and b in (0, 1) for b in self.bits)):
            raise ValueError(f"edge {self.edge} takes {want} bits, got {self.bits}")

    @property
    def text(self) -> str:
        return "".join(str(b) for b in self.bits)


def h_edge_pattern(b: BaseCode) -> EdgePattern:
    """Recognition-face pattern; a rare tautomer flips the imino/enol bit."""
    first, second = H_CANONICAL[b.base]
    if b.rare:
        second ^= 1
    return EdgePattern("H", (first, second))


def wc_initial_pattern(b: BaseCode) -> EdgePattern:
    if b.rare:
        raise UnsupportedEncodingError(
            f"no pairing-face pattern is defined for rare tautomer {b.label}"
        )
    return EdgePattern("WC", WC_INITIAL[b.base])


def wc_initial_state(b: BaseCode) -> StateVector:
    return basis_state(wc_initial_pattern(b).bits)


def complement_pattern(p: EdgePattern) -> EdgePattern:
    """Bitwise complement of a recognition-face pattern."""
    if p.edge != "H":
        raise ValueError(f"complement is defined on edge 'H' only, got {p.edge!r}")
    return EdgePattern("H", tuple(b ^ 1 for b in p.bits))


def recognition_matches(pattern: EdgePattern, include_rare: bool = False) -> list[BaseCode]:
    """Bases whose recognition pattern complements the given one.

    This is the selection rule for an incoming nucleotide: it pairs with a
    template whose exposed pattern is the bitwise complement of its own.
    """
    if type(include_rare) is not bool:  # as ``BaseCode.rare``: "no" would be truthy
        raise ValueError(f"include_rare must be a bool, got {include_rare!r}")
    target = complement_pattern(pattern).bits
    return [
        c
        for c in ALL_CODES
        if (include_rare or not c.rare) and h_edge_pattern(c).bits == target
    ]
