"""Philox4x64-10 in Python integers, independent of numpy.

Written from the published algorithm (Salmon, Moraes, Dror & Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC11), with numpy's ``Philox`` settings:
a 128-bit key whose low 64-bit word is ``seed mod 2**64`` and whose high word
is ``seed >> 64``, and a 256-bit counter that starts at 0 and is incremented
before each block. A block is the four output words of one counter value, in
order. ``sample``'s byte contract reads this stream; the tests pin numpy's
``random_raw`` and ``advance`` to it, so the contract can be reimplemented
without numpy.
"""
from __future__ import annotations

MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # added to the key between rounds
ROUNDS = 10
MASK = 2**64 - 1


def block(counter: int, seed: int) -> tuple[int, int, int, int]:
    """The four words Philox4x64-10 makes of ``counter`` under the key ``seed``."""
    x0, x1, x2, x3 = ((counter >> shift) & MASK for shift in (0, 64, 128, 192))
    k0, k1 = seed & MASK, seed >> 64
    for _ in range(ROUNDS):
        p0, p1 = MULTIPLIERS[0] * x0, MULTIPLIERS[1] * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & MASK, (p0 >> 64) ^ x3 ^ k1, p0 & MASK
        k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
    return x0, x1, x2, x3


def words(seed: int, n: int, skip: int = 0) -> list[int]:
    """The first ``n`` words of ``Philox(key=seed)`` after ``advance(skip)``,
    which adds ``skip`` to the counter, so it passes ``4 * skip`` words."""
    out: list[int] = []
    counter = skip
    while len(out) < n:
        counter = (counter + 1) % 2**256
        out += block(counter, seed)
    return out[:n]
