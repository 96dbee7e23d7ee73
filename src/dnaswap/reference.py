"""Frozen reference data the protocol output is verified against.

The A.T ensemble collapses to four outcome classes whose exact
probabilities are (2 +/- sqrt 2)/8 and whose third bonded pair is |10>;
the G.C ensemble has four rows per (j, m) group. Amplitudes and
probabilities below are the two-decimal reference values; comparisons
happen after the same phase normalization that ``canonical_table`` applies
(a real and >= 0, falling back to b when a vanishes). Each check is stated,
read from a canonical table and judged here, and nowhere else.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import protocol

REFERENCE_VERSION = "1"

# Tolerances: the reference tables carry two decimals; exact invariants
# (class probabilities, group sums) are checked tight.
COARSE_TOL = 0.01
EXACT_TOL = 1e-10

GROUPS = ((0, 0), (0, 1), (1, 0), (1, 1))

AT_CLASS_P = {(0, 0): 0.43, (0, 1): 0.07, (1, 0): 0.07, (1, 1): 0.43}
AT_CLASS_P_EXACT = {
    (0, 0): (2.0 + math.sqrt(2.0)) / 8.0,
    (0, 1): (2.0 - math.sqrt(2.0)) / 8.0,
    (1, 0): (2.0 - math.sqrt(2.0)) / 8.0,
    (1, 1): (2.0 + math.sqrt(2.0)) / 8.0,
}
AT_THIRD_PAIR = (0.0, 1.0)

# G.C reference rows per group: (a, b, P), rank order = descending P.
GC_TABLE = {
    (0, 0): (
        (+0.51, -0.86, 0.11),
        (+0.38, +0.92, 0.09),
        (+0.96, -0.28, 0.03),
        (-0.92, +0.38, 0.02),
    ),
    (1, 0): (
        (-0.51, +0.86, 0.11),
        (-0.38, -0.92, 0.09),
        (-0.96, +0.28, 0.03),
        (+0.92, -0.38, 0.02),
    ),
    (0, 1): (
        (+0.51, +0.86, 0.11),
        (+0.38, -0.92, 0.09),
        (-0.96, -0.28, 0.03),
        (+0.92, +0.38, 0.02),
    ),
    (1, 1): (
        (+0.51, +0.86, 0.11),
        (+0.38, -0.92, 0.09),
        (-0.96, -0.28, 0.03),
        (+0.92, +0.38, 0.02),
    ),
}


def _normalize(a: float, b: float) -> tuple[float, float]:
    if a < 0 or (a == 0 and b < 0):
        return -a, -b
    return a, b


def _compile(key: str) -> tuple[tuple, ...]:
    """Every check of one pair as ``(name, expected, source, tolerance)``: the
    one place that says which values each pair's checks read.

    ``source`` keys the value the check reads: ``(group, rank)`` for a table
    row, ``("p", group)`` for the probability of a group's first row,
    ``("sum", group)`` for a group's summed probability, or ``"row_count"``
    and ``"total_p"``.
    """
    if key == "AT":
        checks = [("row_count", 4, "row_count", 0.0)]
        for j, m in GROUPS:
            checks += [
                (f"class[{j}{m}]", (*AT_THIRD_PAIR, AT_CLASS_P[(j, m)]), ((j, m), 1), COARSE_TOL),
                (f"class[{j}{m}].exact_p", AT_CLASS_P_EXACT[(j, m)], ("p", (j, m)), EXACT_TOL),
            ]
        return tuple(checks)
    checks = [("row_count", 16, "row_count", 0.0)]
    for j, m in GROUPS:
        checks.append((f"group_p_sum[{j}{m}]", 0.25, ("sum", (j, m)), EXACT_TOL))
        for rank, (a, b, p) in enumerate(GC_TABLE[(j, m)], start=1):
            checks.append((f"row[{j}{m},l={rank}]", (*_normalize(a, b), p), ((j, m), rank),
                           COARSE_TOL))
    checks.append(("total_p", 1.0, "total_p", EXACT_TOL))
    return tuple(checks)


# The checks are fixed: only their actual values depend on the table.
_CHECKS = {key: _compile(key) for key in ("AT", "GC")}


class Check(NamedTuple):
    """One verdict of ``verify``."""

    name: str
    expected: object
    actual: object
    tolerance: float
    passed: bool


def expectations(key: str, rows: Sequence[protocol.CanonicalRow]) -> list[Check]:
    """Every check of one pair, judged on its canonical table ``rows``.

    ``key`` is "AT" or "GC"; any other key raises ``ValueError``. A check
    reads a number or an ``(a, b, P)`` triple, and passes when each of its
    numbers lies within ``tolerance`` of the reference; ``actual`` is None,
    and the check fails, where the table has no row for a reference entry.

    The checks are compiled at import; one pass over ``rows`` collects the
    row of each ``(group, rank)`` (the last one of a repeated key) and each
    group's probabilities, which ``sum`` adds in table order. Every value a
    check can read is derived for either pair.
    """
    if key not in tuple(_CHECKS):  # a tuple: an unhashable key is refused too
        raise ValueError(f"no reference data for pair {key!r}")
    values: dict = {}
    group_probs = {g: [] for g in GROUPS}
    for r in rows:
        values[r.group, r.rank] = (r.a, r.b, r.probability)
        if (probs := group_probs.get(r.group)) is not None:
            probs.append(r.probability)
    # The derived values are stored after the rows, so no row can stand in
    # for one; each pair's checks read the ones ``_compile`` names.
    values["row_count"] = len(rows)
    total = 0.0
    for g, probs in group_probs.items():
        row = values.get((g, 1))
        values["p", g] = None if row is None else row[2]
        group_p = values["sum", g] = sum(probs)
        total += group_p
    values["total_p"] = total
    checks = []
    for name, expected, source, tol in _CHECKS[key]:
        actual = values.get(source)  # NaN fails: every comparison with NaN is False
        if actual is None:
            passed = False
        elif isinstance(expected, tuple):
            (ea, eb, ep), (a, b, p) = expected, actual
            passed = abs(a - ea) <= tol and abs(b - eb) <= tol and abs(p - ep) <= tol
        else:
            passed = abs(actual - expected) <= tol
        checks.append(Check(name, expected, actual, tol, passed))
    return checks


def verify_against_reference(pair: str, e: protocol.Ensemble) -> list[Check]:
    """The judged checks of ``e``, the ensemble of ``pair`` ("AT" or "GC")."""
    # Through the module, so a patch of ``protocol.canonical_table`` sees this call.
    return expectations(pair, protocol.canonical_table(e))


def dump() -> dict:
    """JSON-ready copy of the embedded reference data."""
    return {
        "version": REFERENCE_VERSION,
        "tolerances": {"coarse": COARSE_TOL, "exact": EXACT_TOL},
        "at": {
            "third_pair": list(AT_THIRD_PAIR),
            "classes": [
                {
                    "group": f"{j}{m}",
                    "p": AT_CLASS_P[(j, m)],
                    "p_exact": AT_CLASS_P_EXACT[(j, m)],
                }
                for j, m in GROUPS
            ],
        },
        "gc": {
            "rows": [
                {"group": f"{j}{m}", "rank": rank, "a": a, "b": b, "p": p}
                for j, m in GROUPS
                for rank, (a, b, p) in enumerate(GC_TABLE[(j, m)], start=1)
            ],
        },
    }
