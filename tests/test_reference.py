"""Verification against the reference tables: the judged checks and the pass rule."""
from __future__ import annotations

import math
import re
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from dnaswap import protocol, reference
from dnaswap.encodings import BaseCode
from dnaswap.gates import BELL_LABELS
from dnaswap.protocol import run_pair
from dnaswap.reference import verify_against_reference


def test_reference_verification_passes_for_both_pairs(at_ensemble, gc_ensemble):
    for key, ens in (("AT", at_ensemble), ("GC", gc_ensemble)):
        checks = verify_against_reference(key, ens)
        assert checks
        assert all(c.passed for c in checks)


def test_report_counts_cover_all_classes_and_rows(at_ensemble, gc_ensemble):
    at_checks = verify_against_reference("AT", at_ensemble)
    gc_checks = verify_against_reference("GC", gc_ensemble)
    at_class_checks = [
        c for c in at_checks if c.name.startswith("class[") and "exact" not in c.name
    ]
    gc_row_checks = [c for c in gc_checks if c.name.startswith("row[")]
    assert len(at_class_checks) == 4
    assert len(gc_row_checks) == 16
    assert len(at_checks) + len(gc_checks) >= 20


def test_perturbed_probability_fails_with_named_check(gc_ensemble):
    # Shift mass between two branches so the ensemble invariant still holds
    # but the canonical probabilities drift past tolerance. The mass comes
    # from the first branch (0.0948): the second (0.0302) would go negative,
    # which ``Ensemble`` refuses.
    first, second = np.flatnonzero(gc_ensemble.keep)[:2]
    probs = gc_ensemble.probabilities.copy()
    probs[first] -= 0.05
    probs[second] += 0.05
    tampered = replace(gc_ensemble, probabilities=probs)
    failed = [c.name for c in verify_against_reference("GC", tampered) if not c.passed]
    assert failed
    assert any(name.startswith("row[") for name in failed)


def _group(i: int) -> tuple[int, int]:
    """(j, m) group of raw outcome 4 * i34 + i12."""
    return BELL_LABELS[i & 3].j, BELL_LABELS[i >> 2].j


def _without(ens, outcomes):
    """The ensemble with raw ``outcomes`` removed: their mass is dropped."""
    keep = ens.keep.copy()
    keep[outcomes] = False
    return replace(ens, keep=keep)


def test_at_missing_class_fails_only_its_checks(at_ensemble):
    checks = verify_against_reference(
        "AT",
        _without(at_ensemble, [i for i in np.flatnonzero(at_ensemble.keep) if _group(i) == (1, 1)]),
    )
    assert [c.name for c in checks] == ["row_count"] + [
        name for g in ("00", "01", "10", "11") for name in (f"class[{g}]", f"class[{g}].exact_p")
    ]
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["row_count", "class[11]", "class[11].exact_p"]
    assert failed[1].actual is None and failed[2].actual is None


def test_gc_missing_branch_fails_its_groups_last_row(gc_ensemble):
    gone = np.flatnonzero(gc_ensemble.keep)[0]
    checks = verify_against_reference("GC", _without(gc_ensemble, [gone]))
    assert len(checks) == 22
    j, m = _group(gone)
    (last,) = [c for c in checks if c.name == f"row[{j}{m},l=4]"]
    assert last.actual is None and not last.passed


@pytest.mark.parametrize(
    "expected, actual, tol, passed",
    [
        (4, 4, 0.0, True),
        (0.25, 0.5, 0.25, True),  # exactly at the tolerance
        ((0.0, 1.0, 0.5), (0.25, 0.75, 0.75), 0.25, True),
        ((0.0, 1.0, 0.5), (0.25, 0.75, math.nextafter(0.75, 1.0)), 0.25, False),
        (0.25, None, 0.25, False),
        ((0.0, 1.0, 0.5), None, 0.25, False),
        (0.25, math.nan, 0.25, False),
        ((0.0, 1.0, 0.5), (0.0, math.nan, 0.5), 0.25, False),
    ],
)
def test_pass_rule(monkeypatch, expected, actual, tol, passed):
    # One A.T check of this expectation and tolerance: a triple reads class
    # 00's row, a number that row's P, and with no row the check reads None.
    source = ((0, 0), 1) if isinstance(expected, tuple) else ("p", (0, 0))
    monkeypatch.setitem(reference._CHECKS, "AT", (("check", expected, source, tol),))
    row = actual if isinstance(actual, tuple) else (0.0, 1.0, actual)
    rows = [] if actual is None else [Row((0, 0), 1, *row)]
    (check,) = reference.expectations("AT", rows)
    assert repr(check) == repr(reference.Check("check", expected, actual, tol, passed))


class Row(NamedTuple):
    """A canonical row without ``CanonicalRow``'s checks: any rank, NaN, any sign."""

    group: tuple[int, int]
    rank: int
    a: float
    b: float
    probability: float


NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.25, 0.3, 1e-05, math.nan])
ROWS = st.lists(
    st.builds(
        Row,
        # GROUPS and groups outside it; ranks above 4, and few enough values
        # that ranks go missing and (group, rank) keys repeat.
        group=st.tuples(st.integers(0, 2), st.integers(0, 1)),
        rank=st.integers(1, 6),
        a=NUMBERS,
        b=NUMBERS,
        probability=NUMBERS,
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS)
@example(rows=[])
@example(rows=[Row(g, 1, 0.0, 1.0, -0.0) for g in reference.GROUPS])
# 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1: each group is summed in table order.
@example(rows=[Row((0, 0), rank, 0.0, 1.0, p) for rank, p in enumerate([0.1, 0.2, 0.3], 1)])
def test_expectations_and_verify_give_the_oracle_checks_on_any_rows(rows):
    # Check for check by repr, so an int 0 group sum, a -0.0 and a NaN count too.
    for key in ("AT", "GC"):
        want = [
            repr((name, expected, actual, tol, oracle.passes(expected, actual, tol)))
            for name, expected, actual, tol in oracle.expectations(key, rows)
        ]
        assert [repr(tuple(c)) for c in reference.expectations(key, rows)] == want
        with mock.patch.object(protocol, "canonical_table", lambda e: rows):
            checks = verify_against_reference(key, None)
        assert [repr(tuple(c)) for c in checks] == want
    for key in ("TA", "CG", "XY", ""):
        with pytest.raises(ValueError, match=f"no reference data for pair {key!r}"):
            reference.expectations(key, rows)


def test_verification_rejects_unlabeled_or_unknown_pairs(at_ensemble, cfg):
    # Only "AT" and "GC" have reference tables: a reversed orientation, an
    # unknown, empty or unhashable key raises rather than running the G.C checks.
    ta = run_pair(BaseCode("T"), BaseCode("A"), cfg)
    for key in ("TA", "CG", "XY", "", ["AT"]):
        for ens in (ta, at_ensemble):
            with pytest.raises(ValueError, match=re.escape(f"no reference data for pair {key!r}")):
                verify_against_reference(key, ens)
