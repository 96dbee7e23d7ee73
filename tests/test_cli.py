"""Command-line contract: output schemas, determinism, exit codes."""
from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import io
import json
import math
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from dnaswap import protocol, reference
from dnaswap.cli import (
    PAIRS,
    RunRequest,
    UsageError,
    _exact_csv,
    _exact_json,
    _exact_table,
    _VALUE_INDENT,
    _float,
    _sample_csv,
    _value,
    _verify_json,
    cmd_inspect,
    cmd_recognize,
    cmd_run,
    cmd_verify,
    main,
    to_json,
)
from dnaswap.encodings import BaseCode, wc_initial_pattern
from dnaswap.gates import BELL_LABELS
from dnaswap.protocol import CanonicalRow, ProtocolConfig, canonical_table, run_pair, sample, swap
from dnaswap.reference import verify_against_reference
from dnaswap.statevec import StateVector


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(out: str) -> list[list[str]]:
    """The data rows of a CSV output, without its header."""
    return [r for r in csv.reader(io.StringIO(out)) if r][1:]


# --- run, exact mode ---


def test_exact_json_schema_and_class_probabilities(capsys):
    code, out, _ = run_cli(capsys, ["run", "--pair", "AT", "--mode", "exact", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"pair", "mode", "branches", "dropped_mass"}
    assert doc["pair"] == "AT" and doc["mode"] == "exact"
    assert len(doc["branches"]) == 16
    classes: dict[tuple[str, str], float] = {}
    for br in doc["branches"]:
        assert set(br) == {"bell_12", "bell_34", "corrections", "probability", "third_pair"}
        assert br["bell_12"] in ("b01", "b11")
        assert br["bell_34"] in ("b01", "b11")
        assert set(br["third_pair"]) == {"a_re", "a_im", "b_re", "b_im"}
        key = (br["bell_12"], br["bell_34"])
        classes[key] = classes.get(key, 0.0) + br["probability"]
    assert len(classes) == 4
    hi, lo = (2 + math.sqrt(2)) / 8, (2 - math.sqrt(2)) / 8
    assert classes[("b01", "b01")] == pytest.approx(hi, abs=1e-12)
    assert classes[("b11", "b11")] == pytest.approx(hi, abs=1e-12)
    assert classes[("b01", "b11")] == pytest.approx(lo, abs=1e-12)
    assert classes[("b11", "b01")] == pytest.approx(lo, abs=1e-12)


def test_exact_json_probabilities_carry_full_precision(capsys):
    _, out, _ = run_cli(capsys, ["run", "--pair", "AT", "--mode", "exact", "--format", "json"])
    # 12+ significant digits survive in the serialized branch probabilities
    assert "0.182138347648318" in out


def test_json_round_trips_byte_identically(capsys):
    _, out, _ = run_cli(capsys, ["run", "--pair", "GC", "--mode", "exact", "--format", "json"])
    assert to_json(json.loads(out)) == out.rstrip("\n")


def exact_branches(pair: str) -> dict[int, tuple]:
    """(P, residual) of every raw outcome 4 * i34 + i12, at the working precision.

    The residual lists the normalized (5, 6) amplitudes before the
    corrections, at index 2 * q5 + q6. The default angles are the same
    floats the CLI uses, taken exactly; K's entries are the exact values 0,
    +-1/2 and +-1/(2 sqrt 2) that
    ``test_swap_instrument_is_sparse_real_and_read_only`` pins.
    """
    theta, phi = mpmath.mpf(protocol.DEFAULT_THETA), mpmath.mpf(protocol.DEFAULT_PHI)
    ct, st, cp, sp = mpmath.cos(theta), mpmath.sin(theta), mpmath.cos(phi), mpmath.sin(phi)
    targets = {
        (1, 0, 1): {0b011: cp, 0b101: -sp},
        (0, 1, 0): {0b010: cp, 0b100: sp},
        (0, 1, 1): {0b011: ct * sp, 0b101: ct * cp, 0b110: st},
        (1, 0, 0): {0b100: ct * cp, 0b010: -ct * sp, 0b001: st},
    }
    x, y = (targets[wc_initial_pattern(b).bits] for b in PAIRS[pair])
    product = [x.get(i >> 3, 0) * y.get(i & 7, 0) for i in range(64)]
    psi = [product[i] for i in protocol._INTERLEAVE_INDEX]
    half, quarter_root2 = mpmath.mpf(1) / 2, 1 / (2 * mpmath.sqrt(2))
    coeff = []
    for row in protocol._K.real:
        total = mpmath.mpf(0)
        for k, amp in zip(row, psi):
            if k:
                exact_k = half if abs(abs(k) - 0.5) < 1e-15 else quarter_root2
                total += exact_k * amp if k > 0 else -exact_k * amp
        coeff.append(total)
    out = {}
    for i in range(16):
        c = coeff[4 * i : 4 * i + 4]
        norm = mpmath.sqrt(sum(v * v for v in c))
        out[i] = (norm * norm, [v / norm for v in c])
    return out


def units_off(printed: Decimal, exact, places: int | None = None) -> Decimal:
    """How far a printed value is from ``exact``, in units of its last digit.

    With ``places`` (fixed decimals): |printed - exact| in units of the
    ``places``-th decimal. Without (``.15g`` text or JSON): |printed - r|
    in units of r's 15th significant digit, r = exact to 15 digits.
    """
    if exact == 0 and places is None:
        return Decimal(0) if printed == 0 else Decimal("Infinity")
    value = Decimal(mpmath.nstr(exact, 40, min_fixed=1, max_fixed=0))
    if places is not None:
        return abs(printed - value).scaleb(places)
    r = value.quantize(Decimal(1).scaleb(value.adjusted() - 14), ROUND_HALF_EVEN)
    return abs(printed - r) / Decimal(1).scaleb(r.adjusted() - 14)


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_exact_json_floats_are_within_one_unit_of_the_15_digit_rounding(capsys, pair):
    # The float pipeline holds values to about 1e-16, so a printed 15th digit
    # may be one off the correctly rounded one, but never more.
    _, out, _ = run_cli(capsys, ["run", "--pair", pair, "--format", "json"])
    doc = json.loads(out, parse_float=Decimal)
    assert units_off(doc["dropped_mass"], 0) == 0
    with mpmath.workdps(40):
        exact = exact_branches(pair)
        order = {label.text: i for i, label in enumerate(BELL_LABELS)}
        for br in doc["branches"]:
            # Raw k is 0 exactly where a correction fired; X on qubit 5 acts
            # when one of the two did, and swaps the residual's rows.
            i34 = order[br["bell_34"]] - ("x45" in br["corrections"])
            i12 = order[br["bell_12"]] - ("x25" in br["corrections"])
            p, res = exact[4 * i34 + i12]
            # a = <01|, b = <10|; a row swap reads them from |11> and |00>.
            a, b = (res[3], res[0]) if len(br["corrections"]) == 1 else (res[1], res[2])
            tp = br["third_pair"]
            for printed, value in (
                (br["probability"], p),
                (tp["a_re"], a),
                (tp["b_re"], b),
                (tp["a_im"], 0),
                (tp["b_im"], 0),
            ):
                assert units_off(printed, value) <= 1, (br, printed, value)


def exact_canonical_rows(pair: str) -> list[list]:
    """[group, a, b, P] of every canonical row, at the working precision.

    The branches of ``exact_branches`` are phase-normalized as
    ``canonical_table`` does (a real and >= 0, else b) and merged where their
    group and normalized (a, b) coincide; P sums the merged branches.
    """
    rows: list[list] = []
    for index, (p, res) in exact_branches(pair).items():
        if p == 0:
            continue
        l34, l12 = BELL_LABELS[index // 4], BELL_LABELS[index % 4]
        # A correction fires on k = 0; X on qubit 5 acts when one of the two did.
        a, b = (res[3], res[0]) if (l34.k == 0) != (l12.k == 0) else (res[1], res[2])
        sign = mpmath.sign(a) or mpmath.sign(b)
        group, a, b = f"{l12.j}{l34.j}", a * sign, b * sign
        for row in rows:
            if row[0] == group and abs(row[1] - a) < 1e-30 and abs(row[2] - b) < 1e-30:
                row[3] += p
                break
        else:
            rows.append([group, a, b, p])
    return rows


def audit_rows(pair: str, rows: list[tuple], places=(None, None, None)) -> None:
    """Check printed canonical rows ``(group, a, b, P)`` against the exact rows.

    Each printed row is matched to the exact row of its group nearest in
    (a, b), and the printed rows match every exact row once. A value
    printed to ``places`` decimals must be the correct rounding, within
    half a unit of its last digit; one with ``places`` None (``.15g`` text
    or JSON), within one unit of the 15-digit rounding.
    """
    with mpmath.workdps(40):
        exact = exact_canonical_rows(pair)
        matched = set()
        for group, a, b, p in rows:
            i = min(
                (k for k, r in enumerate(exact) if r[0] == group),
                key=lambda k: abs(exact[k][1] - mpmath.mpf(str(a)))
                + abs(exact[k][2] - mpmath.mpf(str(b))),
            )
            matched.add(i)
            for printed, value, digits in zip((a, b, p), exact[i][1:], places):
                limit = 1 if digits is None else Decimal("0.5")
                assert units_off(Decimal(printed), value, digits) <= limit, (group, printed, value)
        assert len(rows) == len(matched) == len(exact)


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_inspect_outcome_rows_are_within_one_unit_of_the_15_digit_rounding(capsys, pair):
    # Two prints of the canonical rows: ``inspect --stage O`` (JSON) and
    # ``run --format csv`` (``.15g`` text).
    _, out, _ = run_cli(capsys, ["inspect", "--pair", pair, "--stage", "O"])
    doc = json.loads(out, parse_float=Decimal)["ensemble"]
    assert units_off(doc["dropped_mass"], 0) == 0
    audit_rows(pair, [(r["group"], r["a"], r["b"], r["p"]) for r in doc["rows"]])
    _, out, _ = run_cli(capsys, ["run", "--pair", pair, "--format", "csv"])
    audit_rows(pair, [(j + m, a, b, p) for j, m, _, a, b, p in csv_body(out)])


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_table_rows_are_within_half_a_unit_of_their_last_digit(capsys, pair):
    # ``run --format table`` prints a and b to 6 decimals and P to 12. Each
    # is the correct rounding of the exact value, so within half a unit.
    _, out, _ = run_cli(capsys, ["run", "--pair", pair, "--format", "table"])
    lines = out.splitlines()
    assert lines[-1] == "dropped_mass 0.000e+00"
    rows = [line.split() for line in lines[1:-1]]
    audit_rows(pair, [(group, a, b, p) for group, _, a, b, p in rows], places=(6, 6, 12))


def test_verify_actual_values_are_within_one_unit_of_the_15_digit_rounding():
    # Every ``actual`` that verify prints: row counts exactly, (a, b, P) rows,
    # exact class probabilities, and the group and total sums of P.
    out, code = cmd_verify()
    assert code == 0
    doc = json.loads(out, parse_float=Decimal)
    with mpmath.workdps(40):
        for report in doc["reports"]:
            exact = exact_canonical_rows(report["pair"])
            rows = []
            for check in report["checks"]:
                name, actual = check["name"], check["actual"]
                group = name[name.index("[") + 1 :][:2] if "[" in name else None
                if name == "row_count":
                    assert actual == len(exact)
                elif isinstance(actual, list):  # an (a, b, P) row
                    rows.append((group, *actual))
                else:  # class[jm].exact_p (one row), group_p_sum[jm] and total_p
                    total = sum(r[3] for r in exact if group is None or r[0] == group)
                    assert units_off(actual, total) <= 1, (name, actual, total)
            audit_rows(report["pair"], rows)


def test_exact_csv_has_frozen_columns_and_crlf(capsys):
    code, out, _ = run_cli(capsys, ["run", "--pair", "GC", "--mode", "exact", "--format", "csv"])
    assert code == 0
    assert "\r\n" in out
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == ["group_j", "group_m", "rank_l", "a", "b", "P"]
    assert len(rows) == 17
    total = sum(float(r[5]) for r in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_exact_table_lists_canonical_rows(capsys):
    code, out, _ = run_cli(capsys, ["run", "--pair", "AT", "--mode", "exact", "--format", "table"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 4 rows + dropped mass
    assert "0.426776695297" in out


def test_exact_output_is_reproducible(capsys):
    _, first, _ = run_cli(capsys, ["run", "--pair", "GC", "--mode", "exact", "--format", "json"])
    _, second, _ = run_cli(capsys, ["run", "--pair", "GC", "--mode", "exact", "--format", "json"])
    assert first == second


# --- the exact document, read from the ensemble's arrays ---

ORIENTATIONS = ["AT", "TA", "GC", "CG"]
ANGLES = st.floats(-math.pi, math.pi) | st.sampled_from(
    [0.0, math.pi / 2, -math.pi / 2, protocol.DEFAULT_THETA, protocol.DEFAULT_PHI]
)


def assert_json_matches_the_branch_oracle(pair: str, ens) -> str:
    """The written exact JSON of ``ens``, checked against the oracle's document."""
    out, want = _exact_json(pair, ens), to_json(oracle.branch_ensemble_doc(pair, ens))
    assert json.loads(out) == json.loads(want)
    # Bytes too: == does not see the sign of a zero.
    assert out == want
    return out


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(ORIENTATIONS),
    theta=ANGLES,
    phi=ANGLES,
    cleared=st.sets(st.integers(0, 15), max_size=16),
)
@example(pair="GC", theta=protocol.DEFAULT_THETA, phi=protocol.DEFAULT_PHI, cleared=set(range(16)))
def test_exact_json_matches_the_branch_oracle_on_run_pair(pair, theta, phi, cleared):
    # Cleared keep entries drop branches by hand, as far as dropping all 16.
    ens = run_pair(BaseCode(pair[0]), BaseCode(pair[1]), ProtocolConfig(theta=theta, phi=phi))
    keep = ens.keep.copy()
    for i in cleared:
        keep[i] = False
    ens = dataclasses.replace(ens, keep=keep)
    out = assert_json_matches_the_branch_oracle(pair, ens)
    if not keep.any():
        assert '"branches": [],' in out


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
    conjugate=st.booleans(),
)
def test_exact_json_matches_the_branch_oracle_on_random_registers(kind, seed, conjugate):
    # The swap of a real register gives +0.0 imaginary parts; its conjugate
    # residuals (the ensemble of the conjugate register) give -0.0 ones.
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        amps = np.zeros(64, dtype=complex)
        support = rng.integers(1, 9)
        amps[rng.choice(64, support, replace=False)] = rng.choice([1, -1, 1j, 0.5], support)
    else:
        amps = rng.normal(size=64) + (1j * rng.normal(size=64) if kind == "complex" else 0)
    ens = swap(StateVector(6, amps / np.linalg.norm(amps)))
    if conjugate:
        ens = dataclasses.replace(ens, residuals=ens.residuals.conj())
    out = assert_json_matches_the_branch_oracle("AT", ens)
    if kind == "real" and conjugate:
        assert '"a_im": -0.0' in out


# --- CSV, filled into row layouts ---


def csv_writer_bytes(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, RFC-4180 quoting included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


# Numbers ``.15g`` writes in exponent form, a negative zero, and the non-finite.
ODD_NUMBERS = st.sampled_from([1e-05, -2.5e-07, 5e-324, 1.5e16, -0.0, math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(ORIENTATIONS),
    theta=ANGLES,
    phi=ANGLES,
    cleared=st.sets(st.integers(0, 15), max_size=16),
    odd=st.dictionaries(
        st.tuples(st.integers(0, 15), st.sampled_from(["a", "b", "probability"])), ODD_NUMBERS
    ),
)
@example(pair="GC", theta=protocol.DEFAULT_THETA, phi=protocol.DEFAULT_PHI, cleared=set(),
         odd={(0, "a"): -0.0, (0, "b"): 1e-05, (0, "probability"): 1e-05})
def test_exact_csv_writes_the_bytes_of_csv_writer(pair, theta, phi, cleared, odd):
    ens = run_pair(BaseCode(pair[0]), BaseCode(pair[1]), ProtocolConfig(theta=theta, phi=phi))
    keep = ens.keep.copy()
    keep[sorted(cleared)] = False
    rows = canonical_table(dataclasses.replace(ens, keep=keep))
    # Some fields replaced by odd numbers, in rows free of CanonicalRow's checks.
    rows = [SimpleNamespace(**vars(r)) for r in rows]
    for (i, field), x in odd.items():
        if i < len(rows):
            setattr(rows[i], field, x)
    header = ("group_j", "group_m", "rank_l", "a", "b", "P")
    want = csv_writer_bytes([header] + [
        (*r.group, r.rank, f"{r.a:.15g}", f"{r.b:.15g}", f"{r.probability:.15g}") for r in rows
    ])
    assert _exact_csv(rows) == want


# --- the exact table, filled into a row layout ---


@settings(max_examples=200, deadline=None)
@given(
    pair=st.sampled_from(ORIENTATIONS),
    theta=ANGLES,
    phi=ANGLES,
    cleared=st.sets(st.integers(0, 15), max_size=16),
)
def test_exact_table_writes_the_bytes_of_the_f_string_table(pair, theta, phi, cleared):
    ens = run_pair(BaseCode(pair[0]), BaseCode(pair[1]), ProtocolConfig(theta=theta, phi=phi))
    keep = ens.keep.copy()
    keep[sorted(cleared)] = False
    ens = dataclasses.replace(ens, keep=keep)
    rows = canonical_table(ens)
    assert _exact_table(rows, ens.dropped_mass) == oracle.exact_table(rows, ens.dropped_mass)


# Numbers whose fixed-point form is odd: signed zeros, the infinities, one far
# wider than its column, and the smallest subnormal.
TABLE_NUMBERS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 5e-324]
) | st.floats(allow_nan=False)
CRAFTED_ROW = st.tuples(
    st.sampled_from(reference.GROUPS), st.integers(1, 10**4), TABLE_NUMBERS, TABLE_NUMBERS,
    TABLE_NUMBERS,
).filter(lambda c: c[2] > 0 or c[2] == 0 and c[3] >= 0)  # CanonicalRow's phase rule


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(CRAFTED_ROW, max_size=20),
    dropped_mass=st.sampled_from([0, 0.0, 1e-20, 1e300, math.inf]) | st.floats(0.0, 1.0),
)
@example(cells=[((0, 0), 1, 0.0, -0.0, -0.0), ((0, 1), 12, -0.0, 0.0, 0.0),
                ((1, 0), 10, math.inf, -math.inf, 1e300), ((1, 1), 100, 1e300, -1e300, -math.inf)],
         dropped_mass=1e-20)
@example(cells=[], dropped_mass=0)
def test_exact_table_writes_the_bytes_of_the_f_string_table_on_crafted_rows(cells, dropped_mass):
    rows = [CanonicalRow(*cell) for cell in cells]
    assert _exact_table(rows, dropped_mass) == oracle.exact_table(rows, dropped_mass)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(
        st.tuples(st.sampled_from(BELL_LABELS), st.sampled_from(BELL_LABELS)),
        st.integers(0, 2**63 - 1),
        max_size=16,
    )
)
def test_sample_csv_writes_the_bytes_of_csv_writer(counts):
    rows = [(l34.text, l12.text, count) for (l34, l12), count in counts.items()]
    assert _sample_csv(rows) == csv_writer_bytes([("bell_34", "bell_12", "count"), *rows])


def test_json_verify_and_inspect_build_no_outcome_branch(monkeypatch):
    # The exact JSON reads the ensemble's arrays, as the table and CSV do.
    def forbidden(self, *args, **kwargs):
        raise AssertionError("an OutcomeBranch was built")

    monkeypatch.setattr(protocol.OutcomeBranch, "__init__", forbidden)
    for pair in PAIRS:
        cmd_run(RunRequest(pair=pair, fmt="json"))
        cmd_inspect(pair, "O")
    assert cmd_verify()[1] == 0
    with pytest.raises(AssertionError, match="OutcomeBranch was built"):
        run_pair(*PAIRS["GC"]).branches


# --- the JSON encoder ---

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e15, 1e16, math.inf, -math.inf, math.nan]
    ),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=1e15, max_value=1e16, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(min_value=-1e16, max_value=-1e15),
    st.floats(allow_nan=False).map(np.float64),
)
INTS = (
    st.integers()
    | st.integers(min_value=2**53, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**53))
)
# Quotes, a backslash, control characters and non-ASCII characters.
TEXT = st.text() | st.text(alphabet='"\\\x00\x1f\x7f/\u00e9\u2028\U0001f600ab')


class Level(enum.IntEnum):
    LOW = -(2**70)
    ZERO = 0
    ONE = 1
    HIGH = 2**53 + 1


class Text(str):
    pass


class Doc(dict):
    pass


class Items(list):
    pass


# Each JSON scalar type and its subclasses (numpy floats, IntEnum members, str
# subclasses), inside tuples, lists, dicts and their subclasses: the quantized
# copy ``to_json`` dumps must keep what ``json.dumps`` writes of each.
SCALARS = FLOATS | INTS | TEXT | TEXT.map(Text) | st.sampled_from(Level) | st.booleans() | st.none()
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4).map(Items)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4).map(Doc),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(TEXT, DOCS, max_size=5) | DOCS)
# Exponent form at 15 digits, rounding past the largest float: JSON's Infinity.
@example(doc=[1.7976931348623151e308, -1.7976931348623151e308, 1e-10, 5e-324])
def test_to_json_writes_the_bytes_of_the_json_dumps_oracle(doc):
    assert to_json(doc) == oracle.to_json(doc)


def test_to_json_rejects_a_value_json_cannot_encode():
    # np.bool_ is not a bool subclass: json.dumps refuses it as a leaf, a
    # list item and a dict value, and so must to_json.
    flag = np.bool_(True)
    for doc, name in [
        ({"branches": [{"corrections": {"x45"}}]}, "set"),
        (flag, type(flag).__name__),
        ([1.0, flag], type(flag).__name__),
        ({"passed": flag}, type(flag).__name__),
    ]:
        message = f"Object of type {name} is not JSON serializable"
        with pytest.raises(TypeError, match=message):
            to_json(doc)
        with pytest.raises(TypeError, match=message):
            oracle.to_json(doc)


@settings(max_examples=1000, deadline=None)
@given(x=FLOATS)
@example(x=1.7976931348623151e308)  # rounds past the largest float: JSON's Infinity
def test_float_writes_the_bytes_of_the_json_dumps_oracle(x):
    # Every exact-mode and verify float is written by _float, not by to_json.
    assert _float(x) == oracle.to_json(x)


@pytest.mark.parametrize(
    "x", [None, True, False, 7, -(2**70), (1 / 3, -0.0, 2 / 3)],
    ids=["none", "true", "false", "int", "big-int", "row"],
)
def test_value_writes_the_bytes_of_the_json_dumps_oracle(x):
    # A check's actual value or verdict, at the indent of its check's values.
    assert _value(x) == oracle.to_json(x).replace("\n", "\n" + _VALUE_INDENT)


# --- run, sample mode ---


def test_sample_csv_counts_sum_to_shots(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "--pair", "GC", "--mode", "sample", "--shots", "100000", "--seed", "42",
         "--format", "csv"],
    )
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == ["bell_34", "bell_12", "count"]
    assert len(rows) == 17
    assert sum(int(r[2]) for r in rows[1:]) == 100000


def test_sample_same_seed_identical_bytes(capsys):
    argv = ["run", "--pair", "AT", "--mode", "sample", "--shots", "5000", "--seed", "7",
            "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert doc["mode"] == "sample" and doc["shots"] == 5000 and doc["seed"] == 7
    assert sum(c["count"] for c in doc["counts"]) == 5000


def test_sample_different_seeds_differ(capsys):
    base = ["run", "--pair", "AT", "--mode", "sample", "--shots", "5000", "--format", "json"]
    _, first, _ = run_cli(capsys, base + ["--seed", "1"])
    _, second, _ = run_cli(capsys, base + ["--seed", "2"])
    assert first != second


@pytest.mark.parametrize("pair", ["AT", "GC"])
def test_formats_list_the_same_rows_in_the_same_order(capsys, pair):
    # Exact: CSV, table and ``inspect --stage O`` show the canonical table.
    _, out, _ = run_cli(capsys, ["run", "--pair", pair, "--format", "csv"])
    csv_keys = [(j + m, int(l)) for j, m, l, *_ in csv_body(out)]
    _, out, _ = run_cli(capsys, ["run", "--pair", pair, "--format", "table"])
    table_keys = [(g, int(l)) for g, l, *_ in map(str.split, out.splitlines()[1:-1])]
    _, out, _ = run_cli(capsys, ["inspect", "--pair", pair, "--stage", "O"])
    inspect_keys = [(r["group"], r["rank"]) for r in json.loads(out)["ensemble"]["rows"]]
    assert csv_keys == table_keys == inspect_keys
    assert len(csv_keys) == {"AT": 4, "GC": 16}[pair]
    # Sample: JSON, CSV and table show one count per raw outcome.
    argv = ["run", "--pair", pair, "--mode", "sample", "--shots", "1000", "--seed", "5"]
    _, out, _ = run_cli(capsys, argv + ["--format", "json"])
    json_rows = [(c["bell_34"], c["bell_12"], c["count"]) for c in json.loads(out)["counts"]]
    _, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    csv_rows = [(a, b, int(c)) for a, b, c in csv_body(out)]
    _, out, _ = run_cli(capsys, argv + ["--format", "table"])
    table_rows = [(a, b, int(c)) for a, b, c in map(str.split, out.splitlines()[1:])]
    assert json_rows == csv_rows == table_rows
    assert len(json_rows) == 16 and sum(c for *_, c in json_rows) == 1000


# --- usage errors ---


# (argv, message): the command rejects the input with ``message``, or the
# parser rejects it (None) for a value outside its choices or types.
USAGE_ERRORS = [
    (["run", "--pair", "XY"], None),
    (["run", "--pair", "AT", "--mode", "sample"], "--shots is required in sample mode"),
    (["run", "--pair", "AT", "--mode", "exact", "--shots", "10"],
     "--shots is only valid in sample mode"),
    (["run", "--pair", "AT", "--mode", "sample", "--shots", "0"], "--shots must be >= 1, got 0"),
    (["run", "--pair", "AT", "--mode", "sample", "--shots", str(2**63)],
     f"--shots must be < 2**63, got {2**63}"),
    (["run", "--pair", "AT", "--mode", "sample", "--shots", str(2**70)],
     f"--shots must be < 2**63, got {2**70}"),
    (["run", "--pair", "AT", "--mode", "sample", "--shots", "1.5"], None),
    (["run", "--pair", "AT", "--mode", "sample", "--shots", "10", "--seed", "-3"],
     "--seed must fit in 64 bits, got -3"),
    (["run", "--pair", "AT", "--format", "yaml"], None),
    (["inspect", "--pair", "AT", "--stage", "X"], None),
    (["recognize", "--pattern", "012"], "--pattern must be 2 bits, got '012'"),
    (["recognize", "--pattern", "2x"], "--pattern must be 2 bits, got '2x'"),
    (["bogus"], None),
    (["recognize", "--pattern", "\uff11\uff10"], "--pattern must be 2 bits, got '\uff11\uff10'"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
)
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    if message is None:  # argparse prints its usage line, then its own error
        assert err.startswith("usage: dnaswap") and "error: argument" in err
    else:
        assert err == f"error: {message}\n"


def test_run_request_validation_messages():
    assert RunRequest(pair="AT", mode="sample").validate() is not None
    assert RunRequest(pair="AT", mode="exact", shots=4).validate() is not None
    assert RunRequest(pair="AT", seed=2**64).validate() is not None
    assert RunRequest(pair="AT", mode="sample", shots=2**63).validate().startswith("--shots")
    assert RunRequest(pair="AT", mode="sample", shots=2**63 - 1).validate() is None
    assert RunRequest(pair="AT").validate() is None
    # Programmatic callers get the parser's choices too.
    assert RunRequest(pair="AT", mode="Sample").validate().startswith("mode")
    assert RunRequest(pair="AT", fmt="xml").validate().startswith("format")


_RANGE_CASES = [0, 2**63, 2**70, 1.5, True, -3, 2**64]


@pytest.mark.parametrize(
    "args",
    [{slot: v} for slot in ("shots", "seed") for v in _RANGE_CASES] + [{"shots": 0, "seed": 1.5}],
    ids=lambda args: ",".join(f"{k}={v!r}" for k, v in args.items()),
)
def test_run_request_states_samples_range_messages(at_ensemble, args):
    # ``sample`` owns the shots and seed ranges: the CLI refuses what it
    # refuses, with its message after "--", and accepts what it accepts.
    args = {"shots": 3, "seed": 0, **args}
    try:
        sample(at_ensemble, **args)
    except ValueError as exc:
        want = f"--{exc}"
    else:
        want = None
    assert RunRequest(pair="AT", mode="sample", **args).validate() == want


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cmd_run(RunRequest(pair="XY")), RunRequest(pair="XY").validate()),
        (lambda: cmd_inspect("XY", "O"), RunRequest(pair="XY").validate()),
        # Unhashable: membership is tested against a tuple, not hashed.
        (lambda: cmd_run(RunRequest(pair=["AT"])), "pair must be one of ['AT', 'GC'], got ['AT']"),
        (lambda: cmd_inspect(["AT"], "O"), "pair must be one of ['AT', 'GC'], got ['AT']"),
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="Sample")),
            RunRequest(pair="AT", mode="Sample").validate(),
        ),
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="Sample", shots=10)),
            RunRequest(pair="AT", mode="Sample", shots=10).validate(),
        ),
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="sample", shots=2.5)),
            "--shots must be an integer, got 2.5",
        ),
        (lambda: cmd_run(RunRequest(pair="AT", seed=1.5)), "--seed must be an integer, got 1.5"),
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="sample", shots=10, seed=1.5)),
            "--seed must be an integer, got 1.5",
        ),
        # A bool is an Integral, but would print as true/false.
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="sample", shots=True)),
            "--shots must be an integer, got True",
        ),
        (
            lambda: cmd_run(RunRequest(pair="AT", mode="sample", shots=10, seed=False)),
            "--seed must be an integer, got False",
        ),
        # int() reads full-width digits, so only the pattern check rejects them.
        (
            lambda: cmd_recognize("\uff11\uff10", False),
            "--pattern must be 2 bits, got '\uff11\uff10'",
        ),
        (lambda: cmd_recognize("2x", False), "--pattern must be 2 bits, got '2x'"),
        (lambda: cmd_recognize("012", False), "--pattern must be 2 bits, got '012'"),
        # Two items of 0 and 1 that are not a str.
        (lambda: cmd_recognize(b"01", False), "--pattern must be 2 bits, got b'01'"),
        (lambda: cmd_recognize(["0", "1"], False), "--pattern must be 2 bits, got ['0', '1']"),
    ],
    ids=["run-pair", "inspect-pair", "run-list-pair", "inspect-list-pair", "run-mode",
         "run-mode-with-shots", "run-fractional-shots", "run-exact-fractional-seed",
         "run-sample-fractional-seed", "run-bool-shots", "run-bool-seed",
         "recognize-full-width", "recognize-letter", "recognize-three-bits",
         "recognize-bytes", "recognize-list"],
)
def test_programmatic_calls_raise_the_validate_message(call, message):
    # Callers that skip ``main`` get the UsageError (a ValueError) that main
    # reports: not a KeyError from the pair table, a TypeError from the
    # sampler on shots=None or on a non-integral shots or seed, a sample run
    # under a misspelled mode, or a document for a pattern main rejects.
    assert message
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_numpy_integer_shots_and_seed_print_as_the_equal_int(fmt):
    want = cmd_run(RunRequest(pair="GC", mode="sample", shots=10, seed=7, fmt=fmt))
    for shots, seed in ((np.int64(10), np.uint64(7)), (np.int32(10), np.int8(7))):
        got = cmd_run(RunRequest(pair="GC", mode="sample", shots=shots, seed=seed, fmt=fmt))
        assert got == want


# --- verify ---


def test_verify_passes_on_the_reference_build(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    checks = [c for rep in doc["reports"] for c in rep["checks"]]
    assert len(checks) >= 20
    for check in checks:
        assert {"name", "expected", "actual", "tolerance", "passed"} <= set(check)


def test_verify_dump_reference(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--dump-reference"])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert len(doc["gc"]["rows"]) == 16
    assert len(doc["at"]["classes"]) == 4


def test_verify_into_a_closed_pipe_exits_141_quietly():
    # ``dnaswap verify | head -1`` when head exits first: the reader's end is
    # closed before the child writes. That is not a verification failure.
    proc = subprocess.Popen([sys.executable, "-m", "dnaswap", "verify"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b"", err.decode()  # no BrokenPipeError traceback


# --- verify's document, filled into the layouts compiled from the reference ---


def verify_dict_doc(reports) -> dict:
    """The verify document as a dict tree of each ``Check``'s five fields."""
    docs = [
        {"pair": pair, "overall": all(c.passed for c in checks),
         "checks": [c._asdict() for c in checks]}
        for pair, checks in reports.items()
    ]
    overall = all(r["overall"] for r in docs)
    return {"reference_version": reference.REFERENCE_VERSION, "overall": overall, "reports": docs}


def assert_verify_json_matches_the_dict_oracle(reports) -> str:
    (out, overall), doc = _verify_json(reports), verify_dict_doc(reports)
    want = oracle.to_json(doc)
    assert overall is doc["overall"]
    assert json.loads(out) == json.loads(want)
    assert out == want  # bytes too: == does not see the sign of a zero
    return out


RUNS = st.tuples(st.sampled_from(ORIENTATIONS), ANGLES, ANGLES, st.sets(st.integers(0, 15)))


@settings(max_examples=200, deadline=None)
@given(at=RUNS, gc=RUNS)
@example(
    at=("AT", protocol.DEFAULT_THETA, protocol.DEFAULT_PHI, set(range(16))),
    gc=("GC", protocol.DEFAULT_THETA, protocol.DEFAULT_PHI, set(range(16))),
)
def test_verify_json_matches_the_dict_oracle(at, gc):
    # Each reference judges the ensemble of any orientation, at any angles,
    # with keep entries cleared by hand, as far as all 16.
    reports = {}
    for pair, (orientation, theta, phi, cleared) in zip(PAIRS, (at, gc)):
        cfg = ProtocolConfig(theta=theta, phi=phi)
        ens = run_pair(BaseCode(orientation[0]), BaseCode(orientation[1]), cfg)
        keep = ens.keep.copy()
        keep[sorted(cleared)] = False
        reports[pair] = verify_against_reference(pair, dataclasses.replace(ens, keep=keep))
    out = assert_verify_json_matches_the_dict_oracle(reports)
    for rep, (*_, cleared) in zip(json.loads(out)["reports"], (at, gc)):
        if len(cleared) == 16:
            checks = {c["name"]: c["actual"] for c in rep["checks"]}
            assert checks["row_count"] == 0
            assert all(checks[name] is None for name in checks if name.startswith(("class", "row[")))


def test_verify_with_identity_entangler_fails(monkeypatch):
    identity_k = protocol._instrument(np.eye(4, dtype=complex))
    monkeypatch.setattr(protocol, "swap", functools.partial(protocol._swap, identity_k))
    out, code = cmd_verify()
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] is False
    failed = [c["name"] for rep in doc["reports"] for c in rep["checks"] if not c["passed"]]
    assert failed
    # The failing document has the dict oracle's bytes, a missing row's null too.
    reports = {p: verify_against_reference(p, run_pair(*bases)) for p, bases in PAIRS.items()}
    assert out == assert_verify_json_matches_the_dict_oracle(reports)
    assert '"actual": null' in out


def test_verify_json_refuses_checks_that_do_not_fill_its_layout():
    at = verify_against_reference("AT", run_pair(*PAIRS["AT"]))
    checks = verify_against_reference("GC", run_pair(*PAIRS["GC"]))
    with pytest.raises(KeyError):  # a pair missing
        _verify_json({"AT": at})
    # The layout holds one slot per check: a check list of another length
    # leaves the %-format too many or too few values.
    with pytest.raises(TypeError, match="not enough arguments"):  # a check missing
        _verify_json({"AT": at, "GC": checks[:-1]})
    with pytest.raises(TypeError, match="not all arguments converted"):  # the other pair's checks
        _verify_json({"AT": checks, "GC": checks})
    # An actual that JSON cannot encode raises json.dumps's own TypeError.
    odd = checks[0]._replace(actual={16})
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        _verify_json({"AT": at, "GC": [odd, *checks[1:]]})


def test_cli_import_loads_no_sympy_scipy_or_mpmath():
    # The package computes with numpy alone; sympy, scipy and mpmath are for
    # tests and offline derivations, never a runtime dependency.
    probe = (
        "import json, sys, dnaswap.cli; "
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert "dnaswap" in loaded
    assert not loaded & {"sympy", "scipy", "mpmath"}


# --- inspect ---


def test_inspect_initial_stage(capsys):
    code, out, _ = run_cli(capsys, ["inspect", "--pair", "AT", "--stage", "I"])
    assert code == 0
    doc = json.loads(out)
    kets = {s["label"]: [a["ket"] for a in s["amplitudes"]] for s in doc["states"]}
    assert kets == {"A": ["101"], "T": ["010"]}


def test_inspect_superposed_stage_at(capsys):
    _, out, _ = run_cli(capsys, ["inspect", "--pair", "AT", "--stage", "Q"])
    doc = json.loads(out)
    amps = doc["states"][0]["amplitudes"]
    assert len(amps) == 4
    assert all(abs(abs(a["re"]) - 0.5) < 1e-12 and a["im"] == 0.0 for a in amps)


def test_inspect_superposed_stage_gc(capsys):
    _, out, _ = run_cli(capsys, ["inspect", "--pair", "GC", "--stage", "Q"])
    doc = json.loads(out)
    amps = doc["states"][0]["amplitudes"]
    assert len(amps) == 9
    assert all(abs(abs(a["re"]) - 1 / 3) < 1e-12 for a in amps)


def test_inspect_outcome_stage(capsys):
    _, out, _ = run_cli(capsys, ["inspect", "--pair", "AT", "--stage", "O"])
    doc = json.loads(out)
    rows = doc["ensemble"]["rows"]
    assert len(rows) == 4
    assert {row["group"] for row in rows} == {"00", "01", "10", "11"}
    # A programmatic caller gets the parser's stages too, not stage O.
    with pytest.raises(ValueError, match="stage must be one of"):
        cmd_inspect("AT", "X")


# --- recognize ---


def test_recognize_canonical_only(capsys):
    code, out, _ = run_cli(capsys, ["recognize", "--pattern", "01"])
    assert code == 0
    doc = json.loads(out)
    assert doc["complement"] == "10"
    assert doc["matches"] == ["T"]


def test_recognize_with_tautomers(capsys):
    _, out, _ = run_cli(capsys, ["recognize", "--pattern", "01", "--tautomers"])
    assert set(json.loads(out)["matches"]) == {"T", "C*"}
    _, out, _ = run_cli(capsys, ["recognize", "--pattern", "00", "--tautomers"])
    assert set(json.loads(out)["matches"]) == {"C", "T*"}
