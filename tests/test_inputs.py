"""The one input rule, held by ``statevec._is_integer`` and ``_is_finite_real``.

A numpy integer or float counts as the equal Python int or float, a bool or
``np.bool_`` is never a number, a float is never an integer, and every
refusal is a ``ValueError`` (README, "Input values"). The ``shots`` and
``seed`` ranges are written once, in ``protocol``'s two range checks.
"""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnaswap
from dnaswap.cli import RunRequest, UsageError, cmd_recognize, cmd_run, cmd_verify
from dnaswap.encodings import BaseCode, EdgePattern, recognition_matches
from dnaswap.gates import BELL, BELL_LABELS, BellLabel
from dnaswap.metrics import entanglement_entropy
from dnaswap.protocol import ProtocolConfig, build_recognition_unitary, run_pair, sample
from dnaswap.statevec import DensityMatrix, StateVector, basis_state, reduced_density

_AT = run_pair(BaseCode("A"), BaseCode("T"))
_BELL = StateVector(2, BELL[BELL_LABELS.index(BellLabel(0, 0))])


def _state(s):
    return s.num_qubits, s.amplitudes.tobytes()


def _label(x):
    return x, x.text, hash(x)


# Each entry point with one number slot: "int" for a count, qubit, bit, shots
# or seed, "real" for an angle. Each call returns what it made, in a form
# that compares by value.
ENTRIES = {
    "StateVector": ("int", lambda v: _state(StateVector(v, [1.0, 0.0]))),
    "DensityMatrix": ("int", lambda v: DensityMatrix(v, np.eye(2) / 2).matrix.tobytes()),
    "basis_state": ("int", lambda v: _state(basis_state([v, 0]))),
    "reduced_density": ("int", lambda v: reduced_density(_BELL, [v]).matrix.tobytes()),
    "entanglement_entropy": ("int", lambda v: entanglement_entropy(_BELL, [v])),
    "EdgePattern": ("int", lambda v: _label(EdgePattern("H", (v, 0)))),
    "BellLabel": ("int", lambda v: _label(BellLabel(v, 0))),
    "ProtocolConfig.theta": (
        "real", lambda v: build_recognition_unitary(ProtocolConfig(theta=v)).tobytes()
    ),
    "ProtocolConfig.phi": (
        "real", lambda v: build_recognition_unitary(ProtocolConfig(phi=v)).tobytes()
    ),
    "sample.shots": ("int", lambda v: sample(_AT, shots=v, seed=0)),
    "sample.seed": ("int", lambda v: sample(_AT, shots=3, seed=v)),
    # ``cmd_run`` raises ``RunRequest.validate``'s message as a UsageError.
    "RunRequest.shots": (
        "int", lambda v: cmd_run(RunRequest(pair="GC", mode="sample", shots=v, fmt="csv"))
    ),
    "RunRequest.seed": (
        "int", lambda v: cmd_run(RunRequest(pair="GC", mode="sample", shots=3, seed=v, fmt="csv"))
    ),
}

ODD_VALUES = [True, np.bool_(True), 1.0, np.int64(1), "1", 2**70, math.nan, 10**400]
NUMBER_TYPES = [int, float, bool, np.bool_, np.int8, np.uint8, np.int64, np.float32, np.float64]

REFUSED = "refused"


def _outcome(call, value):
    try:
        return call(value)
    except ValueError:  # any other exception fails the property
        return REFUSED


def _at_every_odd_value(test):
    """Run ``test`` on each entry point with each of ``ODD_VALUES`` every time."""
    for entry in ENTRIES:
        for value in ODD_VALUES:
            test = example(entry=entry, value=value)(test)
    return test


@settings(max_examples=300, deadline=None)
@_at_every_odd_value
@given(
    entry=st.sampled_from(sorted(ENTRIES)),
    value=st.sampled_from(ODD_VALUES)
    | st.builds(lambda t, i: t(i), st.sampled_from(NUMBER_TYPES), st.integers(0, 3)),
)
def test_every_entry_point_keeps_the_one_input_rule(entry, value):
    kind, call = ENTRIES[entry]
    got = _outcome(call, value)
    # Never silently coerced: no bool or string is a number, no float an integer.
    if isinstance(value, (bool, np.bool_, str)) or kind == "int" and isinstance(value, float):
        assert got == REFUSED, f"{entry} accepted {value!r}"
    # A numpy number is accepted or refused as its Python equal is, with equal results.
    if isinstance(value, np.generic):
        assert got == _outcome(call, value.item()), f"{entry}: {value!r} != {value.item()!r}"


@pytest.mark.parametrize("flag", ["no", 1, 0, None, np.bool_(True)],
                         ids=["no", "1", "0", "None", "np.True_"])
def test_a_flag_takes_only_a_bool(flag):
    # As ``BaseCode.rare``: "no" is truthy, so it listed the rare forms and
    # printed the reference dump. The CLI's store_true flags pass bools.
    shown = re.escape(repr(flag))
    with pytest.raises(ValueError, match=rf"^include_rare must be a bool, got {shown}$"):
        recognition_matches(EdgePattern("H", (0, 1)), include_rare=flag)
    with pytest.raises(UsageError, match=rf"^--tautomers must be a bool, got {shown}$"):
        cmd_recognize("01", flag)
    with pytest.raises(UsageError, match=rf"^--dump-reference must be a bool, got {shown}$"):
        cmd_verify(dump_reference=flag)


# --- only the two checks test a value's number type ---

_SRC = Path(dnaswap.__file__).parent
_CHECKS = {("statevec", "_is_integer"), ("statevec", "_is_finite_real")}


def _walk(tree: ast.AST):
    """Yield (enclosing function name or None, node) for each node of a tree."""

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def _number_type_tests(tree: ast.AST):
    """Yield (function, rule) for each number-type test in a module's tree."""

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    def calls(node, name):
        return isinstance(node, ast.Call) and names(node.func) == {name}

    for func, node in _walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index":
            if names(node.value) == {"operator"}:
                yield func, "operator.index"
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(a.name == "index" for a in node.names):
                yield func, "operator.index"
        if calls(node, "isinstance") and len(node.args) == 2:
            if names(node.args[1]) & {"Integral", "Real"}:
                yield func, "isinstance"
        if isinstance(node, ast.Compare) and {type(op) for op in node.ops} & {ast.Is, ast.IsNot}:
            operands = [node.left, *node.comparators]
            number = any(isinstance(o, ast.Name) and o.id in ("int", "float") for o in operands)
            if number and any(calls(o, "type") for o in operands):
                yield func, "type is"


# The bounds of ``shots`` (below 2**63) and ``seed`` (below 2**64), as a
# literal or one past it.
_BOUNDS = {2**63 - 1, 2**63, 2**64 - 1, 2**64}


def _range_bounds(tree: ast.AST):
    """Yield (function, bound) for each shots or seed bound written in a module's
    tree: an int literal, or a power or shift of two int literals."""
    for func, node in _walk(tree):
        value = None
        if isinstance(node, ast.Constant) and type(node.value) is int:
            value = node.value
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift)):
            left, right = node.left, node.right
            if all(isinstance(o, ast.Constant) and type(o.value) is int for o in (left, right)):
                if isinstance(node.op, ast.Pow):
                    value = left.value ** right.value
                else:
                    value = left.value << right.value
        if value in _BOUNDS:
            yield func, value


def test_only_the_two_checks_test_number_types():
    found = {
        (path.stem, func, rule)
        for path in sorted(_SRC.glob("*.py"))
        for func, rule in _number_type_tests(ast.parse(path.read_text(), str(path)))
    }
    # ``cli._value`` picks a JSON writer by a value's exact float type; it checks no input.
    allowed = {("cli", "_value", "type is")}
    stray = {hit for hit in found if hit[:2] not in _CHECKS and hit not in allowed}
    assert not stray, f"a number-type test outside statevec's two checks: {sorted(stray)}"
    # The guard sees the checks it exempts, so it is not blind to the forms it looks for.
    assert {hit[:2] for hit in found} >= _CHECKS


def test_the_guard_finds_each_form():
    code = """
def f(x):
    import operator
    from operator import index
    return (operator.index(x), isinstance(x, (int, numbers.Integral)), isinstance(x, Real),
            type(x) is int, type(x) is not float)
"""
    rules = sorted(rule for _, rule in _number_type_tests(ast.parse(code)))
    assert rules == ["isinstance", "isinstance", "operator.index", "operator.index",
                     "type is", "type is"]


def test_only_protocols_range_checks_write_the_shots_and_seed_bounds():
    found = {
        (path.stem, func)
        for path in sorted(_SRC.glob("*.py"))
        for func, _ in _range_bounds(ast.parse(path.read_text(), str(path)))
    }
    # Each range is written once: ``sample`` and the CLI both call these checks.
    assert found == {("protocol", "_check_shots"), ("protocol", "_check_seed")}


def test_the_bound_guard_finds_each_form():
    code = """
def f(x):
    return (x < 2**63, x < 2 ** 64, x < 1 << 63, x <= 2**64 - 1, x <= 9223372036854775807,
            x <= 0xFFFFFFFFFFFFFFFF, x < 2**62, x < 63)
"""
    assert sorted(bound for _, bound in _range_bounds(ast.parse(code))) == sorted(
        [2**63, 2**64, 2**63, 2**64, 2**63 - 1, 2**64 - 1]
    )
