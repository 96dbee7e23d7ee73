"""Command-line surface: run the protocol, verify, inspect, recognize.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error (a ``cmd_*`` function called directly raises
``UsageError`` for it), 141 stdout closed by its reader before the output
was written (128 + SIGPIPE, as a shell reports a tool that SIGPIPE ends).
JSON is ``to_json``'s: ``json.dumps(doc, sort_keys=True, indent=2)`` (so
ASCII-escaped) of a copy of the document with every float quantized to 15
significant digits, so parse/re-serialize round-trips are byte-identical.
The exact-mode document's shape is fixed by the 16 outcomes, so it is
compiled through ``to_json`` at import into one text layout per outcome,
and a run fills the kept outcomes' layouts with the numbers of the
ensemble's arrays, each written as ``to_json`` writes it: no command builds
an ``OutcomeBranch``. ``verify``'s document is compiled at import the same way,
as one layout read from the reference's one check table (each check's name,
expected value and tolerance, from ``reference.expectations(pair, ())``), and
a run fills it with each ``Check``'s actual value and verdict and the verdicts
of each pair and of the whole. CSV and the exact-mode table are each written
from a row layout behind a frozen header. CSV has RFC-4180 line endings, and
its fields are integers, ``.15g`` numbers and Bell labels, so no field ever
needs quoting.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import reference
from .encodings import (
    BaseCode,
    EdgePattern,
    complement_pattern,
    recognition_matches,
    wc_initial_state,
)
from .protocol import (
    OUTCOMES,
    Ensemble,
    _check_seed,
    _check_shots,
    assemble_pair,
    canonical_table,
    run_pair,
    sample,
)
from .reference import verify_against_reference
from .statevec import ZERO_ATOL

PAIRS = {
    "AT": (BaseCode("A"), BaseCode("T")),
    "GC": (BaseCode("G"), BaseCode("C")),
}
MODES = ("exact", "sample")
FORMATS = ("json", "csv", "table")
STAGES = ("I", "Q", "O")


class UsageError(ValueError):
    """Bad command input: ``main`` prints ``error: <message>`` and exits 2."""


@dataclass
class RunRequest:
    pair: str
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    fmt: str = "table"

    def validate(self) -> str | None:
        """Return an error message for an invalid field or field combination."""
        if self.pair not in tuple(PAIRS):  # a tuple: an unhashable pair is refused too
            return f"pair must be one of {sorted(PAIRS)}, got {self.pair!r}"
        if self.mode not in MODES:
            return f"mode must be one of {list(MODES)}, got {self.mode!r}"
        if self.fmt not in FORMATS:
            return f"format must be one of {list(FORMATS)}, got {self.fmt!r}"
        if self.mode == "sample" and self.shots is None:
            return "--shots is required in sample mode"
        if self.mode != "sample" and self.shots is not None:
            return "--shots is only valid in sample mode"
        try:  # ``sample``'s own range checks, their messages under the option names
            if self.shots is not None:
                _check_shots(self.shots)
            _check_seed(self.seed)
        except ValueError as exc:
            return f"--{exc}"
        return None


def _float(x: float) -> str:
    text = f"{x:.15g}"
    if "e" in text or "n" in text:  # exponent form, inf or nan
        y = float(text)  # inf too when x rounds past the largest float
        # json.dumps writes a finite float's repr, and Infinity or NaN.
        return float.__repr__(y) if math.isfinite(y) else json.dumps(y)
    # Positional, so normal: repr prints these same digits, with ".0" when whole.
    return text if "." in text else text + ".0"


# Writers of the leaves whose exact type is a JSON scalar, for ``_value``.
_LEAVES = {
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _quantized(obj):
    """A copy of ``obj`` with every float rounded to 15 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _quantized(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantized(v) for v in obj]
    return obj


def to_json(doc, indent: str = "") -> str:
    """``doc``'s JSON, each line after the first indented by ``indent``."""
    text = json.dumps(_quantized(doc), sort_keys=True, indent=2)
    return text.replace("\n", "\n" + indent) if indent else text


# The exact-mode document, compiled once. ``to_json`` lays out each outcome's
# branch at the branches' indent, with a placeholder at each float leaf, so
# key order, indentation and separators are ``json.dumps``'s own. A run fills
# the placeholders in sorted-key order: probability, a_im, a_re, b_im, b_re.
_SLOT = "\x00"
_FIELD = to_json(_SLOT)


def _layout(doc, indent: str = "") -> str:
    # The fixed texts, check names too, hold no "%", so the layout is a
    # %-format as it stands.
    return to_json(doc, indent).replace(_FIELD, "%s")


_BRANCH_LAYOUTS = tuple(
    _layout(
        {
            "bell_12": o.final_bell_12.text,
            "bell_34": o.final_bell_34.text,
            "corrections": list(o.corrections),
            "probability": _SLOT,
            "third_pair": {"a_re": _SLOT, "a_im": _SLOT, "b_re": _SLOT, "b_im": _SLOT},
        },
        "    ",
    )
    for o in OUTCOMES
)
_BRANCH_SEP = _layout([_SLOT, _SLOT], "  ").split("%s")[1]  # between two branches
_EXACT_DOC, _NO_BRANCHES = (
    _layout({"pair": _SLOT, "mode": "exact", "branches": branches, "dropped_mass": _SLOT})
    for branches in ([_SLOT], [])
)


def _exact_json(pair: str, e: Ensemble) -> str:
    """The exact-mode document: the kept outcomes' layouts, filled from the arrays."""
    # Columns 1 and 2 of a flattened residual are its (0, 1) and (1, 0) entries.
    third = e.residuals.reshape(16, 4)[:, 1:3].tolist()
    branches = _BRANCH_SEP.join([
        layout % (_float(p), _float(a.imag), _float(a.real), _float(b.imag), _float(b.real))
        for kept, p, (a, b), layout in zip(
            e.keep.tolist(), e.probabilities.tolist(), third, _BRANCH_LAYOUTS
        )
        if kept
    ])
    tail = (_float(e.dropped_mass), encode_basestring_ascii(pair))
    return _EXACT_DOC % (branches, *tail) if branches else _NO_BRANCHES % tail


# CSV and exact-table rows, each filled into a %-format behind its frozen header.
_EXACT_CSV_HEADER = "group_j,group_m,rank_l,a,b,P\r\n"
_EXACT_CSV_ROW = "%d,%d,%d,%.15g,%.15g,%.15g\r\n"
_EXACT_TABLE_HEADER = "group l             a           b                 P\n"
_EXACT_TABLE_ROW = "%d%d    %-3d%+12.6f%+12.6f%18.12f\n"
_SAMPLE_HEADER = ("bell_34", "bell_12", "count")
_SAMPLE_CSV_HEADER = ",".join(_SAMPLE_HEADER) + "\r\n"
_SAMPLE_CSV_ROW = "%s,%s,%d\r\n"


def _exact_csv(rows) -> str:
    """The exact-mode CSV of canonical table ``rows``."""
    return _EXACT_CSV_HEADER + "".join([
        _EXACT_CSV_ROW % (*r.group, r.rank, r.a, r.b, r.probability) for r in rows
    ])


def _exact_table(rows, dropped_mass: float) -> str:
    """The exact-mode table of canonical table ``rows``, then the dropped mass."""
    return _EXACT_TABLE_HEADER + "".join([
        _EXACT_TABLE_ROW % (*r.group, r.rank, r.a, r.b, r.probability) for r in rows
    ]) + "dropped_mass %.3e" % dropped_mass


def _sample_csv(rows) -> str:
    """The sample-mode CSV of ``(bell_34, bell_12, count)`` rows."""
    return _SAMPLE_CSV_HEADER + "".join([_SAMPLE_CSV_ROW % row for row in rows])


def cmd_run(req: RunRequest) -> str:
    if problem := req.validate():
        raise UsageError(problem)
    ens = run_pair(*PAIRS[req.pair])
    if req.mode == "exact":
        if req.fmt == "json":
            return _exact_json(req.pair, ens)
        rows = canonical_table(ens)
        if req.fmt == "csv":
            return _exact_csv(rows)
        return _exact_table(rows, ens.dropped_mass)

    # A numpy integer prints as the equal int, which json.dumps can encode.
    shots, seed = int(req.shots), int(req.seed)
    rows = [
        (l34.text, l12.text, count)
        for (l34, l12), count in sample(ens, shots=shots, seed=seed).items()
    ]
    if req.fmt == "json":
        counts = [dict(zip(_SAMPLE_HEADER, row)) for row in rows]
        return to_json({"pair": req.pair, "mode": "sample", "shots": shots, "seed": seed,
                        "counts": counts})
    if req.fmt == "csv":
        return _sample_csv(rows)
    return "\n".join("{:<9}{:<9}{:>9}".format(*row) for row in [_SAMPLE_HEADER, *rows])


# ``verify``'s document, compiled once from the reference's fixed checks: with
# no rows, ``expectations`` still gives each check's name, expected value and
# tolerance, which no run changes. A run fills the layout in sorted-key order:
# the overall verdict, then per pair each check's actual value and verdict,
# then the pair's verdict.
_VERIFY_DOC = _layout({
    "reference_version": reference.REFERENCE_VERSION,
    "overall": _SLOT,
    "reports": [
        {"pair": pair, "overall": _SLOT, "checks": [
            {"name": c.name, "expected": c.expected, "actual": _SLOT, "tolerance": c.tolerance,
             "passed": _SLOT}
            for c in reference.expectations(pair, ())
        ]}
        for pair in PAIRS
    ],
})
_VALUE_INDENT = " " * 10  # the nesting of a check's keys, where its values are written
_ROW = _layout([_SLOT, _SLOT, _SLOT], _VALUE_INDENT)


def _value(x) -> str:
    """A check's actual value or verdict, as ``to_json`` writes it in the check."""
    leaf = _LEAVES.get(type(x))
    if leaf is not None:
        return leaf(x)
    if type(x) is tuple and len(x) == 3:
        a, b, p = x
        if type(a) is type(b) is type(p) is float:  # an (a, b, P) row
            return _ROW % (_float(a), _float(b), _float(p))
    return to_json(x, _VALUE_INDENT)  # raises json's TypeError where JSON has no form


def _verify_json(reports) -> tuple[str, bool]:
    """``verify``'s document for ``{pair: checks}``, read in ``PAIRS`` order,
    and the overall verdict it prints."""
    values, overall = [], True
    for pair in PAIRS:
        checks = reports[pair]
        for c in checks:
            values += (_value(c.actual), _value(c.passed))
        passed = all(c.passed for c in checks)
        values.append(_value(passed))
        overall = overall and passed
    return _VERIFY_DOC % (_value(overall), *values), overall


def cmd_verify(dump_reference: bool = False) -> tuple[str, int]:
    if type(dump_reference) is not bool:
        raise UsageError(f"--dump-reference must be a bool, got {dump_reference!r}")
    if dump_reference:
        return to_json(reference.dump()), 0
    out, overall = _verify_json(
        {pair: verify_against_reference(pair, run_pair(*bases)) for pair, bases in PAIRS.items()}
    )
    return out, 0 if overall else 1


def _state_entry(label: str, state) -> dict:
    n = state.num_qubits
    amps = [
        {"ket": format(i, f"0{n}b"), "re": amp.real, "im": amp.imag}
        for i, amp in enumerate(state.amplitudes)
        if abs(amp) > ZERO_ATOL
    ]
    return {"label": label, "num_qubits": n, "amplitudes": amps}


def cmd_inspect(pair: str, stage: str) -> str:
    if problem := RunRequest(pair=pair).validate():  # run's pair check
        raise UsageError(problem)
    if stage not in STAGES:
        raise UsageError(f"stage must be one of {list(STAGES)}, got {stage!r}")
    template, incoming = PAIRS[pair]
    doc = {"pair": pair, "stage": stage}
    if stage == "I":
        doc["states"] = [_state_entry(b.label, wc_initial_state(b)) for b in (template, incoming)]
    elif stage == "Q":
        doc["states"] = [_state_entry(f"{template}.{incoming}", assemble_pair(template, incoming))]
    else:
        ens = run_pair(template, incoming)
        rows = [
            {"group": f"{r.group[0]}{r.group[1]}", "rank": r.rank, "a": r.a, "b": r.b,
             "p": r.probability}
            for r in canonical_table(ens)
        ]
        doc["ensemble"] = {"rows": rows, "dropped_mass": ens.dropped_mass}
    return to_json(doc)


def cmd_recognize(pattern: str, tautomers: bool) -> str:
    if not isinstance(pattern, str) or len(pattern) != 2 or any(c not in "01" for c in pattern):
        raise UsageError(f"--pattern must be 2 bits, got {pattern!r}")
    if type(tautomers) is not bool:
        raise UsageError(f"--tautomers must be a bool, got {tautomers!r}")
    edge = EdgePattern("H", tuple(int(c) for c in pattern))
    matches = recognition_matches(edge, include_rare=tautomers)
    return to_json(
        {
            "pattern": pattern,
            "complement": complement_pattern(edge).text,
            "matches": [c.label for c in matches],
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnaswap",
        description="Exact simulator of base pairing as multi-qubit entanglement swapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pairing protocol for one base pair")
    p_run.add_argument("--pair", required=True, choices=sorted(PAIRS))
    p_run.add_argument("--mode", choices=MODES, default="exact")
    p_run.add_argument("--shots", type=int, default=None, help="sample mode only")
    p_run.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p_run.add_argument("--format", dest="fmt", choices=FORMATS, default="table")

    p_verify = sub.add_parser("verify", help="check protocol output against the reference tables")
    p_verify.add_argument(
        "--dump-reference", action="store_true", help="print the embedded reference data and exit"
    )

    p_inspect = sub.add_parser("inspect", help="print protocol states at a chosen stage")
    p_inspect.add_argument("--pair", required=True, choices=sorted(PAIRS))
    p_inspect.add_argument(
        "--stage", required=True, choices=STAGES,
        help="I: initial kets, Q: assembled superposition, O: outcome ensemble",
    )

    p_rec = sub.add_parser("recognize", help="list bases selected by a recognition pattern")
    p_rec.add_argument("--pattern", required=True, help="2-bit recognition-face pattern, e.g. 01")
    p_rec.add_argument(
        "--tautomers", action="store_true", help="include rare tautomer forms in the matches"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    code = 0
    try:
        if args.command == "run":
            out = cmd_run(RunRequest(pair=args.pair, mode=args.mode, shots=args.shots,
                                     seed=args.seed, fmt=args.fmt))
        elif args.command == "verify":
            out, code = cmd_verify(dump_reference=args.dump_reference)
        elif args.command == "inspect":
            out = cmd_inspect(args.pair, args.stage)
        else:
            out = cmd_recognize(args.pattern, args.tautomers)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``dnaswap verify | head -1``). Send what is still
        # buffered to devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
