"""Command-line surface: run the protocol, verify, inspect, recognize.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error. JSON output is deterministic: keys sorted, floats
quantized to 15 significant digits so that parse/re-serialize round-trips
are byte-identical. CSV uses RFC-4180 line endings and quoting.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import reference
from .encodings import (
    BaseCode,
    EdgePattern,
    complement_pattern,
    recognition_matches,
    wc_initial_state,
)
from .gates import Gate
from .metrics import verify_against_reference
from .protocol import (
    Ensemble,
    ProtocolConfig,
    assemble_pair,
    canonical_table,
    run_pair,
    sample,
)
from .statevec import ZERO_ATOL

PAIRS = {
    "AT": (BaseCode("A"), BaseCode("T")),
    "GC": (BaseCode("G"), BaseCode("C")),
}


@dataclass
class RunRequest:
    pair: str
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    fmt: str = "table"

    def validate(self) -> str | None:
        """Return an error message for invalid cross-field combinations."""
        if self.pair not in PAIRS:
            return f"pair must be one of {sorted(PAIRS)}, got {self.pair!r}"
        if self.mode == "sample":
            if self.shots is None:
                return "--shots is required in sample mode"
            if self.shots < 1:
                return f"--shots must be >= 1, got {self.shots}"
            if self.shots >= 2**63:
                return f"--shots must be < 2**63, got {self.shots}"
        elif self.shots is not None:
            return "--shots is only valid in sample mode"
        if not 0 <= self.seed < 2**64:
            return f"--seed must fit in 64 bits, got {self.seed}"
        return None


def _quantize(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def to_json(doc: dict) -> str:
    return json.dumps(_quantize(doc), sort_keys=True, indent=2)


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fnum(v: float) -> str:
    return f"{v:.15g}"


def ensemble_doc(pair: str, e: Ensemble) -> dict:
    branches = []
    for br in e.branches:
        a, b = br.third_pair
        branches.append(
            {
                "bell_12": br.final_bell_12.text,
                "bell_34": br.final_bell_34.text,
                "corrections": list(br.corrections),
                "probability": br.probability,
                "third_pair": {"a_re": a.real, "a_im": a.imag, "b_re": b.real, "b_im": b.imag},
            }
        )
    return {"pair": pair, "mode": "exact", "branches": branches, "dropped_mass": e.dropped_mass}


def _canonical_rows(e: Ensemble) -> list[list]:
    return [
        [row.group[0], row.group[1], row.rank, row.a, row.b, row.probability]
        for row in canonical_table(e)
    ]


def cmd_run(req: RunRequest, v_gate: Gate | None = None) -> str:
    template, incoming = PAIRS[req.pair]
    if req.mode == "exact":
        ens = run_pair(template, incoming, v_gate=v_gate)
        if req.fmt == "json":
            return to_json(ensemble_doc(req.pair, ens))
        rows = _canonical_rows(ens)
        if req.fmt == "csv":
            return _csv(
                ["group_j", "group_m", "rank_l", "a", "b", "P"],
                [[j, m, l, _fnum(a), _fnum(b), _fnum(p)] for j, m, l, a, b, p in rows],
            )
        lines = [f"{'group':<6}{'l':<3}{'a':>12}{'b':>12}{'P':>18}"]
        for j, m, l, a, b, p in rows:
            lines.append(f"{f'{j}{m}':<6}{l:<3}{a:>+12.6f}{b:>+12.6f}{p:>18.12f}")
        lines.append(f"dropped_mass {ens.dropped_mass:.3e}")
        return "\n".join(lines)

    state = assemble_pair(template, incoming)
    counts = sample(state, ProtocolConfig(), shots=req.shots, seed=req.seed)
    entries = [
        {"bell_34": l34.text, "bell_12": l12.text, "count": c}
        for (l34, l12), c in counts.items()
    ]
    if req.fmt == "json":
        return to_json(
            {
                "pair": req.pair,
                "mode": "sample",
                "shots": req.shots,
                "seed": req.seed,
                "counts": entries,
            }
        )
    if req.fmt == "csv":
        return _csv(
            ["bell_34", "bell_12", "count"],
            [[en["bell_34"], en["bell_12"], en["count"]] for en in entries],
        )
    lines = [f"{'bell_34':<9}{'bell_12':<9}{'count':>9}"]
    for en in entries:
        lines.append(f"{en['bell_34']:<9}{en['bell_12']:<9}{en['count']:>9}")
    return "\n".join(lines)


def cmd_verify(dump_reference: bool = False, v_gate: Gate | None = None) -> tuple[str, int]:
    if dump_reference:
        return to_json(reference.dump()), 0
    reports = []
    overall = True
    for pair in ("AT", "GC"):
        template, incoming = PAIRS[pair]
        report = verify_against_reference(run_pair(template, incoming, v_gate=v_gate))
        overall = overall and report.overall
        reports.append(
            {
                "pair": pair,
                "overall": report.overall,
                # Check's five fields, uncopied (asdict deep-copies every value).
                "checks": [vars(c) for c in report.checks],
            }
        )
    doc = {"reference_version": reference.REFERENCE_VERSION, "overall": overall, "reports": reports}
    return to_json(doc), 0 if overall else 1


def _state_entry(label: str, state) -> dict:
    n = state.num_qubits
    amps = [
        {"ket": format(i, f"0{n}b"), "re": amp.real, "im": amp.imag}
        for i, amp in enumerate(state.amplitudes)
        if abs(amp) > ZERO_ATOL
    ]
    return {"label": label, "num_qubits": n, "amplitudes": amps}


def cmd_inspect(pair: str, stage: str) -> str:
    template, incoming = PAIRS[pair]
    if stage == "I":
        doc = {
            "pair": pair,
            "stage": "I",
            "states": [
                _state_entry(template.label, wc_initial_state(template)),
                _state_entry(incoming.label, wc_initial_state(incoming)),
            ],
        }
    elif stage == "Q":
        doc = {
            "pair": pair,
            "stage": "Q",
            "states": [
                _state_entry(f"{template}.{incoming}", assemble_pair(template, incoming))
            ],
        }
    else:
        ens = run_pair(template, incoming)
        doc = {
            "pair": pair,
            "stage": "O",
            "ensemble": {
                "rows": [
                    {
                        "group": f"{row.group[0]}{row.group[1]}",
                        "rank": row.rank,
                        "a": row.a,
                        "b": row.b,
                        "p": row.probability,
                    }
                    for row in canonical_table(ens)
                ],
                "dropped_mass": ens.dropped_mass,
            },
        }
    return to_json(doc)


def cmd_recognize(pattern: str, tautomers: bool) -> str:
    bits = tuple(int(c) for c in pattern)
    edge = EdgePattern("H", bits)
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
    p_run.add_argument("--mode", choices=["exact", "sample"], default="exact")
    p_run.add_argument("--shots", type=int, default=None, help="sample mode only")
    p_run.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p_run.add_argument("--format", dest="fmt", choices=["json", "csv", "table"], default="table")

    p_verify = sub.add_parser("verify", help="check protocol output against the reference tables")
    p_verify.add_argument(
        "--dump-reference", action="store_true", help="print the embedded reference data and exit"
    )

    p_inspect = sub.add_parser("inspect", help="print protocol states at a chosen stage")
    p_inspect.add_argument("--pair", required=True, choices=sorted(PAIRS))
    p_inspect.add_argument(
        "--stage", required=True, choices=["I", "Q", "O"],
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

    if args.command == "run":
        req = RunRequest(pair=args.pair, mode=args.mode, shots=args.shots,
                         seed=args.seed, fmt=args.fmt)
        problem = req.validate()
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        print(cmd_run(req))
        return 0

    if args.command == "verify":
        out, code = cmd_verify(dump_reference=args.dump_reference)
        print(out)
        return code

    if args.command == "inspect":
        print(cmd_inspect(args.pair, args.stage))
        return 0

    # recognize
    if len(args.pattern) != 2 or any(c not in "01" for c in args.pattern):
        print(f"error: --pattern must be 2 bits, got {args.pattern!r}", file=sys.stderr)
        return 2
    print(cmd_recognize(args.pattern, args.tautomers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
