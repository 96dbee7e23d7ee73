"""The three benchmark workloads: their inputs, their op, and their checks.

An op is one timed unit. ``run`` is the only code inside the timed region;
``check`` runs after the timer stops. Ops reach dnaswap through module
attributes (``cli.cmd_run``, ``protocol.run_pair``) so that the tracer's
wrappers see them.

- ``exact``: the CLI's exact path on inputs that repeat exactly, where a
  cache or a compiled swap pays off. It never calls the sampler.
- ``sweep``: the same protocol layers through the library, but every op has
  a fresh (theta, phi), so a cache keyed on the config never hits.
- ``sample``: CLI sample mode at 1e7 shots, where the sampler's draw,
  search and count dominate and the swap runs once per op.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from dnaswap import cli, protocol
from dnaswap.encodings import BaseCode

PAIRS = {"AT": ("A", "T"), "GC": ("G", "C")}
SAMPLE_SHOTS = 10**7
# Spans every workload enters: recognition, assembly and the swap.
SPANS_PAIR = (
    "protocol.assemble_pair",
    "protocol.recognize",
    "protocol.build_recognition_unitary",
    "encodings.wc_initial_state",
    "statevec.tensor",
    "statevec.permute_qubits",
    "statevec.basis_state",
    "protocol.swap",
    "statevec.apply_unitary",
    "statevec.measure_two_qubit",
    "gates.construct",
)

# Tolerances for output checks. JSON and CSV print 15 significant digits;
# the table prints a, b to 6 decimals and P to 12.
TIGHT = 1e-12
TABLE_AB = 1e-6
TABLE_P = 1e-11
# Probability + dropped mass and a^2 + b^2 on sweep points; the package
# itself accepts 1e-10 on the ensemble total.
SWEEP_TOL = 1e-9
# One sweep op in this many is also compared with the dense evaluation.
SWEEP_DENSE_EVERY = 50
SIGMAS = 5.0


def _dense(template: str, incoming: str, *angles: float):
    import dense  # imported here so its matrices are built after set-up is timed

    return dense.branches(template, incoming, *angles)


def _group(key: tuple[str, str]) -> tuple[int, int]:
    """(j, m) group of a raw (bell_34, bell_12) label pair."""
    return int(key[1][1]), int(key[0][1])


def rows_match(rows, ref, ab_tol: float, p_tol: float) -> bool:
    """Canonical rows (group, a, b, P) agree with dense branches.

    Each row must be a unit vector, and its P must equal the total
    probability of the group's branches whose third pair is the row's state
    up to a global phase. Group totals must agree too, so no branch is lost.
    """
    totals: dict[tuple[int, int], float] = {}
    for group, a, b, p in rows:
        if abs(a * a + b * b - 1.0) > 2 * ab_tol:
            return False
        same = sum(
            bp for key, (bp, ba, bb) in ref.items()
            if _group(key) == group and bp > 0 and abs(a * ba + b * bb) > 1.0 - 2 * ab_tol
        )
        if abs(same - p) > p_tol:
            return False
        totals[group] = totals.get(group, 0.0) + p
    ref_totals: dict[tuple[int, int], float] = {}
    for key, (bp, _, _) in ref.items():
        ref_totals[_group(key)] = ref_totals.get(_group(key), 0.0) + bp
    return all(abs(totals.get(g, 0.0) - t) <= p_tol * 4 for g, t in ref_totals.items())


class Exact:
    """Rotates through ``cmd_run`` for {AT, GC} x {table, json, csv} and
    ``cmd_verify``; the seed fixes the rotation order."""

    name = "exact"
    KINDS = tuple((pair, fmt) for pair in PAIRS for fmt in ("table", "json", "csv")) + (
        ("verify", ""),
    )
    cycle = len(KINDS)
    probe, probes = "python", 1
    spans = ("cli", "protocol.run_pair", *SPANS_PAIR, "protocol.canonical_table",
             "metrics.verify_against_reference")

    def __init__(self, seed: int, shots: int | None = None) -> None:
        order = np.random.default_rng(seed).permutation(self.cycle)
        self.order = [self.KINDS[k] for k in order]

    def input(self, i: int):
        return self.order[i % self.cycle]

    def run(self, kind) -> str:
        pair, fmt = kind
        if pair == "verify":
            return cli.cmd_verify()[0]
        return cli.cmd_run(cli.RunRequest(pair=pair, fmt=fmt))

    def check(self, i: int, kind, out: str) -> bool:
        pair, fmt = kind
        if pair == "verify":
            return json.loads(out)["overall"] is True
        ref = _dense(*PAIRS[pair])
        if fmt == "json":
            doc = json.loads(out)
            if doc["pair"] != pair or doc["mode"] != "exact":
                return False
            seen = set()
            for br in doc["branches"]:
                key = (
                    br["bell_34"][:2] + ("0" if "x45" in br["corrections"] else "1"),
                    br["bell_12"][:2] + ("0" if "x25" in br["corrections"] else "1"),
                )
                p, a, b = ref[key]
                tp = br["third_pair"]
                if (abs(br["probability"] - p) > TIGHT
                        or abs(complex(tp["a_re"], tp["a_im"]) - a) > TIGHT
                        or abs(complex(tp["b_re"], tp["b_im"]) - b) > TIGHT):
                    return False
                seen.add(key)
            return all(p <= TIGHT for key, (p, _, _) in ref.items() if key not in seen)
        if fmt == "csv":
            lines = list(csv.reader(io.StringIO(out, newline="")))
            if lines[0] != ["group_j", "group_m", "rank_l", "a", "b", "P"]:
                return False
            rows = [((int(j), int(m)), float(a), float(b), float(p))
                    for j, m, _, a, b, p in lines[1:]]
            return rows_match(rows, ref, TIGHT, TIGHT)
        lines = out.split("\n")
        rows = [((int(g[0]), int(g[1])), float(a), float(b), float(p))
                for g, _, a, b, p in (line.split() for line in lines[1:-1])]
        return lines[-1].startswith("dropped_mass ") and rows_match(rows, ref, TABLE_AB, TABLE_P)


class Sweep:
    """``run_pair`` + ``canonical_table`` for AT and GC at a fresh uniform
    (theta, phi) in [-pi, pi)^2 per op, through the library."""

    name = "sweep"
    cycle = 1
    probe, probes = "python", 1
    spans = ("protocol.run_pair", *SPANS_PAIR, "protocol.canonical_table")

    def __init__(self, seed: int, shots: int | None = None) -> None:
        self._rng = np.random.default_rng(seed)
        self._angles: list[tuple[float, float]] = []
        self._bases = [(BaseCode(t), BaseCode(i)) for t, i in PAIRS.values()]

    def input(self, i: int):
        while len(self._angles) <= i:
            theta, phi = self._rng.uniform(-math.pi, math.pi, 2)
            self._angles.append((float(theta), float(phi)))
        return self._angles[i]

    def run(self, angles):
        cfg = protocol.ProtocolConfig(theta=angles[0], phi=angles[1])
        out = []
        for template, incoming in self._bases:
            ens = protocol.run_pair(template, incoming, cfg)
            out.append((ens, protocol.canonical_table(ens)))
        return out

    def check(self, i: int, angles, out) -> bool:
        for ens, rows in out:
            kept = sum(br.probability for br in ens.branches)
            if abs(kept + ens.dropped_mass - 1.0) > SWEEP_TOL:
                return False
            if any(abs(r.a * r.a + r.b * r.b - 1.0) > SWEEP_TOL for r in rows):
                return False
            if abs(sum(r.probability for r in rows) - kept) > SWEEP_TOL:
                return False
        if i % SWEEP_DENSE_EVERY:
            return True
        for (ens, _), (template, incoming) in zip(out, self._bases):
            ref = _dense(template.base, incoming.base, *angles)
            for br in ens.branches:
                p, a, b = ref[(br.bell_34.text, br.bell_12.text)]
                got_a, got_b = br.third_pair
                if max(abs(br.probability - p), abs(got_a - a), abs(got_b - b)) > SWEEP_TOL:
                    return False
        return True


class Sample:
    """CLI sample mode, CSV output: ops alternate AT and GC, with sampling
    seeds drawn from the workload seed."""

    name = "sample"
    cycle = 2
    probe, probes = "bulk", 3
    spans = ("cli", *SPANS_PAIR, "protocol.sample")

    def __init__(self, seed: int, shots: int | None = None) -> None:
        self.shots = SAMPLE_SHOTS if shots is None else shots
        self._rng = np.random.default_rng(seed)
        self._seeds: list[int] = []

    def input(self, i: int):
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(0, 2**63)))
        return ("AT", "GC")[i % 2], self._seeds[i]

    def run(self, inp) -> str:
        pair, seed = inp
        return cli.cmd_run(
            cli.RunRequest(pair=pair, mode="sample", shots=self.shots, seed=seed, fmt="csv")
        )

    def check(self, i: int, inp, out: str) -> bool:
        lines = list(csv.reader(io.StringIO(out, newline="")))
        if lines[0] != ["bell_34", "bell_12", "count"]:
            return False
        counts = {(b34, b12): int(c) for b34, b12, c in lines[1:]}
        if sum(counts.values()) != self.shots:
            return False
        for key, (p, _, _) in _dense(*PAIRS[inp[0]]).items():
            sigma = math.sqrt(self.shots * p * max(0.0, 1.0 - p))
            if abs(counts.get(key, 0) - p * self.shots) > SIGMAS * sigma + TIGHT * self.shots:
                return False
        return True


WORKLOADS = {w.name: w for w in (Exact, Sweep, Sample)}
