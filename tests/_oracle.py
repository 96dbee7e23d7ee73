"""Independent references the tests compare the package against.

The Kronecker-product layer is ``perfbench/dense.py``, the evaluation the
benchmark checks against too, loaded by file path under a private name so
that no benchmark module joins the import path. Its operators, Bell vectors
and (theta, phi) targets back ``bell_projector``, ``build_u``,
``pair_state`` and ``run_swap``; ``interleave`` and ``canonical_rows`` are
the oracle's own.

The rest are frozen copies of the package's earlier code, which it must
reproduce bit for bit, errors included: ``branch_swap``, ``branch_table``
and ``branch_ensemble_doc`` (from when the ensemble was a list of
``OutcomeBranch``), the sampler's ``sample_reference`` and
``counts_from_uniforms``, ``to_json`` (``json.dumps``), ``exact_table``
(the exact-mode table as f-strings wrote it), and the per-call reference
checks ``expectations`` and ``passes``.
"""
from __future__ import annotations

import importlib.util
import json
from functools import cache
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "_dense_reference", Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"
)
dense = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dense)

S2 = np.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)

V = np.array(
    [
        [1 / S2, 0, 0, 1 / S2],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1 / S2, 0, 0, -1 / S2],
    ],
    dtype=complex,
)

WC_INITIAL = {"A": "101", "T": "010", "G": "011", "C": "100"}


@cache  # run_swap reads the same 8 projectors on every call
def bell_projector(label: tuple[int, int], pair: tuple[int, int]) -> np.ndarray:
    b = dense.BELL[label]
    return dense.on_qubits(np.outer(b, b.conj()), pair)


def build_u() -> np.ndarray:
    """Recognition unitary, at the default angles only: dense's targets as the
    pinned columns, the free columns completed by Gram-Schmidt over unit kets."""
    targets = dense.targets(dense.DEFAULT_THETA, dense.DEFAULT_PHI)
    pinned = {int(WC_INITIAL[b], 2): col for b, col in targets.items()}
    u = np.zeros((8, 8), dtype=complex)
    fixed = list(pinned.values())
    for idx in range(8):
        if idx in pinned:
            u[:, idx] = pinned[idx]
            continue
        v = np.zeros(8, dtype=complex)
        v[idx] = 1.0
        for c in fixed:
            v = v - np.vdot(c, v) * c
        v = v / np.linalg.norm(v)
        u[:, idx] = v
        fixed.append(v)
    return u


def interleave(prod_state: np.ndarray) -> np.ndarray:
    """Reorder |t1 t2 t3 i1 i2 i3> into |t1 i1 t2 i2 t3 i3>."""
    out = np.zeros_like(prod_state)
    for idx in range(64):
        bits = [(idx >> (5 - k)) & 1 for k in range(6)]
        t1, t2, t3, i1, i2, i3 = bits
        new_bits = [t1, i1, t2, i2, t3, i3]
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        out[new_idx] = prod_state[idx]
    return out


def pair_state(template: str, incoming: str, theta: float, phi: float) -> np.ndarray:
    """The assembled register at (theta, phi), from dense's recognition targets."""
    faces = dense.targets(theta, phi)
    return interleave(np.kron(faces[template], faces[incoming]))


def run_swap(psi0: np.ndarray, v_mat: np.ndarray = V) -> list[dict]:
    """Full enumeration of the five-step protocol on a 6-qubit state: each
    kept branch's probability, (a, b) on qubits (5, 6) and full register."""
    psi = dense.on_qubits(v_mat, (3, 5)) @ psi0
    x4x5 = dense.on_qubits(np.kron(X, X), (4, 5))
    x2x5 = dense.on_qubits(np.kron(X, X), (2, 5))
    out = []
    for lab34 in dense.BELL:
        phi = bell_projector(lab34, (3, 4)) @ psi
        p34 = float(np.vdot(phi, phi).real)
        if p34 < 1e-14:
            continue
        phi = phi / np.sqrt(p34)
        if lab34[1] == 0:
            phi = x4x5 @ phi
        for lab12 in dense.BELL:
            chi = bell_projector(lab12, (1, 2)) @ phi
            p12 = float(np.vdot(chi, chi).real)
            if p12 < 1e-14:
                continue
            chi = chi / np.sqrt(p12)
            if lab12[1] == 0:
                chi = x2x5 @ chi
            bonds = np.kron(dense.BELL[(lab12[0], 1)], dense.BELL[(lab34[0], 1)])
            out.append(
                {
                    "raw34": lab34,
                    "raw12": lab12,
                    "p": p34 * p12,
                    "a": complex(np.vdot(np.kron(bonds, dense.ket("01")), chi)),
                    "b": complex(np.vdot(np.kron(bonds, dense.ket("10")), chi)),
                    "state": chi,
                }
            )
    return out


def canonical_rows(branches: list[dict]) -> dict[tuple[int, int], list[list[float]]]:
    """Group by (j, m), phase-normalize, merge identical, sort by -P."""
    groups: dict[tuple[int, int], list[list[float]]] = {}
    for br in branches:
        key = (br["raw12"][0], br["raw34"][0])
        a, b = br["a"], br["b"]
        phase = a / abs(a) if abs(a) > 1e-12 else b / abs(b)
        an, bn = (a / phase).real, (b / phase).real
        an = 0.0 if abs(an) < 1e-12 else an
        bn = 0.0 if abs(bn) < 1e-12 else bn
        rows = groups.setdefault(key, [])
        for row in rows:
            if abs(row[0] - an) < 1e-10 and abs(row[1] - bn) < 1e-10:
                row[2] += br["p"]
                break
        else:
            rows.append([an, bn, br["p"]])
    for rows in groups.values():
        rows.sort(key=lambda r: (-r[2], -abs(r[0])))
    return groups


def sample_reference(joint: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of the whole-run sampler ``protocol.sample`` used to have.

    ``joint[i34, i12]`` is the probability of the raw outcome pair in
    ``BELL_LABELS`` order; returns the 16 counts indexed 4 * i34 + i12. It
    draws every uniform at once and picks the (1,2) outcome row by row with
    a boolean mask: O(shots) memory, kept as the reference the streaming
    sampler must match count for count.
    """
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((shots, 2))
    return counts_from_uniforms(joint, uniforms)


def counts_from_uniforms(joint: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``sample_reference`` on given uniforms, shot i reading row i."""
    shots = len(uniforms)

    def pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse CDF over the positive-probability outcomes only."""
        live = np.flatnonzero(probs > 0)
        cdf = np.cumsum(probs[live] / probs[live].sum())
        cdf[-1] = 1.0  # guard the float tail
        return live[np.searchsorted(cdf, u, side="right")]

    idx34 = pick(joint.sum(axis=1), uniforms[:, 0])
    idx12 = np.empty(shots, dtype=np.int64)
    for i in np.unique(idx34):
        mask = idx34 == i
        idx12[mask] = pick(joint[i], uniforms[mask, 1])
    counts = np.bincount(idx34 * 4 + idx12, minlength=16)
    return counts


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
    """The CLI's JSON as ``json.dumps`` writes it: the reference for ``cli.to_json``."""
    return json.dumps(_quantize(doc), sort_keys=True, indent=2)


def exact_table(rows, dropped_mass) -> str:
    """The exact-mode table as ``cli.cmd_run`` wrote it, five f-string fields a
    row: the reference for ``cli._exact_table``."""
    lines = [f"{'group':<6}{'l':<3}{'a':>12}{'b':>12}{'P':>18}"]
    for r in rows:
        group = f"{r.group[0]}{r.group[1]}"
        lines.append(f"{group:<6}{r.rank:<3}{r.a:>+12.6f}{r.b:>+12.6f}{r.probability:>18.12f}")
    lines.append(f"dropped_mass {dropped_mass:.3e}")
    return "\n".join(lines)


# --- The per-branch ensemble, kept verbatim as the bit-level reference ---


def branch_swap(pair_state, k=None):
    """``protocol.swap`` as it built 16 ``OutcomeBranch`` objects one by one,
    with the instrument ``k`` (``protocol._K`` when None).

    Returns ``(branches, dropped_mass)`` and raises what it raised, the list
    ensemble's own checks included.
    """
    from dnaswap import protocol
    from dnaswap.gates import BELL_LABELS
    from dnaswap.protocol import _FLIP, _MASS_ATOL, OutcomeBranch
    from dnaswap.statevec import NORM_ATOL, PRUNE_DEFAULT, _readonly

    if k is None:
        k = protocol._K
    if pair_state.num_qubits != 6:
        raise ValueError(f"swap needs a 6-qubit register, got {pair_state.num_qubits}")
    coeff = (k @ pair_state.amplitudes).reshape(16, 2, 2)
    probs = np.sum(np.abs(coeff) ** 2, axis=(1, 2))
    p34 = np.repeat(probs.reshape(4, 4).sum(axis=1), 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = (probs > 0) & (p34 >= PRUNE_DEFAULT) & (probs / p34 >= PRUNE_DEFAULT)
        residual = coeff / np.sqrt(probs)[:, None, None]
    residual[_FLIP] = residual[_FLIP, ::-1]
    residual = _readonly(residual)
    dev = np.abs(np.sqrt(np.sum(np.abs(residual[keep]) ** 2, axis=(1, 2))) - 1.0)
    if not np.all(dev <= NORM_ATOL):
        raise ValueError(f"branch residual not normalized: max |norm - 1| = {np.max(dev):.3e}")

    branches = [
        OutcomeBranch(
            bell_34=BELL_LABELS[i >> 2],
            bell_12=BELL_LABELS[i & 3],
            probability=float(probs[i]),
            residual=residual[i],
        )
        for i in np.flatnonzero(keep)
    ]
    dropped_mass = float(probs[~keep].sum())

    # The list ensemble's __post_init__.
    if len(branches) > 16:
        raise ValueError(f"at most 16 branches possible, got {len(branches)}")
    total = sum(b.probability for b in branches) + dropped_mass
    if not abs(total - 1.0) <= _MASS_ATOL:
        raise ValueError(f"branch probabilities + dropped mass must be 1, got {total}")
    return branches, dropped_mass


def branch_table(branches):
    """``protocol.canonical_table``'s loop over a list of ``OutcomeBranch``."""
    from dnaswap.protocol import _IMAG_ATOL, _MERGE_ATOL, CanonicalRow
    from dnaswap.statevec import ZERO_ATOL

    grouped: dict[tuple[int, int], list[list[float]]] = {}
    for br in branches:
        a, b = br.third_pair
        if abs(a) > ZERO_ATOL:
            phase = a / abs(a)
        elif abs(b) > ZERO_ATOL:
            phase = b / abs(b)
        else:
            phase = 1.0
        an, bn = a / phase, b / phase
        if abs(an.imag) > _IMAG_ATOL or abs(bn.imag) > _IMAG_ATOL:
            raise ValueError("third-pair amplitudes have a non-real relative phase")
        af = 0.0 if abs(an.real) <= ZERO_ATOL else float(an.real)
        bf = 0.0 if abs(bn.real) <= ZERO_ATOL else float(bn.real)
        rows = grouped.setdefault(br.group, [])
        for row in rows:
            if abs(row[0] - af) <= _MERGE_ATOL and abs(row[1] - bf) <= _MERGE_ATOL:
                row[2] += br.probability
                break
        else:
            rows.append([af, bf, br.probability])

    out: list[CanonicalRow] = []
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda r: (-r[2], -abs(r[0])))
        for rank, (a, b, p) in enumerate(rows, start=1):
            out.append(CanonicalRow(group=group, rank=rank, a=a, b=b, probability=p))
    return out


def branch_ensemble_doc(pair, e):
    """The exact-mode document as a dict, built as the CLI built it from
    ``Ensemble.branches`` before the document's layouts were compiled."""
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


# --- The per-call reference checks, kept verbatim as the bit-level reference ---


def _normalize(a, b):
    if a < 0 or (a == 0 and b < 0):
        return -a, -b
    return a, b


def expectations(key, rows):
    """``reference.expectations`` as it formatted each check and summed each
    group with its own pass over ``rows``, on every call."""
    from dnaswap.reference import (
        AT_CLASS_P,
        AT_CLASS_P_EXACT,
        AT_THIRD_PAIR,
        COARSE_TOL,
        EXACT_TOL,
        GC_TABLE,
        GROUPS,
    )

    if key not in ("AT", "GC"):
        raise ValueError(f"no reference data for pair {key!r}")
    slots = {(r.group, r.rank): (r.a, r.b, r.probability) for r in rows}
    if key == "AT":
        yield "row_count", 4, len(rows), 0.0
        for j, m in GROUPS:
            row = slots.get(((j, m), 1))
            yield f"class[{j}{m}]", (*AT_THIRD_PAIR, AT_CLASS_P[(j, m)]), row, COARSE_TOL
            yield (f"class[{j}{m}].exact_p", AT_CLASS_P_EXACT[(j, m)],
                   None if row is None else row[2], EXACT_TOL)
    else:
        yield "row_count", 16, len(rows), 0.0
        total = 0.0
        for j, m in GROUPS:
            group_p = sum(r.probability for r in rows if r.group == (j, m))
            total += group_p
            yield f"group_p_sum[{j}{m}]", 0.25, group_p, EXACT_TOL
            for rank, (a, b, p) in enumerate(GC_TABLE[(j, m)], start=1):
                yield (f"row[{j}{m},l={rank}]", (*_normalize(a, b), p),
                       slots.get(((j, m), rank)), COARSE_TOL)
        yield "total_p", 1.0, total, EXACT_TOL


def passes(expected, actual, tolerance):
    """The pass rule ``reference.expectations`` applies to each check, as
    ``metrics._passes`` wrote it: one loop over the check's numbers. It raised
    on a value of another shape than its expectation, which ``expectations``
    never reads."""
    if actual is None:
        return False
    if not isinstance(expected, tuple):
        expected, actual = (expected,), (actual,)
    elif len(actual) != len(expected):
        return False
    return all([abs(a - e) <= tolerance for e, a in zip(expected, actual)])
