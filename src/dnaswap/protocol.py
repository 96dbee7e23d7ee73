"""Recognition unitary, pair assembly, and the five-step swap protocol.

Pipeline for a template/incoming base pair:

1. Each base's 3-qubit pairing face is promoted from its initial basis ket
   to a tautomer superposition by the recognition unitary U. Only U's four
   columns at the initial kets matter, so recognition reads them directly.
2. An incoming base that recognition selects for the template is laid
   beside it, bonded atom pairs next to each other: template qubits land on
   positions (1, 3, 5), incoming qubits on (2, 4, 6). Each amplitude is the
   product of one entry of each base's column of U, read by a fixed gather.
3. The swap protocol S runs: the entangler V on qubits (3, 5); a Bell
   measurement on (3, 4); on outcome b00/b10, Pauli-X on qubits 4 and 5;
   a Bell measurement on (1, 2); on outcome b00/b10, Pauli-X on 2 and 5.

``swap`` enumerates S's 16 outcomes exactly, ``canonical_table`` reduces
them to reference rows, and ``sample`` draws shots from them.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .encodings import WC_INITIAL, BaseCode, h_edge_pattern, recognition_matches, wc_initial_pattern
from .gates import BELL, BELL_LABELS, V, BellLabel
from .statevec import PRUNE_DEFAULT, ZERO_ATOL, StateVector, _is_finite_real, _is_integer, _readonly

DEFAULT_THETA = math.acos(math.sqrt(2.0) / math.sqrt(3.0))
DEFAULT_PHI = math.acos(1.0 / math.sqrt(2.0))

# New position i carries old qubit INTERLEAVE[i-1]: template (1,2,3) to
# odd positions, incoming (4,5,6) to even positions.
INTERLEAVE = (1, 4, 2, 5, 3, 6)
# Entry k of the interleaved register reads entry _INTERLEAVE_INDEX[k] of the
# product |t1 t2 t3 i1 i2 i3>: the qubit reorder INTERLEAVE as one gather. That
# entry's template row of U is _TEMPLATE_ROW[k], its incoming row _INCOMING_ROW[k].
_INTERLEAVE_INDEX = _readonly(
    np.arange(64).reshape([2] * 6).transpose(np.subtract(INTERLEAVE, 1)).reshape(-1)
)
_TEMPLATE_ROW, _INCOMING_ROW = map(_readonly, np.divmod(_INTERLEAVE_INDEX, 8))

_MERGE_ATOL = 1e-10
_MASS_ATOL = 1e-10
_IMAG_ATOL = 1e-9

# ``sample`` reads the stream this many shots at a time, on each of at most
# _SAMPLE_WORKERS threads: one per CPU this process may use when ``sample``
# runs (``_cpus``), up to two.
_SAMPLE_CHUNK = 1 << 15
_SAMPLE_WORKERS = 2
# Generator.random keeps the top 53 bits of each 64-bit Philox word.
_WORD_BITS = 53


@dataclass(frozen=True)
class ProtocolConfig:
    """Recognition angles; the defaults reproduce the reference tables.

    ``phi`` fixes the amplitudes of the two-component recognized states (A,
    T) and ``theta`` splits the three-component ones (G, C); both enter only
    through the recognition unitary's columns.
    """

    theta: float = DEFAULT_THETA
    phi: float = DEFAULT_PHI

    def __post_init__(self) -> None:
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if not _is_finite_real(angle):
                raise ValueError(f"{name} must be a finite real number, got {angle!r}")
        # This config's recognition unitary U, built here and shared, read-only,
        # by every reader (see ``_recognition_matrix``). It is no field, so
        # equality, hash and repr see the angles alone. U is a view of a
        # read-only array, so ``setflags(write=True)`` on it raises too.
        self.__dict__["_unitary"] = _readonly(_recognition_matrix(self)).view()

    def __reduce__(self):
        # Pickle and copy rebuild the config from its angles, so the copy builds
        # its own read-only U: a pickled or copied array comes back writeable.
        return (type(self), (self.theta, self.phi))


@dataclass(frozen=True, eq=False)
class Outcome:
    """A raw (l34, l12) Bell outcome pair and the corrections it triggers.

    A Pauli-X pair fires on a raw k = 0: X on (4, 5) after the (3,4)
    measurement, X on (2, 5) after the (1,2) one. It relabels the measured
    pair as b_j1; qubit 5 flips when exactly one pair fires.
    """

    bell_34: BellLabel
    bell_12: BellLabel

    @property
    def x45_applied(self) -> bool:
        return self.bell_34.k == 0

    @property
    def x25_applied(self) -> bool:
        return self.bell_12.k == 0

    @property
    def final_bell_34(self) -> BellLabel:
        return BellLabel(self.bell_34.j, 1)

    @property
    def final_bell_12(self) -> BellLabel:
        return BellLabel(self.bell_12.j, 1)

    @property
    def group(self) -> tuple[int, int]:
        """(j, m): first bits of the corrected (1,2) and (3,4) Bell labels."""
        return (self.bell_12.j, self.bell_34.j)

    @property
    def corrections(self) -> tuple[str, ...]:
        fired = (("x45", self.x45_applied), ("x25", self.x25_applied))
        return tuple(name for name, hit in fired if hit)


# OUTCOMES[4*i34 + i12] is the raw outcome pair at ``Ensemble``'s index.
OUTCOMES = tuple(Outcome(l34, l12) for l34 in BELL_LABELS for l12 in BELL_LABELS)


@dataclass(frozen=True, eq=False)
class OutcomeBranch(Outcome):
    """One trajectory: an ``Outcome`` with its probability and ``residual``,
    the read-only, normalized, corrected 2x2 amplitudes of qubits (5, 6);
    ``third_pair`` holds its amplitudes (a, b) of |01> and |10>.
    """

    probability: float
    residual: np.ndarray

    @property
    def third_pair(self) -> tuple[complex, complex]:
        return (complex(self.residual[0, 1]), complex(self.residual[1, 0]))


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Exact outcome distribution of one swap run, held as arrays.

    Index i of each array is the raw outcome 4 * i34 + i12 in
    ``BELL_LABELS`` order. ``probabilities`` (16,) are the trajectory
    probabilities, ``residuals`` (16, 2, 2) the corrected, normalized (5, 6)
    amplitudes, and ``keep`` (16,) marks the enumerated branches; a residual
    is meaningful only where ``keep`` is set. The fields are frozen, so the
    values derived from them (``dropped_mass``, ``branches``) never go stale;
    ``dataclasses.replace`` derives them afresh.

    ``__init__`` is written out, for the cost ``CanonicalRow`` gives. A
    probability below 0 is refused; a non-finite one fails the mass rule first.
    """

    probabilities: np.ndarray
    residuals: np.ndarray
    keep: np.ndarray
    # The summed probability of the outcomes ``keep`` leaves out, which the
    # mass rule reads: set once, by ``__init__``.
    dropped_mass: float = field(init=False)

    def __init__(self, probabilities: np.ndarray, residuals: np.ndarray, keep: np.ndarray) -> None:
        shapes = (probabilities.shape, residuals.shape, keep.shape)
        if shapes != ((16,), (16, 2, 2), (16,)) or keep.dtype != bool:
            raise ValueError(
                "ensemble arrays must have shapes (16,), (16, 2, 2), (16,) and a boolean"
                f" keep mask, got {shapes} and a {keep.dtype} mask"
            )
        # An empty selection sums to 0.0, so numpy's sum runs only when some
        # outcome is dropped.
        dropped = float(probabilities[~keep].sum()) if False in keep.tolist() else 0.0
        total = sum(probabilities[keep].tolist()) + dropped
        if not abs(total - 1.0) <= _MASS_ATOL:
            raise ValueError(f"branch probabilities + dropped mass must be 1, got {total}")
        low = min(probabilities.tolist())
        if low < 0:
            raise ValueError(f"branch probabilities must be >= 0, got {low}")
        d = self.__dict__
        d["probabilities"] = probabilities
        d["residuals"] = residuals
        d["keep"] = keep
        d["dropped_mass"] = dropped

    @property
    def branches(self) -> list[OutcomeBranch]:
        """The kept trajectories as ``OutcomeBranch`` views, in outcome order."""
        probs = self.probabilities.tolist()
        return [
            OutcomeBranch(OUTCOMES[i].bell_34, OUTCOMES[i].bell_12, probs[i], self.residuals[i])
            for i in np.flatnonzero(self.keep)
        ]


@dataclass(frozen=True, init=False)
class CanonicalRow:
    """Phase-normalized ensemble row comparable to the reference tables.

    Global phase is chosen so that ``a`` is real and >= 0, falling back to
    ``b`` when ``a`` vanishes. Rows are ranked within their (j, m) group by
    descending probability, ties broken by descending |a|.

    ``__init__`` is written out: it runs the checks and stores the fields
    in ``__dict__`` one item at a time. That costs less than the generated
    frozen ``__init__``, which calls ``object.__setattr__`` once per field,
    and less than one keyword ``__dict__.update``.
    A NaN ``a`` or ``b`` is not phase-normalized, and a NaN ``probability``
    is refused.
    """

    group: tuple[int, int]
    rank: int
    a: float
    b: float
    probability: float

    def __init__(
        self, group: tuple[int, int], rank: int, a: float, b: float, probability: float
    ) -> None:
        if not (a > 0 and b == b or a == 0 and b >= 0):
            raise ValueError(f"row not phase-normalized: a={a}, b={b}")
        if probability != probability:
            raise ValueError("row probability is NaN")
        if rank < 1:
            raise ValueError("rank is 1-based")
        d = self.__dict__
        d["group"] = group
        d["rank"] = rank
        d["a"] = a
        d["b"] = b
        d["probability"] = probability


def _recognition_matrix(cfg: ProtocolConfig) -> np.ndarray:
    """U as a real orthogonal 8x8 matrix, block-diagonal in Hamming weight.

    A tautomer moves a proton, so U keeps the weight: |000> and |111> are
    fixed, columns 101 (A), 010 (T), 011 (G) and 100 (C) are the initial
    kets' tautomer superpositions, and the free column of each weight block
    (001, 110) is the cross product of the block's two pinned columns.
    """
    ct, st = math.cos(cfg.theta), math.sin(cfg.theta)
    cp, sp_ = math.cos(cfg.phi), math.sin(cfg.phi)
    # One row per line: output kets 000 ... 111; columns are input kets. Complex:
    # a real product in assembly would sign the state's zero imaginary parts otherwise.
    # Built real and cast once, which is cheaper than a complex literal.
    return np.array(
        (
            1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, ct, 0.0, 0.0, st, 0.0, 0.0, 0.0,
            0.0, sp_ * st, cp, 0.0, -ct * sp_, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, ct * sp_, 0.0, cp, -sp_ * st, 0.0,
            0.0, -cp * st, sp_, 0.0, ct * cp, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, ct * cp, 0.0, -sp_, -cp * st, 0.0,
            0.0, 0.0, 0.0, st, 0.0, 0.0, ct, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        ),
        dtype=float,
    ).reshape(8, 8).astype(complex)


# The config ``_config`` gives for None: built once, so its U is built once.
_DEFAULT_CONFIG = ProtocolConfig()

_COLUMN = {base: 4 * q1 + 2 * q2 + q3 for base, (q1, q2, q3) in WC_INITIAL.items()}


def _column(b: BaseCode) -> int:
    """U's column index at a base's initial ket; the one place a value that is
    not a ``BaseCode``, or a rare tautomer, is refused."""
    if not isinstance(b, BaseCode):
        raise ValueError(f"a base must be a BaseCode, got {b!r}")
    if b.rare:
        wc_initial_pattern(b)  # raises: a rare tautomer has no pairing-face pattern
    return _COLUMN[b.base]


def _config(cfg: ProtocolConfig | None) -> ProtocolConfig:
    """The config a ``cfg`` slot names: ``_DEFAULT_CONFIG`` for None; the one
    place a value that is not a ``ProtocolConfig`` is refused."""
    if not (cfg is None or isinstance(cfg, ProtocolConfig)):
        raise ValueError(f"cfg must be a ProtocolConfig or None, got {cfg!r}")
    return _DEFAULT_CONFIG if cfg is None else cfg


def build_recognition_unitary(cfg: ProtocolConfig | None = None) -> np.ndarray:
    """The config's 3-qubit recognition unitary U: one read-only array per
    config, the same object on every call (see ``_recognition_matrix``)."""
    return _config(cfg)._unitary


def recognize(b: BaseCode, cfg: ProtocolConfig | None = None) -> StateVector:
    """A base's post-recognition pairing face: U's column at its initial ket."""
    return StateVector(3, _config(cfg)._unitary[:, _column(b)])


_PAIRED = frozenset(
    (t, i.base) for t in WC_INITIAL for i in recognition_matches(h_edge_pattern(BaseCode(t)))
)


def assemble_pair(
    template: BaseCode,
    incoming: BaseCode,
    cfg: ProtocolConfig | None = None,
) -> StateVector:
    """Interleaved 6-qubit state of a template and the incoming base it selects."""
    t, i = _column(template), _column(incoming)
    if (template.base, incoming.base) not in _PAIRED:
        raise ValueError(f"unsupported pairing {template}.{incoming}")
    u = _config(cfg)._unitary
    return StateVector(6, u[:, t][_TEMPLATE_ROW] * u[:, i][_INCOMING_ROW])


def _instrument(v: np.ndarray) -> np.ndarray:
    """The swap as one (64, 64) matrix K, for the step-1 entangler ``v``.

    Row 16*l34 + 4*l12 + 2*q5 + q6 of ``K @ psi`` is coeff[l34, l12, q5, q6]
    = (<b_l12| on (1,2)) (<b_l34| on (3,4)) of V(3,5) psi: the 64 basis kets
    go through V on (3, 5), then meet the conjugate Bell basis.
    """
    kets = np.eye(64, dtype=complex).reshape([2] * 6 + [64])
    post_v = np.einsum("ceCE,abCdEfk->abcdefk", v.reshape(2, 2, 2, 2), kets)
    bra = _BELL.conj()
    return np.einsum("xab,ycd,abcdefk->yxefk", bra, bra, post_v).reshape(64, 64)


# _BELL[i] is the 2x2 amplitude array of BELL_LABELS[i]; _K is the swap
# instrument of the paper's entangler V, built once.
_BELL = BELL.reshape(4, 2, 2)
_K = _readonly(_instrument(V))
# Outcome i has X on qubit 5, which swaps its residual's rows, exactly when
# one of its two corrections fires. Entry (q5, q6) of outcome i's corrected
# residual is entry _ORDER[i, q5, q6] of ``K @ psi``: the corrections as one
# gather. _ROW34[i] is the (3,4) outcome of outcome i.
_FLIP = np.array([o.x45_applied != o.x25_applied for o in OUTCOMES])
_ORDER = np.arange(64).reshape(16, 2, 2)
_ORDER[_FLIP] = _ORDER[_FLIP, ::-1]
_ORDER = _readonly(_ORDER)
_ROW34 = _readonly(np.repeat(np.arange(4), 4))
# (group, its outcome indices in ascending order) for each (j, m) group, in
# sorted group order: the order ``canonical_table`` writes its rows in.
_GROUP_MEMBERS = tuple(
    (group, tuple(i for i, o in enumerate(OUTCOMES) if o.group == group))
    for group in sorted({o.group for o in OUTCOMES})
)


def swap(pair_state: StateVector) -> Ensemble:
    """Run the five-step protocol with exact branch enumeration.

    The protocol is a fixed linear instrument K (``_K``), so all 16
    trajectories come from one product ``K @ psi``: ``coeff[l34, l12]`` is
    the unnormalized (5, 6) residual of outcome pair (l34, l12). The X
    corrections on qubits 2 and 4 only relabel the measured pairs as b_j1;
    X on qubit 5 acts when exactly one correction fires, which swaps the
    residual's rows. So the corrected residuals are one fixed gather of
    ``K @ psi`` (``_ORDER``), normalized in place. K for the paper's V is
    built once at import.

    The ensemble holds these arrays as computed: outcome i = 4*i34 + i12
    indexes the raw (pre-correction) measurement outcomes in ``BELL_LABELS``
    order, and its ``OutcomeBranch`` views are built only when
    ``Ensemble.branches`` is read. A trajectory of probability 0 is never
    kept. A (3,4) outcome below ``PRUNE_DEFAULT`` is dropped, and so is a
    (1,2) outcome whose conditional probability is; ``dropped_mass`` is the
    summed probability of the dropped trajectories.
    """
    return _swap(_K, pair_state)


def _swap(k: np.ndarray, pair_state: StateVector) -> Ensemble:
    """``swap`` with the (64, 64) instrument ``k`` in place of ``_K``."""
    if pair_state.num_qubits != 6:
        raise ValueError(f"swap needs a 6-qubit register, got {pair_state.num_qubits}")
    # Two 32-row blocks: OpenBLAS splits a 64-row product over two threads,
    # whose worker then spins while the rest of the swap runs in Python.
    coeff = (k.reshape(2, 32, 64) @ pair_state.amplitudes).reshape(64)
    sq = np.abs(coeff)
    sq *= sq
    probs = np.add.reduce(sq.reshape(16, 4), axis=1)
    p34 = np.add.reduce(probs.reshape(4, 4), axis=1)[_ROW34]
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = probs / p34 >= PRUNE_DEFAULT
        keep &= p34 >= PRUNE_DEFAULT
        keep &= probs > 0
        residual = coeff[_ORDER]
        residual /= np.sqrt(probs)[:, None, None]
    # A kept row has P >= PRUNE_DEFAULT**2 = 1e-28, far above the subnormals,
    # so dividing it by sqrt(P) normalizes it to rounding: there is no norm
    # left to check. A non-finite P is never kept, and a non-finite or
    # non-isometric instrument fails ``Ensemble``'s mass rule instead.
    return Ensemble(_readonly(probs), _readonly(residual), _readonly(keep))


def run_pair(
    template: BaseCode,
    incoming: BaseCode,
    cfg: ProtocolConfig | None = None,
) -> Ensemble:
    """Assemble a pair and run the swap."""
    return swap(assemble_pair(template, incoming, cfg))


def canonical_table(e: Ensemble) -> list[CanonicalRow]:
    """Group, phase-normalize, merge, and rank the ensemble's kept outcomes.

    Outcomes whose corrected final states coincide (same group and same
    normalized third-pair amplitudes within 1e-10) merge into one row with
    summed probability. The groups are walked in the fixed order of
    ``_GROUP_MEMBERS``, each outcome in ascending index. The arrays are read
    once as Python numbers: over 16 entries, element-wise numpy costs more
    per call than this loop.

    The phase is keyed on a, or on b when |a| <= ``ZERO_ATOL``. A finite
    third pair whose imaginary parts are both zero, as every ``run_pair``
    pair is (U, V, the Bell basis and K are real), has phase s = +-1: its
    row is (|a|, s*b), or (0, |b|) when keyed on b, with the same zero snaps,
    which is exactly what dividing by s +- 0j returns. Any other pair is
    divided by its complex phase and must come out real within ``_IMAG_ATOL``.
    """
    keep = e.keep.tolist()
    # Columns 1 and 2 of a flattened residual are its (0, 1) and (1, 0) entries.
    third = e.residuals.reshape(16, 4)[:, 1:3].tolist()
    probs = e.probabilities.tolist()
    inf = math.inf
    out: list[CanonicalRow] = []
    for group, members in _GROUP_MEMBERS:
        rows: list[list[float]] = []
        for i in members:
            if not keep[i]:
                continue
            a, b = third[i]
            ar, br = a.real, b.real
            ma, mb = abs(ar), abs(br)
            if a.imag == 0.0 and b.imag == 0.0 and ma < inf and mb < inf:
                if ma > ZERO_ATOL:
                    af = ma
                    bf = 0.0 if mb <= ZERO_ATOL else (br if ar > 0 else -br)
                else:
                    af, bf = 0.0, (mb if mb > ZERO_ATOL else 0.0)
            else:
                af, bf = _divide_phase(a, b)
            for row in rows:
                if abs(row[0] - af) <= _MERGE_ATOL and abs(row[1] - bf) <= _MERGE_ATOL:
                    row[2] += probs[i]
                    break
            else:
                rows.append([af, bf, probs[i]])
        if len(rows) > 1:
            rows.sort(key=lambda r: (-r[2], -abs(r[0])))
        for rank, (a, b, p) in enumerate(rows, start=1):
            out.append(CanonicalRow(group, rank, a, b, p))
    return out


def _divide_phase(a: complex, b: complex) -> tuple[float, float]:
    """A complex or non-finite third pair divided by its phase, as floats.

    Raises if the divided pair keeps an imaginary part above ``_IMAG_ATOL``.
    A non-finite entry can come out as a NaN, which ``CanonicalRow`` refuses.
    """
    ma = abs(a)
    if ma > ZERO_ATOL:
        phase = a / ma
    else:
        mb = abs(b)
        phase = b / mb if mb > ZERO_ATOL else 1.0
    an, bn = a / phase, b / phase
    if abs(an.imag) > _IMAG_ATOL or abs(bn.imag) > _IMAG_ATOL:
        raise ValueError("third-pair amplitudes have a non-real relative phase")
    af = 0.0 if abs(an.real) <= ZERO_ATOL else float(an.real)
    bf = 0.0 if abs(bn.real) <= ZERO_ATOL else float(bn.real)
    return af, bf


def _cpus() -> int:
    """The number of CPUs the calling thread, and so ``sample``'s helper, may use now."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _word_thresholds(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF thresholds over the positive-probability outcomes only.

    Returns the live outcome indices and, for each, the integer threshold
    ceil(cdf * 2**53). A uniform u = k * 2**-53 satisfies u >= cdf[j] exactly
    when k >= threshold[j] (scaling by 2**53 is exact), so
    ``searchsorted(threshold, k, side="right")`` on 53-bit words equals
    ``searchsorted(cdf, u, side="right")`` on the uniforms. A rounded cumsum
    can pass 1 before its last entry; capping it at 1 keeps the thresholds
    sorted and changes no pick, since no uniform reaches 1.
    """
    live = np.flatnonzero(probs > 0)
    cdf = np.minimum(np.cumsum(probs[live] / probs[live].sum()), 1.0)
    cdf[-1] = 1.0  # guard the float tail
    return live, np.ceil(np.ldexp(cdf, _WORD_BITS)).astype(np.int64)


def _cell_table(row_t: np.ndarray, col_t: np.ndarray) -> np.ndarray:
    """Entry ``(h1 << 8) | h2`` is ``sample``'s index into ``col_t`` for every shot
    whose 53-bit words k have ``k >> 45`` equal to h1 and h2, or -1 where a
    threshold splits either bucket, falling in (first word, last word]: those
    shots need the two searches themselves (a guide table, Chen & Asau, 1974).
    """
    edges = (np.arange(256, dtype=np.int64) << 45) + [[0], [2**45 - 1]]  # first, last words

    def ranks(t: np.ndarray, offset: int) -> np.ndarray:
        lo, hi = np.searchsorted(t, offset + edges, side="right")
        return np.where(lo == hi, lo, -1)

    row = ranks(row_t, 0)  # the live row each first-word bucket picks, or -1
    table = np.full((256, 256), -1, dtype=np.int8)
    for r in range(len(row_t)):  # row by row: no 256 x 256 int64 intermediate
        table[row == r] = ranks(col_t, r << _WORD_BITS)
    return table.reshape(-1)


def _count_chunk(
    words: np.ndarray, table: np.ndarray, row_t: np.ndarray, col_t: np.ndarray
) -> np.ndarray:
    """Shots per entry of ``col_t`` in one chunk, two raw words a shot: each shot's entry
    is ``table[(w1 >> 56) << 8 | (w2 >> 56)]``, searched for where the table holds -1."""
    byte = words.astype("<u8", copy=False).view(np.uint8)  # no copy on little-endian hosts
    index = np.empty(len(words) // 2, dtype="<u2")
    index.view(np.uint8)[1::2], index.view(np.uint8)[::2] = byte[7::16], byte[15::16]
    cell = table.take(index)
    miss = np.flatnonzero(cell < 0)
    k = (words.reshape(-1, 2)[miss] >> np.uint64(64 - _WORD_BITS)).view(np.int64)
    row = np.searchsorted(row_t, k[:, 0], side="right")
    cell[miss] = np.searchsorted(col_t, (row << _WORD_BITS) + k[:, 1], side="right")
    return np.bincount(cell, minlength=len(col_t))


def _check_shots(shots) -> int:
    """``shots`` as an int from 1 to 2**63 - 1, or ``ValueError`` (README, "Input values")."""
    if not _is_integer(shots):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    shots = int(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots >= 2**63:  # the counts are int64
        raise ValueError(f"shots must be < 2**63, got {shots}")
    return shots


def _check_seed(seed) -> int:
    """``seed`` as an int from 0 to 2**64 - 1, or ``ValueError`` (README, "Input values")."""
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return seed


def sample(
    ensemble: Ensemble,
    shots: int = 1,
    seed: int = 0,
) -> dict[tuple[BellLabel, BellLabel], int]:
    """Stochastic trajectory sampling of an exact ensemble's Bell measurements.

    Uses the counter-based Philox stream keyed by ``seed``; shot i consumes
    uniforms (2i, 2i+1), so counts are reproducible for a fixed
    (seed, shots) no matter how evaluation is scheduled. Returns counts for
    every enumerated branch, keyed by raw (bell_34, bell_12) outcome.

    The stream is read in chunks of ``_SAMPLE_CHUNK`` shots as raw 53-bit
    words k (``Generator.random`` would return k * 2**-53). The chunks split
    into ``_SAMPLE_WORKERS`` contiguous spans, one per CPU the process may use
    when ``sample`` runs (``_cpus``), at most two: the calling thread counts
    the first and a helper thread the other, and each span's own Philox
    jumps to its first shot with ``advance``. A run of one chunk
    starts no thread. Memory is O(workers x chunk) whatever ``shots`` is,
    and the counts do not depend on the worker count or the chunk size. A
    span that fails, or a Ctrl-C on the calling thread, stops every span at
    its next chunk, and the error is raised on the calling thread.

    The (3,4) outcome ranks the first word k1 among exact integer
    thresholds of the marginal; the (1,2) outcome ranks (r << 53) + k2 among
    every live row's conditional thresholds, row r's offset by r << 53.
    ``_count_chunk`` ranks each shot once, from a 256 x 256 int8 table
    (``_cell_table``, 64 KB per call) keyed by both words' top bytes, and
    runs ``searchsorted`` only on the ~1.2% of shots in a bucket that a
    threshold splits. ``shots`` and ``seed`` must pass ``_check_shots`` and
    ``_check_seed``, and the ensemble must have a branch.
    """
    shots, seed = _check_shots(shots), _check_seed(seed)
    keep = ensemble.keep
    if not keep.any():
        raise ValueError("the ensemble has no branches; nothing to sample")
    joint = np.where(keep, ensemble.probabilities, 0.0).reshape(4, 4)

    rows, row_t = _word_thresholds(joint.sum(axis=1))
    # Row r's column thresholds are offset by r << 53, so (r << 53) + k2 ranks
    # inside row r's block; cells[i] is the outcome (4 * i34 + i12) of col_t[i].
    per_row = [_word_thresholds(joint[i34]) for i34 in rows]
    cells = np.concatenate([4 * i34 + cols for i34, (cols, _) in zip(rows, per_row)])
    col_t = np.concatenate([(r << _WORD_BITS) + t for r, (_, t) in enumerate(per_row)])
    table = _cell_table(row_t, col_t)

    def count(start: int, stop: int) -> np.ndarray:
        # Shot i reads words 2i and 2i + 1; advance(d) skips 4d words.
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start // 2)
        if start % 2:
            bitgen.random_raw(2)
        hits = np.zeros(len(cells), dtype=np.int64)
        for lo in range(start, stop, _SAMPLE_CHUNK):
            if halt.is_set():
                break  # the run has failed: these counts are never read
            words = bitgen.random_raw(2 * min(_SAMPLE_CHUNK, stop - lo))
            hits += _count_chunk(words, table, row_t, col_t)
        return hits

    # Contiguous spans cut at chunk boundaries: the caller counts the first,
    # one helper thread each of the others.
    chunks = -(-shots // _SAMPLE_CHUNK)
    spans = min(_SAMPLE_WORKERS, _cpus(), chunks)
    cuts = [min(shots, chunks * w // spans * _SAMPLE_CHUNK) for w in range(spans + 1)]
    found: list = [None] * spans
    # Set by the first failure, or when the caller leaves early: every other
    # span stops at its next chunk.
    halt = threading.Event()

    def run(w: int) -> None:
        try:
            found[w] = count(cuts[w], cuts[w + 1])
        except BaseException as exc:  # re-raised on the calling thread
            halt.set()
            found[w] = exc

    helpers = [threading.Thread(target=run, args=(w,)) for w in range(1, spans)]
    for t in helpers:
        t.start()
    try:
        run(0)
        for t in helpers:
            t.join()
    finally:
        halt.set()  # a Ctrl-C in join must not wait out the helpers' spans
    for part in found:
        if isinstance(part, BaseException):
            raise part
    hits = sum(found)
    counts = np.zeros(16, dtype=np.int64)
    counts[cells] = hits
    return {
        (OUTCOMES[i].bell_34, OUTCOMES[i].bell_12): int(counts[i]) for i in np.flatnonzero(keep)
    }
