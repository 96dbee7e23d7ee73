"""Recognition unitary, pair assembly, and the five-step swap protocol.

Pipeline for a template/incoming base pair:

1. Each base's 3-qubit pairing face is promoted from its initial basis ket
   to a tautomer superposition by the recognition unitary U. Only U's four
   columns at the initial kets matter, so recognition reads them directly.
2. The two 3-qubit states are laid side by side so that bonded atom pairs
   sit next to each other: template qubits land on positions (1, 3, 5),
   incoming qubits on (2, 4, 6). This is one fixed gather of the Kronecker
   product of the two recognition targets.
3. The swap protocol S runs: the entangler V on qubits (3, 5); a Bell
   measurement on (3, 4); on outcome b00/b10, Pauli-X on qubits 4 and 5;
   a Bell measurement on (1, 2); on outcome b00/b10, Pauli-X on 2 and 5.

S is a fixed linear instrument: a 64x64 matrix K, built once at import,
that maps the register to the unnormalized (5, 6) residual of each of the
16 (l34, l12) outcome pairs. ``swap`` enumerates every measurement
trajectory exactly with one product ``K @ psi``. Trajectories of
probability 0 or below the pruning threshold are dropped, and
``dropped_mass`` is their summed probability. A kept branch holds its 2x2
residual; its 6-qubit final state is built only when read. ``sample``
re-draws the same trajectories stochastically from a counter-based seeded
stream. It reads the stream in fixed chunks of raw 53-bit words and picks
outcomes by exact integer thresholds, so its memory is O(chunk), not
O(shots). A table over each word's top bits gives the outcome directly;
``searchsorted`` runs only on the words in a bucket that holds a threshold.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .encodings import BaseCode, UnsupportedEncodingError, wc_initial_pattern
from .gates import BELL_LABELS, BellLabel, Gate, bell_basis, equality_entangler
from .statevec import NORM_ATOL, PRUNE_DEFAULT, ZERO_ATOL, StateVector, _readonly

DEFAULT_THETA = math.acos(math.sqrt(2.0) / math.sqrt(3.0))
DEFAULT_PHI = math.acos(1.0 / math.sqrt(2.0))

# New position i carries old qubit INTERLEAVE[i-1]: template (1,2,3) to
# odd positions, incoming (4,5,6) to even positions.
INTERLEAVE = (1, 4, 2, 5, 3, 6)
# Entry k of the interleaved register reads entry _INTERLEAVE_INDEX[k] of the
# product |t1 t2 t3 i1 i2 i3>: ``permute_qubits(., INTERLEAVE)`` as a gather.
_INTERLEAVE_INDEX = _readonly(
    np.arange(64).reshape([2] * 6).transpose(np.subtract(INTERLEAVE, 1)).reshape(-1)
)

_MERGE_ATOL = 1e-10
_MASS_ATOL = 1e-10
_IMAG_ATOL = 1e-9

# ``sample`` reads the stream this many shots at a time.
_SAMPLE_CHUNK = 1 << 16
# Generator.random keeps the top 53 bits of each 64-bit Philox word.
_WORD_BITS = 53
# ``sample`` looks most words up in a table indexed by their top bits.
_BUCKET_BITS = 12
_BUCKET_SHIFT = _WORD_BITS - _BUCKET_BITS


@dataclass(frozen=True)
class ProtocolConfig:
    """Angles and thresholds; the defaults reproduce the reference tables.

    ``phi`` fixes the equal-superposition amplitudes of the two-component
    recognition targets and ``theta`` splits the three-component ones; both
    are absorbed into the recognition unitary's target states.
    """

    theta: float = DEFAULT_THETA
    phi: float = DEFAULT_PHI
    prune_threshold: float = PRUNE_DEFAULT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("theta and phi must be finite")
        if not (math.isfinite(self.prune_threshold) and self.prune_threshold >= 0):
            raise ValueError(
                f"prune_threshold must be finite and >= 0, got {self.prune_threshold}"
            )


@dataclass(frozen=True, eq=False)
class OutcomeBranch:
    """One trajectory of the swap protocol.

    ``bell_34``/``bell_12`` are the raw measurement outcomes; the final
    state carries the corrected labels (k forced to 1 wherever a Pauli-X
    pair was applied). ``residual`` is the read-only, normalized 2x2
    amplitude array of qubits (5, 6) after the corrections, and
    ``third_pair`` holds its amplitudes (a, b) of |01> and |10>. A Pauli-X
    pair fires on a raw outcome with k = 0, so ``x45_applied`` and
    ``x25_applied`` are read off the labels.
    """

    bell_34: BellLabel
    bell_12: BellLabel
    probability: float
    residual: np.ndarray

    @property
    def x45_applied(self) -> bool:
        return self.bell_34.k == 0

    @property
    def x25_applied(self) -> bool:
        return self.bell_12.k == 0

    @property
    def third_pair(self) -> tuple[complex, complex]:
        return (complex(self.residual[0, 1]), complex(self.residual[1, 0]))

    @property
    def final_state(self) -> StateVector:
        """The corrected register b_j1(1,2) (x) b_m1(3,4) (x) residual(5,6)."""
        f12 = _BELL[BELL_LABELS.index(self.final_bell_12)]
        f34 = _BELL[BELL_LABELS.index(self.final_bell_34)]
        return StateVector(6, np.multiply.outer(np.multiply.outer(f12, f34), self.residual))

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
        out = []
        if self.x45_applied:
            out.append("x45")
        if self.x25_applied:
            out.append("x25")
        return tuple(out)


@dataclass(eq=False)
class Ensemble:
    """Exact outcome distribution of one swap run."""

    pair: tuple[BaseCode, BaseCode] | None
    branches: list[OutcomeBranch]
    dropped_mass: float

    def __post_init__(self) -> None:
        if len(self.branches) > 16:
            raise ValueError(f"at most 16 branches possible, got {len(self.branches)}")
        total = sum(b.probability for b in self.branches) + self.dropped_mass
        if not abs(total - 1.0) <= _MASS_ATOL:
            raise ValueError(f"branch probabilities + dropped mass must be 1, got {total}")


@dataclass(frozen=True)
class CanonicalRow:
    """Phase-normalized ensemble row comparable to the reference tables.

    Global phase is chosen so that ``a`` is real and >= 0, falling back to
    ``b`` when ``a`` vanishes. Rows are ranked within their (j, m) group by
    descending probability, ties broken by descending |a|.
    """

    group: tuple[int, int]
    rank: int
    a: float
    b: float
    probability: float

    def __post_init__(self) -> None:
        if self.a < 0 or (self.a == 0 and self.b < 0):
            raise ValueError(f"row not phase-normalized: a={self.a}, b={self.b}")
        if self.rank < 1:
            raise ValueError("rank is 1-based")


def recognition_targets(cfg: ProtocolConfig) -> dict[tuple[int, ...], np.ndarray]:
    """Target states of the recognition unitary on the four initial kets.

    The angle parametrization keeps the four targets orthonormal for every
    finite (theta, phi); the defaults give the equal-amplitude states.
    """
    ct, st = math.cos(cfg.theta), math.sin(cfg.theta)
    cp, sp_ = math.cos(cfg.phi), math.sin(cfg.phi)

    def vec(terms: dict[str, float]) -> np.ndarray:
        out = np.zeros(8, dtype=complex)
        for bits, amp in terms.items():
            out[int(bits, 2)] = amp
        return out

    return {
        (1, 0, 1): vec({"011": cp, "101": -sp_}),
        (0, 1, 0): vec({"010": cp, "100": sp_}),
        (0, 1, 1): vec({"011": ct * sp_, "101": ct * cp, "110": st}),
        (1, 0, 0): vec({"100": ct * cp, "010": -ct * sp_, "001": st}),
    }


def build_recognition_unitary(cfg: ProtocolConfig | None = None) -> Gate:
    """The 3-qubit recognition unitary U.

    U is pinned by its action on the four initial kets; the remaining four
    columns are an orthonormal basis of the null space of the pinned ones
    (the trailing left singular vectors of the pinned 8x4 block). The
    protocol never reads them: ``recognize`` takes the pinned column
    straight from ``recognition_targets``.
    """
    cfg = cfg or ProtocolConfig()
    targets = recognition_targets(cfg)
    cols = list(targets.values())
    gram = np.array([[np.vdot(a, b) for b in cols] for a in cols])
    if np.max(np.abs(gram - np.eye(4))) > NORM_ATOL:
        raise ValueError("recognition targets are not orthonormal for these angles")

    mat = np.zeros((8, 8), dtype=complex)
    pinned = [int("".join(map(str, bits)), 2) for bits in targets]
    mat[:, pinned] = np.column_stack(cols)
    free = [i for i in range(8) if i not in pinned]
    mat[:, free] = np.linalg.svd(mat[:, pinned])[0][:, 4:]
    return Gate("U", mat)


def recognize(b: BaseCode, cfg: ProtocolConfig | None = None) -> StateVector:
    """A base's post-recognition pairing face: U's column at its initial ket."""
    cfg = cfg or ProtocolConfig()
    return StateVector(3, recognition_targets(cfg)[wc_initial_pattern(b).bits])


_SUPPORTED_PAIRS = {("A", "T"), ("T", "A"), ("G", "C"), ("C", "G")}


def assemble_pair(
    template: BaseCode,
    incoming: BaseCode,
    cfg: ProtocolConfig | None = None,
) -> StateVector:
    """Interleaved 6-qubit state of a recognized complementary base pair."""
    if template.rare or incoming.rare:
        raise UnsupportedEncodingError(
            f"pairing is defined for canonical bases only, got {template}.{incoming}"
        )
    if (template.base, incoming.base) not in _SUPPORTED_PAIRS:
        raise ValueError(f"unsupported pairing {template}.{incoming}")
    targets = recognition_targets(cfg or ProtocolConfig())
    x = targets[wc_initial_pattern(template).bits]
    y = targets[wc_initial_pattern(incoming).bits]
    return StateVector(6, np.kron(x, y)[_INTERLEAVE_INDEX])


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
_BELL = _readonly(np.array([b.amplitudes.reshape(2, 2) for b in bell_basis()]))
_K = _readonly(_instrument(equality_entangler().matrix))
# Outcome i = 4*i34 + i12 has X on qubit 5 exactly when one of its two
# corrections fires (raw k = 0 on one pair only), which swaps its rows.
_FLIP = np.array([(l34.k == 0) != (l12.k == 0) for l34 in BELL_LABELS for l12 in BELL_LABELS])


def swap(
    pair_state: StateVector,
    cfg: ProtocolConfig | None = None,
    pair: tuple[BaseCode, BaseCode] | None = None,
    v_gate: Gate | None = None,
) -> Ensemble:
    """Run the five-step protocol with exact branch enumeration.

    The protocol is a fixed linear instrument K (``_instrument``), so all 16
    trajectories come from one product ``K @ psi``: ``coeff[l34, l12]`` is
    the unnormalized (5, 6) residual of outcome pair (l34, l12). The X
    corrections on qubits 2 and 4 only relabel the measured pairs as b_j1;
    X on qubit 5 acts when exactly one correction fires, which swaps the
    residual's rows. K for the paper's V is built once at import.

    Branches are keyed by the raw (pre-correction) measurement outcomes, in
    ``BELL_LABELS`` order. A trajectory of probability 0 is never kept. A
    (3,4) outcome below the pruning threshold is dropped, and so is a (1,2)
    outcome whose conditional probability is; ``dropped_mass`` is the summed
    probability of the dropped trajectories. ``v_gate`` substitutes the
    step-1 entangler (the protocol family is not unique; this is the
    extension hook) and costs one K build per call.
    """
    cfg = cfg or ProtocolConfig()
    if pair_state.num_qubits != 6:
        raise ValueError(f"swap needs a 6-qubit register, got {pair_state.num_qubits}")
    if v_gate is None:
        k = _K
    elif v_gate.arity != 2:
        raise ValueError(f"gate {v_gate.name} has arity {v_gate.arity}, the entangler needs 2")
    else:
        k = _instrument(v_gate.matrix)

    coeff = (k @ pair_state.amplitudes).reshape(16, 2, 2)
    probs = np.sum(np.abs(coeff) ** 2, axis=(1, 2))
    p34 = np.repeat(probs.reshape(4, 4).sum(axis=1), 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = (probs > 0) & (p34 >= cfg.prune_threshold) & (probs / p34 >= cfg.prune_threshold)
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
    return Ensemble(pair=pair, branches=branches, dropped_mass=float(probs[~keep].sum()))


def run_pair(
    template: BaseCode,
    incoming: BaseCode,
    cfg: ProtocolConfig | None = None,
    v_gate: Gate | None = None,
) -> Ensemble:
    """Assemble a pair and run the swap, labeling the resulting ensemble."""
    cfg = cfg or ProtocolConfig()
    state = assemble_pair(template, incoming, cfg)
    return swap(state, cfg, pair=(template, incoming), v_gate=v_gate)


def canonical_table(e: Ensemble) -> list[CanonicalRow]:
    """Group, phase-normalize, merge, and rank the ensemble's branches.

    Branches whose corrected final states coincide (same group and same
    normalized third-pair amplitudes within 1e-10) merge into one row with
    summed probability.
    """
    grouped: dict[tuple[int, int], list[list[float]]] = {}
    for br in e.branches:
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
        af = 0.0 if abs(an.real) < ZERO_ATOL else float(an.real)
        bf = 0.0 if abs(bn.real) < ZERO_ATOL else float(bn.real)
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


def _guide(t: np.ndarray) -> np.ndarray:
    """Guide table for ``searchsorted(t, k, side="right")`` on 53-bit words.

    Entry h covers the words k with ``k >> _BUCKET_SHIFT == h``. It holds the
    search result, which is the same for every word of the bucket when no
    threshold falls in (first word, last word]; it holds -1 when one does,
    and those words need the search itself (Chen & Asau, 1974).
    """
    first = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << _BUCKET_SHIFT
    lo = np.searchsorted(t, first, side="right")
    hi = np.searchsorted(t, first + ((1 << _BUCKET_SHIFT) - 1), side="right")
    return np.where(lo == hi, lo, -1)


def sample(
    pair_state: StateVector,
    cfg: ProtocolConfig | None = None,
    shots: int = 1,
    seed: int = 0,
) -> dict[tuple[BellLabel, BellLabel], int]:
    """Stochastic trajectory sampling of the two Bell measurements.

    Uses the counter-based Philox stream keyed by ``seed``; shot i consumes
    uniforms (2i, 2i+1), so counts are reproducible for a fixed
    (seed, shots) no matter how evaluation is scheduled. Returns counts for
    every enumerated branch, keyed by raw (bell_34, bell_12) outcome.

    The stream is read in chunks of ``_SAMPLE_CHUNK`` shots as raw 53-bit
    words k (``Generator.random`` would return k * 2**-53), so memory is
    O(chunk) whatever ``shots`` is. The (3,4) outcome ranks the first word
    among exact integer thresholds of the marginal; the (1,2) outcome ranks
    the second word among the chosen row's conditional thresholds. Both
    ranks come from a table indexed by the word's top ``_BUCKET_BITS`` bits
    (``_guide``); only words in a bucket that holds a threshold, about 0.1%
    of them, are ranked by ``searchsorted``. ``shots`` must be below 2**63;
    a ``ValueError`` names ``prune_threshold`` when it drops every
    trajectory.
    """
    cfg = cfg or ProtocolConfig()
    shots = operator.index(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots >= 2**63:
        raise ValueError(f"shots must be < 2**63 (counts are int64), got {shots}")
    seed = operator.index(seed)  # rejects 1.5 rather than truncating it
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")

    ensemble = swap(pair_state, cfg)
    if not ensemble.branches:
        raise ValueError(
            f"prune_threshold={cfg.prune_threshold} drops every trajectory; nothing to sample"
        )
    joint = np.zeros((4, 4))
    order = {label: i for i, label in enumerate(BELL_LABELS)}
    for br in ensemble.branches:
        joint[order[br.bell_34], order[br.bell_12]] = br.probability

    rows, row_t = _word_thresholds(joint.sum(axis=1))
    # Row r's column thresholds are offset by r << 53, so one search of
    # (r << 53) + k2 lands inside row r's block; cells[i] is the outcome
    # (4 * i34 + i12) of the i-th threshold.
    col_t, cells = [], []
    for r, i34 in enumerate(rows):
        cols, t = _word_thresholds(joint[i34])
        col_t.append((r << _WORD_BITS) + t)
        cells.append(4 * i34 + cols)
    col_t, cells = np.concatenate(col_t), np.concatenate(cells)
    # g2 stacks one guide table per live row; row r's table ranks k2 among
    # col_t - (r << 53), which is the rank of (r << 53) + k2 among col_t.
    g1 = _guide(row_t)
    g2 = np.concatenate([_guide(col_t - (r << _WORD_BITS)) for r in range(len(rows))])

    bitgen = np.random.Philox(key=seed)
    hits = np.zeros(len(cells), dtype=np.int64)
    for start in range(0, shots, _SAMPLE_CHUNK):
        n = min(_SAMPLE_CHUNK, shots - start)
        words = bitgen.random_raw(2 * n)
        words >>= 64 - _WORD_BITS
        k = words.view(np.int64).reshape(n, 2)
        row = g1[k[:, 0] >> _BUCKET_SHIFT]
        miss = np.flatnonzero(row < 0)
        row[miss] = np.searchsorted(row_t, k[miss, 0], side="right")
        cell = g2[(row << _BUCKET_BITS) + (k[:, 1] >> _BUCKET_SHIFT)]
        miss = np.flatnonzero(cell < 0)
        cell[miss] = np.searchsorted(
            col_t, (row[miss] << _WORD_BITS) + k[miss, 1], side="right"
        )
        hits += np.bincount(cell, minlength=len(cells))
    counts = np.zeros(16, dtype=np.int64)
    counts[cells] = hits

    return {
        (br.bell_34, br.bell_12): int(counts[order[br.bell_34] * 4 + order[br.bell_12]])
        for br in ensemble.branches
    }
