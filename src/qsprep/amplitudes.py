"""Classical preprocessing: target normalization, partial-sum trees, rotation angles.

The rotation angles follow the two-index convention: level ``s`` holds the
angles that split contiguous index blocks of size ``2**(levels-s)`` in half,
so ``theta[s, p]`` is read off the partial-sum tree from node ``(s, p)`` and
its first child.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSplit,
    IndexOutOfRange,
    InternalInvariant,
    LengthNotPowerOfTwo,
    MalformedInput,
    NonFiniteAmplitude,
    ZeroVector,
    parse_json,
)


def _log2_exact(length: int) -> int:
    n = length.bit_length() - 1
    if length <= 0 or (1 << n) != length:
        raise LengthNotPowerOfTwo(f"length {length} is not a power of two")
    return n


@dataclass(frozen=True)
class TargetState:
    """Normalized amplitude vector of dimension 2**n."""

    n: int
    amplitudes: np.ndarray
    norm: float

    def __post_init__(self):
        if len(self.amplitudes) != 1 << self.n:
            raise InternalInvariant(f"{len(self.amplitudes)} amplitudes for n={self.n}")

    def is_real_nonnegative(self, tol: float = 1e-14) -> bool:
        return bool(np.all(np.abs(self.amplitudes.imag) <= tol) and np.all(self.amplitudes.real >= -tol))


def make_target(raw) -> TargetState:
    """Validate and normalize a raw amplitude sequence.

    Raises LengthNotPowerOfTwo unless len(raw) is a power of two >= 2,
    NonFiniteAmplitude for a NaN or infinite entry or norm, and ZeroVector
    for an all-zero input.
    """
    amps = np.asarray(list(raw), dtype=complex)
    if amps.ndim != 1 or len(amps) < 2:
        raise LengthNotPowerOfTwo(f"need a 1-d vector of length >= 2, got shape {amps.shape}")
    n = _log2_exact(len(amps))
    if not np.isfinite(amps).all():
        raise NonFiniteAmplitude("amplitudes must be finite numbers")
    # summed by numpy, not by a BLAS dot, which OpenBLAS splits across threads (in an
    # order that depends on their number) above 10,000 entries
    re, im = amps.real, amps.imag
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.sum(re * re) + np.sum(im * im)))
    if norm == 0.0:
        raise ZeroVector("all amplitudes are zero")
    if not math.isfinite(norm):
        raise NonFiniteAmplitude("the norm of the amplitudes overflows")
    return TargetState(n=n, amplitudes=amps / norm, norm=norm)


@dataclass(frozen=True)
class PartitionNorms:
    """Euclidean norms of the 2**m groups sharing the first m index bits."""

    m: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != 1 << self.m:
            raise InternalInvariant(f"{len(self.values)} partition norms for m={self.m}")


def partition_norms(t: TargetState, m: int) -> PartitionNorms:
    """Group |amplitudes|^2 by the m most-significant index bits and take roots."""
    if not 1 <= m < t.n:
        raise BadSplit(f"m={m} outside [1, {t.n - 1}]")
    block = 1 << (t.n - m)
    sq = np.abs(t.amplitudes) ** 2
    values = np.sqrt(sq.reshape(1 << m, block).sum(axis=1))
    return PartitionNorms(m=m, values=values)


class AngleTree:
    """Binary tree of squared-magnitude partial sums, stored as a flat heap.

    Level ``s`` (0 = root) holds ``2**s`` nodes; node ``(s, p)`` sits at heap
    index ``2**s + p`` and stores the squared mass of the contiguous block of
    ``2**(levels-s)`` input entries starting at ``p * 2**(levels-s)``.  The
    bottom row (level ``levels``) stores the squared inputs themselves; the
    stored leaves in the tree sense are level ``levels-1``, the pairwise sums.
    """

    __slots__ = ("levels", "_heap", "_writes")

    def __init__(self, levels: int, heap: np.ndarray, writes: int = 0):
        self.levels = levels
        self._heap = heap
        self._heap.setflags(write=False)
        self._writes = writes  # node assignments performed by the producing call

    def node(self, s: int, p: int) -> float:
        if not (0 <= s <= self.levels and 0 <= p < (1 << s)):
            raise IndexOutOfRange(f"no node ({s}, {p}) in a {self.levels}-level tree")
        return float(self._heap[(1 << s) + p])

    def level(self, s: int) -> np.ndarray:
        return self._heap[(1 << s):(2 << s)]

    @property
    def root(self) -> float:
        return float(self._heap[1])

    @property
    def write_count(self) -> int:
        return self._writes

    def nonzero_nodes(self) -> int:
        """Count nonzero entries over levels 0..levels-1 (the tree proper)."""
        return int(np.count_nonzero(self._heap[1:1 << self.levels]))


def build_angle_tree(values) -> AngleTree:
    """Build the partial-sum tree over a sequence of (real, non-negative) weights.

    Construction is a single bottom-up pass, linear in the leaf count.
    """
    vals = np.asarray(list(values), dtype=float)
    m = _log2_exact(len(vals))
    heap = np.zeros(2 << m)
    heap[(1 << m):(2 << m)] = vals**2
    writes = 1 << m
    for s in range(m - 1, -1, -1):
        lo, hi = 1 << s, 2 << s
        child = heap[2 * lo:2 * hi]
        heap[lo:hi] = child[0::2] + child[1::2]
        writes += hi - lo
    return AngleTree(m, heap, writes)


def update_leaf(tree: AngleTree, index: int, new_value: float) -> AngleTree:
    """Replace input entry ``index`` and repair the root-to-leaf path.

    Returns a new tree; only the path nodes are recomputed (the write count
    on the result records exactly how many node assignments happened).
    """
    m = tree.levels
    if not 0 <= index < (1 << m):
        raise IndexOutOfRange(f"leaf index {index} outside [0, {1 << m})")
    heap = tree._heap.copy()
    heap.setflags(write=True)
    i = (1 << m) + index
    heap[i] = float(new_value) ** 2
    writes = 1
    while i > 1:
        i //= 2
        heap[i] = heap[2 * i] + heap[2 * i + 1]
        writes += 1
    return AngleTree(m, heap, writes)


def _split_angle(parent: float, first_child: float) -> float:
    """2*arccos of the root-mass ratio, with clamping against fp drift."""
    if parent <= 0.0:
        return 0.0
    ratio = math.sqrt(min(max(first_child / parent, 0.0), 1.0))
    return 2.0 * math.acos(min(ratio, 1.0))


@dataclass(frozen=True)
class AngleSet:
    """The 2**m - 1 rotation angles for one state-preparation stage."""

    m: int
    angles: np.ndarray  # flat heap order: index 2**s + p - 1 holds theta[s, p]

    def theta(self, s: int, p: int) -> float:
        return float(self.angles[(1 << s) + p - 1])

    def __len__(self) -> int:
        return len(self.angles)

    def items(self):
        for s in range(self.m):
            for p in range(1 << s):
                yield s, p, float(self.angles[(1 << s) + p - 1])


def sp_angles(tree: AngleTree) -> AngleSet:
    """Read every rotation angle off the tree.

    theta[s, p] = 2*arccos(sqrt(S[s+1, 2p] / S[s, p])); degenerate branches
    (zero parent mass) yield angle 0.
    """
    m = tree.levels
    out = np.zeros((1 << m) - 1)
    for s in range(m):
        parents = tree.level(s).tolist()   # Python floats: the same values, cheaper scalar math
        children = tree.level(s + 1).tolist()
        base = (1 << s) - 1
        for p in range(1 << s):
            out[base + p] = _split_angle(parents[p], children[2 * p])
    return AngleSet(m=m, angles=out)


@dataclass(frozen=True)
class CSPAngleSet:
    """Per-control-value angle families for controlled state preparation.

    ``angles[k]`` is the AngleSet-shaped flat array for control value ``k``
    over the length-2**(n-m) segment of the target; ``phases[k][j]`` is the
    complex argument of segment entry ``j`` when phases are tracked.
    """

    m: int
    n: int
    angles: np.ndarray            # shape (2**m, 2**(n-m) - 1)
    phases: np.ndarray | None = None  # shape (2**m, 2**(n-m)) or None

    @property
    def sub_levels(self) -> int:
        return self.n - self.m

    def theta(self, k: int, s: int, p: int) -> float:
        return float(self.angles[k, (1 << s) + p - 1])

    def count(self) -> int:
        return int(self.angles.size)


def _phases(values: np.ndarray) -> list[float]:
    """The complex argument of each entry, 0 for a zero amplitude."""
    return [cmath.phase(a) if a != 0 else 0.0 for a in values.tolist()]


def csp_angles(t: TargetState, m: int, with_phases: bool = False) -> CSPAngleSet:
    """Angle families theta[k, s, p] from the magnitudes of each length-N/M segment.

    Phases, when requested, are the arguments of the segment entries with 0
    substituted for zero amplitudes.
    """
    if not 1 <= m < t.n:
        raise BadSplit(f"m={m} outside [1, {t.n - 1}]")
    sub = t.n - m
    seg_len = 1 << sub
    angles = np.zeros((1 << m, seg_len - 1))
    phases = np.zeros((1 << m, seg_len)) if with_phases else None
    for k in range(1 << m):
        seg = t.amplitudes[k * seg_len:(k + 1) * seg_len]
        tree = build_angle_tree(np.abs(seg))
        angles[k] = sp_angles(tree).angles
        if with_phases:
            phases[k] = _phases(seg)
    return CSPAngleSet(m=m, n=t.n, angles=angles, phases=phases)


# -- JSON interface -----------------------------------------------------------

def target_from_json(doc) -> TargetState:
    """Parse {"amplitudes": [[re, im], ...]} or {"amplitudes": [re, ...]}."""
    if isinstance(doc, (str, bytes)):
        doc = parse_json(doc)
    try:
        raw = doc["amplitudes"]
    except (TypeError, KeyError):
        raise MalformedInput('input document must carry an "amplitudes" key') from None
    amps = []
    try:
        for entry in raw:
            if isinstance(entry, (list, tuple)):
                re, im = entry
                amps.append(complex(re, im))
            else:
                amps.append(complex(entry))
    except (TypeError, ValueError, OverflowError) as e:
        raise NonFiniteAmplitude(f"amplitudes must be numbers or [re, im] pairs: {e}") from None
    return make_target(amps)


def angles_to_json(sp: AngleSet | None = None, csp: CSPAngleSet | None = None) -> dict:
    doc: dict = {}
    if sp is not None:
        doc["sp_angles"] = [{"s": s, "p": p, "theta": theta} for s, p, theta in sp.items()]
    if csp is not None:
        doc["csp_angles"] = [
            {"k": k, "s": s, "p": p, "theta": csp.theta(k, s, p)}
            for k in range(1 << csp.m)
            for s in range(csp.sub_levels)
            for p in range(1 << s)
        ]
        if csp.phases is not None:
            doc["phases"] = [
                {"k": k, "j": j, "phi": float(csp.phases[k, j])}
                for k in range(1 << csp.m)
                for j in range(1 << csp.sub_levels)
            ]
    return doc
