"""Classical preprocessing: target normalization, partition norms, rotation angles.

The injection fragment selects pair (s, j mod 2**s) for data value j, so
the rotation on pair (s, p) splits the congruence class
{j : j = p (mod 2**s)}: cos^2(theta[s, p]/2) is the mass fraction of its
subclass j = p (mod 2**(s+1)).  :func:`sp_angles` computes these angles
for one weight vector and :func:`csp_angles` for each segment of a
target; index ``2**s + p - 1`` of an angle array holds theta[s, p].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSplit,
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

    def __post_init__(self):
        if len(self.amplitudes) != 1 << self.n:
            raise InternalInvariant(f"{len(self.amplitudes)} amplitudes for n={self.n}")

    def is_real_nonnegative(self, tol: float = 1e-14) -> bool:
        return bool(np.all(np.abs(self.amplitudes.imag) <= tol) and np.all(self.amplitudes.real >= -tol))

    def phased(self, complex_mode: bool) -> bool:
        """Whether this target's circuit carries phases: under ``complex_mode``, or if it is not real non-negative."""
        return complex_mode or not self.is_real_nonnegative()


def make_target(raw) -> TargetState:
    """Validate and normalize a raw amplitude sequence.

    Raises LengthNotPowerOfTwo unless len(raw) is a power of two >= 2,
    NonFiniteAmplitude for a NaN or infinite entry, and ZeroVector for an
    all-zero input.
    """
    amps = np.asarray(list(raw), dtype=complex)
    if amps.ndim != 1 or len(amps) < 2:
        raise LengthNotPowerOfTwo(f"need a 1-d vector of length >= 2, got shape {amps.shape}")
    n = _log2_exact(len(amps))
    parts = amps.view(float)  # re and im interleaved
    top = float(np.abs(parts).max())  # NaN if any part is NaN
    if not math.isfinite(top):
        raise NonFiniteAmplitude("amplitudes must be finite numbers")
    if top == 0.0:
        raise ZeroVector("all amplitudes are zero")
    # scaled by the power of two that brings the largest part into [0.5, 1), which is
    # exact, so no square overflows or underflows and ordinary inputs keep their bits
    np.ldexp(parts, -math.frexp(top)[1], out=parts)
    # summed by numpy, not by a BLAS dot, which OpenBLAS splits across threads (in an
    # order that depends on their number) above 10,000 entries
    re, im = amps.real, amps.imag
    norm = math.sqrt(float(np.sum(re * re) + np.sum(im * im)))
    return TargetState(n=n, amplitudes=amps / norm)


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


# -- rotation angles ------------------------------------------------------------


def _split_angle(parent: float, first_child: float) -> float:
    """2*arccos of the root-mass ratio, with clamping against fp drift."""
    if parent <= 0.0:
        return 0.0
    ratio = math.sqrt(min(max(first_child / parent, 0.0), 1.0))
    return 2.0 * math.acos(min(ratio, 1.0))


def _class_split(sq: np.ndarray) -> np.ndarray:
    """The angles of each row of the squared masses ``sq``, shape (rows, 2**L).

    cos^2(theta[s,p]/2) is the mass fraction of the subclass j = p (mod
    2**(s+1)) inside the class j = p (mod 2**s); a class of zero mass gets
    angle 0.
    """
    rows, size = sq.shape
    out = np.zeros((rows, size - 1))
    parent = sq.reshape(rows, -1, 1).sum(axis=1)                 # class masses mod 2**s
    for s in range(size.bit_length() - 1):
        child = sq.reshape(rows, -1, 2 << s).sum(axis=1)         # class masses mod 2**(s+1)
        angles = map(_split_angle, parent.ravel().tolist(), child[:, :1 << s].ravel().tolist())
        out[:, (1 << s) - 1:(2 << s) - 1] = np.reshape(list(angles), (rows, -1))
        parent = child
    return out


@dataclass(frozen=True)
class AngleSet:
    """The 2**m - 1 rotation angles for one state-preparation stage."""

    m: int
    angles: np.ndarray  # index 2**s + p - 1 holds theta[s, p]

    def theta(self, s: int, p: int) -> float:
        return float(self.angles[(1 << s) + p - 1])

    def __len__(self) -> int:
        return len(self.angles)


def sp_angles(values) -> AngleSet:
    """The SP angles of the non-negative weights ``values``: fed to the injection
    fragment, they prepare ``values`` divided by its norm."""
    vals = np.asarray(values, dtype=float)
    m = _log2_exact(len(vals))
    return AngleSet(m=m, angles=_class_split(vals[None, :] ** 2)[0])


@dataclass(frozen=True)
class CSPAngleSet:
    """Per-control-value angle families for controlled state preparation.

    ``angles[k]`` is the AngleSet-shaped array for control value ``k`` over
    the length-2**(n-m) segment k of the target; ``phases[k]``, when phases
    are tracked, holds the phases of that segment's entries.
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
    """The angle families for control values k = 0..2**m - 1.

    ``angles[k]`` is :func:`sp_angles` of segment k's magnitudes.  With
    ``with_phases``, ``phases[k]`` lists the segment's entry phases (0 for a
    zero amplitude) keyed to the bottom pairs' children: entries 2p and 2p + 1
    are the phases of segment entries p and p + 2**(n-m-1).
    """
    if not 1 <= m < t.n:
        raise BadSplit(f"m={m} outside [1, {t.n - 1}]")
    segments = t.amplitudes.reshape(1 << m, -1)
    angles = _class_split(np.abs(segments) ** 2)
    phases = None
    if with_phases:
        phases = np.array(_phases(t.amplitudes)).reshape(1 << m, 2, -1).transpose(0, 2, 1)
        phases = phases.reshape(segments.shape)
    return CSPAngleSet(m=m, n=t.n, angles=angles, phases=phases)


# -- JSON interface -----------------------------------------------------------


def target_from_json(doc) -> TargetState:
    """Parse {"amplitudes": [[re, im], ...]} or {"amplitudes": [re, ...]}.

    Each re and im is a JSON number: a bool, a string or a null is
    NonFiniteAmplitude, and an ``amplitudes`` that is not an array is
    MalformedInput.
    """
    if isinstance(doc, (str, bytes)):
        doc = parse_json(doc)
    try:
        raw = doc["amplitudes"]
    except (TypeError, KeyError):
        raise MalformedInput('input document must carry an "amplitudes" key') from None
    if type(raw) is not list:
        raise MalformedInput(f'"amplitudes" must be an array, got {type(raw).__name__}')
    amps = []
    for entry in raw:
        re, im = entry if type(entry) is list and len(entry) == 2 else (entry, 0)
        if type(re) not in (int, float) or type(im) not in (int, float):
            raise NonFiniteAmplitude(f"amplitudes must be numbers or [re, im] pairs, got {entry!r}")
        try:
            amps.append(complex(re, im))
        except OverflowError:  # an integer past the float range
            raise NonFiniteAmplitude(f"amplitude {entry!r} overflows a float") from None
    return make_target(amps)


def angles_to_json(sp: AngleSet, csp: CSPAngleSet | None = None) -> dict:
    """The angle sets as lists: index 2**s + p - 1 of each holds the rotation on pair (s, p)."""
    doc = {"sp_angles": sp.angles.tolist()}
    if csp is not None:
        doc["csp_angles"] = csp.angles.tolist()
        if csp.phases is not None:
            doc["phases"] = csp.phases.tolist()
    return doc
