"""Sparse-state simulator with dynamic qubit allocation.

The state is a map from basis key to amplitude that holds only the
nonzero entries.  Each live qubit owns one bit position of the keys.  A
freed qubit's bit is cleared and its position reused by a later
allocation (the lowest free one first), so keys are as wide as the peak
live count and no live position is ever renumbered.  The circuits qsprep
emits keep most live qubits as classical functions of a few superposed
ones (copy trees, one-hot addresses, flag ladders), so the map stays
small at widths no dense vector could hold; this is the state-sparsity
technique of Jaques & Häner, "Leveraging state sparsity for more
efficient quantum simulations" (2021).  Allocation tensor-extends the
state with |0> (or the qubit's seed); deallocation verifies the qubit is
disentangled in the expected state and contracts it out.  Memory follows
the support times the key width, so that product, counted in 64-bit key
words, is the one bound (``MAX_SUPPORT``); passing it raises
``PeakQubitsExceeded``.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .circuit_ir import DIRTY, Circuit, Gate
from .errors import (
    DeallocNotZero,
    MalformedInput,
    NormDrift,
    OperandNotLive,
    PeakQubitsExceeded,
)

#: Most 64-bit key words the state may hold: its support times
#: ceil(width / 64).  At widths up to 64 that is 2**22 keys; an entry takes
#: 100-130 bytes and a gate holds the old and the new map at once, so about
#: 1 GiB.
MAX_SUPPORT = 1 << 22

#: Keys of the old map a gate moves between two checks of the new map's support
_STEP = 1 << 14

#: Amplitudes this small are rounding residue, such as cos(pi/2) after the
#: ry(pi) a sparse target needs, or a branch that cancelled inexactly.  They
#: are dropped after a mixing gate or a contraction, so they do not grow the
#: support.
_NEGLIGIBLE = 1e-15

#: Mass a released qubit may hold outside its expected state.
_DEALLOC_MASS = 1e-10

#: Drift of the state's norm from 1 allowed after any layer.
_NORM_DRIFT = 1e-9

#: Mass a detached register may hold outside its product factor.
_DETACH_DEFECT = 1e-8

_DIAG_PHASE = {
    "s": 1j,
    "sdg": -1j,
    "t": cmath.exp(1j * math.pi / 4),
    "tdg": cmath.exp(-1j * math.pi / 4),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _target_columns(op: str, params: tuple) -> tuple:
    """Columns of a gate's unitary on its target operands.

    The targets are the last operand (the last two for swap and cswap); the
    operands before them are controls that must all be 1.  Column i lists
    the (row, entry) pairs of the nonzero entries, target t owning bit t of
    the row and column index.
    """
    if op in ("x", "cnot", "toffoli"):
        return ((1, 1.0),), ((0, 1.0),)
    if op in ("swap", "cswap"):
        return ((0, 1.0),), ((2, 1.0),), ((1, 1.0),), ((3, 1.0),)
    if op == "h":
        return ((0, _SQRT_HALF), (1, _SQRT_HALF)), ((0, _SQRT_HALF), (1, -_SQRT_HALF))
    if op in ("ry", "cry", "ccry"):
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return ((0, c), (1, s)), ((0, -s), (1, c))
    if op in ("rz", "crz", "ccrz"):
        ph = cmath.exp(0.5j * params[0])
        return ((0, ph.conjugate()),), ((1, ph),)
    ph = cmath.exp(1j * params[0]) if op == "phase" else _DIAG_PHASE[op]
    return ((0, 1.0),), ((1, ph),)


def _seed_pair(seed) -> tuple[complex, complex]:
    """Normalized single-qubit amplitudes (a0, a1); None is |0>."""
    if seed is None:
        return 1.0 + 0j, 0.0 + 0j
    sv = np.asarray(seed, dtype=complex)
    sv = sv / np.linalg.norm(sv)
    return complex(sv[0]), complex(sv[1])


def _prune(amp: dict) -> None:
    """Drop the negligible entries of ``amp``, in place."""
    for key in [key for key, a in amp.items() if abs(a) <= _NEGLIGIBLE]:
        del amp[key]


def _mass(amp: dict) -> float:
    v = np.fromiter(amp.values(), dtype=complex, count=len(amp))
    return float(np.vdot(v, v).real)


@dataclass
class SimReport:
    fidelity: float | None
    ancilla_verdicts: list = field(default_factory=list)  # (qubit id, layer, residual mass)
    peak_live_qubits: int = 0
    dirty_restoration: list = field(default_factory=list)  # (qubit id, restored ok)
    norm_defect: float = 0.0
    detached: list = field(default_factory=list)  # product factors split off by detach_plan, in order

    def to_json(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "ancilla_verdicts": [[qid, layer, mass] for qid, layer, mass in self.ancilla_verdicts],
            "peak_live_qubits": self.peak_live_qubits,
            "dirty_restoration": [[qid, bool(ok)] for qid, ok in self.dirty_restoration],
            "norm_defect": self.norm_defect,
        }


class SimState:
    """Sparse state {basis key: amplitude} over a dynamic set of live qubits.

    ``_pos`` maps each live qubit id to its bit position, in allocation
    order; ``_free`` is a heap of the released positions below ``_width``.
    A new position is opened only when none is free, so ``_width`` is also
    the peak number of live qubits.
    """

    def __init__(self):
        self._pos: dict[int, int] = {}
        self._free: list[int] = []
        self._width = 0
        self._amp: dict[int, complex] = {0: 1.0 + 0j}

    @property
    def num_live(self) -> int:
        return len(self._pos)

    def _store(self, amp: dict, prune: bool) -> None:
        if prune:
            _prune(amp)
        self._bound(len(amp), self._width)
        self._amp = amp

    @staticmethod
    def _bound(support: int, width: int) -> None:
        """Refuse a state of this many keys, each ``width`` bits wide, past ``MAX_SUPPORT`` key words."""
        words = -(-width // 64)
        if support * words > MAX_SUPPORT:
            raise PeakQubitsExceeded(f"state support {support} x {words} key words exceeds cap {MAX_SUPPORT}")

    def _forget(self, qubits: list[int]) -> None:
        """Drop these qubits, whose bits are clear in every key, and free their positions."""
        for q in qubits:
            heapq.heappush(self._free, self._pos.pop(q))

    def norm_defect(self) -> float:
        return abs(1.0 - _mass(self._amp))

    def dominant_basis(self) -> tuple[int, float]:
        """(most likely basis key, its probability).

        Ties go to the lowest key read over the live qubits in allocation
        order, so the choice does not depend on the positions they took.
        """
        if not self._amp:
            return 0, 0.0
        top = max(map(abs, self._amp.values()))
        tied = [key for key, a in self._amp.items() if abs(a) == top]
        positions = list(self._pos.values())
        key = min(tied, key=lambda k: sum(((k >> p) & 1) << t for t, p in enumerate(positions)))
        return key, top ** 2

    def statevector(self, order: list[int]) -> np.ndarray:
        """Dense amplitudes with order[t] owning bit t; order must be the live set."""
        if sorted(order) != sorted(self._pos):
            raise OperandNotLive("statevector order must match the live qubit set")
        out = np.zeros(1 << len(order), dtype=complex)
        keys = np.fromiter(self._amp, dtype=np.int64, count=len(self._amp))
        index = np.zeros_like(keys)
        for t, q in enumerate(order):
            index |= ((keys >> self._pos[q]) & 1) << t
        out[index] = np.fromiter(self._amp.values(), dtype=complex, count=len(self._amp))
        return out

    # -- lifecycle ----------------------------------------------------------------

    def alloc(self, q: int, seed=None) -> None:
        if q in self._pos:
            raise OperandNotLive(f"qubit {q} already live")
        if self._free:
            p = heapq.heappop(self._free)
        else:  # the keys widen by one bit
            p = self._width
            self._width += 1
            self._bound(len(self._amp), self._width)
        self._pos[q] = p
        if seed is not None:
            s0, s1 = _seed_pair(seed)
            bit = 1 << p
            amp = {k: s0 * a for k, a in self._amp.items()} if s0 else {}
            if s1:
                amp.update((k | bit, s1 * a) for k, a in self._amp.items())
            self._store(amp, prune=False)

    def dealloc(self, q: int, seed=None, enforce: bool = True) -> float:
        """Contract a qubit out, verifying it sits in |0> (or the dirty seed).

        Returns the residual mass outside the expected state.
        """
        p = self._pos.get(q)
        if p is None:
            raise OperandNotLive(f"qubit {q} not live")
        s0, s1 = _seed_pair(seed)
        weights = (s0.conjugate(), s1.conjugate())
        clear = ~(1 << p)
        comp: dict[int, complex] = {}
        for key, a in self._amp.items():
            w = weights[(key >> p) & 1]
            if w:
                rest = key & clear
                comp[rest] = comp.get(rest, 0) + w * a
        residual = max(_mass(self._amp) - _mass(comp), 0.0)
        if residual > _DEALLOC_MASS and enforce:
            raise DeallocNotZero(q, residual)
        self._store(comp, prune=True)
        self._forget([q])
        return residual

    def detach(self, order: list[int]) -> tuple[np.ndarray, float]:
        """Split off a product factor over the given qubits and drop them.

        Verifies the state factorizes (within tolerance) as factor x rest;
        returns (factor amplitudes little-endian over order, defect).
        """
        positions = [self._pos[q] for q in order]
        clear = ~sum(1 << p for p in positions)
        rows: dict[int, int] = {}
        entries = []
        for key, a in self._amp.items():
            rest = key & clear
            local = sum(((key >> p) & 1) << t for t, p in enumerate(positions))
            entries.append((local, rows.setdefault(rest, len(rows)), a))
        mat = np.zeros((1 << len(order), len(rows)), dtype=complex)
        for local, col, a in entries:
            mat[local, col] = a
        gram = mat @ mat.conj().T
        vals, vecs = np.linalg.eigh(gram)
        top = int(np.argmax(vals))
        total = float(np.trace(gram).real)
        defect = max(total - float(vals[top].real), 0.0)
        factor = vecs[:, top]
        anchor = int(np.argmax(np.abs(factor)))
        factor = factor * (np.abs(factor[anchor]) / factor[anchor])
        rest_amps = factor.conj() @ mat
        self._store({rest: complex(rest_amps[col]) for rest, col in rows.items()}, prune=True)
        self._forget(order)
        return factor, defect

    # -- gates ---------------------------------------------------------------------

    def apply(self, g: Gate) -> None:
        pos = []
        for q in g.qubits:
            p = self._pos.get(q)
            if p is None:
                raise OperandNotLive(f"qubit {q} not live")
            pos.append(p)
        cols = _target_columns(g.op, g.params)
        k = len(cols).bit_length() - 1  # number of target operands
        cmask = sum(1 << p for p in pos[:-k])
        deposit = [sum(1 << p for t, p in enumerate(pos[-k:]) if (j >> t) & 1)
                   for j in range(len(cols))]
        tmask = deposit[-1]
        moves = {deposit[i]: [(deposit[j], u) for j, u in col if u] for i, col in enumerate(cols)}
        mixing = any(len(m) > 1 for m in moves.values())
        # only a mixing gate grows the support: its new map is checked against the bound
        # every _STEP keys, pruned once past it, and refused while it is still over
        limit = MAX_SUPPORT // -(-self._width // 64)
        new: dict[int, complex] = {}
        items = iter(self._amp.items())
        for _ in range(0, len(self._amp), _STEP):
            for key, a in islice(items, _STEP):
                if key & cmask != cmask:
                    new[key] = a
                    continue
                src = key & tmask
                rest = key ^ src
                for dst, u in moves[src]:
                    dst |= rest
                    new[dst] = new.get(dst, 0) + u * a
            if mixing and len(new) > limit:
                _prune(new)
                self._bound(len(new), self._width)
        self._store(new, prune=mixing)


def run(
    c: Circuit,
    seeds: dict[int, object] | None = None,
    target=None,
    target_order: list[int] | None = None,
    detach_plan: list[tuple[int, list[int]]] | None = None,
    enforce_dealloc: bool = True,
) -> tuple[SimReport, SimState]:
    """Execute a circuit layer by layer.

    seeds maps qubit ids to single-qubit states (a0, a1): a qubit is
    allocated in its seed, |0> by default.  A dirty qubit must be released
    in its seed and a clean one in |0>.  detach_plan lists (after_layer,
    qubits) product factors to split off mid-run, used by the multi-copy
    scheduler to keep the live width bounded.  A target needs a
    target_order of log2(len(target)) qubits, checked before the run; the
    report then carries |<target|final restricted state>|.  A qubit with
    an empty lifetime (alloc layer = dealloc layer) is never live, as in
    the accounting.
    """
    if target is not None:
        width = len(target_order or ())
        if len(target) != 1 << width:
            raise MalformedInput(f"target has {len(target)} amplitudes but target_order {width} qubits")
    seeds = seeds or {}
    c = c.compact()
    state = SimState()
    report = SimReport(fidelity=None)
    L = c.num_layers()
    detach_at: dict[int, list[list[int]]] = {}
    if detach_plan:
        for after_layer, qs in detach_plan:
            detach_at.setdefault(after_layer, []).append(list(qs))

    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        for q in deallocs:
            if c.alloc_layer(q) == t:
                continue
            dirty = c.kind(q) == DIRTY
            residual = state.dealloc(q, seed=seeds.get(q) if dirty else None, enforce=enforce_dealloc)
            report.ancilla_verdicts.append((q, t, residual))
            if dirty:
                report.dirty_restoration.append((q, residual <= _DEALLOC_MASS))
        for q in allocs:
            if c.dealloc_layer(q) != t:
                state.alloc(q, seed=seeds.get(q))
        if t == L:
            break
        for g in c.gates(t):
            state.apply(g)
        if enforce_dealloc:
            defect = state.norm_defect()
            if defect > _NORM_DRIFT:
                raise NormDrift(f"norm defect {defect:.3e} after layer {t}")
        for qs in detach_at.get(t, []):
            factor, defect = state.detach(qs)
            if defect > _DETACH_DEFECT:
                raise DeallocNotZero(tuple(qs), defect,
                                     f"detached register not a product factor (defect {defect:.3e})")
            report.detached.append(factor)

    report.peak_live_qubits = state._width
    report.norm_defect = state.norm_defect()
    if target is not None:
        out = state.statevector(target_order)
        tvec = np.asarray(target, dtype=complex)
        tvec = tvec / np.linalg.norm(tvec)
        report.fidelity = float(abs(np.vdot(tvec, out)))
    return report, state

