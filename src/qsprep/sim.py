"""Sparse-state simulator with dynamic qubit allocation.

The state holds only the nonzero amplitudes: ``_amp``, one complex entry
per branch, and ``_keys``, the branches' basis keys as a uint64 matrix of
one row per 64-bit key word and one column per branch.  Each live qubit
owns one bit position of the keys.  A freed qubit's bit is cleared and its
position reused by a later allocation (the lowest free one first), so keys
are as wide as the peak live count and no live position is ever
renumbered.  The circuits qsprep emits keep most live qubits as classical
functions of a few superposed ones (copy trees, one-hot addresses, flag
ladders), so the support stays small at widths no dense vector could hold;
this is the state-sparsity technique of Jaques & Häner, "Leveraging state
sparsity for more efficient quantum simulations" (2021).

A layer is applied an op group at a time from the circuit's columns
(:meth:`Circuit.groups`): permutations flip key bits and diagonal gates
multiply amplitudes, many gates per numpy call, and a mixing gate pairs
branches through one exact step, :meth:`SimState._split`, which also
splits off detached factors and lays out the dense vector.  A release
turns each seeded qubit to |0> with a mixing gate, then keeps the branches
whose released bits are all clear.  Memory follows the support times the
key width, so that product, counted in 64-bit key words, is the one bound
(``MAX_SUPPORT``); a state past it raises ``PeakQubitsExceeded`` before it
is built.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit_ir import DIRTY, Circuit
from .errors import DeallocNotZero, MalformedInput, NormDrift, OperandNotLive, PeakQubitsExceeded

#: Most 64-bit key words the state may hold: its support times
#: ceil(width / 64).  At widths up to 64 that is 2**22 branches of 24 bytes
#: (a key word and an amplitude); a mixing gate holds the old state, its
#: split and its new amplitudes at once: refusing one there peaks at 0.43 GB.
MAX_SUPPORT = 1 << 22

#: Gates x branches one chunk of a group's gates (or of the released qubits) covers:
#: its temporaries stay a few MB, and a state of up to 2**15 branches still takes two
#: rows or more per pass, so the per-chunk overhead does not fall on every row.
_CHUNK = 1 << 16

#: Amplitudes this small are rounding residue, such as cos(pi/2) after the
#: ry(pi) a sparse target needs, or a branch that cancelled inexactly.  They
#: are dropped after a mixing gate (a seeded allocation or release is one) or a
#: detach, so they do not grow the support.
_NEGLIGIBLE = 1e-15

#: Mass a released qubit may hold outside its expected state.
_DEALLOC_MASS = 1e-10

#: Drift of the state's norm from 1 allowed after any layer.
_NORM_DRIFT = 1e-9

#: Mass a detached register may hold outside its product factor.
_DETACH_DEFECT = 1e-8

#: op -> family.  The target is the last operand (the last two for "swap"), the
#: operands before are controls that must all be 1.  "flip" flips the target, "swap"
#: exchanges the two, "phase" multiplies by a phase per target value (``_PHASES``)
#: and "mix" applies a 2x2 unitary (:func:`_mixer`).
_FAMILY = {op: family for family, ops in (("flip", "x cnot toffoli"), ("swap", "swap cswap"),
                                          ("phase", "s sdg t tdg phase rz crz ccrz"), ("mix", "h ry cry ccry"))
           for op in ops.split()}

#: diagonal op -> its phases on target 0 and on target 1, given its angles (a column)
_PHASES = {
    "s": lambda theta: (1, 1j), "sdg": lambda theta: (1, -1j),
    "t": lambda theta: (1, cmath.exp(1j * math.pi / 4)), "tdg": lambda theta: (1, cmath.exp(-1j * math.pi / 4)),
    "phase": lambda theta: (1, np.exp(1j * theta)),
    **dict.fromkeys(("rz", "crz", "ccrz"), lambda theta: (np.exp(-0.5j * theta), np.exp(0.5j * theta))),
}
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_ONE, _WORD, _BIT = np.uint64(1), np.uint64(6), np.uint64(63)  # uint64, so key arithmetic converts no int


def _mixer(op: str, params: np.ndarray) -> np.ndarray:
    """A mixing gate's 2x2 unitary on its target, [new local value, old local value]."""
    if op == "h":
        return np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
    c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
    return np.array([[c, -s], [s, c]])


def _seed_turn(seed) -> np.ndarray:
    """A unitary taking |0> to the normalized seed (a0, a1): [[a0, -a1*], [a1, a0*]]."""
    a0, a1 = np.asarray(seed, dtype=complex) / np.linalg.norm(seed)
    return np.array([[a0, -a1.conjugate()], [a1, a0.conjugate()]])


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
    """Sparse state over a dynamic set of live qubits: branch j is basis key
    ``_keys[:, j]`` (word w holding bit positions 64w..64w+63) with amplitude
    ``_amp[j]``; no amplitude is negligible.

    ``_pos`` maps each live qubit id to its bit position, in allocation
    order; ``_free`` is a heap of the released positions below ``_width``.
    A new position is opened only when none is free, so ``_width`` is also
    the peak number of live qubits.
    """

    def __init__(self):
        self._pos: dict[int, int] = {}
        self._free: list[int] = []
        self._width = 0
        self._keys = np.zeros((0, 1), np.uint64)
        self._amp = np.ones(1, complex)

    @staticmethod
    def _bound(support: int, width: int) -> None:
        """Refuse a state of this many keys, each ``width`` bits wide, past ``MAX_SUPPORT`` key words."""
        words = -(-width // 64)
        if support * words > MAX_SUPPORT:
            raise PeakQubitsExceeded(f"state support {support} x {words} key words exceeds cap {MAX_SUPPORT}")

    def _places(self, qubits) -> tuple[np.ndarray, np.ndarray]:
        """Each live qubit's key word and the mask of its bit there, uint64 arrays shaped like ``qubits``."""
        qubits = np.asarray(qubits)
        try:
            pos = np.array(list(map(self._pos.__getitem__, qubits.ravel().tolist())), np.uint64).reshape(qubits.shape)
        except KeyError as e:
            raise OperandNotLive(f"qubit {e.args[0]} not live") from None
        return pos >> _WORD, _ONE << (pos & _BIT)

    def _forget(self, qubits: list[int]) -> None:
        """Drop these qubits, whose bits are clear in every key, and free their positions."""
        for q in qubits:
            heapq.heappush(self._free, self._pos.pop(q))

    def _chunks(self, words: np.ndarray, masks: np.ndarray):
        """Per chunk of the rows of ``words`` and ``masks`` (:meth:`_places`; a row is a gate's
        operands, or one released qubit), at most ``_CHUNK`` rows x branches: its first row,
        and where its places are 1 as (rows, places, branches), read when the chunk is reached."""
        step = max(1, _CHUNK // max(len(self._amp), 1))
        for lo in range(0, len(words), step):
            yield lo, self._keys[words[lo:lo + step]] & masks[lo:lo + step, ..., None] != 0

    def _split(self, words: np.ndarray, masks: np.ndarray, keys=None, amp=None) -> tuple[np.ndarray, np.ndarray]:
        """Group the branches (all, or the given ones) by their key outside some bits:
        bit t is ``masks[t]`` of key word ``words[t]``.

        Returns the R distinct rests, key words x R with those bits clear, and the
        amplitudes as a (2**len(words), R) matrix whose row i holds bit t of i at
        bit t.  Rests are told apart by exact comparison of their words (a sort),
        never by a hash; when the branches agree on those bits their keys are
        distinct, and so are their rests.
        """
        keys, amp = (self._keys, self._amp) if keys is None else (keys, amp)
        rest, set_ = keys.copy(), keys[words] & masks[:, None]
        for w, bit in zip(words, set_):
            rest[w] ^= bit
        local = (1 << np.arange(len(words))) @ (set_ != 0)
        if (local == local[:1]).all():
            inverse = np.arange(len(amp))
        else:
            rows, inverse = np.unique(np.ascontiguousarray(rest.T).view(f"V{8 * len(rest)}")[:, 0]
                                      if len(rest) > 1 else rest[0], return_inverse=True)
            rest = rows.view(np.uint64).reshape(-1, len(rest)).T
        mat = np.zeros((1 << len(words), rest.shape[1]), complex)
        mat[local, inverse] = amp
        return rest, mat

    def norm_defect(self) -> float:
        return abs(1.0 - float(np.vdot(self._amp, self._amp).real))

    def dominant_basis(self) -> tuple[int, float]:
        """(most likely basis key, its probability).

        Ties go to the lowest key read over the live qubits in allocation
        order, so the choice does not depend on the positions they took.
        """
        if not len(self._amp):
            return 0, 0.0
        mag = np.abs(self._amp)
        tied = np.flatnonzero(mag == mag.max())
        if len(tied) > 1:  # lexsort's last key, the latest qubit's bit, is its first
            words, masks = self._places(list(self._pos))
            tied = tied[np.lexsort(self._keys[:, tied][words] & masks[:, None] != 0)]
        return int.from_bytes(self._keys[:, tied[0]].astype("<u8").tobytes(), "little"), float(mag[tied[0]]) ** 2

    def statevector(self, order: list[int]) -> np.ndarray:
        """Dense amplitudes with order[t] owning bit t; order must be the live set."""
        if sorted(order) != sorted(self._pos):
            raise OperandNotLive("statevector order must match the live qubit set")
        words, masks = self._places(order)
        return self._split(words, masks)[1].sum(axis=1)  # one rest, the empty key

    # -- lifecycle ----------------------------------------------------------------

    def alloc(self, qubits: list[int], seeds: list | None = None) -> None:
        """Allocate qubits in order, each at the lowest free position, in |0> or in
        its seed (``seeds[i]`` for ``qubits[i]``, None for |0>).  A state past the
        bound is refused before it is built."""
        for q in qubits:
            if q in self._pos:
                raise OperandNotLive(f"qubit {q} already live")
            self._pos[q] = heapq.heappop(self._free) if self._free else self._width
            self._width = max(self._width, self._pos[q] + 1)
        self._bound(len(self._amp), self._width)
        grow = -(-self._width // 64) - len(self._keys)  # new key words
        if grow > 0:
            self._keys = np.vstack([self._keys, np.zeros((grow, len(self._amp)), np.uint64)])
        for q, seed in zip(qubits, seeds or ()):
            if seed is not None:  # from |0>, the bit clear in every branch, to the seed
                self._mix(_seed_turn(seed), *self._places([q]))

    def dealloc(self, qubits: list[int], seeds: list | None = None, enforce: bool = True) -> list[float]:
        """Contract qubits out in order, verifying each sits in |0> or in its seed
        (``seeds[i]`` for ``qubits[i]``, None for |0>).

        Returns each one's residual mass outside its expected state.  A seeded qubit
        is first turned so that its seed is |0> (a mixing gate); then each qubit's
        residual is the mass of the branches whose first set bit, in the given
        order, is its own, and the branches with none are the contracted state.
        """
        words, masks = self._places(qubits)
        for i, seed in enumerate(seeds or ()):
            if seed is not None:  # row 0 is <seed|, row 1 the state orthogonal to it
                self._mix(_seed_turn(seed).conj().T, words[i:i + 1], masks[i:i + 1])
        kept, mass, residuals = np.ones(len(self._amp), bool), np.abs(self._amp) ** 2, []
        for _, set_ in self._chunks(words[:, None], masks[:, None]):
            set_ = set_[:, 0] & kept  # of the branches no earlier qubit took
            hit = set_.any(axis=0)
            residuals += np.bincount(set_.argmax(axis=0), np.where(hit, mass, 0), len(set_)).tolist()
            kept &= ~hit
        self._keys, self._amp = self._keys[:, kept], self._amp[kept]
        for q, residual in zip(qubits, residuals):
            if residual > _DEALLOC_MASS and enforce:
                raise DeallocNotZero(q, residual)
        self._forget(qubits)
        return residuals

    def detach(self, order: list[int]) -> tuple[np.ndarray, float]:
        """Split off a product factor over the given qubits and drop them.

        Verifies the state factorizes (within tolerance) as factor x rest;
        returns (factor amplitudes little-endian over order, defect).
        """
        words, masks = self._places(order)
        rest, mat = self._split(words, masks)
        gram = mat @ mat.conj().T
        vals, vecs = np.linalg.eigh(gram)
        top = int(np.argmax(vals))
        total = float(np.trace(gram).real)
        defect = max(total - float(vals[top].real), 0.0)
        factor = vecs[:, top]
        anchor = int(np.argmax(np.abs(factor)))
        factor = factor * (np.abs(factor[anchor]) / factor[anchor])
        amp = factor.conj() @ mat
        kept = np.abs(amp) > _NEGLIGIBLE
        self._keys, self._amp = rest[:, kept], amp[kept]
        self._forget(order)
        return factor, defect

    # -- gates ---------------------------------------------------------------------

    def apply(self, layer: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        """Apply one layer, given as its (op, ids, params) groups (:meth:`Circuit.groups`)."""
        for op, ids, params in layer:
            (words, masks), family, mixing = self._places(ids), _FAMILY[op], []
            k = 2 if family == "swap" else 1
            for lo, set_ in self._chunks(words, masks):
                on = np.logical_and.reduce(set_[:, :-k], axis=1)  # per gate and branch: the controls are 1
                if family == "mix":  # one at a time, after the group's test: the others' controls stay
                    mixing += (lo + np.flatnonzero(on.any(axis=1))).tolist()
                elif family == "phase":
                    ph0, ph1 = _PHASES[op](params[lo:lo + len(on), :1])
                    self._amp *= np.where(on, np.where(set_[:, -1], ph1, ph0), 1).prod(axis=0)
                else:
                    if family == "swap":  # only where the targets differ
                        on &= set_[:, -1] != set_[:, -2]
                    hi = lo + len(on)
                    np.bitwise_xor.at(self._keys, words[lo:hi, -k:], on[:, None] * masks[lo:hi, -k:, None])
            for j in mixing:
                self._mix(_mixer(op, params[j]), words[j], masks[j])

    def _mix(self, u: np.ndarray, words: np.ndarray, masks: np.ndarray) -> None:
        """Apply the 2x2 ``u`` to the target, the last of the places ``words`` and ``masks``, of
        the branches whose controls, the others, are all 1: pair them on the target
        (:meth:`_split`), mix each pair and drop negligible amplitudes, refusing a state
        past the bound before it is built."""
        on = np.logical_and.reduce(self._keys[words[:-1]] & masks[:-1, None] != 0, axis=0)
        rest, mat = self._split(words[-1:], masks[-1:], self._keys[:, on], self._amp[on])
        new = u @ mat
        kept, off = np.abs(new) > _NEGLIGIBLE, ~on
        self._bound(np.count_nonzero(off) + np.count_nonzero(kept), self._width)
        one = rest[:, kept[1]]
        one[words[-1]] |= masks[-1]
        self._keys = np.concatenate([self._keys[:, off], rest[:, kept[0]], one], axis=1)
        self._amp = np.concatenate([self._amp[off], new[kept]])


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
    for after_layer, qs in detach_plan or ():
        detach_at.setdefault(after_layer, []).append(list(qs))

    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        released = [q for q in deallocs if c.alloc_layer(q) != t]
        if released:  # in id order, each against its expected state
            dirty = [c.kind(q) == DIRTY for q in released]
            residuals = state.dealloc(released, [seeds.get(q) if d else None for q, d in zip(released, dirty)],
                                      enforce=enforce_dealloc)
            report.ancilla_verdicts += [(q, t, residual) for q, residual in zip(released, residuals)]
            report.dirty_restoration += [(q, residual <= _DEALLOC_MASS)
                                         for q, d, residual in zip(released, dirty, residuals) if d]
        born = [q for q in allocs if c.dealloc_layer(q) != t]
        state.alloc(born, [seeds.get(q) for q in born])
        if t == L:
            break
        state.apply(c.groups(t))
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
